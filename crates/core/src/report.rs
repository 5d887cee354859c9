//! Plain-text rendering of every regenerated table and figure, in the
//! same rows/series layout the paper reports.

use crate::experiments::rowactive::RowActiveAnalysis;
use crate::experiments::spatial::{
    ColumnMap, ColumnVariation, RowVariation, SimilarityCdf, SubarrayPoint,
};
use crate::experiments::temperature::{
    BerVsTemperature, HcFirstVsTemperature, TempRangeAnalysis,
};
use crate::observations::ObservationCheck;
use rh_dram::{tested_modules, DramStandard, PatternKind};
use rh_stats::{Ecdf, LinearFit};
use std::fmt::Write as _;

/// Table 1: the data patterns.
pub fn table1() -> String {
    let mut s = String::from(
        "Table 1: Data patterns used in the RowHammer analyses\n\
         row address        colstripe  checkered  rowstripe  random\n",
    );
    let _ = writeln!(s, "V +- [0,2,4,6,8]   0x55       0x55       0x00       random");
    let _ = writeln!(s, "V +- [1,3,5,7]     0x55       0xaa       0xff       random");
    let _ = writeln!(s, "(complements of the first three are also tested)");
    let _ = writeln!(
        s,
        "patterns: {}",
        PatternKind::ALL.map(|p| p.name()).join(", ")
    );
    s
}

/// Tables 2 and 4: the tested-module population.
pub fn table2() -> String {
    let mut s = String::from(
        "Table 2/4: Tested DRAM modules\n\
         label    mfr     std   chips  density  die  org  freq  date\n",
    );
    for m in tested_modules() {
        let _ = writeln!(
            s,
            "{:8} {:7} {:5} {:6} {:8} {:4} {:4} {:5} {}",
            m.label,
            m.manufacturer.to_string(),
            match m.standard {
                DramStandard::Ddr4 => "DDR4",
                DramStandard::Ddr3 => "DDR3",
            },
            m.chips,
            m.density.to_string(),
            m.die_revision,
            m.org.to_string(),
            m.freq_mts,
            m.date_code,
        );
    }
    s
}

/// Table 3: percentage of vulnerable cells flipping at all temperature
/// points within their range, per manufacturer.
pub fn table3(per_mfr: &[(&str, &TempRangeAnalysis)]) -> String {
    let mut s = String::from(
        "Table 3: vulnerable cells flipping at ALL temperature points in their range\n",
    );
    for (label, a) in per_mfr {
        let _ = writeln!(
            s,
            "{label}: {:.1}%  (1 gap: {:.2}%, cells observed: {})",
            a.no_gap_fraction * 100.0,
            a.one_gap_fraction * 100.0,
            a.vulnerable_cells
        );
    }
    s
}

/// Fig. 3: the vulnerable-temperature-range population grid of one
/// manufacturer.
pub fn fig3(label: &str, a: &TempRangeAnalysis) -> String {
    let n = a.grid.len();
    let mut s = format!(
        "Fig. 3 ({label}): population by vulnerable temperature range\n\
         rows = upper limit, cols = lower limit (°C); % of vulnerable cells\n      "
    );
    for t in &a.grid {
        let _ = write!(s, "{:>6.0}", t);
    }
    s.push('\n');
    for hi in (0..n).rev() {
        let _ = write!(s, "{:>5.0} ", a.grid[hi]);
        for lo in 0..n {
            if lo > hi {
                let _ = write!(s, "{:>6}", "");
            } else {
                let f = a.cluster_fraction[lo][hi] * 100.0;
                if f == 0.0 {
                    let _ = write!(s, "{:>6}", ".");
                } else {
                    let _ = write!(s, "{:>6.1}", f);
                }
            }
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "no gaps: {:.2}%  1 gap: {:.2}%  narrow(<=5C): {:.2}%  all-temps: {:.1}%",
        a.no_gap_fraction * 100.0,
        a.one_gap_fraction * 100.0,
        a.narrow_fraction * 100.0,
        a.full_range_fraction * 100.0
    );
    s
}

/// Fig. 4: BER percentage change with temperature, distances −2/0/+2.
pub fn fig4(label: &str, f: &BerVsTemperature) -> String {
    let mut s = format!("Fig. 4 ({label}): BER change vs 50°C (mean [95% CI])\n temp  ");
    for d in &f.series {
        let _ = write!(s, "      dist {:+}        ", d.distance);
    }
    s.push('\n');
    for (i, t) in f.grid.iter().enumerate() {
        let _ = write!(s, "{:>5.0}C", t);
        for d in &f.series {
            let c = &d.change_pct[i];
            let _ = write!(s, "  {:+7.1}% [{:+6.1},{:+6.1}]", c.center, c.lo, c.hi);
        }
        s.push('\n');
    }
    s
}

/// Fig. 5: HCfirst change distribution with temperature.
pub fn fig5(label: &str, f: &HcFirstVsTemperature) -> String {
    let mut s = format!("Fig. 5 ({label}): HCfirst change across rows\n");
    let _ = writeln!(
        s,
        "50->55°C: {} rows, zero-crossing at P{:.0}",
        f.change_50_to_55.len(),
        f.crossing_55
    );
    let _ = writeln!(
        s,
        "50->90°C: {} rows, zero-crossing at P{:.0}",
        f.change_50_to_90.len(),
        f.crossing_90
    );
    let _ = writeln!(s, "cumulative |change| ratio (ΔT=40 / ΔT=5): {:.1}x", f.magnitude_ratio);
    for (name, c) in [("50->55", &f.change_50_to_55), ("50->90", &f.change_50_to_90)] {
        let (Some(max), Some(min)) = (c.first(), c.last()) else {
            continue;
        };
        // Non-empty is guaranteed by the guard above; NaN would flag a
        // broken invariant instead of printing a fake zero.
        let _ = writeln!(
            s,
            "{name}: max {:+.1}%  median {:+.1}%  min {:+.1}%",
            max,
            rh_stats::median(c).unwrap_or(f64::NAN),
            min
        );
    }
    s
}

/// Figs. 7/9: BER distributions across a timing sweep (box plots).
pub fn fig_ber_sweep(figure: &str, label: &str, a: &RowActiveAnalysis, on: bool) -> String {
    let sweep = if on { &a.on_sweep } else { &a.off_sweep };
    let name = if on { "tAggOn" } else { "tAggOff" };
    let mut s = format!("{figure} ({label}): bit flips per row vs {name}\n");
    let _ = writeln!(s, "{:>9}  {:>8} {:>8} {:>8} {:>8} {:>8}  mean", name, "lo", "q1", "med", "q3", "hi");
    for p in sweep {
        let b = &p.ber_box;
        let _ = writeln!(
            s,
            "{:>7.1}ns  {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}  {:.1}",
            p.timing as f64 / 1000.0,
            b.whisker_lo,
            b.q1,
            b.median,
            b.q3,
            b.whisker_hi,
            p.mean_ber()
        );
    }
    if on {
        let _ = writeln!(s, "BER gain at max tAggOn: {:.1}x", a.ber_gain_on());
    } else {
        let _ = writeln!(s, "BER drop at max tAggOff: {:.1}x", a.ber_drop_off());
    }
    s
}

/// Figs. 8/10: HCfirst distributions across a timing sweep
/// (letter-value plots).
pub fn fig_hc_sweep(figure: &str, label: &str, a: &RowActiveAnalysis, on: bool) -> String {
    let sweep = if on { &a.on_sweep } else { &a.off_sweep };
    let name = if on { "tAggOn" } else { "tAggOff" };
    let mut s = format!("{figure} ({label}): HCfirst vs {name}\n");
    let _ = writeln!(s, "{:>9}  {:>9} {:>9} {:>9}  boxes", name, "oct-lo", "median", "oct-hi");
    for p in sweep {
        let lv = &p.hc_letter;
        let (olo, ohi) = lv
            .boxes
            .get(1)
            .map(|b| (b.lower, b.upper))
            .or_else(|| lv.boxes.first().map(|b| (b.lower, b.upper)))
            .unwrap_or((0.0, 0.0));
        let _ = writeln!(
            s,
            "{:>7.1}ns  {:>9.0} {:>9.0} {:>9.0}  {}",
            p.timing as f64 / 1000.0,
            olo,
            lv.median,
            ohi,
            lv.boxes.len()
        );
    }
    if on {
        let _ = writeln!(s, "HCfirst reduction at max tAggOn: {:.1}%", a.hc_reduction_on() * 100.0);
    } else {
        let _ = writeln!(s, "HCfirst increase at max tAggOff: {:.1}%", a.hc_increase_off() * 100.0);
    }
    s
}

/// Fig. 11: the per-row HCfirst distribution of one module.
pub fn fig11(label: &str, rv: &RowVariation) -> String {
    let mut s = format!("Fig. 11 ({label}): HCfirst across rows (sorted descending)\n");
    let _ = writeln!(s, "vulnerable rows: {}", rv.rows.len());
    if rv.sorted_desc.is_empty() {
        let _ = writeln!(s, "no vulnerable rows below the search cap; percentiles unavailable");
        return s;
    }
    let _ = writeln!(s, "min HCfirst: {:.0}", rv.min_hc());
    for p in [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        let _ = writeln!(
            s,
            "P{:<3.0} {:>9.0}  ({:.2}x min)",
            p,
            rh_stats::percentile(&rv.sorted_desc, 100.0 - p).unwrap_or(f64::NAN),
            rv.percentile_factor(p)
        );
    }
    s
}

/// Fig. 12: summary of the per-chip column flip map.
pub fn fig12(label: &str, cm: &ColumnMap) -> String {
    let mut s = format!("Fig. 12 ({label}): bit flips across columns\n");
    let _ = writeln!(s, "zero-flip chip-columns: {:.2}%", cm.zero_fraction() * 100.0);
    let _ = writeln!(s, "max flips in one chip-column: {}", cm.max_count());
    for (chip, cols) in cm.counts.iter().enumerate() {
        let total: u64 = cols.iter().sum();
        let nz = cols.iter().filter(|&&c| c > 0).count();
        let _ = writeln!(s, "chip {chip}: {total:>6} flips across {nz:>4} columns");
    }
    s
}

/// Fig. 13: the column relative-vulnerability vs cross-chip-CV grid.
pub fn fig13(label: &str, cv: &ColumnVariation) -> String {
    let mut s = format!(
        "Fig. 13 ({label}): columns by relative vulnerability (rows) vs CV across chips (cols)\n"
    );
    for y in (0..cv.hist.ybins()).rev() {
        let _ = write!(s, "{:>4.1} ", (y as f64 + 0.5) / cv.hist.ybins() as f64);
        for x in 0..cv.hist.xbins() {
            let f = cv.hist.fraction(x, y) * 100.0;
            if f == 0.0 {
                let _ = write!(s, "{:>6}", ".");
            } else {
                let _ = write!(s, "{:>5.1}%", f);
            }
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "low-CV (design-consistent): {:.1}%   CV>=1 (process-dominated): {:.1}%",
        cv.cv_low_fraction * 100.0,
        cv.cv_one_fraction * 100.0
    );
    s
}

/// Fig. 14: per-subarray min-vs-avg HCfirst with the fitted line.
pub fn fig14(label: &str, points: &[SubarrayPoint], fit: Option<LinearFit>) -> String {
    let mut s = format!("Fig. 14 ({label}): subarray min vs avg HCfirst\n");
    for p in points.iter().take(24) {
        let _ = writeln!(s, "subarray {:>4}: avg {:>9.0}  min {:>9.0}", p.subarray, p.avg, p.min);
    }
    if points.len() > 24 {
        let _ = writeln!(s, "... ({} subarrays total)", points.len());
    }
    match fit {
        Some(f) => {
            let _ = writeln!(s, "fit: y = {:.2}x + {:.0}   R2: {:.2}", f.slope, f.intercept, f.r2);
        }
        None => {
            let _ = writeln!(s, "fit: insufficient points");
        }
    }
    s
}

/// Fig. 15: the BD_norm cumulative distributions.
pub fn fig15(label: &str, sim: &SimilarityCdf) -> String {
    let mut s = format!("Fig. 15 ({label}): normalized Bhattacharyya distance CDFs\n");
    for (name, xs) in [("same module", &sim.same_module), ("different modules", &sim.cross_module)]
    {
        if xs.is_empty() {
            let _ = writeln!(s, "{name}: no pairs");
            continue;
        }
        let e = Ecdf::new(xs.clone());
        let _ = writeln!(
            s,
            "{name}: n={:<4} P5 {:.3}  median {:.3}  P95 {:.3}",
            e.len(),
            rh_stats::percentile(xs, 5.0).unwrap_or(f64::NAN),
            rh_stats::median(xs).unwrap_or(f64::NAN),
            rh_stats::percentile(xs, 95.0).unwrap_or(f64::NAN),
        );
    }
    if !sim.same_module_ks.is_empty() && !sim.cross_module_ks.is_empty() {
        let _ = writeln!(
            s,
            "KS distance (median): same module {:.3}, different modules {:.3}",
            rh_stats::median(&sim.same_module_ks).unwrap_or(f64::NAN),
            rh_stats::median(&sim.cross_module_ks).unwrap_or(f64::NAN),
        );
    }
    s
}

/// Renders a list of observation checks.
pub fn observations(checks: &[ObservationCheck]) -> String {
    let mut s = String::from("Observation checks\n");
    for c in checks {
        let _ = writeln!(
            s,
            "Obsv.{:>2} [{}] {} — {}",
            c.id,
            match c.passed {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "n/a",
            },
            c.statement,
            c.detail
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("colstripe"));
        assert!(t1.contains("0xaa"));
        let t2 = table2();
        assert!(t2.contains("A0"));
        assert!(t2.contains("DDR3"));
        assert!(t2.contains("Mfr. D"));
    }

    #[test]
    fn fig3_grid_renders_percentages() {
        let a = TempRangeAnalysis {
            grid: vec![50.0, 55.0],
            cluster_fraction: vec![vec![0.5, 0.25], vec![0.0, 0.25]],
            no_gap_fraction: 0.99,
            one_gap_fraction: 0.01,
            narrow_fraction: 0.75,
            full_range_fraction: 0.25,
            vulnerable_cells: 4,
        };
        let s = fig3("Mfr. T", &a);
        assert!(s.contains("50.0"));
        assert!(s.contains("no gaps: 99.00%"));
        let t3 = table3(&[("Mfr. T", &a)]);
        assert!(t3.contains("99.0%"));
    }
}
