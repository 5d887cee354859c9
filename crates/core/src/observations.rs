//! Programmatic checks of the paper's sixteen observations against
//! regenerated experiment data. Each check returns an
//! [`ObservationCheck`] carrying the measured quantity so reports can
//! print paper-vs-measured side by side.

use crate::experiments::rowactive::RowActiveAnalysis;
use crate::experiments::spatial::{ColumnMap, ColumnVariation, RowVariation, SimilarityCdf, SubarrayPoint};
use crate::experiments::temperature::{BerVsTemperature, HcFirstVsTemperature, TempRangeAnalysis};
use serde::{Deserialize, Serialize};

/// The outcome of checking one paper observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationCheck {
    /// Observation number (1–16, as in the paper).
    pub id: u8,
    /// One-line statement of the observation.
    pub statement: &'static str,
    /// Whether the regenerated data supports it; `None` when the sample
    /// is too small for the test to decide.
    pub passed: Option<bool>,
    /// The measured quantity backing the verdict.
    pub detail: String,
}

fn check(id: u8, statement: &'static str, passed: bool, detail: String) -> ObservationCheck {
    ObservationCheck { id, statement, passed: Some(passed), detail }
}

/// The fewest rows Obsv. 12 decides on. Its P99 row of Fig. 11 leaves
/// 1 % of the rows more vulnerable, so that 1 % holds a row only from
/// 100 rows up (its P95 row needs 20).
const OBSV12_MIN_ROWS: usize = 100;

/// Obsv. 1: cells flip at every temperature point within their range
/// (the paper: 98–99.2 % with no gaps).
pub fn obsv1(a: &TempRangeAnalysis) -> ObservationCheck {
    check(
        1,
        "cells are vulnerable in a continuous temperature range",
        a.no_gap_fraction >= 0.95,
        format!("no-gap fraction {:.1}%", a.no_gap_fraction * 100.0),
    )
}

/// Obsv. 2: a significant fraction of cells flip at all tested
/// temperatures (the paper: 9.6–29.8 %).
pub fn obsv2(a: &TempRangeAnalysis) -> ObservationCheck {
    check(
        2,
        "a significant fraction of cells is vulnerable at all tested temperatures",
        a.full_range_fraction >= 0.05,
        format!("full-range fraction {:.1}%", a.full_range_fraction * 100.0),
    )
}

/// Obsv. 3: some cells are vulnerable only in a narrow (≤5 °C) range.
pub fn obsv3(a: &TempRangeAnalysis) -> ObservationCheck {
    check(
        3,
        "some cells are vulnerable only in a narrow temperature range",
        a.narrow_fraction > 0.0,
        format!("single-grid-point fraction {:.2}%", a.narrow_fraction * 100.0),
    )
}

/// Obsv. 4: the BER temperature trend is manufacturer-dependent
/// (checks that this module's victim-row trend is significant in
/// either direction).
pub fn obsv4(f: &BerVsTemperature) -> ObservationCheck {
    let victim = &f.series[1];
    let last = victim.change_pct.last().map(|c| c.center).unwrap_or(0.0);
    check(
        4,
        "BER changes with temperature (direction depends on manufacturer)",
        last.abs() > 5.0,
        format!("BER change at 90C vs 50C: {last:+.1}%"),
    )
}

/// Obsv. 5: rows show both higher and lower HCfirst as temperature
/// rises.
pub fn obsv5(f: &HcFirstVsTemperature) -> ObservationCheck {
    let both = f.crossing_90 > 0.0 && f.crossing_90 < 100.0;
    check(
        5,
        "rows can show either higher or lower HCfirst when temperature increases",
        both,
        format!("{:.0}% of rows increased HCfirst at 90C", f.crossing_90),
    )
}

/// Obsv. 6: HCfirst tends to decrease for larger temperature deltas
/// (crossing percentile shifts left from ΔT=5 to ΔT=40).
pub fn obsv6(f: &HcFirstVsTemperature) -> ObservationCheck {
    check(
        6,
        "HCfirst tends to decrease as the temperature change grows",
        f.crossing_90 <= f.crossing_55 + 10.0,
        format!("crossing P{:.0} (ΔT=5) vs P{:.0} (ΔT=40)", f.crossing_55, f.crossing_90),
    )
}

/// Obsv. 7: the HCfirst change magnitude grows with the temperature
/// delta (the paper: ≈4×).
pub fn obsv7(f: &HcFirstVsTemperature) -> ObservationCheck {
    check(
        7,
        "larger temperature change causes larger HCfirst change",
        f.magnitude_ratio > 1.5,
        format!("cumulative |change| ratio ΔT40/ΔT5 = {:.1}x", f.magnitude_ratio),
    )
}

/// Obsv. 8: longer tAggOn → more flips at lower hammer counts.
pub fn obsv8(a: &RowActiveAnalysis) -> ObservationCheck {
    check(
        8,
        "longer aggressor on-time increases BER and reduces HCfirst",
        a.ber_gain_on() > 1.5 && a.hc_reduction_on() > 0.1,
        format!("BER x{:.1}, HCfirst -{:.1}%", a.ber_gain_on(), a.hc_reduction_on() * 100.0),
    )
}

/// Obsv. 9: the worsening with tAggOn is consistent across rows (BER
/// CV does not grow).
pub fn obsv9(a: &RowActiveAnalysis) -> ObservationCheck {
    check(
        9,
        "vulnerability worsens consistently as tAggOn increases",
        a.ber_cv_change_on() < 0.25,
        format!("BER CV change {:+.0}%", a.ber_cv_change_on() * 100.0),
    )
}

/// Obsv. 10: longer tAggOff → fewer flips at higher hammer counts.
pub fn obsv10(a: &RowActiveAnalysis) -> ObservationCheck {
    check(
        10,
        "longer precharged time decreases BER and increases HCfirst",
        a.ber_drop_off() > 1.5 && a.hc_increase_off() > 0.1,
        format!("BER /{:.1}, HCfirst +{:.1}%", a.ber_drop_off(), a.hc_increase_off() * 100.0),
    )
}

/// Obsv. 11: the reduction with tAggOff is consistent across rows.
pub fn obsv11(a: &RowActiveAnalysis) -> ObservationCheck {
    let first = a.off_sweep.first().map(|p| rh_stats::coefficient_of_variation(&p.hc_first));
    let last = a.off_sweep.last().map(|p| rh_stats::coefficient_of_variation(&p.hc_first));
    let (f, l) = (first.unwrap_or(0.0), last.unwrap_or(0.0));
    check(
        11,
        "vulnerability reduction is consistent across rows as tAggOff increases",
        l <= f + 0.1,
        format!("HCfirst CV {f:.2} -> {l:.2}"),
    )
}

/// Obsv. 12: a small fraction of rows is much more vulnerable (the
/// paper: P99/P95/P90 at ≥1.6×/2.0×/2.2× the most vulnerable row).
pub fn obsv12(rv: &RowVariation) -> ObservationCheck {
    let p99 = rv.percentile_factor(99.0);
    let p95 = rv.percentile_factor(95.0);
    let p90 = rv.percentile_factor(90.0);
    let statement = "a small fraction of rows is significantly more vulnerable than the rest";
    let measured = format!("P99 {p99:.1}x, P95 {p95:.1}x, P90 {p90:.1}x the most vulnerable row");
    let n = rv.sorted_desc.len();
    if n < OBSV12_MIN_ROWS {
        return ObservationCheck {
            id: 12,
            statement,
            passed: None,
            detail: format!(
                "row sample N={n} is below the minimum {OBSV12_MIN_ROWS} that P99 needs; {measured}"
            ),
        };
    }
    check(12, statement, p99 >= 1.2 && p95 >= 1.4, measured)
}

/// Obsv. 13: certain columns are much more vulnerable than others.
pub fn obsv13(cm: &ColumnMap) -> ObservationCheck {
    check(
        13,
        "certain columns are significantly more vulnerable than others",
        cm.max_count() >= 5,
        format!(
            "max column count {}, zero-flip columns {:.1}%",
            cm.max_count(),
            cm.zero_fraction() * 100.0
        ),
    )
}

/// Obsv. 14: both design- and process-induced variation exist
/// (columns with CV = 0 across chips, and columns with CV ≈ 1).
pub fn obsv14(cv: &ColumnVariation) -> ObservationCheck {
    check(
        14,
        "both design and manufacturing process affect a column's vulnerability",
        cv.cv_low_fraction > 0.0 || cv.cv_one_fraction > 0.0,
        format!(
            "low-CV columns {:.1}%, CV>=1 columns {:.1}%",
            cv.cv_low_fraction * 100.0,
            cv.cv_one_fraction * 100.0
        ),
    )
}

/// Obsv. 15: the most vulnerable row of a subarray is roughly 2× more
/// vulnerable than the subarray average.
pub fn obsv15(points: &[SubarrayPoint]) -> ObservationCheck {
    let ratios: Vec<f64> =
        points.iter().filter(|p| p.min > 0.0).map(|p| p.avg / p.min).collect();
    let mean = rh_stats::mean(&ratios);
    check(
        15,
        "the most vulnerable row in a subarray is far more vulnerable than the rest",
        mean >= 1.2,
        format!("avg/min HCfirst ratio {mean:.2} across {} subarrays", points.len()),
    )
}

/// Obsv. 16: subarray HCfirst distributions are more similar within a
/// module than across modules.
pub fn obsv16(sim: &SimilarityCdf) -> ObservationCheck {
    let statement =
        "subarray HCfirst distributions are similar within a module, diverse across modules";
    match (
        rh_stats::percentile(&sim.same_module, 5.0),
        rh_stats::percentile(&sim.cross_module, 5.0),
    ) {
        (Some(same), Some(cross)) => check(
            16,
            statement,
            same >= cross,
            format!("P5 BD_norm same-module {same:.3} vs cross-module {cross:.3}"),
        ),
        (same, _) => check(
            16,
            statement,
            false,
            format!(
                "insufficient pairs: same-module n={} cross-module n={} (P5 undefined for {})",
                sim.same_module.len(),
                sim.cross_module.len(),
                if same.is_none() { "same-module" } else { "cross-module" },
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_carries_detail() {
        let a = TempRangeAnalysis {
            grid: vec![50.0],
            cluster_fraction: vec![vec![1.0]],
            no_gap_fraction: 0.99,
            one_gap_fraction: 0.01,
            narrow_fraction: 0.02,
            full_range_fraction: 0.2,
            vulnerable_cells: 100,
        };
        let c = obsv1(&a);
        assert_eq!(c.passed, Some(true));
        assert!(c.detail.contains("99.0%"));
        assert_eq!(c.id, 1);
        assert_eq!(obsv2(&a).passed, Some(true));
        assert_eq!(obsv3(&a).passed, Some(true));
    }

    #[test]
    fn failing_observation_reports_false() {
        let a = TempRangeAnalysis {
            grid: vec![50.0],
            cluster_fraction: vec![vec![1.0]],
            no_gap_fraction: 0.5,
            one_gap_fraction: 0.2,
            narrow_fraction: 0.0,
            full_range_fraction: 0.0,
            vulnerable_cells: 10,
        };
        assert_eq!(obsv1(&a).passed, Some(false));
        assert_eq!(obsv3(&a).passed, Some(false));
    }

    /// `n` rows: one at HCfirst 10 and the rest at 30 and up, so the
    /// P99/P95 rows sit well above 1.2×/1.4× the most vulnerable row.
    fn spread_rows(n: u64) -> RowVariation {
        let rows: Vec<(u32, u64)> =
            (0..n).map(|i| (i as u32, if i == 0 { 10 } else { 29 + i })).collect();
        let mut sorted_desc: Vec<f64> = rows.iter().map(|&(_, h)| h as f64).collect();
        sorted_desc.sort_by(|a, b| b.total_cmp(a));
        RowVariation { rows, sorted_desc }
    }

    #[test]
    fn obsv12_is_undecided_below_the_p99_sample_minimum() {
        let small = obsv12(&spread_rows(99));
        assert_eq!(small.passed, None);
        assert!(small.detail.starts_with("row sample N=99 is below the minimum 100"), "{}", small.detail);
        assert_eq!(obsv12(&spread_rows(100)).passed, Some(true));
        // A flat sample at the minimum is decided, and fails.
        let flat = RowVariation { rows: vec![(0, 7); 100], sorted_desc: vec![7.0; 100] };
        assert_eq!(obsv12(&flat).passed, Some(false));
    }
}
