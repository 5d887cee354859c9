//! §8.1 Improvement 1: temperature-aware victim selection.
//!
//! An attacker who can monitor (or set) the DRAM temperature profiles
//! candidate rows *at the operating temperature* and targets the row
//! with the lowest HCfirst there, instead of a row chosen without
//! temperature information. The paper estimates up to ~50 % lower
//! hammer counts (Fig. 5) for an informed choice.

use rh_core::{CharError, Characterizer};
use rh_dram::RowAddr;
use rh_obs::names;
use serde::{Deserialize, Serialize};

/// Outcome of the temperature-aware targeting study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TempAwareStudy {
    /// Operating temperature of the attack (°C).
    pub temperature: f64,
    /// HCfirst of the row an uninformed attacker would pick (the
    /// median row of the candidate set).
    pub uninformed_hc: u64,
    /// HCfirst of the temperature-informed pick (minimum at the
    /// operating temperature).
    pub informed_hc: u64,
    /// The informed victim row.
    pub informed_row: u32,
    /// Relative hammer-count reduction (= attack-time reduction).
    pub reduction: f64,
}

/// Profiles `candidates` at `temperature` and compares informed vs
/// uninformed victim choice.
///
/// # Errors
///
/// Device/infrastructure errors.
pub fn temperature_aware_study(
    ch: &mut Characterizer,
    candidates: &[u32],
    temperature: f64,
) -> Result<TempAwareStudy, CharError> {
    let mut span = rh_obs::span(names::ATTACK_TEMP_AWARE);
    span.set("candidates", candidates.len());
    span.set("temperature", temperature);
    ch.set_temperature(temperature)?;
    let pattern = ch.wcdp();
    let mut profiled: Vec<(u32, u64)> = Vec::new();
    for &row in candidates {
        if let Some(hc) = ch.hc_first(RowAddr(row), pattern, None, None)? {
            profiled.push((row, hc));
        }
    }
    profiled.sort_by_key(|&(_, hc)| hc);
    let (informed_row, informed_hc) = *profiled.first().unwrap_or(&(0, 0));
    let uninformed_hc = profiled.get(profiled.len() / 2).map(|&(_, h)| h).unwrap_or(0);
    let reduction = if uninformed_hc > 0 {
        1.0 - informed_hc as f64 / uninformed_hc as f64
    } else {
        0.0
    };
    Ok(TempAwareStudy { temperature, uninformed_hc, informed_hc, informed_row, reduction })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::Scale;
    use rh_dram::Manufacturer;
    use rh_softmc::TestBench;

    #[test]
    fn informed_choice_never_worse() {
        let bench = TestBench::new(Manufacturer::B, 17);
        let mut ch = Characterizer::new(bench, Scale::Smoke).unwrap();
        let candidates: Vec<u32> = (0..12).map(|i| 700 + 6 * i).collect();
        let s = temperature_aware_study(&mut ch, &candidates, 80.0).unwrap();
        assert!(s.informed_hc <= s.uninformed_hc);
        assert!(s.reduction >= 0.0);
        assert!(candidates.contains(&s.informed_row));
    }

    #[test]
    fn profiling_reflects_temperature() {
        // The informed pick may differ across temperatures — at minimum
        // the study must complete at both ends of the tested range.
        let bench = TestBench::new(Manufacturer::A, 18);
        let mut ch = Characterizer::new(bench, Scale::Smoke).unwrap();
        let candidates: Vec<u32> = (0..8).map(|i| 900 + 6 * i).collect();
        let cold = temperature_aware_study(&mut ch, &candidates, 50.0).unwrap();
        let hot = temperature_aware_study(&mut ch, &candidates, 90.0).unwrap();
        assert_eq!(cold.temperature, 50.0);
        assert_eq!(hot.temperature, 90.0);
    }
}
