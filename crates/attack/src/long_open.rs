//! §8.1 Improvement 3: extending the aggressor's open time with column
//! READs.
//!
//! Obsv. 8 shows longer aggressor on-time lowers HCfirst by up to 40 %.
//! An attacker reaches ≈5× the baseline on-time by issuing 10–15 READs
//! per activation — the access stream looks like ordinary row-buffer
//! locality, but a defense whose threshold was calibrated at baseline
//! timing (e.g., configured exactly at HCfirst) is now beaten at a
//! hammer count ~36 % below its threshold.

use rh_core::{CharError, Characterizer};
use rh_dram::RowAddr;
use rh_obs::names;
use rh_softmc::Program;
use serde::{Deserialize, Serialize};

/// Outcome of the extended-open-time study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LongOpenStudy {
    /// READs issued per activation.
    pub reads_per_activation: u32,
    /// Effective aggressor on-time (ps) with the READ train.
    pub effective_t_on: u64,
    /// Mean BER at 150 K hammers with baseline timing.
    pub ber_baseline: f64,
    /// Mean BER at 150 K hammers with the READ-extended timing.
    pub ber_extended: f64,
    /// Mean HCfirst at baseline timing.
    pub hc_baseline: f64,
    /// Mean HCfirst with the READ-extended timing.
    pub hc_extended: f64,
}

impl LongOpenStudy {
    /// BER amplification factor (the paper: 3.2×–10.2×).
    pub fn ber_gain(&self) -> f64 {
        if self.ber_baseline > 0.0 {
            self.ber_extended / self.ber_baseline
        } else {
            0.0
        }
    }

    /// HCfirst reduction (the paper: up to 36 % at 5× on-time).
    pub fn hc_reduction(&self) -> f64 {
        if self.hc_baseline > 0.0 {
            1.0 - self.hc_extended / self.hc_baseline
        } else {
            0.0
        }
    }

    /// Whether an activation-counting defense configured exactly at
    /// the baseline HCfirst would be defeated (bits flip below its
    /// threshold).
    pub fn defeats_baseline_threshold(&self) -> bool {
        self.hc_extended < self.hc_baseline
    }
}

/// Runs the study over `victims` with `reads` READs per activation.
///
/// # Errors
///
/// Device/infrastructure errors.
pub fn long_open_study(
    ch: &mut Characterizer,
    victims: &[u32],
    reads: u32,
) -> Result<LongOpenStudy, CharError> {
    let mut span = rh_obs::span(names::ATTACK_LONG_OPEN);
    span.set("victims", victims.len());
    span.set("reads", u64::from(reads));
    let timing = ch.bench().module().config().timing;
    let t_on = Program::read_extended_t_on(reads, &timing);
    let pattern = ch.wcdp();
    let hammers = rh_core::metrics::BER_HAMMERS;
    let (mut ber_b, mut ber_e) = (Vec::new(), Vec::new());
    let (mut hc_b, mut hc_e) = (Vec::new(), Vec::new());
    for &v in victims {
        let v = RowAddr(v);
        ber_b.push(ch.measure_ber(v, pattern, hammers, None, None)?.victim as f64);
        ber_e.push(ch.measure_ber(v, pattern, hammers, Some(t_on), None)?.victim as f64);
        if let Some(h) = ch.hc_first(v, pattern, None, None)? {
            hc_b.push(h as f64);
        }
        if let Some(h) = ch.hc_first(v, pattern, Some(t_on), None)? {
            hc_e.push(h as f64);
        }
    }
    Ok(LongOpenStudy {
        reads_per_activation: reads,
        effective_t_on: t_on,
        ber_baseline: rh_stats::mean(&ber_b),
        ber_extended: rh_stats::mean(&ber_e),
        hc_baseline: rh_stats::mean(&hc_b),
        hc_extended: rh_stats::mean(&hc_e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::Scale;
    use rh_dram::Manufacturer;
    use rh_softmc::TestBench;

    #[test]
    fn read_train_amplifies_the_attack() {
        let bench = TestBench::new(Manufacturer::B, 71);
        let mut ch = Characterizer::new(bench, Scale::Smoke).unwrap();
        ch.set_temperature(50.0).unwrap();
        let victims: Vec<u32> = (0..12).map(|i| 1500 + 6 * i).collect();
        let s = long_open_study(&mut ch, &victims, 15).unwrap();
        // 15 READs ≈ 5× tRAS for DDR4-2400.
        assert!(s.effective_t_on >= 80_000, "effective t_on {}", s.effective_t_on);
        assert!(s.ber_extended > s.ber_baseline, "BER {} -> {}", s.ber_baseline, s.ber_extended);
        assert!(s.hc_reduction() > 0.0, "HC reduction {}", s.hc_reduction());
        assert!(s.defeats_baseline_threshold());
    }

    #[test]
    fn zero_reads_is_baseline() {
        let bench = TestBench::new(Manufacturer::D, 72);
        let mut ch = Characterizer::new(bench, Scale::Smoke).unwrap();
        ch.set_temperature(50.0).unwrap();
        let victims = [2100u32, 2106];
        let s = long_open_study(&mut ch, &victims, 0).unwrap();
        let t = ch.bench().module().config().timing;
        assert_eq!(s.effective_t_on, t.t_ras);
    }
}
