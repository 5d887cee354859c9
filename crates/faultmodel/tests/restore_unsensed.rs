//! Restore-unsensed equivalence: `DramModule::restore_unsensed` must
//! leave a module's fault model exactly as `read_row_direct` of the
//! same row leaves a twin module — clock, accumulated disturbance, and
//! the bytes every later read returns (which also covers the trial
//! nonce and the retention clocks). The only difference allowed is the
//! row's stored bytes, which the unsensed twin drops until the row is
//! written again. The HCfirst probe relies on this to skip the reads
//! of the single-sided victims at ±2.

mod common;

use common::{Rig, BANK};
use proptest::prelude::*;
use rh_dram::{DramError, Manufacturer, ModuleConfig, RowAddr};

/// Rows on each side of the victim that the twins compare.
const WINDOW: i64 = 8;

/// One double-sided test, twice: the same preparation and attack on
/// both twins, then the ±2 rows read on one twin and restored unsensed
/// on the other; then a second attack after rewriting the ±2 rows.
#[derive(Debug, Clone)]
struct Scenario {
    mfr: Manufacturer,
    seed: u64,
    celsius: f64,
    /// Physical victim row.
    victim: u32,
    /// Fill byte of even-distance rows; odd-distance rows hold its
    /// complement.
    fill: u8,
    /// Hammers per aggressor of the first attack.
    hammers: u64,
    /// Hammers per aggressor of the second attack.
    second: u64,
    /// Activations of a far row before the second attack: advances the
    /// clock so the second reads see a long idle.
    idle_acts: u64,
}

/// Runs `s` on both twins and asserts they end bit-identical. Returns
/// how many rows the second reads found changed, so callers can check
/// the reads saw flips at all.
fn check(s: &Scenario) -> usize {
    let mut sensed = Rig::new(s.mfr, s.seed, s.celsius);
    let mut unsensed = Rig::new(s.mfr, s.seed, s.celsius);
    let cfg = *sensed.module.config();
    let t = cfg.timing;
    let rows_per_bank = cfg.geometry.rows_per_bank;
    let phys = |d: i64| RowAddr((i64::from(s.victim) + d) as u32);
    let logical = |d: i64| cfg.mapping.physical_to_logical(phys(d));
    let fill = |d: i64| vec![if d % 2 == 0 { s.fill } else { !s.fill }; cfg.geometry.row_bytes()];
    let far = RowAddr(if s.victim > rows_per_bank / 2 { 0 } else { rows_per_bank - 1 });

    for rig in [&mut sensed, &mut unsensed] {
        for d in -WINDOW..=WINDOW {
            rig.module.write_row_direct(BANK, logical(d), &fill(d)).unwrap();
        }
        rig.module
            .hammer_pair_direct(BANK, logical(-1), logical(1), s.hammers, t.t_ras, t.t_rp)
            .unwrap();
        rig.module.read_row_direct(BANK, logical(0)).unwrap();
    }
    for d in [-2, 2] {
        sensed.module.read_row_direct(BANK, logical(d)).unwrap();
        unsensed.module.restore_unsensed(BANK, logical(d)).unwrap();
    }

    assert_eq!(sensed.module.now(), unsensed.module.now(), "{s:?}");
    for d in -WINDOW..=WINDOW {
        let (a, b) = (
            sensed.model.lock().unwrap().accumulated(BANK, phys(d)),
            unsensed.model.lock().unwrap().accumulated(BANK, phys(d)),
        );
        assert_eq!(a.to_bits(), b.to_bits(), "dose at distance {d}: {s:?}");
    }
    for d in [-2, 2] {
        assert!(
            matches!(
                unsensed.module.peek_row(BANK, logical(d)),
                Err(DramError::UninitializedRow { .. })
            ),
            "row {d:+} kept its bytes: {s:?}"
        );
    }

    for rig in [&mut sensed, &mut unsensed] {
        for d in [-2, 2] {
            rig.module.write_row_direct(BANK, logical(d), &fill(d)).unwrap();
        }
        rig.module.hammer_direct(BANK, far, s.idle_acts, t.t_ras, t.t_rp).unwrap();
        rig.module
            .hammer_pair_direct(BANK, logical(-1), logical(1), s.second, t.t_ras, t.t_rp)
            .unwrap();
    }
    let mut changed = 0;
    for d in -WINDOW..=WINDOW {
        let a = sensed.module.read_row_direct(BANK, logical(d)).unwrap();
        let b = unsensed.module.read_row_direct(BANK, logical(d)).unwrap();
        assert!(a == b, "row at distance {d} read back differently: {s:?}");
        changed += usize::from(a != fill(d));
    }
    changed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Attacks around and past typical HCfirst values, anywhere in the
    // bank away from its edges, 50–90 °C, with and without seconds of
    // idle before the second reads.
    #[test]
    fn restore_unsensed_matches_a_discarded_read(
        mfr in prop::sample::select(Manufacturer::ALL.to_vec()),
        seed in 0u64..1_000,
        celsius in 50.0f64..=90.0,
        victim in 8u32..32_760,
        fill in prop::sample::select(vec![0x00u8, 0xFF, 0x55, 0xAA]),
        hammers in 20_000u64..=600_000,
        second in 20_000u64..=600_000,
        idle_acts in prop::sample::select(vec![0u64, 200_000_000]),
    ) {
        check(&Scenario { mfr, seed, celsius, victim, fill, hammers, second, idle_acts });
    }
}

#[test]
fn second_reads_see_hammer_flips_and_retention_leaks() {
    // Without idle only the attack can flip bits; after ~10 s of idle
    // at 90 °C the far rows of the window leak as well.
    let (mut hammered, mut leaked) = (0, 0);
    for (i, mfr) in Manufacturer::ALL.into_iter().enumerate() {
        let mut s = Scenario {
            mfr,
            seed: 5 + i as u64,
            celsius: 90.0,
            victim: 3_000,
            fill: 0x00,
            hammers: 400_000,
            second: 400_000,
            idle_acts: 0,
        };
        hammered += check(&s);
        s.idle_acts = 200_000_000;
        leaked += check(&s);
    }
    assert!(hammered > 0, "no row flipped: the reads compared nothing");
    assert!(leaked > hammered, "idle leaked nothing: retention clocks not exercised");
}

#[test]
fn dropped_row_is_unreadable_until_rewritten() {
    let mut rig = Rig::new(Manufacturer::A, 3, 75.0);
    let row_bytes = rig.module.row_bytes();
    let row = RowAddr(100);
    rig.module.write_row_direct(BANK, row, &vec![0x5A; row_bytes]).unwrap();
    rig.module.restore_unsensed(BANK, row).unwrap();
    assert!(matches!(rig.module.peek_row(BANK, row), Err(DramError::UninitializedRow { .. })));
    assert!(matches!(
        rig.module.read_row_direct(BANK, row),
        Err(DramError::UninitializedRow { .. })
    ));
    rig.module.write_row_direct(BANK, row, &vec![0xA5; row_bytes]).unwrap();
    assert_eq!(rig.module.read_row_direct(BANK, row).unwrap(), vec![0xA5; row_bytes]);
}

#[test]
fn out_of_range_restore_is_rejected() {
    let mut rig = Rig::new(Manufacturer::B, 3, 75.0);
    let rows = ModuleConfig::ddr4(Manufacturer::B).geometry.rows_per_bank;
    assert!(matches!(
        rig.module.restore_unsensed(BANK, RowAddr(rows)),
        Err(DramError::RowOutOfRange { .. })
    ));
    assert!(matches!(
        rig.module.restore_unsensed(rh_dram::BankId(99), RowAddr(0)),
        Err(DramError::BankOutOfRange { .. })
    ));
}
