//! Round-robin equivalence: `DramModule::hammer_round_robin`, backed by
//! the fault model's batched kernel, must leave a module exactly as
//! `acts` calls of `hammer_direct(…, 1, …)` over the same row sequence
//! leave a twin module — clock, per-bank activation stats, accumulated
//! disturbance, and the bytes every later read returns (which also
//! covers the trial nonce and the retention clocks).
//!
//! The stimuli straddle both of the kernel's stop rules: aggressor sets
//! with adjacent or repeated rows push an aggressor's own dose past one
//! unit between its activations, and a module left idle for seconds at
//! 90 °C makes the first sense of every aggressor leak retention cells.

mod common;

use common::{Rig, BANK};
use proptest::prelude::*;
use rh_dram::{Manufacturer, ModuleConfig, RowAddr};

/// A round-robin scenario: the same preparation on both twins, then
/// the batched call on one and the per-activation loop on the other.
#[derive(Debug, Clone)]
struct Scenario {
    mfr: Manufacturer,
    seed: u64,
    celsius: f64,
    /// Logical aggressor rows, in hammer order.
    rows: Vec<RowAddr>,
    start: usize,
    acts: u64,
    /// Rows written before hammering (the others stay unstored).
    stored: Vec<RowAddr>,
    fill: u8,
    /// Activations of a far row between the writes and the attack:
    /// advances the module clock so first senses see a long idle.
    idle_acts: u64,
    /// `(row, count)` hammered before the attack, pre-dosing a
    /// neighbouring aggressor.
    pre_dose: Option<(RowAddr, u64)>,
}

/// Runs `s` on both twins and asserts they end bit-identical. Returns
/// how many stored aggressors flipped during the attack, so callers
/// can check a stop rule was actually exercised.
fn check(s: &Scenario) -> usize {
    let mut fast = Rig::new(s.mfr, s.seed, s.celsius);
    let mut slow = Rig::new(s.mfr, s.seed, s.celsius);
    let rows_per_bank = fast.module.geometry().rows_per_bank;
    let far = RowAddr(if s.rows[0].0 > rows_per_bank / 2 { 0 } else { rows_per_bank - 1 });
    let t = fast.module.config().timing;
    let row_bytes = fast.module.row_bytes();
    for rig in [&mut fast, &mut slow] {
        for &r in &s.stored {
            rig.module.write_row_direct(BANK, r, &vec![s.fill; row_bytes]).unwrap();
        }
        rig.module.hammer_direct(BANK, far, s.idle_acts, t.t_ras, t.t_rp).unwrap();
        if let Some((row, count)) = s.pre_dose {
            rig.module.hammer_direct(BANK, row, count, t.t_ras, t.t_rp).unwrap();
        }
    }
    fast.module.hammer_round_robin(BANK, &s.rows, s.start, s.acts, t.t_ras, t.t_rp).unwrap();
    let mut last_sense = None;
    for k in 0..s.acts {
        let row = s.rows[(s.start + k as usize) % s.rows.len()];
        if row == s.rows[0] {
            last_sense = Some(slow.module.now());
        }
        slow.module.hammer_direct(BANK, row, 1, t.t_ras, t.t_rp).unwrap();
    }

    assert_eq!(fast.module.now(), slow.module.now(), "{s:?}");
    assert_eq!(fast.module.bank(BANK).stats(), slow.module.bank(BANK).stats(), "{s:?}");
    let mapping = fast.module.config().mapping;
    let phys: Vec<u32> = s.rows.iter().map(|&r| mapping.logical_to_physical(r).0).collect();
    let lo = phys.iter().min().unwrap().saturating_sub(2);
    let hi = (phys.iter().max().unwrap() + 2).min(rows_per_bank - 1);
    for p in lo..=hi {
        let (a, b) = (
            fast.model.lock().unwrap().accumulated(BANK, RowAddr(p)),
            slow.model.lock().unwrap().accumulated(BANK, RowAddr(p)),
        );
        assert_eq!(a.to_bits(), b.to_bits(), "dose of physical row {p}: {s:?}");
    }
    // Only an aggressor's own sense can have flipped its stored bits
    // so far, and the kernel never flips: a changed aggressor proves
    // the activation went through `hammer_direct`.
    let changed = s
        .stored
        .iter()
        .filter(|r| s.rows.contains(r))
        .filter(|&&r| fast.module.peek_row(BANK, r).unwrap().iter().any(|&x| x != s.fill))
        .count();
    if let (Some(sensed), true) = (last_sense, s.stored.contains(&s.rows[0])) {
        // Read the first aggressor one step before its earliest
        // flipping retention cell leaks, timed from its true last
        // sense: a retention clock restarted even one step early
        // leaks that cell on the fast twin only.
        let step = t.t_ras + t.t_rp;
        let phys = mapping.logical_to_physical(s.rows[0]);
        let leak_at = fast
            .model
            .lock()
            .unwrap()
            .retention_cells(BANK, phys)
            .iter()
            .filter(|c| ((s.fill >> c.bit) & 1 == 1) != c.anti_cell)
            .map(|c| c.retention_at(s.celsius))
            .fold(f64::INFINITY, f64::min);
        if leak_at.is_finite() {
            let read_at = sensed + (leak_at / step as f64) as u64 * step;
            let now = fast.module.now();
            if read_at > now {
                for rig in [&mut fast, &mut slow] {
                    rig.module
                        .hammer_direct(BANK, far, (read_at - now) / step, t.t_ras, t.t_rp)
                        .unwrap();
                }
            }
        }
    }
    for &r in &s.stored {
        let a = fast.module.read_row_direct(BANK, r).unwrap();
        let b = slow.module.read_row_direct(BANK, r).unwrap();
        assert!(a == b, "row {} read back differently: {s:?}", r.0);
    }
    changed
}

/// Rows `anchor + offset`, clamped into the bank; `anchor` picks the
/// bottom edge, the middle, or the top edge of the bank.
fn place(rows_per_bank: u32, anchor: u8, offsets: &[u32]) -> Vec<RowAddr> {
    let base = match anchor {
        0 => 0,
        1 => rows_per_bank / 2,
        _ => rows_per_bank - 32,
    };
    offsets.iter().map(|&o| RowAddr((base + o).min(rows_per_bank - 1))).collect()
}

/// `pairs` nested aggressor pairs around `victim` (the many-sided
/// attack's order).
fn nested_pairs(victim: u32, pairs: u32) -> Vec<u32> {
    (1..=pairs).flat_map(|d| [victim - (2 * d - 1), victim + 2 * d - 1]).collect()
}

/// A logical row next to `row` (above it unless `row` is the top row).
fn neighbour(mfr: Manufacturer, row: RowAddr) -> RowAddr {
    let top = ModuleConfig::ddr4(mfr).geometry.rows_per_bank - 1;
    RowAddr(if row.0 < top { row.0 + 1 } else { row.0 - 1 })
}

fn scenario(
    mfr: Manufacturer,
    seed: u64,
    anchor: u8,
    offsets: &[u32],
    start: usize,
    acts: u64,
    fill: u8,
) -> Scenario {
    let rows_per_bank = ModuleConfig::ddr4(mfr).geometry.rows_per_bank;
    let rows = place(rows_per_bank, anchor, offsets);
    let window: Vec<u32> = (0..32).collect();
    Scenario {
        mfr,
        seed,
        celsius: 75.0,
        rows,
        start,
        acts,
        stored: place(rows_per_bank, anchor, &window),
        fill,
        idle_acts: 0,
        pre_dose: None,
    }
}

fn any_mfr() -> impl Strategy<Value = Manufacturer> {
    prop::sample::select(Manufacturer::ALL.to_vec())
}

fn any_fill() -> impl Strategy<Value = u8> {
    prop::sample::select(vec![0x00u8, 0xFF, 0x55])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // 1–12 nested pairs anywhere in the bank (edges included), any
    // start, up to 5000 activations.
    #[test]
    fn nested_pairs_match_per_activation_hammering(
        mfr in any_mfr(),
        seed in 0u64..1_000,
        anchor in 0u8..3,
        pairs in 1u32..=12,
        start in 0usize..64,
        acts in 0u64..=5_000,
        fill in any_fill(),
    ) {
        let offsets = nested_pairs(25, pairs);
        check(&scenario(mfr, seed, anchor, &offsets, start, acts, fill));
    }

    // Arbitrary row sets: adjacent rows (an aggressor's own dose
    // crosses one unit between its activations) and repeated rows.
    #[test]
    fn arbitrary_rows_match_per_activation_hammering(
        mfr in any_mfr(),
        seed in 0u64..1_000,
        anchor in 0u8..3,
        offsets in prop::collection::vec(0u32..32, 1..=24),
        start in 0usize..64,
        acts in 0u64..=5_000,
        fill in any_fill(),
    ) {
        check(&scenario(mfr, seed, anchor, &offsets, start, acts, fill));
    }

    // A pre-dosed aggressor: its first sense happens at a dose of at
    // least one unit, so the kernel must hand it to `hammer_direct`.
    #[test]
    fn pre_dosed_aggressor_matches_per_activation_hammering(
        mfr in any_mfr(),
        seed in 0u64..1_000,
        anchor in 0u8..3,
        pairs in 1u32..=12,
        start in 0usize..64,
        acts in 1u64..=2_000,
        dose in 2u64..2_000_000,
    ) {
        let mut s = scenario(mfr, seed, anchor, &nested_pairs(25, pairs), start, acts, 0x00);
        s.pre_dose = Some((neighbour(mfr, s.rows[start % s.rows.len()]), dose));
        check(&s);
    }
}

#[test]
fn edge_rows_match_per_activation_hammering() {
    for mfr in Manufacturer::ALL {
        let rows_per_bank = ModuleConfig::ddr4(mfr).geometry.rows_per_bank;
        let top = rows_per_bank - 1;
        for rows in [vec![0, 1], vec![1, 0, 3], vec![top, top - 2], vec![top - 1, top, top]] {
            let rows: Vec<RowAddr> = rows.into_iter().map(RowAddr).collect();
            for start in 0..rows.len() {
                check(&Scenario {
                    mfr,
                    seed: 7,
                    celsius: 75.0,
                    rows: rows.clone(),
                    start,
                    acts: 3_001,
                    stored: rows.clone(),
                    fill: 0x00,
                    idle_acts: 0,
                    pre_dose: None,
                });
            }
        }
    }
}

#[test]
fn heavy_pre_dose_flips_through_the_reference_path() {
    // Dose the first aggressor far past its flip threshold: its first
    // sense must materialize flips exactly as `hammer_direct` does.
    let mut changed = 0;
    for seed in 0..8 {
        let mut s = scenario(Manufacturer::B, seed, 1, &nested_pairs(25, 4), 0, 1_000, 0x00);
        s.pre_dose = Some((neighbour(Manufacturer::B, s.rows[0]), 2_000_000));
        changed += check(&s);
    }
    assert!(changed > 0, "the pre-dosed aggressor never flipped: stop rule not exercised");
}

#[test]
fn idle_past_retention_at_90c_leaks_through_the_reference_path() {
    // ~10 s of activity elsewhere after the writes: at 90 °C every
    // aggressor's first sense is past its retention time.
    let mut changed = 0;
    for (i, mfr) in Manufacturer::ALL.into_iter().enumerate() {
        for anchor in 0..3 {
            let mut s = scenario(mfr, 11 + i as u64, anchor, &nested_pairs(25, 6), 3, 4_000, 0x00);
            s.celsius = 90.0;
            s.idle_acts = 200_000_000;
            changed += check(&s);
        }
    }
    assert!(changed > 0, "no aggressor leaked: retention stop rule not exercised");
}
