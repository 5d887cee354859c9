//! Property-based tests for the DRAM device model.

use proptest::prelude::*;
use rh_dram::{
    bit_errors, flipped_bits, BankId, Command, DataPattern, DramModule, Manufacturer, ModuleConfig,
    PatternKind, RowAddr, RowMapping, TimedCommand,
};

fn any_mfr() -> impl Strategy<Value = Manufacturer> {
    prop::sample::select(Manufacturer::ALL.to_vec())
}

fn any_pattern() -> impl Strategy<Value = PatternKind> {
    prop::sample::select(PatternKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_bijective(mfr in any_mfr(), row in 0u32..1_000_000) {
        let m = RowMapping::for_manufacturer(mfr);
        let l = RowAddr(row);
        prop_assert_eq!(m.physical_to_logical(m.logical_to_physical(l)), l);
    }

    #[test]
    fn mapping_preserves_row_space(mfr in any_mfr(), row in 0u32..65_536) {
        let m = RowMapping::for_manufacturer(mfr);
        let p = m.logical_to_physical(RowAddr(row));
        // Conditional XOR schemes only permute within small blocks.
        prop_assert!(p.0 < 65_536);
    }

    #[test]
    fn write_read_roundtrip(mfr in any_mfr(), bank in 0u32..8, row in 0u32..32_768, byte in any::<u8>()) {
        let mut m = DramModule::new(ModuleConfig::ddr4(mfr));
        let data = vec![byte; m.row_bytes()];
        m.write_row_direct(BankId(bank), RowAddr(row), &data).unwrap();
        prop_assert_eq!(m.read_row_direct(BankId(bank), RowAddr(row)).unwrap(), data);
    }

    #[test]
    fn distinct_rows_do_not_alias(mfr in any_mfr(), r1 in 0u32..4096, r2 in 0u32..4096) {
        prop_assume!(r1 != r2);
        let mut m = DramModule::new(ModuleConfig::ddr4(mfr));
        let d1 = vec![0x11u8; m.row_bytes()];
        let d2 = vec![0x22u8; m.row_bytes()];
        m.write_row_direct(BankId(0), RowAddr(r1), &d1).unwrap();
        m.write_row_direct(BankId(0), RowAddr(r2), &d2).unwrap();
        prop_assert_eq!(m.read_row_direct(BankId(0), RowAddr(r1)).unwrap(), d1);
        prop_assert_eq!(m.read_row_direct(BankId(0), RowAddr(r2)).unwrap(), d2);
    }

    #[test]
    fn pattern_fill_length_and_determinism(kind in any_pattern(), row in 0u32..10_000, d in -8i64..=8, len in 1usize..4096) {
        let p = DataPattern::new(kind, 1234);
        let a = p.row_fill(RowAddr(row), d, len);
        let b = p.row_fill(RowAddr(row), d, len);
        prop_assert_eq!(a.len(), len);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn command_hammer_loop_counts_activations(n in 1u64..50) {
        let mut m = DramModule::new(ModuleConfig::ddr4(Manufacturer::D));
        let t = m.config().timing;
        let b = BankId(0);
        let mut at = 0;
        for _ in 0..n {
            m.issue(&TimedCommand { at, cmd: Command::Act { bank: b, row: RowAddr(10) } }).unwrap();
            at += t.t_ras;
            m.issue(&TimedCommand { at, cmd: Command::Pre { bank: b } }).unwrap();
            at += t.t_rp;
        }
        // Direct mapping for Mfr. D: logical row 10 is physical row 10.
        prop_assert_eq!(m.bank(b).stats().count(RowAddr(10)), n);
    }

    #[test]
    fn quantize_idempotent(t_ps in 0u64..10_000_000) {
        let t = rh_dram::TimingParams::ddr4_2400();
        let q = t.quantize(t_ps);
        prop_assert_eq!(t.quantize(q), q);
        prop_assert!(q >= t_ps);
        prop_assert!(q - t_ps < t.clock);
    }
}

/// The byte-at-a-time read-back compare that `bit_errors` replaced.
fn bytewise_bit_errors(a: &[u8], b: &[u8]) -> u64 {
    a.iter().zip(b).map(|(x, y)| u64::from((x ^ y).count_ones())).sum()
}

/// The per-byte `trailing_zeros` walk that `flipped_bits` replaced.
fn bytewise_flipped_bits(a: &[u8], b: &[u8]) -> Vec<(u32, u8)> {
    let mut out = Vec::new();
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let mut diff = x ^ y;
        while diff != 0 {
            out.push((i as u32, diff.trailing_zeros() as u8));
            diff &= diff - 1;
        }
    }
    out
}

/// Every length 0..=80 (each tail length 0..8 many times over), one
/// 8 KiB row, and for each the same length, a shorter and a longer
/// second row, so the common-prefix rule is exercised both ways.
fn compare_shapes() -> Vec<(usize, usize)> {
    (0..=80usize)
        .chain([8192])
        .flat_map(|n| [(n, n), (n, n.saturating_sub(3)), (n, n + 5)])
        .collect()
}

/// A row of `len` bytes from `rng`, and a read-back of `len_b` bytes
/// that keeps each of its bits with a row-specific flip density, so
/// rows range from nearly clean to nearly all-flipped.
fn row_pair(rng: &mut TestRng, len: usize, len_b: usize) -> (Vec<u8>, Vec<u8>) {
    let written: Vec<u8> = (0..len.max(len_b)).map(|_| rng.next_u64() as u8).collect();
    let density = rng.below(4) as u32;
    let read = written
        .iter()
        .map(|&w| {
            let mut mask = rng.next_u64() as u8;
            for _ in 0..density {
                mask &= rng.next_u64() as u8;
            }
            w ^ mask
        })
        .take(len_b)
        .collect();
    (written[..len].to_vec(), read)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bit_errors_matches_bytewise(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("bit_errors/{seed}"));
        for (len, len_b) in compare_shapes() {
            let (written, read) = row_pair(&mut rng, len, len_b);
            prop_assert_eq!(bit_errors(&read, &written), bytewise_bit_errors(&read, &written));
            prop_assert_eq!(bit_errors(&written, &read), bytewise_bit_errors(&read, &written));
        }
    }

    #[test]
    fn flipped_bits_matches_bytewise_in_order(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("flipped_bits/{seed}"));
        for (len, len_b) in compare_shapes() {
            let (written, read) = row_pair(&mut rng, len, len_b);
            let cells: Vec<(u32, u8)> = flipped_bits(&read, &written).collect();
            prop_assert_eq!(cells.len() as u64, bit_errors(&read, &written));
            prop_assert_eq!(cells, bytewise_flipped_bits(&read, &written));
        }
    }
}
