//! The data patterns of Table 1: colstripe, checkered, rowstripe,
//! their complements, and random — written to the victim row and the
//! eight physically-adjacent rows on each side.

use crate::geometry::RowAddr;
use serde::{Deserialize, Serialize};

/// One of the seven data patterns used by the paper's characterization
/// (Table 1). Fills depend only on the *physical distance parity* from
/// the victim row: rows at even distance (`V ± [0,2,4,6,8]`) get one
/// byte, rows at odd distance (`V ± [1,3,5,7]`) the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// 0x55 everywhere.
    Colstripe,
    /// 0xAA everywhere (complement of colstripe).
    ColstripeInv,
    /// 0x55 at even distance, 0xAA at odd distance.
    Checkered,
    /// 0xAA at even distance, 0x55 at odd distance.
    CheckeredInv,
    /// 0x00 at even distance, 0xFF at odd distance.
    Rowstripe,
    /// 0xFF at even distance, 0x00 at odd distance.
    RowstripeInv,
    /// Per-row pseudo-random bytes derived from a seed.
    Random,
}

impl PatternKind {
    /// All seven patterns, in Table 1 order.
    pub const ALL: [PatternKind; 7] = [
        PatternKind::Colstripe,
        PatternKind::ColstripeInv,
        PatternKind::Checkered,
        PatternKind::CheckeredInv,
        PatternKind::Rowstripe,
        PatternKind::RowstripeInv,
        PatternKind::Random,
    ];

    /// Table-1 name of the pattern.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::Colstripe => "colstripe",
            PatternKind::ColstripeInv => "~colstripe",
            PatternKind::Checkered => "checkered",
            PatternKind::CheckeredInv => "~checkered",
            PatternKind::Rowstripe => "rowstripe",
            PatternKind::RowstripeInv => "~rowstripe",
            PatternKind::Random => "random",
        }
    }
}

/// A concrete data pattern: a [`PatternKind`] plus the seed used by the
/// random pattern.
///
/// ```
/// use rh_dram::{DataPattern, PatternKind};
///
/// let p = DataPattern::new(PatternKind::Rowstripe, 0);
/// assert_eq!(p.fill_byte(0), Some(0x00)); // victim row
/// assert_eq!(p.fill_byte(1), Some(0xFF)); // adjacent rows
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataPattern {
    /// Which Table-1 pattern.
    pub kind: PatternKind,
    /// Seed for the random pattern (ignored by the deterministic ones).
    pub seed: u64,
}

impl DataPattern {
    /// Creates a pattern.
    pub fn new(kind: PatternKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// The uniform fill byte of a row at signed `distance` from the
    /// victim, or `None` for the random pattern (which is not uniform).
    pub fn fill_byte(self, distance: i64) -> Option<u8> {
        let even = distance.rem_euclid(2) == 0;
        match self.kind {
            PatternKind::Colstripe => Some(0x55),
            PatternKind::ColstripeInv => Some(0xAA),
            PatternKind::Checkered => Some(if even { 0x55 } else { 0xAA }),
            PatternKind::CheckeredInv => Some(if even { 0xAA } else { 0x55 }),
            PatternKind::Rowstripe => Some(if even { 0x00 } else { 0xFF }),
            PatternKind::RowstripeInv => Some(if even { 0xFF } else { 0x00 }),
            PatternKind::Random => None,
        }
    }

    /// Produces the full row fill for the physical row `row` at signed
    /// `distance` from the victim row.
    pub fn row_fill(self, row: RowAddr, distance: i64, row_bytes: usize) -> Vec<u8> {
        match self.fill_byte(distance) {
            Some(b) => vec![b; row_bytes],
            None => {
                // Deterministic per-row pseudo-random stream (splitmix64).
                let mut state = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(row.0).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                let mut out = Vec::with_capacity(row_bytes);
                while out.len() < row_bytes {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    out.extend_from_slice(&z.to_le_bytes());
                }
                out.truncate(row_bytes);
                out
            }
        }
    }

    /// The bit stored by this pattern at (`row` at `distance`,
    /// byte `byte`, bit `bit`): `true` = 1.
    pub fn bit_at(self, row: RowAddr, distance: i64, byte: usize, bit: u8) -> bool {
        match self.fill_byte(distance) {
            Some(b) => (b >> bit) & 1 == 1,
            None => {
                let fill = self.row_fill(row, distance, byte + 1);
                (fill[byte] >> bit) & 1 == 1
            }
        }
    }
}

/// The XOR of `a` and `b` over their common length, as little-endian
/// `u64` lanes paired with each lane's byte offset. The last lane
/// holds the byte tail zero-padded, so a set bit `k` of the lane at
/// offset `o` is bit `k % 8` of byte `o + k / 8`.
fn xor_lanes<'a>(a: &'a [u8], b: &'a [u8]) -> impl Iterator<Item = (usize, u64)> + 'a {
    fn lane(bytes: &[u8]) -> u64 {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    }
    let n = a.len().min(b.len());
    let (a, b) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    let tail = lane(a.remainder()) ^ lane(b.remainder());
    a.zip(b)
        .map(|(x, y)| lane(x) ^ lane(y))
        .chain(std::iter::once(tail))
        .enumerate()
        .map(|(i, x)| (8 * i, x))
}

/// The number of bits in which a read-back row differs from the
/// pattern written to it, counted over the common length of `a` and
/// `b` (bytes past the shorter slice are not compared).
///
/// ```
/// use rh_dram::bit_errors;
///
/// assert_eq!(bit_errors(&[0xFF; 9], &[0x00; 9]), 72);
/// assert_eq!(bit_errors(&[0x0F, 0x01], &[0x00]), 4);
/// ```
pub fn bit_errors(a: &[u8], b: &[u8]) -> u64 {
    xor_lanes(a, b).map(|(_, x)| u64::from(x.count_ones())).sum()
}

/// The `(byte, bit)` positions in which `a` and `b` differ over their
/// common length, byte-major and bit-minor (bit 0 = least significant)
/// — the positions [`bit_errors`] counts.
///
/// ```
/// use rh_dram::flipped_bits;
///
/// let cells: Vec<_> = flipped_bits(&[0x00, 0x81], &[0x04, 0x00]).collect();
/// assert_eq!(cells, [(0, 2), (1, 0), (1, 7)]);
/// ```
pub fn flipped_bits<'a>(a: &'a [u8], b: &'a [u8]) -> impl Iterator<Item = (u32, u8)> + 'a {
    xor_lanes(a, b).flat_map(|(offset, mut x)| {
        std::iter::from_fn(move || {
            if x == 0 {
                return None;
            }
            let k = x.trailing_zeros() as usize;
            x &= x - 1;
            Some(((offset + k / 8) as u32, (k % 8) as u8))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_bytes() {
        let s = 7;
        assert_eq!(DataPattern::new(PatternKind::Colstripe, s).fill_byte(3), Some(0x55));
        assert_eq!(DataPattern::new(PatternKind::Checkered, s).fill_byte(0), Some(0x55));
        assert_eq!(DataPattern::new(PatternKind::Checkered, s).fill_byte(-1), Some(0xAA));
        assert_eq!(DataPattern::new(PatternKind::Rowstripe, s).fill_byte(2), Some(0x00));
        assert_eq!(DataPattern::new(PatternKind::Rowstripe, s).fill_byte(-3), Some(0xFF));
    }

    #[test]
    fn complements_are_complementary() {
        for d in -8i64..=8 {
            let c = DataPattern::new(PatternKind::Checkered, 0).fill_byte(d).unwrap();
            let i = DataPattern::new(PatternKind::CheckeredInv, 0).fill_byte(d).unwrap();
            assert_eq!(c ^ i, 0xFF);
        }
    }

    #[test]
    fn negative_distance_parity() {
        // rem_euclid keeps -2 even and -1 odd.
        let p = DataPattern::new(PatternKind::Rowstripe, 0);
        assert_eq!(p.fill_byte(-2), p.fill_byte(2));
        assert_eq!(p.fill_byte(-1), p.fill_byte(1));
    }

    #[test]
    fn random_is_deterministic_and_row_dependent() {
        let p = DataPattern::new(PatternKind::Random, 42);
        let a = p.row_fill(RowAddr(10), 0, 64);
        let b = p.row_fill(RowAddr(10), 0, 64);
        let c = p.row_fill(RowAddr(11), 0, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn random_differs_across_seeds() {
        let a = DataPattern::new(PatternKind::Random, 1).row_fill(RowAddr(5), 0, 32);
        let b = DataPattern::new(PatternKind::Random, 2).row_fill(RowAddr(5), 0, 32);
        assert_ne!(a, b);
    }

    #[test]
    fn bit_at_matches_row_fill() {
        for kind in PatternKind::ALL {
            let p = DataPattern::new(kind, 9);
            let fill = p.row_fill(RowAddr(3), 1, 16);
            for (byte, fill_byte) in fill.iter().enumerate() {
                for bit in 0..8 {
                    assert_eq!(
                        p.bit_at(RowAddr(3), 1, byte, bit),
                        (fill_byte >> bit) & 1 == 1,
                        "{kind:?} byte {byte} bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_has_seven_patterns_with_unique_names() {
        let names: std::collections::HashSet<_> =
            PatternKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 7);
    }
}
