//! QAM constellation mapping.
//!
//! Gray-coded square constellations (BPSK through 256-QAM), normalised to
//! unit average symbol energy as in 3GPP TS 38.211 §5.1. The paper's
//! evaluation uses 64-QAM (6 bits/symbol) and mentions 256-QAM as an
//! avenue of improvement; all five schemes are implemented.

use agora_math::{Cf32, SimdTier};

/// Modulation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModScheme {
    /// 1 bit/symbol.
    Bpsk,
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol (the paper's evaluation setting).
    Qam64,
    /// 8 bits/symbol.
    Qam256,
}

impl ModScheme {
    /// Bits carried per modulated symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            ModScheme::Bpsk => 1,
            ModScheme::Qpsk => 2,
            ModScheme::Qam16 => 4,
            ModScheme::Qam64 => 6,
            ModScheme::Qam256 => 8,
        }
    }

    /// Number of constellation points.
    pub fn order(self) -> usize {
        1 << self.bits_per_symbol()
    }

    /// Per-axis amplitude normaliser so that average symbol energy is 1.
    /// For square M-QAM with PAM levels `{±1, ±3, ..}`, the mean energy is
    /// `2 (L^2 - 1) / 3` with `L = sqrt(M)` levels per axis.
    pub fn scale(self) -> f32 {
        match self {
            ModScheme::Bpsk => 1.0,
            ModScheme::Qpsk => 1.0 / 2.0f32.sqrt(),
            ModScheme::Qam16 => 1.0 / 10.0f32.sqrt(),
            ModScheme::Qam64 => 1.0 / 42.0f32.sqrt(),
            ModScheme::Qam256 => 1.0 / 170.0f32.sqrt(),
        }
    }

    /// Parses the conventional names ("BPSK", "QPSK", "16QAM", "64QAM",
    /// "256QAM"), case-insensitively.
    pub fn parse(s: &str) -> Option<ModScheme> {
        match s.to_ascii_uppercase().as_str() {
            "BPSK" => Some(ModScheme::Bpsk),
            "QPSK" | "4QAM" => Some(ModScheme::Qpsk),
            "16QAM" | "QAM16" => Some(ModScheme::Qam16),
            "64QAM" | "QAM64" => Some(ModScheme::Qam64),
            "256QAM" | "QAM256" => Some(ModScheme::Qam256),
            _ => None,
        }
    }
}

/// Gray-maps `b` bits (value `0..2^b`) to a PAM level in `{±1, ±3, ...}`.
///
/// Uses the standard binary-reflected Gray code so adjacent levels differ
/// in exactly one bit.
fn gray_to_pam(gray: u32, bits: u32) -> f32 {
    // Convert Gray code to binary index.
    let mut bin = gray;
    let mut shift = 1;
    while shift < bits {
        bin ^= bin >> shift;
        shift <<= 1;
    }
    let levels = 1i32 << bits;
    (2 * bin as i32 - (levels - 1)) as f32
}

/// Inverse of [`gray_to_pam`]: nearest PAM level index -> Gray bits.
fn pam_index_to_gray(index: u32) -> u32 {
    index ^ (index >> 1)
}

/// Maps a bit group (packed LSB-first into `v`, `bits_per_symbol` wide)
/// to a constellation point. For square QAM the first half of the bits
/// select the I axis, the second half the Q axis.
pub fn map_symbol(scheme: ModScheme, v: u32) -> Cf32 {
    let s = scheme.scale();
    match scheme {
        ModScheme::Bpsk => Cf32::new(if v & 1 == 0 { s } else { -s }, 0.0),
        _ => {
            let half = (scheme.bits_per_symbol() / 2) as u32;
            let mask = (1u32 << half) - 1;
            let i_bits = v & mask;
            let q_bits = (v >> half) & mask;
            Cf32::new(gray_to_pam(i_bits, half) * s, gray_to_pam(q_bits, half) * s)
        }
    }
}

/// Hard-decision inverse of [`map_symbol`]: nearest constellation point.
pub fn unmap_symbol(scheme: ModScheme, z: Cf32) -> u32 {
    match scheme {
        ModScheme::Bpsk => (z.re < 0.0) as u32,
        _ => {
            let half = (scheme.bits_per_symbol() / 2) as u32;
            let levels = 1i32 << half;
            let s = scheme.scale();
            let quant = |x: f32| -> u32 {
                // Nearest level in {±1, ±3, ...} scaled by s; index 0..levels.
                let idx = ((x / s + (levels - 1) as f32) / 2.0).round() as i32;
                idx.clamp(0, levels - 1) as u32
            };
            let gi = pam_index_to_gray(quant(z.re));
            let gq = pam_index_to_gray(quant(z.im));
            gi | (gq << half)
        }
    }
}

/// Modulates a bit slice (one bit per byte) into symbols. The bit count
/// must be a multiple of `bits_per_symbol`; bits within a symbol are
/// consumed LSB-first.
pub fn modulate(scheme: ModScheme, bits: &[u8], out: &mut Vec<Cf32>) {
    let bps = scheme.bits_per_symbol();
    assert_eq!(bits.len() % bps, 0, "bit count must divide bits/symbol");
    out.clear();
    out.reserve(bits.len() / bps);
    for group in bits.chunks_exact(bps) {
        let mut v = 0u32;
        for (i, &b) in group.iter().enumerate() {
            v |= ((b & 1) as u32) << i;
        }
        out.push(map_symbol(scheme, v));
    }
}

/// Returns the full constellation (index -> point), used by the exact
/// max-log soft demapper and tests.
pub fn constellation(scheme: ModScheme) -> Vec<Cf32> {
    (0..scheme.order() as u32).map(|v| map_symbol(scheme, v)).collect()
}

/// A planned modulator for one scheme and tier: [`constellation`] as a
/// lookup table indexed straight by packed bits — what [`modulate`] does a
/// bit and a [`map_symbol`] at a time, with the same points out. The
/// Avx512 tier looks each axis up in registers instead
/// ([`modulate_avx512`]); every tier writes the same bits.
#[derive(Debug, Clone)]
pub struct Modulator {
    /// `map_symbol(scheme, v)` at index `v`.
    table: Vec<Cf32>,
    bps: usize,
    tier: SimdTier,
    /// Per axis, the level of label `v % 2^half` at index `v`: both axes
    /// of a square scheme carry the same levels, `constellation(scheme)[v]
    /// .re` for `v < 2^half`. Unused for BPSK.
    levels: [f32; 16],
}

impl Modulator {
    /// Plans the modulator of `scheme` on `tier`, clamped to what the CPU
    /// supports.
    pub fn new(scheme: ModScheme, tier: SimdTier) -> Self {
        let table = constellation(scheme);
        let half = scheme.bits_per_symbol() / 2;
        let levels = core::array::from_fn(|v| table[v % (1 << half)].re);
        let tier = tier.min(SimdTier::cached());
        Self { table, bps: scheme.bits_per_symbol(), tier, levels }
    }

    /// Modulates the packed bits of every `(bits, out)` pair into its
    /// `out`, one tier dispatch for them all (a precode task's block of
    /// every user): bit `j` of a row is bit `j % 8` of `bits[j / 8]`, a
    /// symbol takes the next `bits_per_symbol` of them LSB-first (so
    /// [`modulate`]'s byte `j` is bit `j`), and bits past `out.len() *
    /// bits_per_symbol` in the last byte are ignored. Eight symbols are
    /// `bits_per_symbol` whole bytes, one little-endian word. No
    /// allocation.
    ///
    /// # Panics
    /// Panics unless a pair's `bits` is `ceil(out.len() *
    /// bits_per_symbol / 8)` bytes, before that pair is written.
    pub fn modulate_rows<'b, 'o>(
        &self,
        rows: impl IntoIterator<Item = (&'b [u8], &'o mut [Cf32])>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx512 && self.bps > 1 {
            // SAFETY: `new` clamped the tier to what the CPU supports.
            unsafe { modulate_avx512(&self.levels, self.bps, rows.into_iter()) };
            return;
        }
        let mask = (1u64 << self.bps) - 1;
        for (bits, out) in rows {
            check_row(bits, out, self.bps);
            for (bytes, out) in bits.chunks(self.bps).zip(out.chunks_mut(8)) {
                let mut word = word_of(bytes);
                for z in out {
                    *z = self.table[(word & mask) as usize];
                    word >>= self.bps;
                }
            }
        }
    }
}

/// Panics unless `bits` holds exactly the bits of `out`'s symbols.
fn check_row(bits: &[u8], out: &[Cf32], bps: usize) {
    assert_eq!(bits.len(), (out.len() * bps).div_ceil(8), "byte count must match the symbol count");
}

/// Up to eight bytes as a little-endian word, zero above them.
#[inline]
fn word_of(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// [`Modulator::modulate_rows`] on the Avx512 tier, for square schemes
/// (`bps = 2 * half`): eight symbols a word, one `zmm` of output. The word
/// is broadcast, and `vpmultishiftqb` moves field `j` — bits `half * j..`,
/// the I label of symbol `j / 2` for even `j` and its Q label for odd —
/// into the low byte of 32-bit lane `j`; `vpermps` looks the lane up in
/// `levels` by its low four bits, and `levels` repeats every `2^half`
/// entries, so the bits above the field select nothing. The levels are
/// the table walk's own floats, so the bits are its. A short last word
/// stores its symbols masked.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512VBMI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vbmi")]
unsafe fn modulate_avx512<'b, 'o>(
    levels: &[f32; 16],
    bps: usize,
    rows: impl Iterator<Item = (&'b [u8], &'o mut [Cf32])>,
) {
    use core::arch::x86_64::*;
    let table = _mm512_loadu_ps(levels.as_ptr());
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let shifts = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(bps as i32 / 2));
    for (bits, out) in rows {
        check_row(bits, out, bps);
        for (bytes, out) in bits.chunks(bps).zip(out.chunks_mut(8)) {
            let fields =
                _mm512_multishift_epi64_epi8(shifts, _mm512_set1_epi64(word_of(bytes) as i64));
            let v = _mm512_permutexvar_ps(fields, table);
            let p = out.as_mut_ptr() as *mut f32;
            if out.len() == 8 {
                _mm512_storeu_ps(p, v);
            } else {
                _mm512_mask_storeu_ps(p, ((1u32 << (2 * out.len())) - 1) as __mmask16, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMES: [ModScheme; 5] =
        [ModScheme::Bpsk, ModScheme::Qpsk, ModScheme::Qam16, ModScheme::Qam64, ModScheme::Qam256];

    #[test]
    fn unit_average_energy() {
        for scheme in SCHEMES {
            let pts = constellation(scheme);
            let avg: f32 = pts.iter().map(|z| z.norm_sqr()).sum::<f32>() / pts.len() as f32;
            assert!((avg - 1.0).abs() < 1e-3, "{scheme:?} energy {avg}");
        }
    }

    #[test]
    fn constellation_points_distinct() {
        for scheme in SCHEMES {
            let pts = constellation(scheme);
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!((pts[i] - pts[j]).abs() > 1e-4, "{scheme:?} points {i},{j} collide");
                }
            }
        }
    }

    #[test]
    fn map_unmap_roundtrip() {
        for scheme in SCHEMES {
            for v in 0..scheme.order() as u32 {
                let z = map_symbol(scheme, v);
                assert_eq!(unmap_symbol(scheme, z), v, "{scheme:?} value {v}");
            }
        }
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        for scheme in SCHEMES {
            let bps = scheme.bits_per_symbol();
            let bits: Vec<u8> = (0..bps * 50).map(|i| ((i * 29 + 7) % 2) as u8).collect();
            let mut syms = Vec::new();
            modulate(scheme, &bits, &mut syms);
            assert_eq!(syms.len(), 50);
            // Hard decision per symbol, bits LSB-first like `modulate`.
            let back: Vec<u8> = syms
                .iter()
                .flat_map(|&z| {
                    let v = unmap_symbol(scheme, z);
                    (0..bps).map(move |i| ((v >> i) & 1) as u8)
                })
                .collect();
            assert_eq!(bits, back, "{scheme:?} roundtrip failed");
        }
    }

    #[test]
    fn gray_mapping_adjacent_levels_differ_by_one_bit() {
        // For 64-QAM, walk the 8 PAM levels on one axis: consecutive
        // levels must differ in exactly one bit.
        for idx in 0..7u32 {
            let a = pam_index_to_gray(idx);
            let b = pam_index_to_gray(idx + 1);
            assert_eq!((a ^ b).count_ones(), 1);
        }
    }

    #[test]
    fn hard_decision_robust_to_small_noise() {
        let scheme = ModScheme::Qam64;
        // Minimum distance is 2*scale; noise below scale/2 never flips.
        let eps = scheme.scale() * 0.4;
        for v in 0..64u32 {
            let z = map_symbol(scheme, v) + Cf32::new(eps, -eps);
            assert_eq!(unmap_symbol(scheme, z), v);
        }
    }

    /// The planned modulator against its definition: the table is
    /// `map_symbol` at every index, and `modulate_rows` on packed bytes
    /// equals `modulate`'s bit-at-a-time gather on the same bits one per
    /// byte — whole words, short last words whose spare bits are set, and
    /// nothing at all — on every tier.
    #[test]
    fn planned_modulator_matches_map_symbol_and_the_scalar_gather() {
        let packed = random_bytes(64 * 8 + 7);
        let unpacked: Vec<u8> =
            (0..packed.len() * 8).map(|j| packed[j / 8] >> (j % 8) & 1).collect();
        let mut want = Vec::new();
        for scheme in SCHEMES {
            let bps = scheme.bits_per_symbol();
            for tier in SimdTier::supported() {
                let planned = Modulator::new(scheme, tier);
                assert_eq!(planned.table.len(), scheme.order());
                for (v, &z) in planned.table.iter().enumerate() {
                    assert_eq!(z, map_symbol(scheme, v as u32), "{scheme:?} index {v}");
                }
                for symbols in [0, 1, 7, 8, 9, 16, 61] {
                    modulate(scheme, &unpacked[24..24 + symbols * bps], &mut want);
                    let mut got = vec![Cf32::ZERO; symbols];
                    let bits = &packed[3..3 + (symbols * bps).div_ceil(8)];
                    planned.modulate_rows([(bits, &mut got[..])]);
                    assert_eq!(got, want, "{scheme:?} {tier:?} {symbols} symbols");
                }
            }
        }
    }

    /// Every tier's `modulate_rows` writes the table walk's bits, from
    /// QPSK up: random and all-ones words, rows of whole words and rows
    /// whose short last word has its spare bits set, several rows a call.
    #[test]
    fn modulator_tiers_write_the_table_walks_bits() {
        let bits =
            |z: &[Cf32]| z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect::<Vec<_>>();
        for scheme in &SCHEMES[1..] {
            let bps = scheme.bits_per_symbol();
            let walk = Modulator::new(*scheme, SimdTier::Scalar);
            for bytes in [random_bytes(4096), vec![0xff; 4096]] {
                for symbols in [8, 5, 13, 64] {
                    let len = (symbols * bps).div_ceil(8);
                    let rows: Vec<&[u8]> = bytes.chunks_exact(len).take(16).collect();
                    let mut want = vec![Cf32::ZERO; rows.len() * symbols];
                    walk.modulate_rows(rows.iter().copied().zip(want.chunks_exact_mut(symbols)));
                    for tier in SimdTier::supported() {
                        let mut got = vec![Cf32::new(f32::NAN, 0.0); want.len()];
                        let m = Modulator::new(*scheme, tier);
                        m.modulate_rows(rows.iter().copied().zip(got.chunks_exact_mut(symbols)));
                        assert!(bits(&got) == bits(&want), "{scheme:?} {tier:?} {symbols}");
                    }
                }
            }
        }
    }

    fn random_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn parse_names() {
        assert_eq!(ModScheme::parse("64qam"), Some(ModScheme::Qam64));
        assert_eq!(ModScheme::parse("QPSK"), Some(ModScheme::Qpsk));
        assert_eq!(ModScheme::parse("512QAM"), None);
    }

    #[test]
    fn paper_bits_per_symbol() {
        // "64-QAM (6-bit) modulation" (§6.1.3).
        assert_eq!(ModScheme::Qam64.bits_per_symbol(), 6);
        assert_eq!(ModScheme::Qam16.bits_per_symbol(), 4);
    }
}
