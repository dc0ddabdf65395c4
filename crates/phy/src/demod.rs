//! Soft demodulation: per-bit log-likelihood ratios for the LDPC decoder.
//!
//! The equalizer hands each user a stream of noisy constellation points;
//! this module converts them to LLRs with the max-log approximation
//! `LLR(b) = (min_{s: b=1} |y-s|^2 - min_{s: b=0} |y-s|^2) / sigma^2`
//! (positive LLR means bit 0 more likely, matching `agora-ldpc`).
//!
//! * [`demod_soft_exact`] — exact max-log over the whole 2-D
//!   constellation; the reference implementation for any scheme.
//! * [`Demapper`] — per-axis max-log for Gray square QAM, planned once
//!   per scheme and tier. Because the I and Q labels are independent, the
//!   2-D search factorises into two 1-D searches (8 levels instead of 64
//!   points for 64-QAM), which is the structure the vector body exploits
//!   — the paper's AVX-512 demodulator at AVX2 width. Bit-exact across
//!   tiers, and equal to the exhaustive search to rounding.
//! * [`demod_soft`] / [`demod_soft_simd`] — the demapper's scalar and
//!   detected-tier bodies behind a `Vec` signature.
//! * [`Demapper::demap_quantized`] — the demapper with
//!   [`quantize_llrs`] fused into its store: the `i8` LLRs the decoder
//!   reads, with no float row in between.

use crate::modulation::{constellation, ModScheme};
use agora_ldpc::quantize_llrs;
use agora_math::{Cf32, SimdTier};

/// Exact max-log LLRs by exhaustive search over the constellation.
///
/// Output layout: `bits_per_symbol` consecutive LLRs per input symbol,
/// LSB-first (same bit order as [`crate::modulation::modulate`]).
pub fn demod_soft_exact(scheme: ModScheme, symbols: &[Cf32], noise_var: f32, out: &mut Vec<f32>) {
    let pts = constellation(scheme);
    let bps = scheme.bits_per_symbol();
    out.clear();
    out.reserve(symbols.len() * bps);
    let inv_nv = 1.0 / noise_var.max(1e-12);
    for &y in symbols {
        for bit in 0..bps {
            let mut d0 = f32::INFINITY;
            let mut d1 = f32::INFINITY;
            for (v, &s) in pts.iter().enumerate() {
                let d = (y - s).norm_sqr();
                if (v >> bit) & 1 == 0 {
                    d0 = d0.min(d);
                } else {
                    d1 = d1.min(d);
                }
            }
            out.push((d1 - d0) * inv_nv);
        }
    }
}

/// Binary-reflected Gray label of PAM level `index` (lowest level first).
const fn gray(index: usize) -> usize {
    index ^ (index >> 1)
}

/// A planned max-log demapper for one modulation scheme: the per-axis PAM
/// levels are built once, the body is picked by the pinned [`SimdTier`],
/// and LLRs go straight into a caller-owned slice — no allocation, no
/// feature probe and no staging copy per call.
///
/// The vector body never separates real from imaginary parts. A row of
/// interleaved `Cf32` is a row of independent PAM observations — lane
/// `2 * symbol + axis` — so four subcarriers fill the eight lanes of one
/// register, and the per-lane operations (`sub`, `mul`, the `min` chain of
/// each label bit, `sub`, `mul`) are the scalar body's, in its order. That
/// leaves `L_k[lane]`, one register per axis bit `k`; the frame wants
/// `out[symbol * bits_per_symbol + axis * half + k]`, which is
/// `out[lane * half + k]` — a `half`-way interleave of the registers,
/// done in registers ([`store_plane_order`]) and stored whole. The `i8`
/// entry, [`Demapper::demap_quantized`], quantises the registers first and
/// does the interleave on bytes ([`store_bytes`]).
#[derive(Debug, Clone)]
pub struct Demapper {
    scheme: ModScheme,
    tier: SimdTier,
    /// Label bits per axis; 0 for BPSK, which has no imaginary axis.
    half: usize,
    /// The `1 << half` PAM levels of one axis, lowest first; level `i`
    /// carries the label [`gray`]`(i)`.
    levels: [f32; 16],
}

impl Demapper {
    /// Plans the demapper of `scheme` on `tier`, clamped to what the CPU
    /// supports.
    pub fn new(scheme: ModScheme, tier: SimdTier) -> Self {
        let half = scheme.bits_per_symbol() / 2;
        let count = 1i32 << half;
        let mut levels = [0.0; 16];
        for (idx, level) in levels.iter_mut().enumerate().take(count as usize) {
            *level = (2 * idx as i32 - (count - 1)) as f32 * scheme.scale();
        }
        Self { scheme, tier: tier.min(SimdTier::cached()), half, levels }
    }

    /// LLRs of `symbols` into `out`, `bits_per_symbol` per symbol in the
    /// order [`demod_soft_exact`] documents, each scaled by `inv_noise_var`
    /// (the reciprocal post-equalization noise variance). Every tier
    /// writes the same bits.
    ///
    /// # Panics
    /// Panics if `out.len() != symbols.len() * bits_per_symbol`.
    pub fn demap(&self, symbols: &[Cf32], inv_noise_var: f32, out: &mut [f32]) {
        let bps = self.scheme.bits_per_symbol();
        assert_eq!(out.len(), symbols.len() * bps, "LLR row length mismatch");
        // The vector body takes whole groups of four symbols; the scalar
        // body takes the rest, and all of BPSK.
        let done = match self.tier {
            // SAFETY: `new` clamped the tier to what the CPU supports, and
            // the lengths were checked above.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe {
                let (levels, inv) = (&self.levels, inv_noise_var);
                match self.half {
                    1 => demap_avx2::<1>(levels, symbols, inv, out),
                    2 => demap_avx2::<2>(levels, symbols, inv, out),
                    3 => demap_avx2::<3>(levels, symbols, inv, out),
                    4 => demap_avx2::<4>(levels, symbols, inv, out),
                    _ => 0,
                }
            },
            _ => 0,
        };
        self.demap_scalar(&symbols[done..], inv_noise_var, &mut out[done * bps..]);
    }

    /// [`Self::demap`] then [`quantize_llrs`]`(.., scale)`, byte for byte,
    /// without the float row: the `i8` LLRs the decoder reads. The vector
    /// body scales its LLR registers by `scale` — a second multiply, after
    /// the one by `inv_noise_var`, as the two passes do — then rounds,
    /// clamps and signs them as the quantiser does, packs them to bytes
    /// and stores them in the row's order.
    ///
    /// # Panics
    /// Panics if `out.len() != symbols.len() * bits_per_symbol`.
    pub fn demap_quantized(
        &self,
        symbols: &[Cf32],
        inv_noise_var: f32,
        scale: f32,
        out: &mut [i8],
    ) {
        let bps = self.scheme.bits_per_symbol();
        assert_eq!(out.len(), symbols.len() * bps, "LLR row length mismatch");
        let done = match self.tier {
            // SAFETY: as in `demap`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe {
                let (levels, inv) = (&self.levels, inv_noise_var);
                match self.half {
                    1 => demap_quantized_avx2::<1>(levels, symbols, inv, scale, out),
                    2 => demap_quantized_avx2::<2>(levels, symbols, inv, scale, out),
                    3 => demap_quantized_avx2::<3>(levels, symbols, inv, scale, out),
                    4 => demap_quantized_avx2::<4>(levels, symbols, inv, scale, out),
                    _ => 0,
                }
            },
            _ => 0,
        };
        if done == symbols.len() {
            return;
        }
        // The rest, and every symbol on the scalar tier: the two passes,
        // through a float row on the stack.
        let mut row = [0.0f32; 64];
        let per = row.len() / bps;
        for (symbols, out) in
            symbols[done..].chunks(per).zip(out[done * bps..].chunks_mut(per * bps))
        {
            let llrs = &mut row[..out.len()];
            self.demap_scalar(symbols, inv_noise_var, llrs);
            quantize_llrs(llrs, out, scale);
        }
    }

    /// The scalar body and the oracle of the vector one: per axis, the
    /// factorised max-log search over the labelled PAM alphabet.
    fn demap_scalar(&self, symbols: &[Cf32], inv_nv: f32, out: &mut [f32]) {
        if self.scheme == ModScheme::Bpsk {
            // d1 - d0 = (y+1)^2 - (y-1)^2 = 4y.
            for (o, y) in out.iter_mut().zip(symbols) {
                *o = 4.0 * y.re * inv_nv;
            }
            return;
        }
        let half = self.half;
        let levels = &self.levels[..1 << half];
        for (y, o) in symbols.iter().zip(out.chunks_exact_mut(2 * half)) {
            for (x, o) in [y.re, y.im].into_iter().zip(o.chunks_exact_mut(half)) {
                let mut d0 = [f32::INFINITY; 4];
                let mut d1 = [f32::INFINITY; 4];
                for (idx, &level) in levels.iter().enumerate() {
                    let d = (x - level) * (x - level);
                    for k in 0..half {
                        let best = if (gray(idx) >> k) & 1 == 0 { &mut d0[k] } else { &mut d1[k] };
                        if d < *best {
                            *best = d;
                        }
                    }
                }
                for k in 0..half {
                    o[k] = (d1[k] - d0[k]) * inv_nv;
                }
            }
        }
    }
}

/// The vector body of [`Demapper::demap`] for `HALF` label bits per axis
/// (a constant, so the level loop unrolls and every label test folds
/// away): demaps whole groups of four symbols — eight lanes — and
/// returns how many symbols that was.
///
/// # Safety
/// The CPU must support AVX2, and `out` must hold `2 * HALF` LLRs per
/// symbol (checked by [`Demapper::demap`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn demap_avx2<const HALF: usize>(
    levels: &[f32; 16],
    symbols: &[Cf32],
    inv_nv: f32,
    out: &mut [f32],
) -> usize {
    use core::arch::x86_64::*;
    debug_assert_eq!(out.len(), symbols.len() * 2 * HALF);
    let groups = symbols.len() / 4;
    let inv_nv = _mm256_set1_ps(inv_nv);
    for group in 0..groups {
        let llr = llr_registers::<HALF, false>(levels, symbols, group, inv_nv);
        // SAFETY: eight lanes are `8 * HALF` LLRs, in bounds by the length
        // relation above.
        store_plane_order(llr, out.as_mut_ptr().add(group * 8 * HALF));
    }
    groups * 4
}

/// The vector body of [`Demapper::demap_quantized`]: [`demap_avx2`]'s LLR
/// registers, each quantised ([`quantize_lanes`]), then packed to bytes
/// and interleaved into the row's order as bytes ([`store_bytes`]).
/// Returns how many symbols that was.
///
/// # Safety
/// The CPU must support AVX2, and `out` must hold `2 * HALF` LLRs per
/// symbol (checked by [`Demapper::demap_quantized`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn demap_quantized_avx2<const HALF: usize>(
    levels: &[f32; 16],
    symbols: &[Cf32],
    inv_nv: f32,
    scale: f32,
    out: &mut [i8],
) -> usize {
    use core::arch::x86_64::*;
    debug_assert_eq!(out.len(), symbols.len() * 2 * HALF);
    let groups = symbols.len() / 4;
    let (inv_nv, scale) = (_mm256_set1_ps(inv_nv), _mm256_set1_ps(scale));
    for group in 0..groups {
        let llr = llr_registers::<HALF, true>(levels, symbols, group, inv_nv);
        let mut q = [_mm256_setzero_si256(); HALF];
        for (q, &l) in q.iter_mut().zip(&llr) {
            *q = quantize_lanes(l, scale);
        }
        // SAFETY: eight lanes are `8 * HALF` LLRs, in bounds by the length
        // relation above.
        store_bytes(q, out.as_mut_ptr().add(group * 8 * HALF));
    }
    groups * 4
}

/// The LLRs of symbols `4 * group..4 * group + 4`, lane-major: register
/// `k` holds axis bit `k` of the eight lanes. The per-lane operations are
/// the scalar body's, in its order. With `FROM_FIRST`, each running
/// minimum starts at its first level's distance instead of at +inf, one
/// `min` fewer per minimum: that changes a lane only when the symbol is
/// NaN, whose LLR is NaN either way but with other NaN bits — which the
/// quantised body, mapping every NaN to 0, may ignore and `demap` may not.
///
/// # Safety
/// The CPU must support AVX2 and `symbols` must hold the group.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn llr_registers<const HALF: usize, const FROM_FIRST: bool>(
    levels: &[f32; 16],
    symbols: &[Cf32],
    group: usize,
    inv_nv: core::arch::x86_64::__m256,
) -> [core::arch::x86_64::__m256; HALF] {
    use core::arch::x86_64::*;
    debug_assert!(4 * group + 4 <= symbols.len());
    let inf = _mm256_set1_ps(f32::INFINITY);
    // SAFETY: `Cf32` is `repr(C)` `{ re, im }`, so the group's symbols
    // are eight in-bounds `f32`s.
    let x = _mm256_loadu_ps(symbols.as_ptr().add(4 * group) as *const f32);
    let mut d0 = [inf; HALF];
    let mut d1 = [inf; HALF];
    // Per minimum, whether it holds a distance yet (constant once the
    // level loop unrolls).
    let (mut seen0, mut seen1) = ([!FROM_FIRST; HALF], [!FROM_FIRST; HALF]);
    for (idx, &level) in levels.iter().enumerate().take(1 << HALF) {
        let diff = _mm256_sub_ps(x, _mm256_set1_ps(level));
        let d = _mm256_mul_ps(diff, diff);
        for k in 0..HALF {
            // `min_ps(d, best)` is `d < best ? d : best`: the scalar
            // body's update, NaN handling included.
            if (gray(idx) >> k) & 1 == 0 {
                d0[k] = if seen0[k] { _mm256_min_ps(d, d0[k]) } else { d };
                seen0[k] = true;
            } else {
                d1[k] = if seen1[k] { _mm256_min_ps(d, d1[k]) } else { d };
                seen1[k] = true;
            }
        }
    }
    let mut llr = [inf; HALF];
    for k in 0..HALF {
        llr[k] = _mm256_mul_ps(_mm256_sub_ps(d1[k], d0[k]), inv_nv);
    }
    llr
}

/// [`quantize_llrs`] on eight lanes, as `i32` in `[-127, 127]`: `v = llr
/// * scale`; the magnitude clamped to 127, NaN to 0; rounded half away
/// from zero as `trunc(a + HALF_DOWN)`, which equals the quantiser's
/// rounding for every `a` in `[0, 127]` (`rounding_matches_the_quantiser`);
/// the sign of `v` put back.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quantize_lanes(
    llr: core::arch::x86_64::__m256,
    scale: core::arch::x86_64::__m256,
) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    let v = _mm256_mul_ps(llr, scale);
    let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), v);
    // `max_ps` returns its second operand, 0, when the first is NaN.
    let max = _mm256_set1_ps(agora_ldpc::decoder_i8::I8_LLR_MAX as f32);
    let a = _mm256_min_ps(_mm256_max_ps(abs, _mm256_setzero_ps()), max);
    let q = _mm256_cvttps_epi32(_mm256_add_ps(a, _mm256_set1_ps(HALF_DOWN)));
    // Negates where the sign bit of `v` is set and zeroes where `v` is
    // +0.0; the lanes that differ from `v < 0 ? -q : q` (-0.0, NaN) have
    // `q = 0`.
    _mm256_sign_epi32(q, _mm256_castps_si256(v))
}

/// The largest float below one half. For a magnitude `a` in `[0, 127]`,
/// `a + HALF_DOWN` lands on or above the next integer exactly when `a`'s
/// fraction is one half or more: a tie `k + 0.5` sums to `k + 1 - 2^-25`,
/// which rounds to `k + 1` (to even at `k = 0`), and anything below a tie
/// is at least an ulp of `a` below it, which keeps the sum under the
/// integer. So the truncation is `a` rounded half away from zero.
#[cfg(target_arch = "x86_64")]
const HALF_DOWN: f32 = 0.5 - 1.0 / (1u32 << 25) as f32;

/// The two index vectors of [`store_bytes`]: per 128-bit half, the byte
/// shuffle taking row byte `l * HALF + k` from packed byte `4 * k + l`;
/// then the dwords that hold each half's `4 * HALF` row bytes, low half
/// first.
#[cfg(target_arch = "x86_64")]
const fn row_order<const HALF: usize>() -> ([i8; 32], [i32; 8]) {
    let (mut pick, mut join) = ([-1i8; 32], [0i32; 8]);
    let mut at = 0;
    while at < 4 * HALF {
        let (lane, k) = (at / HALF, at % HALF);
        pick[at] = (4 * k + lane) as i8;
        pick[16 + at] = pick[at];
        at += 1;
    }
    let mut dword = 0;
    while dword < HALF {
        join[dword] = dword as i32;
        join[HALF + dword] = 4 + dword as i32;
        dword += 1;
    }
    (pick, join)
}

/// Stores `out[lane * HALF + k] = q[k][lane]` for the eight lanes of
/// `HALF` registers of `i32` in `[-127, 127]`: packed to bytes, then the
/// `HALF`-way interleave of [`store_plane_order`] done on bytes.
///
/// # Safety
/// The CPU must support AVX2 and `out` must be valid for `8 * HALF` byte
/// writes.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_bytes<const HALF: usize>(q: [core::arch::x86_64::__m256i; HALF], out: *mut i8) {
    use core::arch::x86_64::*;
    // Four registers' worth (those past `HALF` repeat the last one and
    // are never picked): two packs leave byte `4 * k + l` of each 128-bit
    // half holding register `k`'s lane `l` of the half's four.
    let r = |k: usize| q[k.min(HALF - 1)];
    let bytes = _mm256_packs_epi16(_mm256_packs_epi32(r(0), r(1)), _mm256_packs_epi32(r(2), r(3)));
    // One shuffle per half puts those four lanes' `4 * HALF` bytes in row
    // order at its start; one permute joins the halves' dwords.
    let (pick, join) = const { row_order::<HALF>() };
    let rows = _mm256_shuffle_epi8(bytes, _mm256_loadu_si256(pick.as_ptr() as *const __m256i));
    let row = match HALF {
        4 => rows,
        _ => _mm256_permutevar8x32_epi32(rows, _mm256_loadu_si256(join.as_ptr() as *const __m256i)),
    };
    let (lo, hi) = (_mm256_castsi256_si128(row), _mm256_extracti128_si256::<1>(row));
    let out = out as *mut __m128i;
    match HALF {
        1 => _mm_storel_epi64(out, lo),
        2 => _mm_storeu_si128(out, lo),
        3 => {
            _mm_storeu_si128(out, lo);
            _mm_storel_epi64(out.add(1), hi);
        }
        4 => _mm256_storeu_si256(out as *mut __m256i, row),
        _ => unreachable!("square QAM up to 256 points has 1 to 4 bits per axis"),
    }
}

/// Stores `out[lane * HALF + k] = l[k][lane]` for the eight lanes of
/// `HALF` registers: the `HALF`-way interleave that turns lane-major LLRs
/// into the frame's `[symbol][axis][bit]` order.
///
/// # Safety
/// The CPU must support AVX2 and `out` must be valid for `8 * HALF`
/// `f32` writes.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_plane_order<const HALF: usize>(
    l: [core::arch::x86_64::__m256; HALF],
    out: *mut f32,
) {
    use core::arch::x86_64::*;
    match HALF {
        1 => _mm256_storeu_ps(out, l[0]),
        2 => {
            // [a0 b0 a1 b1 | a4 b4 a5 b5] and [a2 b2 a3 b3 | a6 b6 a7 b7].
            let lo = _mm256_unpacklo_ps(l[0], l[1]);
            let hi = _mm256_unpackhi_ps(l[0], l[1]);
            _mm256_storeu_ps(out, _mm256_permute2f128_ps(lo, hi, 0x20));
            _mm256_storeu_ps(out.add(8), _mm256_permute2f128_ps(lo, hi, 0x31));
        }
        3 => {
            // `lane * 3 + k mod 8` is a permutation of the lanes for each
            // `k` (3 is odd), so one permute per register puts every
            // element in its final column and blends pick the rows.
            let a = _mm256_permutevar8x32_ps(l[0], _mm256_setr_epi32(0, 3, 6, 1, 4, 7, 2, 5));
            let b = _mm256_permutevar8x32_ps(l[1], _mm256_setr_epi32(5, 0, 3, 6, 1, 4, 7, 2));
            let c = _mm256_permutevar8x32_ps(l[2], _mm256_setr_epi32(2, 5, 0, 3, 6, 1, 4, 7));
            // Columns {1, 4, 7} (0x92) from the second operand, {2, 5}
            // (0x24) from the third.
            let abc = _mm256_blend_ps(_mm256_blend_ps(a, b, 0x92), c, 0x24);
            let cab = _mm256_blend_ps(_mm256_blend_ps(c, a, 0x92), b, 0x24);
            let bca = _mm256_blend_ps(_mm256_blend_ps(b, c, 0x92), a, 0x24);
            _mm256_storeu_ps(out, abc);
            _mm256_storeu_ps(out.add(8), cab);
            _mm256_storeu_ps(out.add(16), bca);
        }
        4 => {
            // A 4 x 4 transpose in each 128-bit half, then the halves in
            // lane order.
            let ab_lo = _mm256_unpacklo_ps(l[0], l[1]);
            let ab_hi = _mm256_unpackhi_ps(l[0], l[1]);
            let cd_lo = _mm256_unpacklo_ps(l[2], l[3]);
            let cd_hi = _mm256_unpackhi_ps(l[2], l[3]);
            let r0 = _mm256_shuffle_ps(ab_lo, cd_lo, 0x44); // lanes 0 | 4
            let r1 = _mm256_shuffle_ps(ab_lo, cd_lo, 0xEE); // lanes 1 | 5
            let r2 = _mm256_shuffle_ps(ab_hi, cd_hi, 0x44); // lanes 2 | 6
            let r3 = _mm256_shuffle_ps(ab_hi, cd_hi, 0xEE); // lanes 3 | 7
            _mm256_storeu_ps(out, _mm256_permute2f128_ps(r0, r1, 0x20));
            _mm256_storeu_ps(out.add(8), _mm256_permute2f128_ps(r2, r3, 0x20));
            _mm256_storeu_ps(out.add(16), _mm256_permute2f128_ps(r0, r1, 0x31));
            _mm256_storeu_ps(out.add(24), _mm256_permute2f128_ps(r2, r3, 0x31));
        }
        _ => unreachable!("square QAM up to 256 points has 1 to 4 bits per axis"),
    }
}

/// Factorised max-log demapper for Gray square QAM (and BPSK): the scalar
/// body of [`Demapper`], and so the oracle its vector body is held to.
///
/// Identical output to [`demod_soft_exact`]; the tests assert closeness to
/// float rounding.
pub fn demod_soft(scheme: ModScheme, symbols: &[Cf32], noise_var: f32, out: &mut Vec<f32>) {
    demap_to_vec(&Demapper::new(scheme, SimdTier::Scalar), symbols, noise_var, out);
}

/// [`demod_soft`] on the detected tier — [`Demapper`], the kernel the
/// engine's demodulation task runs, behind the `Vec` signature. Bit-exact
/// equal to the scalar path.
pub fn demod_soft_simd(scheme: ModScheme, symbols: &[Cf32], noise_var: f32, out: &mut Vec<f32>) {
    demap_to_vec(&Demapper::new(scheme, SimdTier::cached()), symbols, noise_var, out);
}

fn demap_to_vec(demapper: &Demapper, symbols: &[Cf32], noise_var: f32, out: &mut Vec<f32>) {
    // Not cleared first: the demapper overwrites every element.
    out.resize(symbols.len() * demapper.scheme.bits_per_symbol(), 0.0);
    demapper.demap(symbols, 1.0 / noise_var.max(1e-12), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::{map_symbol, modulate};

    fn rand_symbols(scheme: ModScheme, n: usize, noise: f32, seed: u64) -> (Vec<u8>, Vec<Cf32>) {
        let bps = scheme.bits_per_symbol();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bits: Vec<u8> = (0..n * bps).map(|_| (next() & 1) as u8).collect();
        let mut syms = Vec::new();
        modulate(scheme, &bits, &mut syms);
        let noisy: Vec<Cf32> = syms
            .iter()
            .map(|&z| {
                let nr = ((next() >> 11) as f32 / (1u64 << 53) as f32 - 0.25) * 4.0 * noise;
                let ni = ((next() >> 11) as f32 / (1u64 << 53) as f32 - 0.25) * 4.0 * noise;
                z + Cf32::new(nr, ni)
            })
            .collect();
        (bits, noisy)
    }

    #[test]
    fn exact_llr_signs_match_bits_noiseless() {
        for scheme in [ModScheme::Qpsk, ModScheme::Qam16, ModScheme::Qam64, ModScheme::Qam256] {
            let bps = scheme.bits_per_symbol();
            for v in 0..scheme.order() as u32 {
                let y = map_symbol(scheme, v);
                let mut llrs = Vec::new();
                demod_soft_exact(scheme, &[y], 0.1, &mut llrs);
                for (bit, &llr) in llrs.iter().enumerate().take(bps) {
                    let expect_one = (v >> bit) & 1 == 1;
                    assert!((llr < 0.0) == expect_one, "{scheme:?} v={v} bit {bit}: llr {llr}");
                }
            }
        }
    }

    #[test]
    fn fast_demod_matches_exact_bitwise() {
        for scheme in [
            ModScheme::Bpsk,
            ModScheme::Qpsk,
            ModScheme::Qam16,
            ModScheme::Qam64,
            ModScheme::Qam256,
        ] {
            let (_bits, noisy) = rand_symbols(scheme, 300, 0.08, 7);
            let mut fast = Vec::new();
            let mut exact = Vec::new();
            demod_soft(scheme, &noisy, 0.13, &mut fast);
            demod_soft_exact(scheme, &noisy, 0.13, &mut exact);
            assert_eq!(fast.len(), exact.len());
            for (i, (f, e)) in fast.iter().zip(exact.iter()).enumerate() {
                assert!((f - e).abs() < 1e-3 * e.abs().max(1.0), "{scheme:?} llr {i}: {f} vs {e}");
            }
        }
    }

    #[test]
    fn bpsk_llr_is_scaled_real_part() {
        let y = [Cf32::new(0.5, 0.3), Cf32::new(-0.2, 0.0)];
        let mut llrs = Vec::new();
        demod_soft(ModScheme::Bpsk, &y, 0.5, &mut llrs);
        assert!((llrs[0] - 4.0 * 0.5 / 0.5).abs() < 1e-5);
        assert!((llrs[1] - 4.0 * -0.2 / 0.5).abs() < 1e-5);
    }

    #[test]
    fn llr_magnitude_scales_with_noise_variance() {
        let (_, noisy) = rand_symbols(ModScheme::Qam16, 10, 0.02, 9);
        let mut low = Vec::new();
        let mut high = Vec::new();
        demod_soft_exact(ModScheme::Qam16, &noisy, 0.1, &mut low);
        demod_soft_exact(ModScheme::Qam16, &noisy, 0.4, &mut high);
        for (l, h) in low.iter().zip(high.iter()) {
            assert!((l - 4.0 * h).abs() < 1e-3);
        }
    }

    #[test]
    fn noisy_soft_decisions_recover_bits_via_sign() {
        let scheme = ModScheme::Qam64;
        // Small noise (well below half the minimum distance).
        let (bits, noisy) = rand_symbols(scheme, 500, scheme.scale() * 0.1, 13);
        let mut llrs = Vec::new();
        demod_soft(scheme, &noisy, 0.1, &mut llrs);
        let decided: Vec<u8> = llrs.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(bits, decided);
    }

    #[test]
    fn far_outside_point_gets_confident_llrs() {
        let scheme = ModScheme::Qam16;
        let y = [Cf32::new(10.0, 10.0)];
        let mut llrs = Vec::new();
        demod_soft(scheme, &y, 1.0, &mut llrs);
        // The corner point is unambiguous: all LLR magnitudes large.
        assert!(llrs.iter().all(|l| l.abs() > 1.0));
    }
}

#[cfg(test)]
mod simd_tests {
    use super::*;
    use crate::modulation::modulate;
    use proptest::prelude::*;

    const QAM: [ModScheme; 4] =
        [ModScheme::Qpsk, ModScheme::Qam16, ModScheme::Qam64, ModScheme::Qam256];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn simd_demod_matches_scalar_exactly() {
        for scheme in QAM {
            let bps = scheme.bits_per_symbol();
            let mut state = 0xDEADBEEFu64;
            let tx: Vec<u8> = (0..bps * 100)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 1) as u8
                })
                .collect();
            let mut syms = Vec::new();
            modulate(scheme, &tx, &mut syms);
            // Add deterministic noise.
            for (i, z) in syms.iter_mut().enumerate() {
                *z += Cf32::new(
                    ((i * 37 % 100) as f32 / 100.0 - 0.5) * 0.1,
                    ((i * 59 % 100) as f32 / 100.0 - 0.5) * 0.1,
                );
            }
            let mut scalar = Vec::new();
            let mut simd = Vec::new();
            demod_soft(scheme, &syms, 0.07, &mut scalar);
            demod_soft_simd(scheme, &syms, 0.07, &mut simd);
            assert_eq!(bits(&scalar), bits(&simd), "{scheme:?}");
        }
    }

    #[test]
    fn simd_demod_handles_non_multiple_of_eight() {
        let syms: Vec<Cf32> = (0..13).map(|i| Cf32::cis(0.41 * i as f32).scale(0.8)).collect();
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        demod_soft(ModScheme::Qam16, &syms, 0.1, &mut scalar);
        demod_soft_simd(ModScheme::Qam16, &syms, 0.1, &mut simd);
        assert_eq!(bits(&scalar), bits(&simd));
    }

    #[test]
    fn simd_demod_bpsk_falls_back() {
        let syms = [Cf32::new(0.5, 0.0), Cf32::new(-0.7, 0.0)];
        let mut out = Vec::new();
        demod_soft_simd(ModScheme::Bpsk, &syms, 0.5, &mut out);
        assert!((out[0] - 4.0 * 0.5 / 0.5).abs() < 1e-5);
    }

    /// One observation of a PAM axis from a drawn `(kind, v)`: mostly `v`
    /// itself (in and around the grid), else a point tied between two
    /// levels of the grid, a signed zero, a point far outside, or (kinds 8
    /// and 9) an infinity or a NaN, whose LLRs are NaN.
    fn axis(scheme: ModScheme, kind: u32, v: f32) -> f32 {
        let levels = (1u32 << (scheme.bits_per_symbol() / 2)) as f32;
        match kind {
            4 => (v * levels).round() * scheme.scale(),
            5 => 0.0f32.copysign(v),
            6 => v * 1e6,
            7 => v * 3e9,
            8 => f32::INFINITY.copysign(v),
            9 => f32::NAN,
            _ => v,
        }
    }

    proptest! {
        /// The vector body writes the scalar body's bits: every scheme,
        /// rows that are whole registers, half blocks and tails, points
        /// on the decision boundaries, far off the grid and not finite
        /// (NaN LLRs, to the bit), and noise variances from below the
        /// clamp to huge.
        #[test]
        fn detected_tier_is_bit_exact_on_any_row(
            scheme in 0usize..4,
            draws in proptest::collection::vec((0u32..10, -1.5f32..1.5, 0u32..10, -1.5f32..1.5), 0..41),
            noise in (0u32..8, 1e-3f32..2.0),
        ) {
            let scheme = QAM[scheme];
            let symbols: Vec<Cf32> = draws
                .iter()
                .map(|&(kr, re, ki, im)| Cf32::new(axis(scheme, kr, re), axis(scheme, ki, im)))
                .collect();
            let noise_var = match noise.0 {
                4 => 0.0,
                5 => 1e-30,
                6 => 1e-12,
                7 => 3e20,
                _ => noise.1,
            };
            let inv = 1.0 / noise_var.max(1e-12);
            let n = symbols.len() * scheme.bits_per_symbol();
            let (mut scalar, mut simd) = (vec![f32::NAN; n], vec![f32::NAN; n]);
            Demapper::new(scheme, SimdTier::Scalar).demap(&symbols, inv, &mut scalar);
            Demapper::new(scheme, SimdTier::detect()).demap(&symbols, inv, &mut simd);
            prop_assert_eq!(bits(&scalar), bits(&simd));
            // And the `Vec` entry points are those two bodies.
            let mut via_vec = vec![1.0; 3];
            demod_soft_simd(scheme, &symbols, noise_var, &mut via_vec);
            prop_assert_eq!(bits(&via_vec), bits(&simd));
        }
    }

    const ALL: [ModScheme; 5] =
        [ModScheme::Bpsk, ModScheme::Qpsk, ModScheme::Qam16, ModScheme::Qam64, ModScheme::Qam256];

    /// The two passes `demap_quantized` stands for, on the scalar tier.
    fn demap_then_quantize(scheme: ModScheme, symbols: &[Cf32], inv: f32, scale: f32) -> Vec<i8> {
        let mut llr = vec![f32::NAN; symbols.len() * scheme.bits_per_symbol()];
        Demapper::new(scheme, SimdTier::Scalar).demap(symbols, inv, &mut llr);
        let mut q = vec![0i8; llr.len()];
        quantize_llrs(&llr, &mut q, scale);
        q
    }

    fn fused(scheme: ModScheme, tier: SimdTier, symbols: &[Cf32], inv: f32, scale: f32) -> Vec<i8> {
        let mut q = vec![-128i8; symbols.len() * scheme.bits_per_symbol()];
        Demapper::new(scheme, tier).demap_quantized(symbols, inv, scale, &mut q);
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// The fused entry writes what `demap` then `quantize_llrs` write,
        /// byte for byte, on both tiers: every scheme, rows of 0 to 40
        /// symbols (whole registers, half blocks, tails), points tied
        /// between levels, signed zeros, far off the grid and not finite
        /// (NaN LLRs), noise scales from zero (LLRs of ±0) to huge
        /// (saturated), and quantiser scales from 1e-3 to 64 and 1e6.
        #[test]
        fn fused_quantiser_matches_demap_then_quantize(
            scheme in 0usize..5,
            draws in proptest::collection::vec((0u32..10, -1.5f32..1.5, 0u32..10, -1.5f32..1.5), 0..41),
            inv in (0u32..8, 1e-3f32..2.0),
            scale in (0u32..4, 1e-3f32..64.0),
        ) {
            let scheme = ALL[scheme];
            let symbols: Vec<Cf32> = draws
                .iter()
                .map(|&(kr, re, ki, im)| Cf32::new(axis(scheme, kr, re), axis(scheme, ki, im)))
                .collect();
            let inv = match inv.0 {
                4 => 0.0,
                5 => 1e-30,
                6 => 1e-12,
                7 => 3e20,
                _ => inv.1,
            };
            let scale = if scale.0 == 3 { 1e6 } else { scale.1 };
            let want = demap_then_quantize(scheme, &symbols, inv, scale);
            for tier in [SimdTier::Scalar, SimdTier::detect()] {
                prop_assert_eq!(fused(scheme, tier, &symbols, inv, scale), want.clone(), "{:?}", tier);
            }
        }
    }

    /// Exact ties through the fused entry: for every scheme and `k` in
    /// 0..=130, a scale that puts one LLR of an 8-symbol row on exactly
    /// `±(k + 0.5)` — the quantiser rounds it away from zero, and from
    /// ±127.5 on saturates it at ±127 — and the fused entry writes the
    /// two passes' bytes, the tied one included.
    #[test]
    fn fused_quantiser_rounds_exact_ties_like_the_two_passes() {
        let mut ties = 0;
        for (s, scheme) in ALL.into_iter().enumerate() {
            let symbols: Vec<Cf32> =
                (0..8).map(|i| Cf32::cis(0.7 * i as f32 + s as f32).scale(0.9)).collect();
            let mut llr = vec![0.0; symbols.len() * scheme.bits_per_symbol()];
            Demapper::new(scheme, SimdTier::Scalar).demap(&symbols, 1.0, &mut llr);
            for k in 0..=130 {
                let lane = k % llr.len();
                let (l, tie) = (llr[lane], k as f32 + 0.5);
                // The quotient, nudged by a few ulps until the product is
                // exactly the tie.
                let q = tie / l.abs();
                let Some(scale) = (-8i32..=8)
                    .map(|d| f32::from_bits(q.to_bits().wrapping_add_signed(d)))
                    .find(|&scale| (l * scale).abs() == tie)
                else {
                    continue;
                };
                let want = demap_then_quantize(scheme, &symbols, 1.0, scale);
                assert_eq!(
                    want[lane],
                    ((k + 1).min(127) as f32).copysign(l) as i8,
                    "{scheme:?} {k}"
                );
                for tier in [SimdTier::Scalar, SimdTier::detect()] {
                    let got = fused(scheme, tier, &symbols, 1.0, scale);
                    assert_eq!(got, want, "{scheme:?} {tier:?} tie {k}.5 at lane {lane}");
                }
                ties += 1;
            }
        }
        assert!(ties > 5 * 100, "only {ties} ties constructed");
    }

    /// The vector quantiser's rounding, `trunc(a + HALF_DOWN)`, against
    /// `quantize_llrs` on every float magnitude it sees: all of `[0, 127]`.
    /// Release only (`scripts/ci.sh` runs it there).
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn rounding_matches_the_quantiser() {
        const CHUNK: u32 = 1 << 16;
        let top = 127.0f32.to_bits();
        let (mut a, mut want) = (vec![0.0f32; CHUNK as usize], vec![0i8; CHUNK as usize]);
        for first in (0..=top).step_by(CHUNK as usize) {
            let n = CHUNK.min(top + 1 - first) as usize;
            for (i, a) in a[..n].iter_mut().enumerate() {
                *a = f32::from_bits(first + i as u32);
            }
            quantize_llrs(&a[..n], &mut want[..n], 1.0);
            for (&a, &want) in a[..n].iter().zip(&want[..n]) {
                assert_eq!((a + HALF_DOWN) as i32, want as i32, "{a:e}");
            }
        }
    }
}
