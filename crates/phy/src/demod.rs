//! Soft demodulation: per-bit log-likelihood ratios for the LDPC decoder.
//!
//! The equalizer hands each user a stream of noisy constellation points;
//! this module converts them to LLRs with the max-log approximation
//! `LLR(b) = (min_{s: b=1} |y-s|^2 - min_{s: b=0} |y-s|^2) / sigma^2`
//! (positive LLR means bit 0 more likely, matching `agora-ldpc`).
//!
//! Two paths, as in the paper's AVX-512 demodulator:
//! * [`demod_soft_exact`] — exact max-log over the whole 2-D
//!   constellation; the reference implementation for any scheme.
//! * [`demod_soft`] — per-axis max-log for Gray square QAM. Because the
//!   I and Q labels are independent, the 2-D search factorises into two
//!   1-D searches (8 levels instead of 64 points for 64-QAM), which is
//!   the structure vectorised demappers exploit. Output is bit-exact
//!   equal to the exhaustive search.

use crate::modulation::{constellation, ModScheme};
use agora_math::Cf32;

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

/// Per-axis PAM alphabet for one QAM axis: `(level, gray_label)` pairs.
fn axis_levels(scheme: ModScheme) -> Vec<(f32, u32)> {
    let half_bits = scheme.bits_per_symbol() / 2;
    let levels = 1usize << half_bits;
    let s = scheme.scale();
    (0..levels as u32)
        .map(|idx| {
            let pam = (2 * idx as i32 - (levels as i32 - 1)) as f32 * s;
            (pam, idx ^ (idx >> 1)) // binary-reflected Gray label
        })
        .collect()
}

/// Fast factorised max-log demapper for Gray square QAM (and BPSK).
///
/// Identical output to [`demod_soft_exact`]; the tests assert closeness to
/// float rounding.
pub fn demod_soft(scheme: ModScheme, symbols: &[Cf32], noise_var: f32, out: &mut Vec<f32>) {
    let bps = scheme.bits_per_symbol();
    out.clear();
    out.reserve(symbols.len() * bps);
    let inv_nv = 1.0 / noise_var.max(1e-12);
    if scheme == ModScheme::Bpsk {
        // d1 - d0 = (y+1)^2 - (y-1)^2 = 4y.
        for &y in symbols {
            out.push(4.0 * y.re * inv_nv);
        }
        return;
    }
    let half = bps / 2;
    let levels = axis_levels(scheme);
    let mut i_llr = [0.0f32; 4];
    let mut q_llr = [0.0f32; 4];
    for &y in symbols {
        axis_max_log(&levels, y.re, half, &mut i_llr);
        axis_max_log(&levels, y.im, half, &mut q_llr);
        for &l in i_llr.iter().take(half) {
            out.push(l * inv_nv);
        }
        for &l in q_llr.iter().take(half) {
            out.push(l * inv_nv);
        }
    }
}

/// 1-D max-log LLRs over a labelled PAM alphabet.
#[inline]
fn axis_max_log(levels: &[(f32, u32)], x: f32, bits: usize, out: &mut [f32; 4]) {
    debug_assert!(bits <= 4);
    let mut d0 = [f32::INFINITY; 4];
    let mut d1 = [f32::INFINITY; 4];
    for &(level, label) in levels {
        let d = (x - level) * (x - level);
        for k in 0..bits {
            if (label >> k) & 1 == 0 {
                if d < d0[k] {
                    d0[k] = d;
                }
            } else if d < d1[k] {
                d1[k] = d;
            }
        }
    }
    for k in 0..bits {
        out[k] = d1[k] - d0[k];
    }
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

/// AVX2-accelerated demapper: identical output to [`demod_soft`], with
/// the per-axis max-log search vectorised eight symbols at a time — the
/// Rust analogue of the paper's AVX-512 demodulation kernel. Falls back
/// to the scalar path on non-AVX2 hardware or for BPSK/odd tails.
pub fn demod_soft_simd(scheme: ModScheme, symbols: &[Cf32], noise_var: f32, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    {
        if scheme != ModScheme::Bpsk && std::arch::is_x86_feature_detected!("avx2") {
            let bps = scheme.bits_per_symbol();
            out.clear();
            out.reserve(symbols.len() * bps);
            let inv_nv = 1.0 / noise_var.max(1e-12);
            let levels = axis_levels(scheme);
            let half = bps / 2;
            let chunks = symbols.len() / 8;
            unsafe {
                let mut i_llr = [[0.0f32; 8]; 4];
                let mut q_llr = [[0.0f32; 8]; 4];
                for c in 0..chunks {
                    let block = &symbols[c * 8..(c + 1) * 8];
                    let mut re = [0.0f32; 8];
                    let mut im = [0.0f32; 8];
                    for (j, z) in block.iter().enumerate() {
                        re[j] = z.re;
                        im[j] = z.im;
                    }
                    axis_max_log_x8(&levels, &re, half, &mut i_llr);
                    axis_max_log_x8(&levels, &im, half, &mut q_llr);
                    for j in 0..8 {
                        for l in i_llr.iter().take(half) {
                            out.push(l[j] * inv_nv);
                        }
                        for l in q_llr.iter().take(half) {
                            out.push(l[j] * inv_nv);
                        }
                    }
                }
            }
            // Scalar tail.
            let mut tail = Vec::new();
            demod_soft(scheme, &symbols[chunks * 8..], noise_var, &mut tail);
            out.extend_from_slice(&tail);
            return;
        }
    }
    demod_soft(scheme, symbols, noise_var, out);
}

/// Quantised demapper: runs the SIMD max-log demapper and emits
/// saturating `i8` LLRs directly, feeding the engine's fixed-point
/// decoding plane without a second pass over a stored `f32` buffer.
///
/// `scratch` is caller-owned reuse space for the intermediate float LLRs
/// (cleared and refilled here; no allocation once warm). Output is
/// appended to `out`, `bits_per_symbol` LLRs per input symbol, quantised
/// as `round(llr * scale)` clamped to `[-127, 127]` (see
/// [`agora_ldpc::quantize_llrs`]).
pub fn demod_soft_i8(
    scheme: ModScheme,
    symbols: &[Cf32],
    noise_var: f32,
    scale: f32,
    scratch: &mut Vec<f32>,
    out: &mut Vec<i8>,
) {
    demod_soft_simd(scheme, symbols, noise_var, scratch);
    let start = out.len();
    out.resize(start + scratch.len(), 0);
    agora_ldpc::quantize_llrs(scratch, &mut out[start..], scale);
}

/// Eight-lane 1-D max-log over a labelled PAM alphabet: for each axis
/// bit, `out[k][lane] = min d(bit=1) - min d(bit=0)`.
///
/// # Safety
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axis_max_log_x8(
    levels: &[(f32, u32)],
    xs: &[f32; 8],
    bits: usize,
    out: &mut [[f32; 8]; 4],
) {
    use core::arch::x86_64::*;
    let x = _mm256_loadu_ps(xs.as_ptr());
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut d0 = [inf; 4];
    let mut d1 = [inf; 4];
    for &(level, label) in levels {
        let diff = _mm256_sub_ps(x, _mm256_set1_ps(level));
        let d = _mm256_mul_ps(diff, diff);
        for (k, (d0k, d1k)) in d0.iter_mut().zip(d1.iter_mut()).enumerate().take(bits) {
            if (label >> k) & 1 == 0 {
                *d0k = _mm256_min_ps(*d0k, d);
            } else {
                *d1k = _mm256_min_ps(*d1k, d);
            }
        }
    }
    for k in 0..bits {
        let llr = _mm256_sub_ps(d1[k], d0[k]);
        _mm256_storeu_ps(out[k].as_mut_ptr(), llr);
    }
}

#[cfg(test)]
mod simd_tests {
    use super::*;
    use crate::modulation::modulate;

    #[test]
    fn simd_demod_matches_scalar_exactly() {
        for scheme in [ModScheme::Qpsk, ModScheme::Qam16, ModScheme::Qam64, ModScheme::Qam256] {
            let bps = scheme.bits_per_symbol();
            let mut state = 0xDEADBEEFu64;
            let bits: Vec<u8> = (0..bps * 100)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 1) as u8
                })
                .collect();
            let mut syms = Vec::new();
            modulate(scheme, &bits, &mut syms);
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
            assert_eq!(scalar.len(), simd.len());
            for (i, (a, b)) in scalar.iter().zip(simd.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                    "{scheme:?} llr {i}: scalar {a} simd {b}"
                );
            }
        }
    }

    #[test]
    fn simd_demod_handles_non_multiple_of_eight() {
        let syms: Vec<Cf32> = (0..13).map(|i| Cf32::cis(0.41 * i as f32).scale(0.8)).collect();
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        demod_soft(ModScheme::Qam16, &syms, 0.1, &mut scalar);
        demod_soft_simd(ModScheme::Qam16, &syms, 0.1, &mut simd);
        assert_eq!(scalar.len(), simd.len());
        for (a, b) in scalar.iter().zip(simd.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn simd_demod_bpsk_falls_back() {
        let syms = [Cf32::new(0.5, 0.0), Cf32::new(-0.7, 0.0)];
        let mut out = Vec::new();
        demod_soft_simd(ModScheme::Bpsk, &syms, 0.5, &mut out);
        assert!((out[0] - 4.0 * 0.5 / 0.5).abs() < 1e-5);
    }

    #[test]
    fn i8_demod_is_quantized_simd_output() {
        let syms: Vec<Cf32> = (0..21).map(|i| Cf32::cis(0.73 * i as f32).scale(0.9)).collect();
        let mut f = Vec::new();
        demod_soft_simd(ModScheme::Qam16, &syms, 0.1, &mut f);
        let mut scratch = Vec::new();
        let mut q = vec![7i8; 3]; // existing content must be preserved (append semantics)
        demod_soft_i8(ModScheme::Qam16, &syms, 0.1, 4.0, &mut scratch, &mut q);
        assert_eq!(q.len(), 3 + f.len());
        assert_eq!(&q[..3], &[7, 7, 7]);
        for (i, (&fi, &qi)) in f.iter().zip(q[3..].iter()).enumerate() {
            let expect = (fi * 4.0).round().clamp(-127.0, 127.0) as i8;
            assert_eq!(qi, expect, "llr {i}: f32 {fi}");
        }
    }
}
