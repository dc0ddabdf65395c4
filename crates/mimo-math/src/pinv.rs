//! Zero-forcing pseudo-inverse computation — the "Precoder calculation"
//! block of the baseband pipeline.
//!
//! The ZF detector/precoder is `W = c * (H^H H)^{-1} H^H` (the paper writes
//! the transposed convention `H* (H^T H*)^{-1}`; both are the Moore-Penrose
//! pseudo-inverse of `H` up to conjugation). One route computes it, the
//! paper's "matrix inverse optimisation" (§4.2): the `K x K` Gram matrix
//! ([`gram_accumulate_with_tier`]), its Cholesky factor, and an in-place
//! triangular sweep against `H^H` — no explicit inverse is formed. A
//! channel whose Gram matrix fails the factor's positive-definite test
//! (two users on nearly the same channel) falls back to [`pinv_svd`], the
//! numerically robust route Table 4's row disables down to.
//!
//! The result is a `K x M` matrix `W` such that `W H ≈ I_K`.

use crate::cholesky::{CholScratch, Cholesky};
use crate::complex::Cf32;
use crate::gemm::gram_accumulate_with_tier;
use crate::matrix::CMat;
use crate::simd::{conj_transpose, SimdTier};
use crate::svd::svd;

/// The pseudo-inverse route. One variant, the Cholesky Gram solve the
/// engine runs: the benchmark names it, so the selector stays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinvMethod {
    /// Cholesky solve of the Gram system `(H^H H) W = H^H` — never forms
    /// the explicit inverse, and its pivot sign is an intrinsically
    /// correct positive-definite test.
    #[default]
    Cholesky,
}

/// Computes the ZF pseudo-inverse via thin SVD, zeroing singular values
/// below `rcond * s_max`. Never fails; rank-deficient channels produce the
/// minimum-norm pseudo-inverse. [`pinv_into`]'s fallback.
pub fn pinv_svd(h: &CMat, rcond: f32) -> CMat {
    svd(h).pinv(rcond)
}

/// [`pinv_into`] into a fresh matrix: the allocating route for cold
/// paths and references.
pub fn pinv(h: &CMat, method: PinvMethod) -> CMat {
    let (m, k) = h.shape();
    let mut out = CMat::zeros(k, m);
    pinv_into(h, method, &mut PinvScratch::new(m, k), &mut out);
    out
}

/// Reusable scratch for [`pinv_into`]: the Gram matrix and the Cholesky
/// working set for one `M x K` channel shape. One instance per worker
/// lets every ZF task run without touching the allocator (the SVD
/// *fallback* still allocates — it is the degraded path for singular
/// channels, not the steady state).
#[derive(Debug, Clone)]
pub struct PinvScratch {
    /// `K x K` Gram matrix `H^H H`.
    gram: CMat,
    /// `K x K` lower-triangular Cholesky factor of the Gram matrix.
    chol_l: CMat,
    /// Cholesky factorisation scratch (the solve itself is scratch-free).
    chol: CholScratch,
    /// SIMD tier the Gram/factor/solve kernels dispatch to.
    tier: SimdTier,
}

impl PinvScratch {
    /// Allocates scratch for `M x K` channels on the detected SIMD tier.
    pub fn new(m: usize, k: usize) -> Self {
        Self::with_tier(m, k, SimdTier::cached())
    }

    /// Allocates scratch with the kernel dispatch tier pinned by the
    /// caller, clamped to what the CPU supports (results are bit-equal
    /// across tiers).
    pub fn with_tier(_m: usize, k: usize, tier: SimdTier) -> Self {
        let tier = tier.min(SimdTier::cached());
        Self { gram: CMat::zeros(k, k), chol_l: CMat::zeros(k, k), chol: CholScratch::new(k), tier }
    }
}

/// The pseudo-inverse of `h` (`M x K`) into a caller-owned `K x M`
/// output through reusable scratch — the allocation-free route for hot
/// paths. Falls back to [`pinv_svd`] when the Gram matrix is not
/// positive definite.
///
/// `H^H` is staged once, in `out`: it is the Gram product's left operand
/// and, one step later, the right-hand side the solve sweeps in place.
///
/// # Panics
/// Panics if `out` or the scratch shapes don't match `h` (`M x K`).
pub fn pinv_into(h: &CMat, method: PinvMethod, s: &mut PinvScratch, out: &mut CMat) {
    let PinvMethod::Cholesky = method;
    let (m, k) = h.shape();
    assert_eq!(out.shape(), (k, m), "pinv output must be K x M");
    assert_eq!(s.gram.shape(), (k, k), "scratch shape mismatch");
    conj_transpose(h.as_slice(), m, k, out.as_mut_slice(), s.tier);
    let gram = s.gram.as_mut_slice();
    gram.fill(Cf32::ZERO);
    gram_accumulate_with_tier(m, k, out.as_slice(), h.as_slice(), gram, s.tier);
    if Cholesky::factor_into(&s.gram, &mut s.chol_l, &mut s.chol, s.tier).is_ok() {
        Cholesky::solve_in_place(&s.chol_l, out, s.tier);
    } else {
        out.copy_from(&pinv_svd(h, 1e-5));
    }
}

/// Normalises a downlink precoder so that no antenna (row of `W^H`, i.e.
/// column of `W`) exceeds unit transmit power — the constant `c` in the
/// paper's `W_zf = c * H^* (H^T H^*)^{-1}`.
pub fn normalize_precoder(w: &CMat) -> CMat {
    let mut out = w.clone();
    normalize_precoder_in_place(&mut out);
    out
}

/// [`normalize_precoder`] without the copy.
pub fn normalize_precoder_in_place(w: &mut CMat) {
    // Per-antenna power = sum over users of |w_{k,m}|^2 for column m.
    let mut max_power = 0.0f32;
    for m in 0..w.cols() {
        let p: f32 = (0..w.rows()).map(|k| w[(k, m)].norm_sqr()).sum();
        max_power = max_power.max(p);
    }
    if max_power > 0.0 {
        let s = 1.0 / max_power.sqrt();
        for z in w.as_mut_slice().iter_mut() {
            *z = z.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gram_accumulate_scalar;
    use crate::testutil::rand_channel;

    fn bits(m: &CMat) -> Vec<(u32, u32)> {
        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn cholesky_pinv_left_inverts() {
        let h = rand_channel(64, 16, 11);
        let w = pinv(&h, PinvMethod::Cholesky);
        assert_eq!(w.shape(), (16, 64));
        let wh = w.matmul(&h);
        assert!(wh.max_abs_diff(&CMat::identity(16)) < 1e-2);
    }

    #[test]
    fn svd_pinv_left_inverts() {
        let h = rand_channel(32, 8, 2);
        let w = pinv_svd(&h, 1e-6);
        let wh = w.matmul(&h);
        assert!(wh.max_abs_diff(&CMat::identity(8)) < 1e-2);
    }

    #[test]
    fn cholesky_and_svd_agree_on_well_conditioned() {
        for (m, k, seed) in [(64, 16, 21), (16, 5, 22), (8, 1, 23), (32, 7, 24), (16, 4, 3)] {
            let h = rand_channel(m, k, seed);
            let wc = pinv(&h, PinvMethod::Cholesky);
            let ws = pinv_svd(&h, 1e-6);
            assert!(wc.max_abs_diff(&ws) < 1e-2, "{m}x{k}");
        }
    }

    /// A duplicated user and a nearly duplicated one (two columns
    /// differing by ~1e-6): the Cholesky factor must *fail* (not silently
    /// produce garbage), and the pseudo-inverse must be exactly the SVD
    /// fallback's, finite — also through a scratch a well-conditioned
    /// channel of the same shape used first.
    #[test]
    fn singular_channels_degrade_to_svd() {
        let m = 32;
        let base = rand_channel(m, 1, 14);
        let duplicate = CMat::from_fn(m, 2, |r, _| base[(r, 0)]);
        let near = CMat::from_fn(m, 2, |r, c| {
            let mut v = base[(r, 0)];
            if c == 1 {
                v += Cf32::new(1e-6, -1e-6 * (r as f32));
            }
            v
        });
        for h in [duplicate, near] {
            let mut gram = CMat::zeros(2, 2);
            gram_accumulate_scalar(m, 2, h.as_slice(), gram.as_mut_slice());
            let (mut l, mut cs) = (CMat::zeros(2, 2), CholScratch::new(2));
            assert!(Cholesky::factor_into(&gram, &mut l, &mut cs, SimdTier::Scalar).is_err());
            let svd_ref = pinv_svd(&h, 1e-5);
            assert!(svd_ref.as_slice().iter().all(|z| z.is_finite()));
            assert_eq!(bits(&pinv(&h, PinvMethod::Cholesky)), bits(&svd_ref));
            let mut s = PinvScratch::new(m, 2);
            let mut out = CMat::zeros(2, m);
            pinv_into(&rand_channel(m, 2, 8), PinvMethod::Cholesky, &mut s, &mut out);
            pinv_into(&h, PinvMethod::Cholesky, &mut s, &mut out);
            assert_eq!(bits(&out), bits(&svd_ref));
        }
    }

    /// The whole ZF chain (Gram, factor, solve) is bit-identical on every
    /// tier, at the engine's test and paper shapes.
    #[test]
    fn pinv_into_tier_parity_is_bit_exact() {
        for (m, k) in [(8usize, 2usize), (64, 16)] {
            let h = rand_channel(m, k, 23);
            let mut scalar = CMat::zeros(k, m);
            let mut s = PinvScratch::with_tier(m, k, SimdTier::Scalar);
            pinv_into(&h, PinvMethod::Cholesky, &mut s, &mut scalar);
            for tier in SimdTier::supported() {
                let mut simd = CMat::zeros(k, m);
                let mut s = PinvScratch::with_tier(m, k, tier);
                pinv_into(&h, PinvMethod::Cholesky, &mut s, &mut simd);
                assert_eq!(bits(&scalar), bits(&simd), "{tier:?} ({m},{k})");
            }
        }
    }

    #[test]
    fn normalize_in_place_matches_copying() {
        let h = rand_channel(12, 3, 13);
        let w = pinv(&h, PinvMethod::Cholesky);
        let mut inplace = w.clone();
        normalize_precoder_in_place(&mut inplace);
        assert!(inplace.max_abs_diff(&normalize_precoder(&w)) < 1e-7);
        // All-zero precoder: no-op, no NaNs.
        let mut z = CMat::zeros(3, 12);
        normalize_precoder_in_place(&mut z);
        assert!(z.as_slice().iter().all(|z| z.is_finite()));
    }

    #[test]
    fn normalized_precoder_antenna_power_at_most_one() {
        let h = rand_channel(16, 4, 5);
        let w = normalize_precoder(&pinv(&h, PinvMethod::Cholesky));
        for m in 0..w.cols() {
            let p: f32 = (0..w.rows()).map(|k| w[(k, m)].norm_sqr()).sum();
            assert!(p <= 1.0 + 1e-4, "antenna {m} power {p} > 1");
        }
    }
}
