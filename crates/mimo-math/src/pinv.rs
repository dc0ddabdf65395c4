//! Zero-forcing pseudo-inverse computation — the "Precoder calculation"
//! block of the baseband pipeline.
//!
//! The ZF detector/precoder is `W = c * (H^H H)^{-1} H^H` (the paper writes
//! the transposed convention `H* (H^T H*)^{-1}`; both are the Moore-Penrose
//! pseudo-inverse of `H` up to conjugation). Three routes are provided:
//!
//! * [`pinv_cholesky`]: Cholesky-factor the `K x K` Gram matrix and solve
//!   against `H^H` — the engine's route and [`PinvMethod`]'s default.
//! * [`pinv_direct`]: form the Gram matrix and invert it by Gauss-Jordan —
//!   the paper's fast path (~16 µs for 64x16 on their hardware).
//! * [`pinv_svd`]: the numerically robust SVD route — the slow path that
//!   the "matrix inverse optimisation" row of Table 4 disables down to.
//!
//! Both return a `K x M` matrix `W` such that `W H ≈ I_K`.

use crate::cholesky::{CholScratch, Cholesky, NotPositiveDefinite};
use crate::complex::Cf32;
use crate::gemm::{gemm_with_tier, gram_accumulate_with_tier};
use crate::inverse::{invert, invert_into, InvError};
use crate::matrix::CMat;
use crate::simd::{conj_transpose, SimdTier};
use crate::svd::svd;

/// Method selector for pseudo-inverse computation. The engine and the
/// benchmark solve with the default, `Cholesky`; Gauss-Jordan and SVD are
/// the references `parity` and `table4_ablation` hold it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinvMethod {
    /// Gauss-Jordan inversion of the `K x K` Gram matrix.
    Direct,
    /// Cholesky solve of the Gram system `(H^H H) W = H^H` — half the
    /// flops of Gauss-Jordan, never forms the explicit inverse, and its
    /// pivot sign is an intrinsically correct positive-definite test.
    #[default]
    Cholesky,
    /// Full SVD pseudo-inverse (robust but ~10x slower).
    Svd,
}

/// Computes the ZF pseudo-inverse `(H^H H)^{-1} H^H` by direct Gram-matrix
/// inversion.
///
/// `h` is the `M x K` channel estimate (`M` antennas, `K` users); the
/// result is `K x M`. Fails if the Gram matrix is singular, i.e. the user
/// channels are linearly dependent.
pub fn pinv_direct(h: &CMat) -> Result<CMat, InvError> {
    let hh = h.hermitian();
    let gram = h.gram(); // K x K = H^H H
    let gram_inv = invert(&gram)?;
    Ok(gram_inv.matmul(&hh))
}

/// Computes the ZF pseudo-inverse by Cholesky-factoring the Gram matrix
/// and solving `(H^H H) W = H^H` directly — no explicit inverse is ever
/// formed. Fails with [`NotPositiveDefinite`] when the Gram matrix is not
/// positive definite within f32 resolution (rank-deficient or
/// near-singular channel).
pub fn pinv_cholesky(h: &CMat) -> Result<CMat, NotPositiveDefinite> {
    let (m, k) = h.shape();
    let mut s = PinvScratch::with_tier(m, k, SimdTier::cached());
    let mut out = CMat::zeros(k, m);
    stage_gram(h, &mut s, &mut out);
    Cholesky::factor_into(&s.gram, &mut s.chol_l, &mut s.chol, s.tier)?;
    Cholesky::solve_in_place(&s.chol_l, &mut out, s.tier);
    Ok(out)
}

/// Computes the ZF pseudo-inverse via thin SVD, zeroing singular values
/// below `rcond * s_max`. Never fails; rank-deficient channels produce the
/// minimum-norm pseudo-inverse.
pub fn pinv_svd(h: &CMat, rcond: f32) -> CMat {
    svd(h).pinv(rcond)
}

/// Computes the pseudo-inverse with the selected method, falling back to
/// SVD if the direct route hits a singular Gram matrix — mirroring how a
/// production system would degrade rather than drop the subcarrier.
pub fn pinv(h: &CMat, method: PinvMethod) -> CMat {
    match method {
        PinvMethod::Direct => pinv_direct(h).unwrap_or_else(|_| pinv_svd(h, 1e-5)),
        PinvMethod::Cholesky => pinv_cholesky(h).unwrap_or_else(|_| pinv_svd(h, 1e-5)),
        PinvMethod::Svd => pinv_svd(h, 1e-5),
    }
}

/// Reusable scratch for [`pinv_into`]: the Gram matrix and the
/// Cholesky / Gauss-Jordan working sets for one `M x K` channel shape.
/// One instance per worker lets every ZF task run without touching the
/// allocator (the SVD *fallback* still allocates — it is the degraded
/// path for singular channels, not the steady state).
#[derive(Debug, Clone)]
pub struct PinvScratch {
    /// `K x M` staging for the Gauss-Jordan route's right-hand side `H^H`
    /// (the `G^{-1} H^H` product cannot run in place; Cholesky sweeps the
    /// output directly).
    hh: CMat,
    /// `K x K` Gram matrix `H^H H`.
    gram: CMat,
    /// Gauss-Jordan elimination workspace.
    gram_work: CMat,
    /// `K x K` Gram inverse.
    gram_inv: CMat,
    /// `K x K` lower-triangular Cholesky factor of the Gram matrix.
    chol_l: CMat,
    /// Cholesky factorisation scratch (the solve itself is scratch-free).
    chol: CholScratch,
    /// SIMD tier the Gram/product kernels dispatch to.
    tier: SimdTier,
}

impl PinvScratch {
    /// Allocates scratch for `M x K` channels on the detected SIMD tier.
    pub fn new(m: usize, k: usize) -> Self {
        Self::with_tier(m, k, SimdTier::cached())
    }

    /// Allocates scratch with the kernel dispatch tier pinned by the
    /// caller (results are bit-equal across tiers).
    pub fn with_tier(m: usize, k: usize, tier: SimdTier) -> Self {
        Self {
            hh: CMat::zeros(k, m),
            gram: CMat::zeros(k, k),
            gram_work: CMat::zeros(k, k),
            gram_inv: CMat::zeros(k, k),
            chol_l: CMat::zeros(k, k),
            chol: CholScratch::new(k),
            tier,
        }
    }

    /// `K x K` Gram matrix `H^H H` left behind by the last [`pinv_into`]
    /// call (any method but [`PinvMethod::Svd`], which never forms it).
    pub fn gram(&self) -> &CMat {
        &self.gram
    }
}

/// [`pinv`] into a caller-owned `K x M` output through reusable scratch —
/// the allocation-free route for hot paths. Semantics match [`pinv`]:
/// the direct method falls back to SVD on a singular Gram matrix.
///
/// `H^H` is staged once, in `out`: it is the Gram product's left operand
/// and, one step later, the right-hand side the solve sweeps in place.
///
/// # Panics
/// Panics if `out` or the scratch shapes don't match `h` (`M x K`).
pub fn pinv_into(h: &CMat, method: PinvMethod, s: &mut PinvScratch, out: &mut CMat) {
    let (m, k) = h.shape();
    assert_eq!(out.shape(), (k, m), "pinv output must be K x M");
    assert_eq!(s.hh.shape(), (k, m), "scratch shape mismatch");
    if method != PinvMethod::Svd {
        stage_gram(h, s, out);
    }
    solve_staged(h, method, s, out);
}

/// Stages `H^H` in `out` (`K x M`) and leaves `H^H H` in `s.gram`.
fn stage_gram(h: &CMat, s: &mut PinvScratch, out: &mut CMat) {
    let (m, k) = h.shape();
    conj_transpose(h.as_slice(), m, k, out.as_mut_slice(), s.tier);
    let gram = s.gram.as_mut_slice();
    gram.fill(Cf32::ZERO);
    gram_accumulate_with_tier(m, k, out.as_slice(), h.as_slice(), gram, s.tier);
}

/// The one Gram solve: `s.gram` holds `H^H H` and `out` (`K x M`)
/// arrives holding the right-hand side `H^H` (unread under
/// [`PinvMethod::Svd`]); leaves the pseudo-inverse in `out`.
fn solve_staged(h: &CMat, method: PinvMethod, s: &mut PinvScratch, out: &mut CMat) {
    let (k, m) = out.shape();
    match method {
        PinvMethod::Direct => {
            if invert_into(&s.gram, &mut s.gram_work, &mut s.gram_inv).is_ok() {
                // The product cannot run in place: move the right-hand
                // side to the (idle) hh scratch first.
                s.hh.copy_from(out);
                let rhs = s.hh.as_slice();
                gemm_with_tier(k, k, m, s.gram_inv.as_slice(), rhs, out.as_mut_slice(), s.tier);
                return;
            }
        }
        PinvMethod::Cholesky => {
            if Cholesky::factor_into(&s.gram, &mut s.chol_l, &mut s.chol, s.tier).is_ok() {
                Cholesky::solve_in_place(&s.chol_l, out, s.tier);
                return;
            }
        }
        PinvMethod::Svd => {}
    }
    out.copy_from(&pinv_svd(h, 1e-5));
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
    use crate::testutil::rand_channel;

    #[test]
    fn direct_pinv_left_inverts() {
        let h = rand_channel(64, 16, 1);
        let w = pinv_direct(&h).unwrap();
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
    fn direct_and_svd_agree_on_well_conditioned() {
        let h = rand_channel(16, 4, 3);
        let wd = pinv_direct(&h).unwrap();
        let ws = pinv_svd(&h, 1e-6);
        assert!(wd.max_abs_diff(&ws) < 1e-2);
    }

    #[test]
    fn direct_fails_on_rank_deficient_but_pinv_degrades() {
        // Duplicate user column -> Gram singular.
        let base = rand_channel(8, 1, 4);
        let h = CMat::from_fn(8, 2, |r, _| base[(r, 0)]);
        assert!(pinv_direct(&h).is_err());
        let w = pinv(&h, PinvMethod::Direct); // falls back to SVD
        assert_eq!(w.shape(), (2, 8));
        assert!(w.all_finite());
    }

    #[test]
    fn cholesky_pinv_left_inverts() {
        let h = rand_channel(64, 16, 11);
        let w = pinv_cholesky(&h).unwrap();
        assert_eq!(w.shape(), (16, 64));
        let wh = w.matmul(&h);
        assert!(wh.max_abs_diff(&CMat::identity(16)) < 1e-2);
    }

    #[test]
    fn cholesky_and_direct_agree() {
        for (m, k, seed) in [(64, 16, 21), (16, 5, 22), (8, 1, 23), (32, 7, 24)] {
            let h = rand_channel(m, k, seed);
            let wd = pinv_direct(&h).unwrap();
            let wc = pinv_cholesky(&h).unwrap();
            assert!(wd.max_abs_diff(&wc) < 1e-2, "{m}x{k}");
        }
    }

    /// The nearly-duplicate-user regression from the ISSUE: two columns
    /// differing by ~1e-6. The direct route must *error* (not silently
    /// produce garbage) and both `pinv` and `pinv_into` must degrade to a
    /// finite SVD detector.
    #[test]
    fn near_duplicate_user_errors_and_degrades_to_svd() {
        let m = 32;
        let base = rand_channel(m, 1, 14);
        let h = CMat::from_fn(m, 2, |r, c| {
            let mut v = base[(r, 0)];
            if c == 1 {
                v += Cf32::new(1e-6, -1e-6 * (r as f32));
            }
            v
        });
        assert!(pinv_direct(&h).is_err(), "Gauss-Jordan route must report singular");
        assert!(pinv_cholesky(&h).is_err(), "Cholesky route must report not-PD");
        let svd_ref = pinv_svd(&h, 1e-5);
        for method in [PinvMethod::Direct, PinvMethod::Cholesky] {
            let w = pinv(&h, method);
            assert!(w.all_finite(), "{method:?} produced non-finite W");
            assert!(w.max_abs_diff(&svd_ref) < 1e-6, "{method:?} did not fall back to SVD");
            let mut s = PinvScratch::new(m, 2);
            let mut out = CMat::zeros(2, m);
            pinv_into(&h, method, &mut s, &mut out);
            assert!(out.all_finite());
            assert!(out.max_abs_diff(&svd_ref) < 1e-6, "{method:?} pinv_into fallback");
        }
    }

    #[test]
    fn pinv_into_matches_pinv_both_methods_and_fallback() {
        let h = rand_channel(16, 4, 8);
        let mut s = PinvScratch::new(16, 4);
        let mut out = CMat::zeros(4, 16);
        for method in [PinvMethod::Direct, PinvMethod::Cholesky, PinvMethod::Svd] {
            pinv_into(&h, method, &mut s, &mut out);
            assert!(out.max_abs_diff(&pinv(&h, method)) < 1e-6, "{method:?}");
        }
        // Rank-deficient channel: the scratch route must degrade to SVD
        // exactly like the allocating route.
        let base = rand_channel(8, 1, 4);
        let bad = CMat::from_fn(8, 2, |r, _| base[(r, 0)]);
        let mut s = PinvScratch::new(8, 2);
        let mut out = CMat::zeros(2, 8);
        pinv_into(&bad, PinvMethod::Direct, &mut s, &mut out);
        assert!(out.max_abs_diff(&pinv(&bad, PinvMethod::Direct)) < 1e-6);
    }

    /// The whole ZF chain (Gram, factor or inverse, solve / product) is
    /// bit-identical on the detected and the scalar tier, for both Gram
    /// solvers the engine selects between, at its test and paper shapes.
    #[test]
    fn pinv_into_tier_parity_is_bit_exact() {
        let bits = |m: &CMat| -> Vec<(u32, u32)> {
            m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (m, k) in [(8usize, 2usize), (64, 16)] {
            let h = rand_channel(m, k, 23);
            for method in [PinvMethod::Cholesky, PinvMethod::Direct] {
                let mut scalar = CMat::zeros(k, m);
                let mut simd = CMat::zeros(k, m);
                let mut s = PinvScratch::with_tier(m, k, SimdTier::Scalar);
                pinv_into(&h, method, &mut s, &mut scalar);
                let mut s = PinvScratch::with_tier(m, k, SimdTier::detect());
                pinv_into(&h, method, &mut s, &mut simd);
                assert_eq!(bits(&scalar), bits(&simd), "{method:?} ({m},{k})");
            }
        }
    }

    #[test]
    fn normalize_in_place_matches_copying() {
        let h = rand_channel(12, 3, 13);
        let w = pinv_direct(&h).unwrap();
        let mut inplace = w.clone();
        normalize_precoder_in_place(&mut inplace);
        assert!(inplace.max_abs_diff(&normalize_precoder(&w)) < 1e-7);
        // All-zero precoder: no-op, no NaNs.
        let mut z = CMat::zeros(3, 12);
        normalize_precoder_in_place(&mut z);
        assert!(z.all_finite());
    }

    #[test]
    fn normalized_precoder_antenna_power_at_most_one() {
        let h = rand_channel(16, 4, 5);
        let w = normalize_precoder(&pinv_direct(&h).unwrap());
        for m in 0..w.cols() {
            let p: f32 = (0..w.rows()).map(|k| w[(k, m)].norm_sqr()).sum();
            assert!(p <= 1.0 + 1e-4, "antenna {m} power {p} > 1");
        }
    }
}
