//! Cholesky factorisation of Hermitian positive-definite matrices.
//!
//! The zero-forcing Gram matrix `G = H^H H` is Hermitian positive definite
//! whenever `H` has full column rank, so the ZF detector `W = G^{-1} H^H`
//! can be computed with a Cholesky factorisation at roughly half the flops
//! of Gauss-Jordan — and, unlike an epsilon-guarded elimination, the sign
//! of the Cholesky pivot is an *intrinsically correct* positive-definite
//! test: a rank-deficient or numerically near-singular Gram matrix fails
//! the factorisation instead of silently producing a garbage inverse.
//!
//! Two API layers:
//!
//! * the allocating [`Cholesky`] value type (`factor`/`solve`/`inverse`),
//!   convenient for tests and cold paths;
//! * the allocation-free associated kernels
//!   [`Cholesky::factor_into`] / [`Cholesky::solve_into`] /
//!   [`Cholesky::inverse_into`], which work entirely in caller-owned
//!   [`CholScratch`] storage and dispatch their panel updates through the
//!   tier-selected GEMM kernels (bit-identical across SIMD tiers).
//!
//! Both the factorisation and the triangular solves are right-looking
//! *column sweeps* over the AVX2 [`caxpy`](crate::gemm::caxpy_with_tier) primitive:
//! every trailing-matrix update and every solve elimination is one
//! contiguous `y += alpha * x` on a row segment, so the kernels vectorise
//! without any packing, per-call GEMM dispatch, or panel staging — at ZF
//! sizes (`K <= 64`) the sweep form beats the blocked-GEMM form by ~2x
//! because the panels are too small to amortise packing.

use crate::complex::Cf32;
use crate::gemm::{caxpy_with_tier, gemm_with_tier, gram_with_tier};
use crate::matrix::CMat;
use crate::simd::SimdTier;

/// Error returned when a matrix is not Hermitian positive definite within
/// f32 resolution (a pivot at or below the relative threshold appeared on
/// the diagonal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotPositiveDefinite {
    /// The factorisation step at which the pivot failed.
    pub step: usize,
    /// The offending pivot value.
    pub pivot: f32,
}

impl core::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {} at step {})", self.pivot, self.step)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Relative pivot threshold for an `n x n` factorisation whose diagonal
/// scale is `scale`: pivots at or below `n * eps_f32 * scale` are treated
/// as not positive definite. The old guard here (and the `1e-12` one in
/// [`crate::inverse`]) was *below f32 resolution* (eps ~ 1.2e-7), so it
/// could only ever fire on exactly-zero pivots while near-singular
/// matrices sailed through and produced garbage.
#[inline]
pub fn pivot_threshold(n: usize, scale: f32) -> f32 {
    (n as f32) * f32::EPSILON * scale
}

/// Reusable scratch for the allocation-free Cholesky kernels, sized for
/// `n x n` factorisations. The multi-RHS solve is scratch-free (it sweeps
/// in place); the factorisation needs one conjugated-column buffer and
/// the inverse a triangular staging matrix.
#[derive(Debug, Clone)]
pub struct CholScratch {
    /// `L^{-1}` staging buffer for [`Cholesky::inverse_into`] (`n x n`).
    pack_a: Vec<Cf32>,
    /// Conjugated pivot-column buffer for the factorisation sweep
    /// (length `n`).
    cc: Vec<Cf32>,
    /// Product row for the triangular inverse (length `n`).
    row: Vec<Cf32>,
}

impl CholScratch {
    /// Allocates scratch for `n x n` factorisations.
    pub fn new(n: usize) -> Self {
        Self { pack_a: vec![Cf32::ZERO; n * n], cc: vec![Cf32::ZERO; n], row: vec![Cf32::ZERO; n] }
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L L^H`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: CMat,
}

impl Cholesky {
    /// Factorises a Hermitian positive-definite matrix. Only the lower
    /// triangle of `a` is read; the strict upper triangle is ignored, so
    /// callers may pass a matrix whose upper triangle is garbage.
    pub fn factor(a: &CMat) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        let mut l = CMat::zeros(n, n);
        let mut s = CholScratch::new(n);
        Self::factor_into(a, &mut l, &mut s, SimdTier::cached())?;
        Ok(Self { l })
    }

    /// Allocation-free right-looking factorisation into caller-owned
    /// storage: `l` receives the lower-triangular factor (strict upper
    /// triangle zeroed). Each pivot column's trailing update is a sweep of
    /// contiguous-row [`caxpy`](crate::gemm::caxpy_with_tier) calls against the
    /// conjugated pivot column, so the update vectorises with no packing
    /// and results are bit-identical across SIMD tiers.
    ///
    /// Fails with [`NotPositiveDefinite`] when a pivot falls at or below
    /// the f32-relative threshold ([`pivot_threshold`]) — the PD test
    /// that subsumes the old absolute-epsilon singularity guard.
    ///
    /// # Panics
    /// Panics if `a` is not square, `l` is not the same shape, or `s` was
    /// sized for a smaller matrix.
    pub fn factor_into(
        a: &CMat,
        l: &mut CMat,
        s: &mut CholScratch,
        tier: SimdTier,
    ) -> Result<(), NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        assert_eq!(l.shape(), (n, n), "factor output shape mismatch");
        assert!(s.cc.len() >= n, "scratch sized for a smaller matrix");
        l.as_mut_slice().fill(Cf32::ZERO);
        if n == 0 {
            return Ok(());
        }
        // Working copy: lower triangle of A (the upper triangle of l stays
        // zero and is never read).
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        // Diagonal scale for the relative pivot test (diagonal of an HPD
        // matrix is real positive; tolerate junk by taking magnitudes).
        let scale =
            (0..n).map(|i| a[(i, i)].re.abs()).fold(0.0f32, f32::max).max(f32::MIN_POSITIVE);
        let thr = pivot_threshold(n, scale);

        for j in 0..n {
            // The diagonal entry is fully updated by the previous sweeps.
            let d = l[(j, j)].re;
            if d <= thr || !d.is_finite() {
                return Err(NotPositiveDefinite { step: j, pivot: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = Cf32::real(dj);
            let inv_dj = 1.0 / dj;
            // Scale the pivot column and stash its conjugate contiguously.
            for i in j + 1..n {
                let v = l[(i, j)].scale(inv_dj);
                l[(i, j)] = v;
                s.cc[i - j - 1] = v.conj();
            }
            // Trailing update: row i loses coeff * conj(pivot column) on
            // its segment `j+1..=i` — one contiguous AXPY per row.
            for i in j + 1..n {
                let coeff = l[(i, j)];
                let row = l.row_mut(i);
                caxpy_with_tier(-coeff, &s.cc[..i - j], &mut row[j + 1..=i], tier);
            }
        }
        Ok(())
    }

    /// Allocation-free multi-RHS solve `A X = B` from a factor computed by
    /// [`Cholesky::factor_into`]: forward then backward triangular solves
    /// as in-place column sweeps — once a row of `X` is solved, it is
    /// eliminated from every remaining row with one contiguous
    /// [`caxpy`](crate::gemm::caxpy_with_tier) across the whole RHS width. This is
    /// the ZF hot path: `X = W` when `B = H^H`, without ever forming
    /// `G^{-1}`, and the eliminations on distinct rows are independent so
    /// the sweep keeps the vector units saturated.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn solve_into(l: &CMat, b: &CMat, x: &mut CMat, tier: SimdTier) {
        let n = l.rows();
        let nrhs = b.cols();
        assert_eq!(l.shape(), (n, n), "factor must be square");
        assert_eq!(b.rows(), n, "RHS row count must match");
        assert_eq!(x.shape(), (n, nrhs), "solve output shape mismatch");
        x.as_mut_slice().copy_from_slice(b.as_slice());
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe {
                crate::gemm_simd::chol_solve_avx2(l.as_slice(), n, x.as_mut_slice(), nrhs);
            },
            _ => solve_sweep_scalar(l, x, nrhs),
        }
    }

    /// [`Cholesky::solve_into`] without the RHS copy: `x` arrives already
    /// holding `B` and is swept in place. Because the sweep operates on
    /// each RHS column independently (elementwise row scaling plus
    /// cross-row eliminations of full-width rows — no cross-column
    /// accumulation anywhere), solving any contiguous column slice of a
    /// wider system is bit-identical to the same columns of the full
    /// solve. The antenna-cluster ZF reduce stages its `H^H` column slice
    /// straight into the output and solves here.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn solve_in_place(l: &CMat, x: &mut CMat, tier: SimdTier) {
        let n = l.rows();
        let nrhs = x.cols();
        assert_eq!(l.shape(), (n, n), "factor must be square");
        assert_eq!(x.rows(), n, "RHS row count must match");
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe {
                crate::gemm_simd::chol_solve_avx2(l.as_slice(), n, x.as_mut_slice(), nrhs);
            },
            _ => solve_sweep_scalar(l, x, nrhs),
        }
    }

    /// Allocation-free inverse `A^{-1}` from a factor computed by
    /// [`Cholesky::factor_into`]: inverts the triangular factor row by row
    /// (each row one `(1, i, n)` GEMM over the solved prefix), then forms
    /// `A^{-1} = L^{-H} L^{-1}` as a Gram product on the tier kernels.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn inverse_into(l: &CMat, inv: &mut CMat, s: &mut CholScratch, tier: SimdTier) {
        let n = l.rows();
        assert_eq!(l.shape(), (n, n), "factor must be square");
        assert_eq!(inv.shape(), (n, n), "inverse output shape mismatch");
        assert!(s.pack_a.len() >= n * n && s.row.len() >= n, "scratch too small");
        let linv = &mut s.pack_a[..n * n];
        linv.fill(Cf32::ZERO);
        for i in 0..n {
            let inv_d = 1.0 / l[(i, i)].re;
            if i > 0 {
                let (solved, _) = linv.split_at_mut(i * n);
                gemm_with_tier(1, i, n, &l.row(i)[..i], solved, &mut s.row[..n], tier);
            }
            for j in 0..i {
                linv[i * n + j] = s.row[j].scale(-inv_d);
            }
            linv[i * n + i] = Cf32::real(inv_d);
        }
        gram_with_tier(n, n, linv, inv.as_mut_slice(), tier);
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &CMat {
        &self.l
    }

    /// Solves `A X = B` through the multi-RHS sweep kernel.
    pub fn solve(&self, b: &CMat) -> CMat {
        let n = self.l.rows();
        assert_eq!(b.rows(), n);
        let mut x = CMat::zeros(n, b.cols());
        Self::solve_into(&self.l, b, &mut x, SimdTier::cached());
        x
    }

    /// Computes `A^{-1}` from the factorisation.
    pub fn inverse(&self) -> CMat {
        let n = self.l.rows();
        let mut inv = CMat::zeros(n, n);
        let mut s = CholScratch::new(n);
        Self::inverse_into(&self.l, &mut inv, &mut s, SimdTier::cached());
        inv
    }
}

/// Scalar reference for the in-place triangular sweep solve: forward then
/// backward column sweeps over [`caxpy_scalar`](crate::gemm::caxpy_scalar)
/// eliminations. `x` arrives holding the RHS. The AVX2 kernel
/// (`chol_solve_avx2`) is bit-identical — same elementwise scaling, same
/// unfused multiply-adds, no cross-element accumulation anywhere.
fn solve_sweep_scalar(l: &CMat, x: &mut CMat, nrhs: usize) {
    let n = l.rows();
    for p in 0..n {
        let inv_d = 1.0 / l[(p, p)].re;
        let (head, tail) = x.as_mut_slice().split_at_mut((p + 1) * nrhs);
        let src = &mut head[p * nrhs..];
        for z in src.iter_mut() {
            *z = z.scale(inv_d);
        }
        for i in p + 1..n {
            let t = (i - p - 1) * nrhs;
            caxpy_with_tier(-l[(i, p)], src, &mut tail[t..t + nrhs], SimdTier::Scalar);
        }
    }
    for p in (0..n).rev() {
        let inv_d = 1.0 / l[(p, p)].re;
        let (head, tail) = x.as_mut_slice().split_at_mut(p * nrhs);
        let src = &mut tail[..nrhs];
        for z in src.iter_mut() {
            *z = z.scale(inv_d);
        }
        for i in 0..p {
            caxpy_with_tier(
                -l[(p, i)].conj(),
                src,
                &mut head[i * nrhs..(i + 1) * nrhs],
                SimdTier::Scalar,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse::invert;
    use crate::testutil::rand_hpd;

    #[test]
    fn factor_reconstructs() {
        let a = rand_hpd(8, 3);
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().hermitian());
        assert!(recon.max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn factor_identity_is_identity() {
        let i = CMat::identity(5);
        let ch = Cholesky::factor(&i).unwrap();
        assert!(ch.l().max_abs_diff(&i) < 1e-6);
    }

    #[test]
    fn solve_matches_gauss_jordan() {
        let a = rand_hpd(6, 9);
        let b = CMat::from_fn(6, 2, |r, c| Cf32::new(r as f32 + 1.0, c as f32 - 0.5));
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        let x_ref = invert(&a).unwrap().matmul(&b);
        assert!(x.max_abs_diff(&x_ref) < 1e-2);
        assert!(a.matmul(&x).max_abs_diff(&b) < 1e-2);
    }

    #[test]
    fn inverse_matches_gauss_jordan() {
        let a = rand_hpd(10, 17);
        let ch = Cholesky::factor(&a).unwrap();
        let inv1 = ch.inverse();
        let inv2 = invert(&a).unwrap();
        assert!(inv1.max_abs_diff(&inv2) < 1e-2);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = CMat::identity(3);
        a[(2, 2)] = Cf32::real(-1.0);
        match Cholesky::factor(&a) {
            Err(NotPositiveDefinite { step: 2, .. }) => {}
            other => panic!("expected failure at step 2, got {other:?}"),
        }
    }

    /// Near-singular (but strictly positive) pivots must now fail too:
    /// the relative threshold is the PD test the old `d <= 0` check only
    /// approximated at exactly zero.
    #[test]
    fn rejects_near_singular() {
        let n = 4;
        let mut a = CMat::identity(n);
        // Last diagonal entry far below n * eps * scale.
        a[(n - 1, n - 1)] = Cf32::real(1e-9);
        match Cholesky::factor(&a) {
            Err(NotPositiveDefinite { step, .. }) => assert_eq!(step, n - 1),
            other => panic!("expected near-singular rejection, got {other:?}"),
        }
    }

    #[test]
    fn upper_triangle_is_ignored() {
        let a = rand_hpd(4, 21);
        let mut messy = a.clone();
        // Corrupt the strict upper triangle; result must not change.
        for r in 0..4 {
            for c in r + 1..4 {
                messy[(r, c)] = Cf32::new(1e6, -1e6);
            }
        }
        let x1 = Cholesky::factor(&a).unwrap().inverse();
        let x2 = Cholesky::factor(&messy).unwrap().inverse();
        assert!(x1.max_abs_diff(&x2) < 1e-5);
    }

    /// The blocked kernels must agree across SIMD tiers bit for bit —
    /// everything tier-dependent routes through the parity-contracted
    /// GEMM kernels.
    #[test]
    fn factor_solve_inverse_tier_parity_is_bit_exact() {
        let detected = SimdTier::detect();
        for n in [1usize, 3, 4, 5, 7, 8, 11, 16] {
            let a = rand_hpd(n, 31 + n as u64);
            let b = crate::testutil::rand_mat(n, 6, 77 + n as u64);
            let mut l_s = CMat::zeros(n, n);
            let mut l_v = CMat::zeros(n, n);
            let mut ss = CholScratch::new(n);
            let mut sv = CholScratch::new(n);
            Cholesky::factor_into(&a, &mut l_s, &mut ss, SimdTier::Scalar).unwrap();
            Cholesky::factor_into(&a, &mut l_v, &mut sv, detected).unwrap();
            let bits = |m: &CMat| -> Vec<(u32, u32)> {
                m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            assert_eq!(bits(&l_s), bits(&l_v), "factor tier parity n={n}");
            let mut x_s = CMat::zeros(n, 6);
            let mut x_v = CMat::zeros(n, 6);
            Cholesky::solve_into(&l_s, &b, &mut x_s, SimdTier::Scalar);
            Cholesky::solve_into(&l_v, &b, &mut x_v, detected);
            assert_eq!(bits(&x_s), bits(&x_v), "solve tier parity n={n}");
            let mut i_s = CMat::zeros(n, n);
            let mut i_v = CMat::zeros(n, n);
            Cholesky::inverse_into(&l_s, &mut i_s, &mut ss, SimdTier::Scalar);
            Cholesky::inverse_into(&l_v, &mut i_v, &mut sv, detected);
            assert_eq!(bits(&i_s), bits(&i_v), "inverse tier parity n={n}");
        }
    }

    #[test]
    fn empty_matrix_factorises() {
        let a = CMat::zeros(0, 0);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.l().is_empty());
    }
}
