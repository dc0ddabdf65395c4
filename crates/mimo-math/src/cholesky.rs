//! Cholesky factorisation of Hermitian positive-definite matrices.
//!
//! The zero-forcing Gram matrix `G = H^H H` is Hermitian positive definite
//! whenever `H` has full column rank, so the ZF detector `W = G^{-1} H^H`
//! is a Cholesky factorisation and two triangular sweeps against `H^H` —
//! and, unlike an epsilon-guarded elimination, the sign of the Cholesky
//! pivot is an *intrinsically correct* positive-definite test: a
//! rank-deficient or numerically near-singular Gram matrix fails the
//! factorisation instead of silently producing a garbage inverse.
//!
//! Both kernels ([`Cholesky::factor_into`], [`Cholesky::solve_in_place`])
//! work in caller-owned storage ([`CholScratch`]) and are right-looking
//! *column sweeps* over the AVX2 [`caxpy`](crate::gemm::caxpy_with_tier)
//! primitive: every trailing-matrix update and every solve elimination is
//! one contiguous `y += alpha * x` on a row segment, so the kernels
//! vectorise without any packing, per-call GEMM dispatch, or panel
//! staging — at ZF sizes (`K <= 64`) the sweep form beats the
//! blocked-GEMM form by ~2x because the panels are too small to amortise
//! packing. Both are bit-identical across SIMD tiers.

use crate::complex::Cf32;
use crate::gemm::caxpy_with_tier;
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
/// as not positive definite. An absolute `1e-12` guard would sit *below
/// f32 resolution* (eps ~ 1.2e-7): it could only ever fire on exactly-zero
/// pivots while near-singular matrices sailed through and produced
/// garbage.
#[inline]
fn pivot_threshold(n: usize, scale: f32) -> f32 {
    (n as f32) * f32::EPSILON * scale
}

/// Reusable scratch for [`Cholesky::factor_into`], sized for `n x n`
/// factorisations: one conjugated-column buffer. The multi-RHS solve is
/// scratch-free (it sweeps in place).
#[derive(Debug, Clone)]
pub struct CholScratch {
    /// Conjugated pivot-column buffer for the factorisation sweep
    /// (length `n`).
    cc: Vec<Cf32>,
}

impl CholScratch {
    /// Allocates scratch for `n x n` factorisations.
    pub fn new(n: usize) -> Self {
        Self { cc: vec![Cf32::ZERO; n] }
    }
}

/// The Cholesky kernels: `A = L L^H` with `L` lower triangular.
pub struct Cholesky;

impl Cholesky {
    /// Allocation-free right-looking factorisation of a Hermitian
    /// positive-definite `a` into caller-owned storage: `l` receives the
    /// lower-triangular factor (strict upper triangle zeroed). Only the
    /// lower triangle of `a` is read. Each pivot column's trailing update
    /// is a sweep of contiguous-row [`caxpy`](crate::gemm::caxpy_with_tier)
    /// calls against the conjugated pivot column, so the update vectorises
    /// with no packing and results are bit-identical across SIMD tiers.
    ///
    /// Fails with [`NotPositiveDefinite`] when a pivot falls at or below
    /// the f32-relative threshold ([`pivot_threshold`]).
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
    /// [`Cholesky::factor_into`]: `x` arrives holding `B` and leaves
    /// holding `X`, by forward then backward triangular solves as in-place
    /// column sweeps — once a row of `X` is solved, it is eliminated from
    /// every remaining row with one contiguous
    /// [`caxpy`](crate::gemm::caxpy_with_tier) across the whole RHS width.
    /// This is the ZF hot path: `X = W` when `B = H^H`, without ever
    /// forming `G^{-1}`. The sweep works on each RHS column independently
    /// (elementwise row scaling plus cross-row eliminations of full-width
    /// rows — no cross-column accumulation anywhere). Runs on `tier`
    /// clamped to what the CPU supports.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn solve_in_place(l: &CMat, x: &mut CMat, tier: SimdTier) {
        let n = l.rows();
        let nrhs = x.cols();
        assert_eq!(l.shape(), (n, n), "factor must be square");
        assert_eq!(x.rows(), n, "RHS row count must match");
        // SAFETY: the tier is clamped to the CPU's, and the lengths the
        // vector body relies on are asserted above.
        match tier.min(SimdTier::cached()) {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 | SimdTier::Avx512 => unsafe {
                crate::gemm_simd::chol_solve_avx2(l.as_slice(), n, x.as_mut_slice(), nrhs);
            },
            _ => solve_sweep_scalar(l, x, nrhs),
        }
    }
}

/// Scalar reference for the in-place triangular sweep solve: forward then
/// backward column sweeps over [`caxpy_scalar`](crate::gemm::caxpy_scalar)
/// eliminations. `x` arrives holding the RHS. The AVX2 kernel
/// (`chol_solve_avx2`) is bit-identical — same elementwise scaling, same
/// fused multiply-adds, no cross-element accumulation anywhere.
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
    use crate::testutil::rand_hpd;

    fn factor(a: &CMat, tier: SimdTier) -> Result<CMat, NotPositiveDefinite> {
        let n = a.rows();
        let mut l = CMat::zeros(n, n);
        Cholesky::factor_into(a, &mut l, &mut CholScratch::new(n), tier)?;
        Ok(l)
    }

    fn bits(m: &CMat) -> Vec<(u32, u32)> {
        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn factor_reconstructs() {
        let a = rand_hpd(8, 3);
        let l = factor(&a, SimdTier::cached()).unwrap();
        let recon = l.matmul(&l.hermitian());
        assert!(recon.max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn factor_identity_is_identity() {
        let i = CMat::identity(5);
        assert!(factor(&i, SimdTier::cached()).unwrap().max_abs_diff(&i) < 1e-6);
    }

    #[test]
    fn solve_in_place_solves() {
        let a = rand_hpd(6, 9);
        let b = CMat::from_fn(6, 2, |r, c| Cf32::new(r as f32 + 1.0, c as f32 - 0.5));
        let l = factor(&a, SimdTier::cached()).unwrap();
        let mut x = b.clone();
        Cholesky::solve_in_place(&l, &mut x, SimdTier::cached());
        assert!(a.matmul(&x).max_abs_diff(&b) < 1e-2);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = CMat::identity(3);
        a[(2, 2)] = Cf32::real(-1.0);
        match factor(&a, SimdTier::cached()) {
            Err(NotPositiveDefinite { step: 2, .. }) => {}
            other => panic!("expected failure at step 2, got {other:?}"),
        }
    }

    /// Near-singular (but strictly positive) pivots must fail too: the
    /// relative threshold is the PD test a `d <= 0` check only
    /// approximates at exactly zero.
    #[test]
    fn rejects_near_singular() {
        let n = 4;
        let mut a = CMat::identity(n);
        // Last diagonal entry far below n * eps * scale.
        a[(n - 1, n - 1)] = Cf32::real(1e-9);
        match factor(&a, SimdTier::cached()) {
            Err(NotPositiveDefinite { step, .. }) => assert_eq!(step, n - 1),
            other => panic!("expected near-singular rejection, got {other:?}"),
        }
    }

    #[test]
    fn upper_triangle_is_ignored() {
        let a = rand_hpd(4, 21);
        let mut messy = a.clone();
        // Corrupt the strict upper triangle; the factor must not change.
        for r in 0..4 {
            for c in r + 1..4 {
                messy[(r, c)] = Cf32::new(1e6, -1e6);
            }
        }
        let tier = SimdTier::cached();
        assert_eq!(bits(&factor(&a, tier).unwrap()), bits(&factor(&messy, tier).unwrap()));
    }

    /// Factor and solve agree across SIMD tiers bit for bit.
    #[test]
    fn factor_solve_tier_parity_is_bit_exact() {
        for n in [1usize, 3, 4, 5, 7, 8, 11, 16] {
            let a = rand_hpd(n, 31 + n as u64);
            let b = crate::testutil::rand_mat(n, 6, 77 + n as u64);
            let l_s = factor(&a, SimdTier::Scalar).unwrap();
            let mut x_s = b.clone();
            Cholesky::solve_in_place(&l_s, &mut x_s, SimdTier::Scalar);
            for tier in SimdTier::supported() {
                let l_v = factor(&a, tier).unwrap();
                assert_eq!(bits(&l_s), bits(&l_v), "factor tier parity n={n} {tier:?}");
                let mut x_v = b.clone();
                Cholesky::solve_in_place(&l_v, &mut x_v, tier);
                assert_eq!(bits(&x_s), bits(&x_v), "solve tier parity n={n} {tier:?}");
            }
        }
    }

    /// The textbook forward-then-backward sweep with the MAC `mac`: the
    /// solve's oracle, in the order both kernels eliminate in.
    fn sweep_oracle(mac: fn(Cf32, Cf32, Cf32) -> Cf32, l: &CMat, b: &CMat) -> CMat {
        let (n, mut x) = (l.rows(), b.clone());
        for p in 0..n {
            let inv_d = 1.0 / l[(p, p)].re;
            let src: Vec<Cf32> = x.row(p).iter().map(|z| z.scale(inv_d)).collect();
            x.row_mut(p).copy_from_slice(&src);
            for i in p + 1..n {
                for (d, &s) in x.row_mut(i).iter_mut().zip(&src) {
                    *d = mac(-l[(i, p)], s, *d);
                }
            }
        }
        for p in (0..n).rev() {
            let inv_d = 1.0 / l[(p, p)].re;
            let src: Vec<Cf32> = x.row(p).iter().map(|z| z.scale(inv_d)).collect();
            x.row_mut(p).copy_from_slice(&src);
            for i in 0..p {
                for (d, &s) in x.row_mut(i).iter_mut().zip(&src) {
                    *d = mac(-l[(p, i)].conj(), s, *d);
                }
            }
        }
        x
    }

    /// Every tier's solve rounds each product-sum of its eliminations
    /// once, in `Cf32::mul_add`'s order (`testutil::fused_mac`, written
    /// from `f32::mul_add`): three rows run the rank-2 and the single eliminations of
    /// both sweeps, seven columns a vector and a scalar tail. On a factor
    /// and right-hand side of `(1 + 2^-12)(1 + i)` entries, where the
    /// fused and unfused sweeps differ in every column, and on random
    /// ones, each tier returns the fused sweep's bits.
    #[test]
    fn solve_rounds_each_product_sum_once_on_every_tier() {
        let fused = crate::testutil::fused_mac;
        let x = 1.0 + 2f32.powi(-12);
        let tie = Cf32::new(x, x);
        let l_ties = CMat::from_fn(3, 3, |r, c| match r.cmp(&c) {
            core::cmp::Ordering::Equal => Cf32::ONE,
            core::cmp::Ordering::Greater => tie,
            core::cmp::Ordering::Less => Cf32::ZERO,
        });
        let b_ties = CMat::from_fn(3, 7, |r, _| if r == 0 { tie } else { Cf32::ZERO });
        let unfused = sweep_oracle(|a, b, c| a * b + c, &l_ties, &b_ties);
        let want = sweep_oracle(fused, &l_ties, &b_ties);
        for c in 0..7 {
            assert!((0..3).any(|r| bits(&want)[r * 7 + c] != bits(&unfused)[r * 7 + c]));
        }
        let l_rand = factor(&rand_hpd(3, 51), SimdTier::Scalar).unwrap();
        let b_rand = crate::testutil::rand_mat(3, 7, 53);
        for (l, b) in [(&l_ties, &b_ties), (&l_rand, &b_rand)] {
            let want = sweep_oracle(fused, l, b);
            for tier in SimdTier::supported() {
                let mut got = b.clone();
                Cholesky::solve_in_place(l, &mut got, tier);
                assert_eq!(bits(&got), bits(&want), "{tier:?}");
            }
        }
    }

    #[test]
    fn empty_matrix_factorises() {
        let a = CMat::zeros(0, 0);
        assert_eq!(factor(&a, SimdTier::cached()).unwrap().shape(), (0, 0));
    }
}
