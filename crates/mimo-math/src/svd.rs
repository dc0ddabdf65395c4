//! Thin singular value decomposition via one-sided Jacobi rotations.
//!
//! This is the "numerically robust" pseudo-inverse route that matrix
//! libraries such as MKL take for ill-conditioned channels (§4.2 of the
//! paper). It is roughly an order of magnitude slower than inverting the
//! small Gram matrix directly, which is exactly the gap Table 4's "matrix
//! inverse optimisation" row measures; we therefore keep this
//! implementation deliberately straightforward.
//!
//! One-sided Jacobi operates on the columns of `A` (`m x n`, `m >= n`):
//! it repeatedly applies complex plane rotations from the right until all
//! column pairs are orthogonal. The column norms then give the singular
//! values, the normalised columns give `U`, and the accumulated rotations
//! give `V`.

use crate::complex::Cf64;
use crate::matrix::CMat;

/// Thin SVD `A = U diag(s) V^H` with `U: m x n`, `s: n`, `V: n x n`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (thin, `m x n`).
    pub u: CMat,
    /// Singular values in descending order.
    pub s: Vec<f32>,
    /// Right singular vectors (`n x n`).
    pub v: CMat,
}

/// Convergence threshold on the normalised off-diagonal inner product.
const TOL: f64 = 1e-12;
/// Iteration cap: a full sweep touches every column pair once; well-
/// conditioned MIMO-sized problems converge in < 10 sweeps.
const MAX_SWEEPS: usize = 60;

/// Computes the thin SVD of `a` (`m x n`, requires `m >= n`).
///
/// Internally accumulates in `f64` for stability and returns `f32`
/// factors. Singular values are sorted in descending order; columns of
/// `U`/`V` are permuted to match.
///
/// # Panics
/// Panics if `m < n`; transpose first for wide matrices.
pub fn svd(a: &CMat) -> Svd {
    let (m, n) = a.shape();
    assert!(m >= n, "one-sided Jacobi SVD requires m >= n (got {m}x{n})");

    // Working copy of A in f64, column-major for cheap column access.
    let mut w: Vec<Vec<Cf64>> =
        (0..n).map(|c| (0..m).map(|r| a[(r, c)].to_f64()).collect()).collect();
    // V starts as identity, column-major.
    let mut v: Vec<Vec<Cf64>> = (0..n)
        .map(|c| (0..n).map(|r| if r == c { Cf64::ONE } else { Cf64::ZERO }).collect())
        .collect();

    for _sweep in 0..MAX_SWEEPS {
        let mut converged = true;
        for p in 0..n {
            for q in p + 1..n {
                // Column inner products.
                let mut app = 0.0f64;
                let mut aqq = 0.0f64;
                let mut apq = Cf64::ZERO;
                for (&wp, &wq) in w[p].iter().zip(&w[q]) {
                    app += wp.norm_sqr();
                    aqq += wq.norm_sqr();
                    apq = wp.conj_mul(wq) + apq;
                }
                let off = apq.abs();
                if off <= TOL * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
                    continue;
                }
                converged = false;

                // Complex Jacobi rotation zeroing the (p, q) inner product.
                // Phase-align: let alpha = apq / |apq|.
                let alpha = Cf64::new(apq.re / off, apq.im / off);
                let tau = (aqq - app) / (2.0 * off);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                // Columns p and q are mixed:
                //   wp' =  c*wp - s*conj(alpha)*wq
                //   wq' =  s*alpha*wp + c*wq
                let sa = alpha.scale(s);
                let sac = alpha.conj().scale(s);
                let (wlo, whi) = w.split_at_mut(q);
                for (ep, eq) in wlo[p].iter_mut().zip(whi[0].iter_mut()) {
                    let (wp, wq) = (*ep, *eq);
                    *ep = wp.scale(c) - sac * wq;
                    *eq = sa * wp + wq.scale(c);
                }
                let (vlo, vhi) = v.split_at_mut(q);
                for (ep, eq) in vlo[p].iter_mut().zip(vhi[0].iter_mut()) {
                    let (vp, vq) = (*ep, *eq);
                    *ep = vp.scale(c) - sac * vq;
                    *eq = sa * vp + vq.scale(c);
                }
            }
        }
        if converged {
            break;
        }
    }

    // Extract singular values (column norms) and normalise U.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> =
        (0..n).map(|c| w[c].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

    let mut u = CMat::zeros(m, n);
    let mut vm = CMat::zeros(n, n);
    let mut s_out = Vec::with_capacity(n);
    for (new_c, &old_c) in order.iter().enumerate() {
        let norm = norms[old_c];
        s_out.push(norm as f32);
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        for r in 0..m {
            u[(r, new_c)] = w[old_c][r].scale(inv).to_f32();
        }
        for r in 0..n {
            vm[(r, new_c)] = v[old_c][r].to_f32();
        }
    }
    Svd { u, s: s_out, v: vm }
}

impl Svd {
    /// Moore-Penrose pseudo-inverse `V diag(1/s) U^H`, zeroing singular
    /// values below `rcond * s_max`.
    pub fn pinv(&self, rcond: f32) -> CMat {
        let smax = self.s.first().copied().unwrap_or(0.0);
        let cutoff = rcond * smax;
        let n = self.s.len();
        let mut vs = self.v.clone();
        for c in 0..n {
            let inv = if self.s[c] > cutoff { 1.0 / self.s[c] } else { 0.0 };
            for r in 0..vs.rows() {
                vs[(r, c)] = vs[(r, c)].scale(inv);
            }
        }
        vs.matmul(&self.u.hermitian())
    }

    /// 2-norm condition number `s_max / s_min`; infinite if rank-deficient.
    pub fn cond(&self) -> f32 {
        match (self.s.first(), self.s.last()) {
            (Some(&max), Some(&min)) if min > 0.0 => max / min,
            _ => f32::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cf32;

    impl Svd {
        /// Reconstructs `U diag(s) V^H`.
        fn reconstruct(&self) -> CMat {
            let n = self.s.len();
            let mut us = self.u.clone();
            for c in 0..n {
                for r in 0..us.rows() {
                    us[(r, c)] = us[(r, c)].scale(self.s[c]);
                }
            }
            us.matmul(&self.v.hermitian())
        }
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> CMat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        CMat::from_fn(m, n, |_, _| {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
            };
            Cf32::new(next(), next())
        })
    }

    #[test]
    fn reconstruction_error_small() {
        let a = rand_mat(12, 5, 1);
        let d = svd(&a);
        assert!(d.reconstruct().max_abs_diff(&a) < 1e-4);
    }

    #[test]
    fn singular_values_sorted_nonnegative() {
        let a = rand_mat(16, 8, 2);
        let d = svd(&a);
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(d.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn u_columns_orthonormal() {
        let a = rand_mat(10, 4, 3);
        let d = svd(&a);
        let g = d.u.hermitian().matmul(&d.u);
        assert!(g.max_abs_diff(&CMat::identity(4)) < 1e-4);
    }

    #[test]
    fn v_unitary() {
        let a = rand_mat(9, 6, 4);
        let d = svd(&a);
        let g = d.v.hermitian().matmul(&d.v);
        assert!(g.max_abs_diff(&CMat::identity(6)) < 1e-4);
    }

    #[test]
    fn diagonal_matrix_svd() {
        let mut a = CMat::zeros(4, 3);
        a[(0, 0)] = Cf32::real(3.0);
        a[(1, 1)] = Cf32::real(1.0);
        a[(2, 2)] = Cf32::real(2.0);
        let d = svd(&a);
        assert!((d.s[0] - 3.0).abs() < 1e-4);
        assert!((d.s[1] - 2.0).abs() < 1e-4);
        assert!((d.s[2] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn pinv_satisfies_moore_penrose() {
        let a = rand_mat(8, 4, 5);
        let p = svd(&a).pinv(1e-6);
        // A A+ A == A
        let aa = a.matmul(&p).matmul(&a);
        assert!(aa.max_abs_diff(&a) < 1e-3);
        // A+ A A+ == A+
        let pp = p.matmul(&a).matmul(&p);
        assert!(pp.max_abs_diff(&p) < 1e-3);
    }

    #[test]
    fn pinv_of_rank_deficient() {
        // Two identical columns -> rank 1.
        let col = rand_mat(6, 1, 7);
        let a = CMat::from_fn(6, 2, |r, _| col[(r, 0)]);
        let d = svd(&a);
        assert!(d.s[1] < 1e-4 * d.s[0].max(1e-20));
        let p = d.pinv(1e-4);
        // Moore-Penrose still holds for the rank-deficient case.
        let aa = a.matmul(&p).matmul(&a);
        assert!(aa.max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn cond_of_identity_is_one() {
        let d = svd(&CMat::identity(5));
        assert!((d.cond() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn mimo_sized_svd_converges() {
        // The paper's target shape: 64 antennas x 16 users.
        let a = rand_mat(64, 16, 11);
        let d = svd(&a);
        assert!(d.reconstruct().max_abs_diff(&a) < 1e-3);
        assert!(d.cond().is_finite());
    }
}
