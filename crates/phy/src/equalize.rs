//! Uplink equalization without a formed detector — the iterative path.
//!
//! The engine's direct path multiplies each subcarrier block by the
//! `K x M` ZF detector with a planned GEMM (`Kernels::demod_task` in
//! `agora-core`, fused with demodulation per Table 2). The kernels here
//! serve its iterative alternative: a Jacobi-preconditioned conjugate
//! gradient on the `K x K` Gram system and the Neumann-series noise
//! amplification estimate that replaces the inverse's diagonal.

use agora_math::Cf32;

/// Default CG iteration cap for the iterative equalizer. The Gram matrix
/// of a well-conditioned massive-MIMO channel (`M >> K`) is strongly
/// diagonally dominant, so the Jacobi-preconditioned iteration converges
/// in a handful of steps.
pub const CG_MAX_ITERS: usize = 8;

/// Default relative residual tolerance (`||r|| <= tol * ||b||`).
pub const CG_REL_TOL: f32 = 1e-3;

/// Reusable state for [`cg_solve_gram`]; one per worker, sized for `K`
/// users, so the per-subcarrier solve never allocates.
pub struct CgScratch {
    r: Vec<Cf32>,
    p: Vec<Cf32>,
    ap: Vec<Cf32>,
    z: Vec<Cf32>,
    dinv: Vec<f32>,
}

impl CgScratch {
    /// Allocates scratch for `k`-user solves.
    pub fn new(k: usize) -> Self {
        Self {
            r: vec![Cf32::ZERO; k],
            p: vec![Cf32::ZERO; k],
            ap: vec![Cf32::ZERO; k],
            z: vec![Cf32::ZERO; k],
            dinv: vec![0.0; k],
        }
    }
}

/// Second-order Neumann-series estimate of `diag((H^H H)^{-1})` from the
/// `K x K` Gram matrix: splitting `G = D + E` and truncating
/// `G^{-1} = D^{-1} - D^{-1} E D^{-1} + D^{-1} E D^{-1} E D^{-1} - ...`
/// after the quadratic term gives
/// `(G^{-1})_{uu} ~= 1/d_u + sum_{j != u} |G_{uj}|^2 / (d_u^2 d_j)`
/// (the linear term has zero diagonal). For ZF this diagonal *is* the
/// post-detection noise amplification `||w_u||^2`, so the iterative
/// equalizer can set per-user LLR noise variances without ever forming
/// the inverse.
pub fn neumann_diag_inv(gram: &[Cf32], k: usize, out: &mut [f32]) {
    assert_eq!(gram.len(), k * k, "gram must be K x K");
    assert_eq!(out.len(), k, "output must have K entries");
    for u in 0..k {
        let du = gram[u * k + u].re.max(f32::MIN_POSITIVE);
        let mut acc = 1.0 / du;
        for j in 0..k {
            if j == u {
                continue;
            }
            let dj = gram[j * k + j].re.max(f32::MIN_POSITIVE);
            acc += gram[u * k + j].norm_sqr() / (du * du * dj);
        }
        out[u] = acc;
    }
}

/// Real part of the Hermitian inner product `a^H b`.
fn dot_re(a: &[Cf32], b: &[Cf32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x.re * y.re + x.im * y.im).sum()
}

/// Jacobi-preconditioned conjugate gradient on the Gram system
/// `(H^H H) x = b`, where `gram` is the `K x K` Hermitian
/// positive-definite Gram matrix and `b = H^H y` for the iterative
/// equalizer. Never forms the inverse: each iteration costs one `K x K`
/// mat-vec plus vector updates, so for small iteration counts the whole
/// equalize chain is cheaper than applying a formed `K x M` detector.
///
/// Returns the number of iterations used (0 when `b` is zero). `x` holds
/// the solution on exit; convergence is declared at
/// `||r||^2 <= (rel_tol * ||b||)^2` or after `max_iters` steps.
#[allow(clippy::too_many_arguments)]
pub fn cg_solve_gram(
    gram: &[Cf32],
    k: usize,
    b: &[Cf32],
    x: &mut [Cf32],
    max_iters: usize,
    rel_tol: f32,
    s: &mut CgScratch,
) -> usize {
    assert_eq!(gram.len(), k * k, "gram must be K x K");
    assert_eq!(b.len(), k, "rhs must have K entries");
    assert_eq!(x.len(), k, "solution must have K entries");
    x.fill(Cf32::ZERO);
    let bnorm = dot_re(b, b);
    if bnorm <= 0.0 {
        return 0;
    }
    for u in 0..k {
        s.dinv[u] = 1.0 / gram[u * k + u].re.max(f32::MIN_POSITIVE);
    }
    s.r.copy_from_slice(b);
    for u in 0..k {
        s.z[u] = s.r[u].scale(s.dinv[u]);
        s.p[u] = s.z[u];
    }
    let mut rz = dot_re(&s.r, &s.z);
    let tol2 = rel_tol * rel_tol * bnorm;
    let mut iters = 0;
    for _ in 0..max_iters {
        agora_math::gemv(k, k, gram, &s.p, &mut s.ap);
        let pap = dot_re(&s.p, &s.ap);
        if !pap.is_finite() || pap <= 0.0 {
            break; // loss of positive definiteness in f32 — keep current x
        }
        let alpha = rz / pap;
        for (u, xu) in x.iter_mut().enumerate() {
            *xu = s.p[u].scale(alpha) + *xu;
            s.r[u] = s.r[u] - s.ap[u].scale(alpha);
        }
        iters += 1;
        if dot_re(&s.r, &s.r) <= tol2 {
            break;
        }
        for u in 0..k {
            s.z[u] = s.r[u].scale(s.dinv[u]);
        }
        let rz_new = dot_re(&s.r, &s.z);
        let beta = rz_new / rz;
        rz = rz_new;
        for u in 0..k {
            s.p[u] = s.z[u] + s.p[u].scale(beta);
        }
    }
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_math::CMat;

    /// Builds a random channel, its Gram matrix, and `b = H^H y` for a
    /// known transmit vector.
    fn gram_system(m: usize, k: usize, seed: u64) -> (Vec<Cf32>, Vec<Cf32>, Vec<Cf32>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.5
        };
        let h = CMat::from_fn(m, k, |_, _| Cf32::new(next(), next()));
        let x: Vec<Cf32> =
            (0..k).map(|u| Cf32::new(u as f32 * 0.3 - 0.4, 0.7 - u as f32 * 0.2)).collect();
        let y = h.matvec(&x);
        let hh = h.hermitian();
        let gram = hh.matmul(&h);
        let b = hh.matvec(&y);
        (gram.as_slice().to_vec(), b, x)
    }

    /// CG on the Gram system must recover the transmitted symbols (the
    /// consistent-system case the iterative equalizer runs): `x` solves
    /// `(H^H H) x = H^H (H x)` exactly.
    #[test]
    fn cg_recovers_transmitted_symbols() {
        let (m, k) = (16usize, 4usize);
        let (gram, b, x_true) = gram_system(m, k, 29);
        let mut s = CgScratch::new(k);
        let mut x = vec![Cf32::ZERO; k];
        let iters = cg_solve_gram(&gram, k, &b, &mut x, CG_MAX_ITERS, CG_REL_TOL, &mut s);
        assert!((1..=CG_MAX_ITERS).contains(&iters));
        for (a, e) in x.iter().zip(x_true.iter()) {
            assert!((*a - *e).abs() < 1e-2, "recovered {a:?} expected {e:?}");
        }
    }

    /// CG must agree with the direct Cholesky solve of the same system.
    #[test]
    fn cg_matches_cholesky_solve() {
        use agora_math::Cholesky;
        for (m, k, seed) in [(16usize, 4usize, 31u64), (64, 16, 37), (24, 7, 41)] {
            let (gram, b, _) = gram_system(m, k, seed);
            let gm = CMat::from_fn(k, k, |r, c| gram[r * k + c]);
            let chol = Cholesky::factor(&gm).expect("gram must be positive definite");
            let bm = CMat::from_fn(k, 1, |r, _| b[r]);
            let direct = chol.solve(&bm);
            let mut s = CgScratch::new(k);
            let mut x = vec![Cf32::ZERO; k];
            cg_solve_gram(&gram, k, &b, &mut x, 16, 1e-5, &mut s);
            let scale: f32 = direct.as_slice().iter().map(|z| z.abs()).fold(0.0, f32::max);
            for (a, e) in x.iter().zip(direct.as_slice().iter()) {
                assert!(
                    (*a - *e).abs() < 1e-3 * scale.max(1.0),
                    "m {m} k {k}: cg {a:?} direct {e:?}"
                );
            }
        }
    }

    #[test]
    fn cg_zero_rhs_returns_zero_in_zero_iterations() {
        let (_, k) = (8usize, 3usize);
        let gram: Vec<Cf32> = (0..k * k)
            .map(|i| if i % (k + 1) == 0 { Cf32::new(2.0, 0.0) } else { Cf32::ZERO })
            .collect();
        let b = vec![Cf32::ZERO; k];
        let mut x = vec![Cf32::new(9.0, 9.0); k];
        let mut s = CgScratch::new(k);
        let iters = cg_solve_gram(&gram, k, &b, &mut x, 8, 1e-3, &mut s);
        assert_eq!(iters, 0);
        assert!(x.iter().all(|z| z.abs() == 0.0));
    }

    /// The truncated Neumann series must track the true inverse diagonal
    /// (= the post-ZF noise amplification) on a well-conditioned tall
    /// channel, where the Gram matrix is diagonally dominant.
    #[test]
    fn neumann_diag_tracks_inverse_diagonal() {
        use agora_math::Cholesky;
        for (m, k, seed) in [(32usize, 4usize, 43u64), (64, 16, 47)] {
            let (gram, _, _) = gram_system(m, k, seed);
            let gm = CMat::from_fn(k, k, |r, c| gram[r * k + c]);
            let inv = Cholesky::factor(&gm).expect("positive definite").inverse();
            let mut est = vec![0.0f32; k];
            neumann_diag_inv(&gram, k, &mut est);
            for u in 0..k {
                let truth = inv[(u, u)].re;
                let rel = (est[u] - truth).abs() / truth;
                assert!(rel < 0.25, "m {m} k {k} user {u}: est {} truth {truth} rel {rel}", est[u]);
            }
        }
    }
}
