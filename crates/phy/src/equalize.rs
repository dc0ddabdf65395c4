//! Uplink equalization — demultiplexing user streams from antenna streams.
//!
//! For each data subcarrier the received `M`-vector `y` (one sample per
//! antenna) is multiplied by the `K x M` ZF detector to recover the `K`
//! user symbols: `x_hat = W y`. The engine fuses this block with
//! demodulation (Table 2); the fusion lives in the engine, the kernel
//! lives here. Batched variants process 8 consecutive subcarriers per
//! call so one task consumes a whole cache line of each antenna's data —
//! the paper's §4.1 "memory access efficiency" optimisation.
//!
//! Both entry points run vectorized on AVX2 hardware: [`equalize_one`]'s
//! GEMV and the planned GEMM behind [`equalize_batch`] dispatch through
//! `agora-math`'s SIMD tier (the plan pins the tier at construction, so
//! the per-subcarrier inner loop pays no dispatch). The scalar and vector
//! kernels are bit-identical.

use crate::zf::ZfBuffer;
use agora_math::{gemm, Cf32, Gemm};

/// Equalizes one subcarrier: `users_out = W * antennas_in`.
///
/// `antennas_in` has `M` entries (one per antenna at this subcarrier);
/// `users_out` receives `K` entries.
pub fn equalize_one(zf: &ZfBuffer, sc: usize, antennas_in: &[Cf32], users_out: &mut [Cf32]) {
    let w = zf.detector_for(sc);
    assert_eq!(antennas_in.len(), w.cols(), "antenna count mismatch");
    assert_eq!(users_out.len(), w.rows(), "user count mismatch");
    agora_math::gemv(w.rows(), w.cols(), w.as_slice(), antennas_in, users_out);
}

/// Equalizes a batch of `B` consecutive subcarriers that share a detector
/// group. `antennas_in` is `M x B` row-major (per antenna, `B` adjacent
/// subcarriers — the transposed layout the FFT stage emits); `users_out`
/// is `K x B` row-major.
///
/// `plan` must be a GEMM plan of shape `(K, M, B)`; passing the plan in
/// lets the engine reuse the "JIT"-specialised kernel across millions of
/// calls.
pub fn equalize_batch(
    zf: &ZfBuffer,
    first_sc: usize,
    batch: usize,
    plan: &Gemm,
    antennas_in: &[Cf32],
    users_out: &mut [Cf32],
) {
    let w = zf.detector_for(first_sc);
    assert_eq!(antennas_in.len(), w.cols() * batch);
    assert_eq!(users_out.len(), w.rows() * batch);
    plan.run(w.as_slice(), antennas_in, users_out);
}

/// Reference (unplanned) batch equalization used by tests and the
/// pipeline-parallel variant's cold path.
pub fn equalize_batch_generic(
    zf: &ZfBuffer,
    first_sc: usize,
    batch: usize,
    antennas_in: &[Cf32],
    users_out: &mut [Cf32],
) {
    let w = zf.detector_for(first_sc);
    gemm(w.rows(), w.cols(), batch, w.as_slice(), antennas_in, users_out);
}

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
    use crate::chanest::CsiBuffer;
    use crate::zf::{zf_task, ZfConfig};
    use agora_math::{CMat, PinvMethod};

    /// Builds a ZF buffer for a known random channel and returns both.
    fn setup(m: usize, k: usize, q: usize, seed: u64) -> (CsiBuffer, ZfBuffer) {
        let mut state = seed | 1;
        let mut csi = CsiBuffer::new(m, k, q);
        for sc in 0..q {
            *csi.at_mut(sc) = CMat::from_fn(m, k, |_, _| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
                };
                Cf32::new(next(), next())
            });
        }
        let cfg = ZfConfig { group_size: 16, method: PinvMethod::Direct };
        let mut zf = ZfBuffer::new(m, k, q, cfg.group_size);
        for g in 0..cfg.num_groups(q) {
            zf_task(&csi, &cfg, g, &mut zf);
        }
        (csi, zf)
    }

    #[test]
    fn equalize_recovers_transmitted_symbols() {
        let (m, k) = (16usize, 4usize);
        let (csi, zf) = setup(m, k, 16, 5);
        // Transmit known user symbols through the channel at sc 0.
        let x: Vec<Cf32> = (0..k).map(|u| Cf32::new(u as f32 + 1.0, -(u as f32))).collect();
        let y = csi.at(0).matvec(&x);
        let mut out = vec![Cf32::ZERO; k];
        equalize_one(&zf, 0, &y, &mut out);
        for (a, b) in out.iter().zip(x.iter()) {
            assert!((*a - *b).abs() < 1e-2, "recovered {a:?} expected {b:?}");
        }
    }

    #[test]
    fn batch_matches_per_subcarrier() {
        let (m, k, b) = (16usize, 4usize, 8usize);
        let (csi, zf) = setup(m, k, 16, 7);
        // Per-antenna blocks of 8 consecutive subcarriers, all within
        // detector group 0; channel is per-sc so compute y per sc.
        let xs: Vec<Vec<Cf32>> = (0..b)
            .map(|sc| (0..k).map(|u| Cf32::new(sc as f32 * 0.1, u as f32 * 0.2 - 0.3)).collect())
            .collect();
        let mut ant_block = vec![Cf32::ZERO; m * b];
        for (sc, x) in xs.iter().enumerate() {
            let y = csi.at(sc).matvec(x);
            for a in 0..m {
                ant_block[a * b + sc] = y[a];
            }
        }
        let plan = Gemm::plan(k, m, b);
        let mut batch_out = vec![Cf32::ZERO; k * b];
        equalize_batch(&zf, 0, b, &plan, &ant_block, &mut batch_out);

        for sc in 0..b {
            let y: Vec<Cf32> = (0..m).map(|a| ant_block[a * b + sc]).collect();
            let mut single = vec![Cf32::ZERO; k];
            equalize_one(&zf, sc, &y, &mut single);
            for u in 0..k {
                assert!((batch_out[u * b + sc] - single[u]).abs() < 1e-4, "sc {sc} user {u}");
            }
        }
    }

    #[test]
    fn generic_batch_matches_planned() {
        let (m, k, b) = (16usize, 4usize, 8usize);
        let (_csi, zf) = setup(m, k, 16, 11);
        let ant_block: Vec<Cf32> =
            (0..m * b).map(|i| Cf32::new((i % 13) as f32 * 0.1, (i % 7) as f32 * -0.2)).collect();
        let plan = Gemm::plan(k, m, b);
        let mut a = vec![Cf32::ZERO; k * b];
        let mut g = vec![Cf32::ZERO; k * b];
        equalize_batch(&zf, 0, b, &plan, &ant_block, &mut a);
        equalize_batch_generic(&zf, 0, b, &ant_block, &mut g);
        for (x, y) in a.iter().zip(g.iter()) {
            assert!((*x - *y).abs() < 1e-4);
        }
    }

    /// Scalar and AVX2 plans must equalize to the same bits.
    #[test]
    fn tier_parity_is_bit_exact() {
        use agora_math::SimdTier;
        let (m, k, b) = (16usize, 4usize, 8usize);
        let (_csi, zf) = setup(m, k, 16, 17);
        let ant_block: Vec<Cf32> =
            (0..m * b).map(|i| Cf32::new((i % 11) as f32 * 0.3, (i % 5) as f32 * -0.4)).collect();
        let mut scalar_out = vec![Cf32::ZERO; k * b];
        let mut simd_out = vec![Cf32::ZERO; k * b];
        let scalar_plan = Gemm::plan_with_tier(k, m, b, SimdTier::Scalar);
        let simd_plan = Gemm::plan_with_tier(k, m, b, SimdTier::detect());
        equalize_batch(&zf, 0, b, &scalar_plan, &ant_block, &mut scalar_out);
        equalize_batch(&zf, 0, b, &simd_plan, &ant_block, &mut simd_out);
        for (x, y) in scalar_out.iter().zip(simd_out.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        // Single-subcarrier GEMV path too.
        let y: Vec<Cf32> = (0..m).map(|a| ant_block[a * b]).collect();
        let mut one_scalar = vec![Cf32::ZERO; k];
        let mut one_simd = vec![Cf32::ZERO; k];
        let w = zf.detector_for(0);
        agora_math::gemv_with_tier(k, m, w.as_slice(), &y, &mut one_scalar, SimdTier::Scalar);
        equalize_one(&zf, 0, &y, &mut one_simd);
        for (x, v) in one_scalar.iter().zip(one_simd.iter()) {
            assert_eq!(x.re.to_bits(), v.re.to_bits());
            assert_eq!(x.im.to_bits(), v.im.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "antenna count")]
    fn wrong_antenna_count_panics() {
        let (_csi, zf) = setup(8, 2, 16, 13);
        let y = vec![Cf32::ZERO; 4];
        let mut out = vec![Cf32::ZERO; 2];
        equalize_one(&zf, 0, &y, &mut out);
    }

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
