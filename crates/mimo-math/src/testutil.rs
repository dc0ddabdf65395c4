//! Shared test-only helpers: deterministic random matrices.
//!
//! Every numeric test in this crate used to carry its own copy of the
//! xorshift sampler, and every copy had the same bug: the uniform draw
//! `[0, 1) - 0.25` produced a *biased* range `[-0.25, 0.75)` — a
//! non-zero-mean "channel" whose Gram matrices are systematically better
//! conditioned than i.i.d. zero-mean fading. The single copy here is
//! centered (`[-0.5, 0.5)`) so the tested ensembles look like the
//! channels the engine actually sees.

use crate::complex::Cf32;
use crate::gemm::gram_accumulate_scalar;
use crate::matrix::CMat;

/// Deterministic xorshift64* state stepper.
fn step(state: &mut u64) -> f32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    // 53 high bits -> [0, 1), then center to [-0.5, 0.5).
    ((*state >> 11) as f32 / (1u64 << 53) as f32) - 0.5
}

/// Seeded `rows x cols` complex matrix with i.i.d. entries uniform on
/// `[-0.5, 0.5)` per component (zero mean).
pub(crate) fn rand_mat(rows: usize, cols: usize, seed: u64) -> CMat {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(99) | 1;
    CMat::from_fn(rows, cols, |_, _| {
        let re = step(&mut state);
        let im = step(&mut state);
        Cf32::new(re, im)
    })
}

/// Seeded `m x k` channel matrix — alias of [`rand_mat`] kept for test
/// readability at call sites that think in (antennas, users).
pub(crate) fn rand_channel(m: usize, k: usize, seed: u64) -> CMat {
    rand_mat(m, k, seed)
}

/// Random Hermitian positive-definite `n x n` matrix: `A^H A + 0.5 I`
/// for a random square `A` (comfortably PD, condition number modest).
pub(crate) fn rand_hpd(n: usize, seed: u64) -> CMat {
    let a = rand_mat(n, n, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut g = CMat::zeros(n, n);
    gram_accumulate_scalar(n, n, a.as_slice(), g.as_mut_slice());
    for i in 0..n {
        g[(i, i)] += Cf32::real(0.5);
    }
    g
}
