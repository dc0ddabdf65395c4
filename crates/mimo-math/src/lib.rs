//! # agora-math — complex linear algebra for massive MIMO baseband
//!
//! From-scratch replacement for the subset of Intel MKL that the Agora
//! paper (CoNEXT 2020) relies on:
//!
//! * [`complex`]: `Cf32`/`Cf64` scalar complex arithmetic.
//! * [`matrix`]: dense row-major complex matrices ([`CMat`]).
//! * [`gemm`]: generic, shape-specialised ("JIT"-analogue), and AVX2
//!   register-tiled complex GEMM/GEMV/Gram kernels behind runtime tier
//!   dispatch; all tiers are bit-identical.
//! * [`inverse`]: Gauss-Jordan inversion and LU solves.
//! * [`cholesky`]: Hermitian positive-definite factorisation.
//! * [`svd`]: one-sided Jacobi thin SVD (the robust pseudo-inverse route).
//! * [`pinv`]: zero-forcing pseudo-inverse, both fast and robust paths.
//! * [`simd`]: runtime-dispatched AVX2 kernels for IQ conversion,
//!   streaming copies, and transposes, with scalar fallbacks.
//!
//! No allocation happens in the hot kernels; everything operates on
//! caller-provided slices.

pub mod cholesky;
pub mod complex;
pub mod gemm;
pub(crate) mod gemm_simd;
pub mod inverse;
pub mod matrix;
pub mod pinv;
pub mod simd;
pub mod svd;
#[cfg(test)]
pub(crate) mod testutil;

pub use cholesky::{CholScratch, Cholesky, NotPositiveDefinite};
pub use complex::{Cf32, Cf64};
pub use gemm::{
    caxpy_scalar, caxpy_with_tier, gemm, gemm_fixed, gemm_scalar, gemm_with_tier, gemv,
    gemv_scalar, gemv_with_tier, gram, gram_accumulate_scalar, gram_accumulate_with_tier,
    gram_scalar, gram_with_tier, Gemm, GemmKernel,
};
pub use inverse::{invert, invert_into, solve, InvError};
pub use matrix::CMat;
pub use pinv::{
    normalize_precoder, normalize_precoder_in_place, pinv, pinv_cholesky, pinv_direct, pinv_into,
    pinv_svd, PinvMethod, PinvScratch,
};
pub use simd::SimdTier;
pub use svd::{svd, Svd};
