//! # agora-math — complex linear algebra for massive MIMO baseband
//!
//! From-scratch replacement for the subset of Intel MKL that the Agora
//! paper (CoNEXT 2020) relies on:
//!
//! * [`complex`]: `Cf32`/`Cf64` scalar complex arithmetic.
//! * [`matrix`]: dense row-major complex matrices ([`CMat`]).
//! * [`gemm`]: generic, shape-specialised ("JIT"-analogue), and AVX2
//!   register-tiled complex GEMM behind runtime tier dispatch, plus the
//!   ZF solve's accumulating Gram product and AXPY; all tiers are
//!   bit-identical.
//! * [`cholesky`]: Hermitian positive-definite factorisation and the
//!   in-place triangular sweep solve.
//! * [`pinv`]: the zero-forcing pseudo-inverse — one Gram solve
//!   (Cholesky), with the one-sided Jacobi SVD as its fallback for
//!   singular channels ([`pinv_svd`]).
//! * [`simd`]: runtime-dispatched AVX2 kernels for streaming copies and
//!   transposes, with scalar fallbacks.
//!
//! No allocation happens in the hot kernels; everything operates on
//! caller-provided slices.

pub mod cholesky;
pub mod complex;
pub mod gemm;
pub(crate) mod gemm_simd;
pub mod matrix;
pub mod pinv;
pub mod simd;
pub(crate) mod svd;

pub use cholesky::{CholScratch, Cholesky, NotPositiveDefinite};
pub use complex::{Cf32, Cf64};
pub use gemm::{
    caxpy_scalar, caxpy_with_tier, gemm, gemm_scalar, gemm_with_tier, gram_accumulate_scalar,
    gram_accumulate_with_tier, Gemm, GemmKernel,
};
pub use matrix::CMat;
pub use pinv::{
    normalize_precoder, normalize_precoder_in_place, pinv, pinv_into, pinv_svd, PinvMethod,
    PinvScratch,
};
pub use simd::SimdTier;

#[cfg(test)]
mod testutil;
