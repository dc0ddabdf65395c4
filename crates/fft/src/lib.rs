//! # agora-fft — FFT/IFFT and OFDM framing
//!
//! From-scratch replacement for the DFT portion of Intel MKL used by the
//! Agora paper: precomputed radix-2 plans ([`FftPlan`]), a naive DFT
//! oracle for tests ([`dft_ref`]), and OFDM subcarrier mapping with cyclic
//! prefix handling ([`ofdm`]).

pub mod dft_ref;
pub mod ofdm;
pub mod plan;
pub mod simd;

pub use ofdm::{Ofdm, SubcarrierMap};
pub use plan::{Direction, FftPlan};
