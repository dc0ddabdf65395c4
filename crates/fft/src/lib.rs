//! # agora-fft — FFT/IFFT and OFDM framing
//!
//! From-scratch replacement for the DFT portion of Intel MKL used by the
//! Agora paper: precomputed radix-2 plans ([`FftPlan`]) and OFDM
//! subcarrier mapping with cyclic prefix handling ([`ofdm`]). The tests
//! hold the fast transforms to a naive DFT oracle (`dft_ref`).

pub mod ofdm;
pub mod plan;
pub mod simd;

pub use ofdm::{Ofdm, SubcarrierMap};
pub use plan::{Conj, Direction, FftPlan, Steps};

#[cfg(test)]
mod dft_ref;
