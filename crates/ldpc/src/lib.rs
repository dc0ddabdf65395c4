//! # agora-ldpc — 5G NR-style QC-LDPC codec
//!
//! From-scratch replacement for the Intel FlexRAN LDPC SDK the Agora
//! paper links against (closed-source binaries):
//!
//! * [`base_graph`]: BG1/BG2-shaped protographs with the double-diagonal
//!   encoding core and punctured high-degree columns (substitution
//!   documented in DESIGN.md — shift tables are generated, not copied
//!   from TS 38.212).
//! * [`lifting`]: the standard's 51 lifting sizes (validation).
//! * [`encoder`]: linear-time systematic encoders — bytes (the oracle)
//!   and Z-bit words straight into packed rate-matched bits (the
//!   engine's).
//! * [`decoder`]: layered offset min-sum in f32, the i8 decoder's
//!   oracle.
//! * [`decoder_i8`]: fixed-point (i8) layered min-sum, the engine's
//!   decoder.
//!
//!   Both layered decoders are planes of one Z-lane skeleton (`zlane`):
//!   vectorised across the lifting dimension, AVX2 and scalar tiers
//!   bit-exact.
//! * [`rate_match`]: circular-buffer rate matching and LLR re-inflation.
//! * [`crc`]: CRC-24A transport-block CRC.
//! * [`metrics`]: BER/BLER accumulators.

pub mod base_graph;
pub mod crc;
pub mod decoder;
pub mod decoder_i8;
pub mod encoder;
pub mod lifting;
pub mod metrics;
pub mod rate_match;
mod zlane;

pub use base_graph::{BaseEntry, BaseGraph, BaseGraphId};
pub use crc::{attach_crc, check_crc, crc24a};
pub use decoder::{DecodeConfig, DecodeResult, Decoder};
pub use decoder_i8::{quantize_llrs, DecodeConfigI8, DecoderI8, DEFAULT_LLR_SCALE};
pub use encoder::{Encoder, WordEncoder};
pub use metrics::{count_bit_errors, ErrorStats};
pub use rate_match::RateMatch;
