//! # agora-channel — simulated radio environment
//!
//! Substitute for the paper's physical radio paths (the emulated-RRU AWGN
//! channel of §5.2 and the Skylark Faros over-the-air deployment of
//! §5.3): reproducible fading models, calibrated AWGN, and SNR helpers.

pub mod models;
pub mod snr;

pub use models::{AwgnSource, ChannelModel, FadingModel};
pub use snr::per_user_snrs;
