//! # agora-phy — physical-layer signal processing kernels
//!
//! The per-block kernels of Figure 1(b), independent of threading:
//!
//! * [`modulation`] / [`demod`]: Gray QAM mapping and max-log soft LLRs.
//! * [`pilots`]: Zadoff-Chu sequences, frequency/time-orthogonal plans.
//! * [`chanest`]: the per-subcarrier CSI buffer [`zf`] reads.
//! * [`zf`]: zero-forcing detector/precoder calculation per group.
//! * [`precode`]: the downlink linear stage.
//! * [`iq`]: 12+12-bit packed fronthaul sample codec.
//! * [`frame`]: cell configuration and the TDD symbol schedule.
//!
//! The `agora-core` engine composes these kernels into tasks; everything
//! here is plain single-threaded code operating on slices.

pub mod chanest;
pub mod demod;
pub mod frame;
pub mod iq;
pub mod modulation;
pub mod pilots;
pub mod precode;
pub mod zf;

pub use chanest::CsiBuffer;
pub use demod::{demod_soft, demod_soft_exact, demod_soft_simd, Demapper};
pub use frame::{CellConfig, FrameSchedule, LdpcParams, SymbolType};
pub use modulation::{modulate, ModScheme, Modulator};
pub use pilots::{zadoff_chu, PilotPlan, PilotScheme};
pub use zf::{zf_task, ZfBuffer, ZfConfig};
