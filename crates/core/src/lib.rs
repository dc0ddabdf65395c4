//! # agora-core — the Agora baseband processing engine
//!
//! Real-time massive MIMO baseband processing in software (CoNEXT 2020),
//! reproduced in Rust:
//!
//! * [`config`]: engine configuration and batch sizes.
//! * [`buffers`]: lock-free shared frame buffers (§3.2), the one owner of
//!   their layout and of the scheduler contract their views rest on.
//! * [`state`]: the frame graph as one declared edge table, and the
//!   frame table that tracks every in-flight frame through it.
//! * [`kernels`]: task bodies over the buffers (Figure 1b blocks, with
//!   the Table 2 fusions).
//! * [`engine`]: the threaded manager-worker engine (data-parallel
//!   workers over per-worker lanes).
//! * [`inline_engine`]: deterministic single-threaded processor for
//!   BER/BLER experiments.
//! * [`deploy`]: multi-cell deployments — C cells on the engine's worker
//!   pool and one manager thread, which also runs the dynamic
//!   core-reallocation supervisor.
//! * [`alloc`]: shares-over-cores allocation — the simulator's
//!   pipeline-parallel baseline (§5.4) and the deployment supervisor.
//! * [`stats`]: per-block busy-time accounting (Table 3).
//! * [`sim`]: the calibrated discrete-event schedule simulator used for
//!   the multi-core performance figures (see DESIGN.md §3, substitution
//!   4).

pub mod alloc;
pub mod buffers;
pub mod config;
pub mod deploy;
pub mod engine;
pub mod inline_engine;
pub mod kernels;
pub mod sim;
pub mod state;
pub mod stats;

pub use config::{BatchSizes, EngineConfig};
pub use deploy::{Deployment, DeploymentConfig, DeploymentStats};
pub use engine::{Engine, FrameResult};
pub use inline_engine::InlineProcessor;
pub use kernels::Kernels;
pub use state::Milestones;
pub use stats::{Counter, EngineStats};
