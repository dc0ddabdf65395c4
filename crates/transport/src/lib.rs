//! # agora-fronthaul — the RRU/baseband link
//!
//! Substitute for the paper's DPDK fronthaul (DESIGN.md §3):
//!
//! * [`packet`]: the 64-byte-header UDP packet format of §5.2.
//! * [`pool`]: recycled fixed-slab packet buffers (the mempool
//!   substitute) and the [`PacketBuf`] packet currency.
//! * [`sys`]: hand-declared `sendmmsg`/`recvmmsg` FFI (Linux) for
//!   batched socket I/O; portable fallback elsewhere.
//! * [`fronthaul`]: the [`Fronthaul`] transport trait — lock-free
//!   in-memory rings (DPDK stand-in) and real UDP sockets with batched,
//!   pooled, error-counted I/O.
//! * [`demux`]: cell-aware routing of one socket's receive stream to
//!   per-cell intakes (multi-cell deployments).
//! * [`rru`]: the emulated RRU / IQ sample generator with ground truth.
//! * [`gen`]: the paced, fault-injecting multi-cell traffic generator.
//! * [`pacing`]: nanosecond-precision symbol pacing.
//! * [`fault`]: deterministic fault injection (loss/reorder/dup/jitter).

pub mod demux;
pub mod fault;
pub mod fronthaul;
pub mod gen;
pub mod pacing;
pub mod packet;
pub mod pool;
pub mod rru;
pub mod sys;

pub use demux::{CellDemux, DemuxStats, Route};
pub use fault::{FaultConfig, FaultInjector, FaultStats, LossModel};
pub use fronthaul::{Fronthaul, MemFronthaul, UdpFronthaul};
pub use gen::MultiCellGenerator;
pub use pacing::Pacer;
pub use packet::{
    decode, decode_ref, encode, encode_into, PacketDir, PacketError, PacketHeader, HEADER_LEN,
};
pub use pool::{PacketBuf, PacketPool, PooledPacket};
pub use rru::{FrameGroundTruth, RruConfig, RruEmulator};
