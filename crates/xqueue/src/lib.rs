//! # agora-queue — lock-free synchronisation primitives
//!
//! From-scratch replacement for the moodycamel `ConcurrentQueue` the Agora
//! paper uses for manager/worker messaging:
//!
//! * [`mpmc`]: Vyukov-style bounded MPMC queue (task and completion queues).
//! * [`msg`]: the 64-byte, one-cache-line message format (Figure 3).
//! * [`padded`]: cache-line padding to prevent false sharing (§4.1).
//! * [`lane`]: per-worker bounded task lanes with batch stealing (the
//!   work-stealing scheduler's dispatch rings).
//! * [`park`]: spin → yield → park idling with a lost-wakeup-free
//!   eventcount gate.
//! * [`affinity`]: best-effort `sched_setaffinity` core pinning.

pub mod affinity;
pub mod lane;
pub mod mpmc;
pub mod msg;
pub mod padded;
pub mod park;

pub use lane::TaskLane;
pub use mpmc::MpmcQueue;
pub use msg::{Msg, TaskType};
pub use padded::{CachePadded, CACHE_LINE};
pub use park::{IdleAction, IdleBackoff, IdleGate};
