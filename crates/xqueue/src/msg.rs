//! The 64-byte queue message.
//!
//! Agora's threads synchronise through FIFO queues "using 64-byte messages
//! each containing two fields: task type and buffer location" (§3.2,
//! Figure 3). One message occupies exactly one cache line, so enqueueing
//! or dequeueing it moves a single line between cores. [`Msg`] is the
//! wire format; the engine layers typed constructors on top.

use crate::padded::CACHE_LINE;

/// Task/message kind discriminator carried in a [`Msg`].
///
/// The numeric values are stable: they index the engine's per-type task
/// queues and the priority table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum TaskType {
    /// Uplink FFT (+ fused channel estimation on pilot symbols).
    Fft = 0,
    /// Zero-forcing precoder/detector calculation.
    Zf = 1,
    /// Equalization + demodulation (fused).
    Demod = 2,
    /// LDPC decoding.
    Decode = 3,
    /// LDPC encoding (downlink).
    Encode = 4,
    /// Precoding + modulation (fused, downlink).
    Precode = 5,
    /// Downlink IFFT.
    Ifft = 6,
    /// Packet received from the fronthaul (network -> manager).
    PacketRx = 7,
    /// Packet ready for transmission (manager -> network).
    PacketTx = 8,
    /// Task-complete notification (worker -> manager).
    Complete = 9,
}

impl TaskType {
    /// All compute task types, in *paper* pipeline order.
    pub const COMPUTE: [TaskType; 7] = [
        TaskType::Fft,
        TaskType::Zf,
        TaskType::Demod,
        TaskType::Decode,
        TaskType::Encode,
        TaskType::Precode,
        TaskType::Ifft,
    ];
}

/// A 64-byte, cache-line-sized queue message.
///
/// Field meanings depend on `task`:
/// * compute tasks: `frame`/`symbol` locate the work, `base` is the first
///   task index (antenna, subcarrier-group, or user), `count` is the batch
///   size (§3.4 "Batching"), `stage` is zero except on a precode message
///   that reads the previous frame's precoder (the frame table's
///   `STAGE_STALE_PRECODER`, simulator only), and `aux` carries the
///   completing worker id in completions.
/// * packet messages: `base` is the antenna index and `aux` the buffer
///   slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct Msg {
    /// What kind of work / notification this is.
    pub task: TaskType,
    /// Completing worker id (Complete) or transport slot (packets).
    pub aux: u16,
    /// Batch size: number of consecutive tasks this message carries.
    pub count: u32,
    /// Frame id (monotonically increasing, never wrapped).
    pub frame: u32,
    /// Symbol index within the frame.
    pub symbol: u32,
    /// First task index within the block (antenna / subcarrier group /
    /// user, depending on `task`).
    pub base: u32,
    /// The frame table's stale-precoder flag on precode messages, zero
    /// otherwise; echoed unchanged by completions.
    pub stage: u16,
    /// Reserved padding to fill the cache line; always zero.
    _pad: [u16; 21],
}

const _: () = assert!(core::mem::size_of::<Msg>() == CACHE_LINE);
const _: () = assert!(core::mem::align_of::<Msg>() == CACHE_LINE);

impl Msg {
    /// Creates a task message for a batch of `count` tasks starting at
    /// `base` within `(frame, symbol)`.
    pub fn task(task: TaskType, frame: u32, symbol: u32, base: u32, count: u32) -> Self {
        Self { task, aux: 0, count, frame, symbol, base, stage: 0, _pad: [0; 21] }
    }

    /// This task message with its `stage` field set.
    pub fn with_stage(self, stage: u16) -> Self {
        Self { stage, ..self }
    }

    /// The completion notification for this task message: every
    /// coordinate echoed, `aux` set to the completing worker.
    pub fn complete(self, worker: u16) -> Self {
        Self { aux: worker, ..self }
    }
}

impl Default for Msg {
    fn default() -> Self {
        Msg::task(TaskType::Fft, 0, 0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_is_exactly_one_cache_line() {
        assert_eq!(core::mem::size_of::<Msg>(), 64);
        assert_eq!(core::mem::align_of::<Msg>(), 64);
    }

    #[test]
    fn constructors_fill_fields() {
        let m = Msg::task(TaskType::Demod, 7, 3, 128, 8);
        assert_eq!(m.task, TaskType::Demod);
        assert_eq!(m.frame, 7);
        assert_eq!(m.symbol, 3);
        assert_eq!(m.base, 128);
        assert_eq!(m.count, 8);
        let staged = m.with_stage(5);
        let c = staged.complete(21);
        assert_eq!(c.aux, 21);
        assert_eq!(Msg { aux: 0, ..c }, staged, "a completion echoes every coordinate");
    }

    #[test]
    fn compute_order_matches_pipeline() {
        assert_eq!(TaskType::COMPUTE[0], TaskType::Fft);
        assert_eq!(TaskType::COMPUTE[3], TaskType::Decode);
        assert_eq!(TaskType::COMPUTE[6], TaskType::Ifft);
    }
}
