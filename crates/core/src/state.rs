//! Per-frame dependency tracking — the manager's bookkeeping.
//!
//! This is the pure logic behind Agora's scheduling policy: which tasks
//! become ready when a packet arrives or a completion message lands. It
//! owns no buffers and spawns no threads, so every dependency rule
//! (Figure 1b) is unit-testable:
//!
//! * FFT of (symbol, antenna) needs that antenna's packet.
//! * ZF needs *all* pilot FFTs (the synchronisation barrier of §2).
//! * Demodulation of a symbol needs that symbol's FFTs *and* all ZF.
//! * Decoding of (symbol, user) needs the symbol fully demodulated.
//! * Downlink: encode is free; precoding needs ZF + the symbol's encodes;
//!   IFFT needs the symbol fully precoded.
//!
//! Two types split the work. [`FrameState`] is one frame's dependency
//! counters, with the two translations around them — [`FrameShape::expand`]
//! (a [`Ready`] item → the queue messages that carry it) and
//! [`FrameState::on_complete`] (a completed message → the transition it
//! triggers). [`FrameTable`] is every in-flight frame from first packet
//! to retirement: arrival coalescing, in-flight counts, milestones, the
//! cross-frame stale-precoder edge, abandonment and the watermark. It
//! reads no clock — time is an argument — so the threaded manager, the
//! inline processor and the simulator drive the same lifecycle, and tests
//! drive it without threads.

use crate::config::BatchSizes;
use agora_phy::frame::{FrameSchedule, SymbolType};
use agora_phy::CellConfig;
use agora_queue::{Msg, TaskType};
use std::collections::VecDeque;

/// Leading downlink symbols eligible for the stale-precoder early start
/// (§3.4.2 bridges roughly the ZF-completion gap, which spans the first
/// couple of data symbols).
pub const STALE_PRECODER_SYMBOLS: usize = 2;

/// Ready-to-dispatch work discovered by a state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// All ZF groups (dispatched together once pilots are done).
    AllZf,
    /// Demodulation for a whole symbol (manager batches subcarriers).
    DemodSymbol {
        /// Symbol index.
        symbol: usize,
    },
    /// Decode for every user of a symbol.
    DecodeSymbol {
        /// Symbol index.
        symbol: usize,
    },
    /// Encode for every user of a downlink symbol.
    EncodeSymbol {
        /// Symbol index.
        symbol: usize,
    },
    /// Precoding for a whole downlink symbol.
    PrecodeSymbol {
        /// Symbol index.
        symbol: usize,
    },
    /// IFFT for (symbol, antenna).
    IfftSymbol {
        /// Symbol index.
        symbol: usize,
    },
}

/// `Msg::stage` of a precode message that reads frame − 1's precoder
/// instead of its own frame's (§3.4.2).
pub const STAGE_STALE_PRECODER: u16 = 1;

/// ZF is per frame, not per symbol: its messages carry this symbol index.
const ZF_SYMBOL: usize = 0;

/// Splits `total` consecutive tasks into `(base, count)` runs of at most
/// `step` — the message granularity of §3.4 "Batching".
pub(crate) fn runs(total: usize, step: usize) -> impl Iterator<Item = (u32, u32)> {
    let step = step.max(1);
    (0..total).step_by(step).map(move |base| (base as u32, step.min(total - base) as u32))
}

/// The fan-out of one frame's task graph: how many tasks each stage has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameShape {
    /// Antennas (FFT/IFFT tasks per symbol).
    pub m: usize,
    /// Users (decode/encode tasks per symbol).
    pub k: usize,
    /// Data subcarriers (demod/precode tasks per symbol).
    pub q: usize,
    /// ZF subcarrier groups (one ZF task each).
    pub zf_groups: usize,
}

impl FrameShape {
    /// Shape of `cell`'s frames.
    pub fn new(cell: &CellConfig) -> Self {
        Self {
            m: cell.num_antennas,
            k: cell.num_users,
            q: cell.num_data_sc,
            zf_groups: cell.num_zf_groups(),
        }
    }

    /// Appends the queue messages that carry `ready` to `out`, `batch`
    /// tasks per message (§3.4 "Batching"). FFT messages are not made
    /// here: [`FrameTable::on_packet`] builds them from arrivals.
    pub fn expand(&self, frame: u32, ready: Ready, batch: &BatchSizes, out: &mut Vec<Msg>) {
        let mut chunked = |task, symbol: usize, total: usize, step: usize| {
            out.extend(runs(total, step).map(|(b, n)| Msg::task(task, frame, symbol as u32, b, n)));
        };
        match ready {
            Ready::AllZf => chunked(TaskType::Zf, ZF_SYMBOL, self.zf_groups, batch.zf),
            Ready::DemodSymbol { symbol } => chunked(TaskType::Demod, symbol, self.q, batch.demod),
            Ready::DecodeSymbol { symbol } => {
                chunked(TaskType::Decode, symbol, self.k, batch.decode)
            }
            Ready::EncodeSymbol { symbol } => {
                chunked(TaskType::Encode, symbol, self.k, batch.encode)
            }
            Ready::PrecodeSymbol { symbol } => {
                chunked(TaskType::Precode, symbol, self.q, batch.precode)
            }
            Ready::IfftSymbol { symbol } => chunked(TaskType::Ifft, symbol, self.m, batch.ifft),
        }
    }
}

/// What a completed message unlocked.
#[derive(Debug, Default)]
pub struct Completion {
    /// Newly dispatchable work.
    pub ready: Vec<Ready>,
    /// This completion finished the frame's last uplink decode.
    pub ul_done: bool,
    /// This completion finished the frame's last downlink IFFT.
    pub dl_done: bool,
}

/// Milestones within a frame's processing (nanoseconds since engine
/// start), mirroring Figure 13(b).
#[derive(Debug, Clone, Copy, Default)]
pub struct Milestones {
    /// First packet of the frame entered the system.
    pub first_packet_ns: u64,
    /// Manager began scheduling the frame (queueing delay ends).
    pub processing_start_ns: u64,
    /// All pilot symbols FFT'd + CSI complete.
    pub pilot_done_ns: u64,
    /// All ZF groups computed.
    pub zf_done_ns: u64,
    /// Last uplink decode finished (uplink frame completion).
    pub decode_done_ns: u64,
    /// Last downlink IFFT finished (downlink frame completion).
    pub ifft_done_ns: u64,
}

/// Dependency/state tracker for one in-flight frame.
#[derive(Debug, Clone)]
pub struct FrameState {
    /// The frame id being tracked.
    pub frame: u32,
    /// Timing milestones.
    pub milestones: Milestones,
    schedule: FrameSchedule,
    shape: FrameShape,
    // --- uplink ---
    pkts: Vec<usize>,
    /// Per-(symbol, antenna) arrival flags (`symbol * m + antenna`):
    /// rejects duplicate fronthaul packets, which would otherwise
    /// double-count toward the FFT barrier and corrupt the dependency
    /// counters.
    rx_seen: Vec<bool>,
    fft_done: Vec<usize>,
    pilot_ffts_remaining: usize,
    zf_dispatched: bool,
    zf_done: usize,
    demod_dispatched: Vec<bool>,
    demod_done: Vec<usize>,
    decode_dispatched: Vec<bool>,
    decode_done: Vec<usize>,
    ul_decodes_remaining: usize,
    // --- downlink ---
    encode_done: Vec<usize>,
    precode_dispatched: Vec<bool>,
    precode_done: Vec<usize>,
    ifft_dispatched: Vec<bool>,
    ifft_done: Vec<usize>,
    dl_iffts_remaining: usize,
}

impl FrameState {
    /// Creates the tracker for `frame`.
    pub fn new(frame: u32, schedule: FrameSchedule, shape: FrameShape) -> Self {
        let FrameShape { m, k, .. } = shape;
        let symbols = schedule.len();
        let pilot_ffts = schedule.pilot_indices().len() * m;
        let ul_symbols = schedule.uplink_indices().len();
        let dl_symbols = schedule.downlink_indices().len();
        Self {
            frame,
            milestones: Milestones::default(),
            schedule,
            shape,
            pkts: vec![0; symbols],
            rx_seen: vec![false; symbols * m],
            fft_done: vec![0; symbols],
            pilot_ffts_remaining: pilot_ffts,
            zf_dispatched: false,
            zf_done: 0,
            demod_dispatched: vec![false; symbols],
            demod_done: vec![0; symbols],
            decode_dispatched: vec![false; symbols],
            decode_done: vec![0; symbols],
            ul_decodes_remaining: ul_symbols * k,
            encode_done: vec![0; symbols],
            precode_dispatched: vec![false; symbols],
            precode_done: vec![0; symbols],
            ifft_dispatched: vec![false; symbols],
            ifft_done: vec![0; symbols],
            dl_iffts_remaining: dl_symbols * m,
        }
    }

    /// Downlink symbols that can start immediately (encode needs no RX
    /// input — the data comes from the MAC).
    fn initial_work(&self) -> Vec<Ready> {
        self.schedule
            .downlink_indices()
            .into_iter()
            .map(|symbol| Ready::EncodeSymbol { symbol })
            .collect()
    }

    /// A packet for `(symbol, antenna)` arrived; its payload is already in
    /// the frame buffer. Returns `false` for a duplicate `(symbol,
    /// antenna)` — the caller must not dispatch anything for it (the
    /// byte-identical payload rewrite is harmless, but a second FFT would
    /// double-count the barrier).
    pub fn on_packet(&mut self, symbol: usize, antenna: usize) -> bool {
        let seen = &mut self.rx_seen[symbol * self.shape.m + antenna];
        let first = !*seen;
        if first {
            *seen = true;
            self.pkts[symbol] += 1;
        }
        first
    }

    /// A task message completed: applies the transition it stands for
    /// and reports what that unlocked.
    pub fn on_complete(&mut self, msg: &Msg) -> Completion {
        let (symbol, count) = (msg.symbol as usize, msg.count as usize);
        let mut done = Completion::default();
        match msg.task {
            TaskType::Fft => done.ready = self.on_fft_done(symbol, count),
            TaskType::Zf => done.ready = self.on_zf_done(count),
            TaskType::Demod => done.ready = self.on_demod_done(symbol, count),
            TaskType::Decode => done.ul_done = self.on_decode_done(symbol, count),
            TaskType::Encode => done.ready = self.on_encode_done(symbol, count),
            TaskType::Precode => done.ready = self.on_precode_done(symbol, count),
            TaskType::Ifft => done.dl_done = self.on_ifft_done(symbol, count),
            _ => {}
        }
        done
    }

    /// An FFT task completed. May unlock ZF (pilots done) or
    /// demodulation (data symbol done + ZF done).
    fn on_fft_done(&mut self, symbol: usize, count: usize) -> Vec<Ready> {
        self.fft_done[symbol] += count;
        debug_assert!(self.fft_done[symbol] <= self.shape.m);
        let mut out = Vec::new();
        match self.schedule.symbol(symbol) {
            SymbolType::Pilot => {
                self.pilot_ffts_remaining -= count;
                if self.pilot_ffts_remaining == 0 && !self.zf_dispatched {
                    self.zf_dispatched = true;
                    out.push(Ready::AllZf);
                }
            }
            SymbolType::Uplink if self.fft_done[symbol] == self.shape.m => {
                out.extend(self.try_demod(symbol));
            }
            _ => {}
        }
        out
    }

    /// A batch of ZF groups completed. When all groups are done, every
    /// fully-FFT'd data symbol becomes demodulation-ready and every
    /// fully-encoded downlink symbol becomes precoding-ready.
    fn on_zf_done(&mut self, count: usize) -> Vec<Ready> {
        self.zf_done += count;
        debug_assert!(self.zf_done <= self.shape.zf_groups);
        let mut out = Vec::new();
        if self.zf_done == self.shape.zf_groups {
            for symbol in self.schedule.uplink_indices() {
                if self.fft_done[symbol] == self.shape.m {
                    out.extend(self.try_demod(symbol));
                }
            }
            for symbol in self.schedule.downlink_indices() {
                if self.encode_done[symbol] == self.shape.k {
                    out.extend(self.try_precode(symbol));
                }
            }
        }
        out
    }

    /// Demodulation progress on a symbol (in subcarriers).
    fn on_demod_done(&mut self, symbol: usize, subcarriers: usize) -> Vec<Ready> {
        self.demod_done[symbol] += subcarriers;
        debug_assert!(self.demod_done[symbol] <= self.shape.q);
        if self.demod_done[symbol] == self.shape.q && !self.decode_dispatched[symbol] {
            self.decode_dispatched[symbol] = true;
            vec![Ready::DecodeSymbol { symbol }]
        } else {
            Vec::new()
        }
    }

    /// Decode progress (in users). Returns `true` as second element when
    /// the whole uplink frame is finished.
    fn on_decode_done(&mut self, symbol: usize, users: usize) -> bool {
        self.decode_done[symbol] += users;
        debug_assert!(self.decode_done[symbol] <= self.shape.k);
        self.ul_decodes_remaining -= users;
        self.ul_decodes_remaining == 0
    }

    /// Encode progress on a downlink symbol (in users).
    fn on_encode_done(&mut self, symbol: usize, users: usize) -> Vec<Ready> {
        self.encode_done[symbol] += users;
        debug_assert!(self.encode_done[symbol] <= self.shape.k);
        if self.encode_done[symbol] == self.shape.k && self.zf_done == self.shape.zf_groups {
            self.try_precode(symbol)
        } else {
            Vec::new()
        }
    }

    /// Precoding progress (in subcarriers). Unlocks the symbol's IFFTs.
    fn on_precode_done(&mut self, symbol: usize, subcarriers: usize) -> Vec<Ready> {
        self.precode_done[symbol] += subcarriers;
        debug_assert!(self.precode_done[symbol] <= self.shape.q);
        if self.precode_done[symbol] == self.shape.q && !self.ifft_dispatched[symbol] {
            self.ifft_dispatched[symbol] = true;
            vec![Ready::IfftSymbol { symbol }]
        } else {
            Vec::new()
        }
    }

    /// IFFT progress (in antennas). Returns `true` when the downlink
    /// frame is complete.
    fn on_ifft_done(&mut self, symbol: usize, antennas: usize) -> bool {
        self.ifft_done[symbol] += antennas;
        debug_assert!(self.ifft_done[symbol] <= self.shape.m);
        self.dl_iffts_remaining -= antennas;
        self.dl_iffts_remaining == 0
    }

    /// True when every uplink decode has finished.
    fn uplink_complete(&self) -> bool {
        self.ul_decodes_remaining == 0
    }

    /// True when every downlink IFFT has finished.
    fn downlink_complete(&self) -> bool {
        self.dl_iffts_remaining == 0
    }

    /// True once all pilot FFT+CSI work is done.
    fn pilots_complete(&self) -> bool {
        self.pilot_ffts_remaining == 0
    }

    /// Packets received so far for one symbol.
    fn packets_received(&self, symbol: usize) -> usize {
        self.pkts[symbol]
    }

    /// Distinct packets still missing across all packet-bearing symbols
    /// (pilot + uplink; downlink symbols carry no uplink packets). This
    /// is the loss count attributed to a frame when it is abandoned.
    pub fn packets_missing(&self) -> usize {
        self.schedule
            .pilot_indices()
            .into_iter()
            .chain(self.schedule.uplink_indices())
            .map(|s| self.shape.m - self.pkts[s])
            .sum()
    }

    /// True once every user of a downlink symbol has been encoded.
    fn encode_complete(&self, symbol: usize) -> bool {
        self.encode_done[symbol] == self.shape.k
    }

    /// The §3.4.2 "stale precoder" early start: precoding work for
    /// `symbol` *before* this frame's ZF is ready, so the first downlink
    /// symbols of frame `f` beam with frame `f-1`'s precoder and the RRU's
    /// air time never idles. Empty unless `symbol` is one of the first
    /// [`STALE_PRECODER_SYMBOLS`] downlink symbols, fully encoded, with
    /// this frame's ZF still pending. The caller ([`FrameTable`]) checks
    /// that the previous frame's precoder exists.
    fn precode_with_stale(&mut self, symbol: usize) -> Vec<Ready> {
        let early = |s: &FrameSchedule| {
            s.downlink_indices().iter().take(STALE_PRECODER_SYMBOLS).any(|&d| d == symbol)
        };
        if self.encode_complete(symbol) && !self.zf_complete() && early(&self.schedule) {
            self.try_precode(symbol)
        } else {
            Vec::new()
        }
    }

    /// True once all ZF groups are done.
    fn zf_complete(&self) -> bool {
        self.zf_done == self.shape.zf_groups
    }

    fn try_demod(&mut self, symbol: usize) -> Vec<Ready> {
        if self.zf_done == self.shape.zf_groups && !self.demod_dispatched[symbol] {
            self.demod_dispatched[symbol] = true;
            vec![Ready::DemodSymbol { symbol }]
        } else {
            Vec::new()
        }
    }

    fn try_precode(&mut self, symbol: usize) -> Vec<Ready> {
        if !self.precode_dispatched[symbol] {
            self.precode_dispatched[symbol] = true;
            vec![Ready::PrecodeSymbol { symbol }]
        } else {
            Vec::new()
        }
    }
}

/// What [`FrameTable::on_packet`] did with an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// First copy of this `(symbol, antenna)`; any FFT run it closed is
    /// in the output.
    Accepted,
    /// A repeat of a `(symbol, antenna)` already seen: nothing dispatched.
    Duplicate,
    /// The frame is retired or being abandoned: nothing dispatched.
    Late,
}

/// A frame leaving the table.
#[derive(Debug)]
pub struct Retired {
    /// The frame's final state; `None` if none of its packets ever arrived.
    pub state: Option<FrameState>,
    /// Abandoned rather than completed.
    pub dropped: bool,
}

/// One frame between its first packet and its retirement.
#[derive(Debug)]
struct Record {
    state: FrameState,
    /// Task messages emitted and not yet completed or flushed. The
    /// frame's buffers may only be reused once this is zero.
    inflight: usize,
    /// Past its deadline: completions unlock nothing, packets are late.
    abandoning: bool,
    /// Per symbol, the consecutive-antenna run `(base, count)` of arrived
    /// packets not yet emitted as an FFT message.
    fft_runs: Vec<(u32, u32)>,
}

impl Record {
    /// Nothing in flight, and either every decode and IFFT is done or
    /// the frame was given up.
    fn finished(&self) -> bool {
        let complete = self.state.uplink_complete() && self.state.downlink_complete();
        self.inflight == 0 && (self.abandoning || complete)
    }
}

#[derive(Debug)]
enum Slot {
    /// No packet yet (a frame above it arrived first).
    Vacant,
    Live(Box<Record>),
    /// Abandoned without ever receiving a packet; awaits `retire`.
    Lost,
    /// Retired, but a frame below it is not: the watermark has yet to
    /// pass. Its precoder stays readable until then.
    Done {
        zf_complete: bool,
    },
}

impl Slot {
    fn zf_complete(&self) -> bool {
        match self {
            Slot::Live(rec) => rec.state.zf_complete(),
            Slot::Done { zf_complete } => *zf_complete,
            Slot::Vacant | Slot::Lost => false,
        }
    }
}

/// Every in-flight frame of one cell, slot `i` holding frame
/// `watermark + i`. A frame's first packet grows the table at the back;
/// [`Self::retire`] pops finished frames off the front, which is the only
/// way the watermark moves. Whoever feeds it bounds its length: the
/// engine's network thread admits `frame_window` frames above the
/// watermark, the simulator admits everything.
#[derive(Debug)]
pub struct FrameTable {
    schedule: FrameSchedule,
    shape: FrameShape,
    batch: BatchSizes,
    stale_precoder: bool,
    watermark: u32,
    slots: VecDeque<Slot>,
}

impl FrameTable {
    /// An empty table whose lowest unretired frame is `watermark`.
    /// `stale_precoder` enables the §3.4.2 early start.
    pub fn new(
        schedule: FrameSchedule,
        shape: FrameShape,
        batch: BatchSizes,
        stale_precoder: bool,
        watermark: u32,
    ) -> Self {
        Self { schedule, shape, batch, stale_precoder, watermark, slots: VecDeque::new() }
    }

    /// The lowest frame not yet retired. Frames below it are gone: their
    /// buffers may be reused.
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// Slots held: the distance from the watermark to the highest frame
    /// seen, whatever state each is in.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no frame at or above the watermark has been seen.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot index of `frame`, growing the table to reach it; `None` below
    /// the watermark.
    fn slot_of(&mut self, frame: u32) -> Option<usize> {
        let idx = frame.checked_sub(self.watermark)? as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(Slot::Vacant);
        }
        Some(idx)
    }

    /// Slot index of `frame` if the table holds it.
    fn index_of(&self, frame: u32) -> Option<usize> {
        let idx = frame.checked_sub(self.watermark)? as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// The packet for `(frame, symbol, antenna)` is in the frame's
    /// buffers. Appends the messages it makes dispatchable to `out`: on a
    /// frame's first packet its downlink encodes (which need no input),
    /// and an FFT message whenever the arrival closes a run — the run of
    /// consecutive antennas reached `batch.fft`, the next antenna broke
    /// it, or the symbol's last packet arrived.
    pub fn on_packet(
        &mut self,
        frame: u32,
        symbol: usize,
        antenna: usize,
        now_ns: u64,
        out: &mut Vec<Msg>,
    ) -> Arrival {
        let Some(idx) = self.slot_of(frame) else { return Arrival::Late };
        let emitted = out.len();
        if matches!(self.slots[idx], Slot::Vacant) {
            let mut state = FrameState::new(frame, self.schedule.clone(), self.shape);
            state.milestones.first_packet_ns = now_ns;
            state.milestones.processing_start_ns = now_ns;
            for ready in state.initial_work() {
                self.shape.expand(frame, ready, &self.batch, out);
            }
            let fft_runs = vec![(0, 0); self.schedule.len()];
            let record = Record { state, inflight: 0, abandoning: false, fft_runs };
            self.slots[idx] = Slot::Live(Box::new(record));
        }
        let rec = match &mut self.slots[idx] {
            Slot::Live(rec) if !rec.abandoning => rec,
            _ => return Arrival::Late,
        };
        if !rec.state.on_packet(symbol, antenna) {
            return Arrival::Duplicate;
        }
        // Downlink symbols carry no uplink packets; one addressed there
        // is counted and transforms nothing.
        if matches!(self.schedule.symbol(symbol), SymbolType::Pilot | SymbolType::Uplink) {
            let fft = |(base, count): (u32, u32)| {
                Msg::task(TaskType::Fft, frame, symbol as u32, base, count)
            };
            let run = &mut rec.fft_runs[symbol];
            if run.1 > 0 && run.0 + run.1 != antenna as u32 {
                out.push(fft(*run));
                run.1 = 0;
            }
            if run.1 == 0 {
                run.0 = antenna as u32;
            }
            run.1 += 1;
            let symbol_complete = rec.state.packets_received(symbol) == self.shape.m;
            if run.1 as usize >= self.batch.fft || symbol_complete {
                out.push(fft(*run));
                run.1 = 0;
            }
        }
        rec.inflight += out.len() - emitted;
        Arrival::Accepted
    }

    /// A task message completed. Credits the frame's in-flight count,
    /// applies the transition, stamps milestones and appends the
    /// messages it unlocked to `out` — including, with the stale
    /// precoder on, an early precode of the first downlink symbols when
    /// frame − 1 is still in the table with its ZF complete (only an
    /// unretired neighbour's precoder is safe to read). A completion for
    /// an abandoning frame unlocks nothing; one for a frame not in the
    /// table is ignored. Returns whether the frame is now finished —
    /// nothing of it left in flight, and complete or abandoned — so that
    /// [`Self::retire`] will return it.
    pub fn on_complete(&mut self, msg: &Msg, now_ns: u64, out: &mut Vec<Msg>) -> bool {
        let (shape, batch) = (self.shape, self.batch);
        let Some(idx) = self.index_of(msg.frame) else { return false };
        let prev_zf_complete = self.stale_precoder
            && msg.task == TaskType::Encode
            && idx > 0
            && self.slots[idx - 1].zf_complete();
        let Slot::Live(rec) = &mut self.slots[idx] else { return false };
        rec.inflight = rec.inflight.saturating_sub(1);
        if !rec.abandoning {
            let emitted = out.len();
            let done = rec.state.on_complete(msg);
            let st = &mut rec.state;
            let (pilots_complete, zf_complete) = (st.pilots_complete(), st.zf_complete());
            let ms = &mut st.milestones;
            match msg.task {
                TaskType::Fft if pilots_complete && ms.pilot_done_ns == 0 => {
                    ms.pilot_done_ns = now_ns;
                }
                TaskType::Zf if zf_complete && ms.zf_done_ns == 0 => ms.zf_done_ns = now_ns,
                _ => {}
            }
            if done.ul_done && ms.decode_done_ns == 0 {
                ms.decode_done_ns = now_ns;
            }
            if done.dl_done && ms.ifft_done_ns == 0 {
                ms.ifft_done_ns = now_ns;
            }
            if prev_zf_complete {
                for ready in st.precode_with_stale(msg.symbol as usize) {
                    shape.expand(msg.frame, ready, &batch, out);
                }
                out[emitted..].iter_mut().for_each(|m| *m = m.with_stage(STAGE_STALE_PRECODER));
            }
            for ready in done.ready {
                shape.expand(msg.frame, ready, &batch, out);
            }
            rec.inflight += out.len() - emitted;
        }
        rec.finished()
    }

    /// Frames to give up at `now_ns`: those whose first packet is more
    /// than `deadline_ns` old and that are not yet being abandoned, and
    /// every frame still without a packet below one of them or below a
    /// frame already abandoned, lost or retired. A vacant slot has no
    /// first-packet time to run a deadline from, yet it pins the
    /// watermark; a frame above it that was given up or has finished is
    /// the evidence its own packets are not coming.
    pub fn expired(&self, now_ns: u64, deadline_ns: u64) -> impl Iterator<Item = u32> + '_ {
        let overdue = move |rec: &Record| {
            !rec.abandoning
                && now_ns.saturating_sub(rec.state.milestones.first_packet_ns) > deadline_ns
        };
        let vacant_below = self.slots.iter().rposition(|slot| match slot {
            Slot::Live(rec) => rec.abandoning || overdue(rec),
            Slot::Lost | Slot::Done { .. } => true,
            Slot::Vacant => false,
        });
        self.slots.iter().zip(self.watermark..).enumerate().filter_map(
            move |(idx, (slot, frame))| match slot {
                Slot::Live(rec) if overdue(rec) => Some(frame),
                Slot::Vacant if Some(idx) < vacant_below => Some(frame),
                _ => None,
            },
        )
    }

    /// Gives up on `frame`: from now on its packets are late and its
    /// completions unlock nothing. It finishes once everything in flight
    /// has completed or been flushed — at once if nothing is, or if no
    /// packet of it ever arrived.
    pub fn abandon(&mut self, frame: u32) {
        let Some(idx) = self.slot_of(frame) else { return };
        match &mut self.slots[idx] {
            Slot::Vacant => self.slots[idx] = Slot::Lost,
            Slot::Live(rec) => rec.abandoning = true,
            Slot::Lost | Slot::Done { .. } => {}
        }
    }

    /// The caller removed one queued message of `frame` before any worker
    /// took it. Returns whether the frame is being abandoned, in which
    /// case the message is credited and must be discarded; otherwise it
    /// must be queued again.
    pub fn credit_flushed(&mut self, frame: u32) -> bool {
        match self.index_of(frame).map(|idx| &mut self.slots[idx]) {
            Some(Slot::Live(rec)) if rec.abandoning => {
                rec.inflight = rec.inflight.saturating_sub(1);
                true
            }
            _ => false,
        }
    }

    /// Takes `frame` out of the table if it is finished (complete, or
    /// abandoned with nothing in flight), then advances the watermark
    /// past every retired frame at the bottom. `None` while the frame
    /// still has work in flight, and for frames already retired.
    pub fn retire(&mut self, frame: u32) -> Option<Retired> {
        let idx = self.index_of(frame)?;
        let finished = match &self.slots[idx] {
            Slot::Live(rec) => rec.finished(),
            Slot::Lost => true,
            Slot::Vacant | Slot::Done { .. } => false,
        };
        if !finished {
            return None;
        }
        let zf_complete = self.slots[idx].zf_complete();
        let retired = match std::mem::replace(&mut self.slots[idx], Slot::Done { zf_complete }) {
            Slot::Live(rec) => Retired { state: Some(rec.state), dropped: rec.abandoning },
            _ => Retired { state: None, dropped: true },
        };
        while matches!(self.slots.front(), Some(Slot::Done { .. })) {
            self.slots.pop_front();
            self.watermark += 1;
        }
        Some(retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_phy::frame::FrameSchedule;

    /// 4 antennas, 2 users, 32 SCs, 2 groups.
    const SHAPE: FrameShape = FrameShape { m: 4, k: 2, q: 32, zf_groups: 2 };

    /// 1 pilot + 2 uplink symbols.
    fn ul_state() -> FrameState {
        FrameState::new(0, FrameSchedule::uplink(1, 2), SHAPE)
    }

    /// 1 pilot + 2 downlink symbols.
    fn dl_state() -> FrameState {
        FrameState::new(0, FrameSchedule::downlink(1, 2), SHAPE)
    }

    #[test]
    fn duplicate_packets_rejected() {
        let mut st = ul_state();
        assert!(st.on_packet(1, 2));
        // Same (symbol, antenna) again: rejected, no second FFT, and the
        // arrival counter does not double-count toward the barrier.
        assert!(!st.on_packet(1, 2));
        assert_eq!(st.packets_received(1), 1);
        // A different antenna on the same symbol is still accepted.
        assert!(st.on_packet(1, 3));
        assert_eq!(st.packets_received(1), 2);
    }

    #[test]
    fn packets_missing_counts_undelivered() {
        let mut st = ul_state();
        // 3 packet-bearing symbols (1 pilot + 2 uplink) x 4 antennas.
        assert_eq!(st.packets_missing(), 12);
        let _ = st.on_packet(0, 0);
        let _ = st.on_packet(1, 2);
        let _ = st.on_packet(1, 2); // duplicate must not count
        assert_eq!(st.packets_missing(), 10);
        for sym in 0..3 {
            for ant in 0..4 {
                let _ = st.on_packet(sym, ant);
            }
        }
        assert_eq!(st.packets_missing(), 0);
    }

    #[test]
    fn zf_waits_for_all_pilot_ffts() {
        let mut st = ul_state();
        for ant in 0..3 {
            st.on_packet(0, ant);
            assert!(st.on_fft_done(0, 1).is_empty());
        }
        st.on_packet(0, 3);
        let r = st.on_fft_done(0, 1);
        assert_eq!(r, vec![Ready::AllZf]);
        assert!(st.pilots_complete());
    }

    #[test]
    fn demod_needs_both_fft_and_zf() {
        let mut st = ul_state();
        // Data symbol 1 fully FFT'd before ZF: no demod yet.
        for ant in 0..4 {
            st.on_packet(1, ant);
            st.on_fft_done(1, 1);
        }
        assert!(!st.zf_complete());
        // Finish pilots -> ZF dispatch.
        for ant in 0..4 {
            st.on_packet(0, ant);
        }
        let r = st.on_fft_done(0, 4);
        assert_eq!(r, vec![Ready::AllZf]);
        // ZF completion unlocks the already-FFT'd symbol 1.
        let r = st.on_zf_done(2);
        assert_eq!(r, vec![Ready::DemodSymbol { symbol: 1 }]);
        // Symbol 2 FFT'd after ZF: unlocked by the FFT completion.
        for ant in 0..4 {
            st.on_packet(2, ant);
        }
        let r = st.on_fft_done(2, 4);
        assert_eq!(r, vec![Ready::DemodSymbol { symbol: 2 }]);
    }

    #[test]
    fn demod_completion_unlocks_decode_once() {
        let mut st = ul_state();
        complete_pilots_and_zf(&mut st);
        for ant in 0..4 {
            st.on_packet(1, ant);
        }
        st.on_fft_done(1, 4);
        assert!(st.on_demod_done(1, 16).is_empty());
        let r = st.on_demod_done(1, 16);
        assert_eq!(r, vec![Ready::DecodeSymbol { symbol: 1 }]);
        // No duplicate dispatch.
        assert!(st.on_demod_done(1, 0).is_empty());
    }

    #[test]
    fn frame_completes_after_all_decodes() {
        let mut st = ul_state();
        complete_pilots_and_zf(&mut st);
        for sym in [1usize, 2] {
            for ant in 0..4 {
                st.on_packet(sym, ant);
            }
            st.on_fft_done(sym, 4);
            st.on_demod_done(sym, 32);
        }
        assert!(!st.on_decode_done(1, 2));
        assert!(!st.on_decode_done(2, 1));
        assert!(st.on_decode_done(2, 1));
        assert!(st.uplink_complete());
    }

    #[test]
    fn downlink_flow() {
        let mut st = dl_state();
        // Encodes are available immediately.
        let init = st.initial_work();
        assert_eq!(
            init,
            vec![Ready::EncodeSymbol { symbol: 1 }, Ready::EncodeSymbol { symbol: 2 }]
        );
        // Encode done before ZF: nothing unlocked.
        assert!(st.on_encode_done(1, 2).is_empty());
        complete_pilots_and_zf_expect_precode(&mut st);
        // Second symbol encoded after ZF: unlocked directly.
        let r = st.on_encode_done(2, 2);
        assert_eq!(r, vec![Ready::PrecodeSymbol { symbol: 2 }]);
        // Precode -> IFFT -> frame completion.
        assert!(st.on_precode_done(1, 16).is_empty());
        let r = st.on_precode_done(1, 16);
        assert_eq!(r, vec![Ready::IfftSymbol { symbol: 1 }]);
        st.on_precode_done(2, 32);
        assert!(!st.on_ifft_done(1, 4));
        assert!(st.on_ifft_done(2, 4));
        assert!(st.downlink_complete());
    }

    fn complete_pilots_and_zf(st: &mut FrameState) {
        for ant in 0..4 {
            st.on_packet(0, ant);
        }
        let r = st.on_fft_done(0, 4);
        assert_eq!(r, vec![Ready::AllZf]);
        st.on_zf_done(2);
    }

    fn complete_pilots_and_zf_expect_precode(st: &mut FrameState) {
        for ant in 0..4 {
            st.on_packet(0, ant);
        }
        let r = st.on_fft_done(0, 4);
        assert_eq!(r, vec![Ready::AllZf]);
        // ZF done unlocks precode for the already-encoded symbol 1.
        let r = st.on_zf_done(2);
        assert_eq!(r, vec![Ready::PrecodeSymbol { symbol: 1 }]);
    }

    #[test]
    fn uplink_frame_has_no_initial_work() {
        assert!(ul_state().initial_work().is_empty());
    }

    #[test]
    fn expand_batches_every_stage_and_keeps_the_tail() {
        let sh = SHAPE;
        let batch =
            BatchSizes { fft: 2, zf: 3, demod: 12, decode: 2, encode: 1, precode: 32, ifft: 3 };
        let spans = |ready| {
            let mut out = Vec::new();
            sh.expand(0, ready, &batch, &mut out);
            out.iter().map(|m| (m.task, m.symbol, m.base, m.count)).collect::<Vec<_>>()
        };
        assert_eq!(spans(Ready::AllZf), [(TaskType::Zf, 0, 0, 2)]);
        assert_eq!(
            spans(Ready::DemodSymbol { symbol: 2 }),
            [
                (TaskType::Demod, 2, 0, 12),
                (TaskType::Demod, 2, 12, 12),
                (TaskType::Demod, 2, 24, 8)
            ]
        );
        assert_eq!(spans(Ready::DecodeSymbol { symbol: 2 }), [(TaskType::Decode, 2, 0, 2)]);
        assert_eq!(
            spans(Ready::EncodeSymbol { symbol: 1 }),
            [(TaskType::Encode, 1, 0, 1), (TaskType::Encode, 1, 1, 1)]
        );
        assert_eq!(spans(Ready::PrecodeSymbol { symbol: 1 }), [(TaskType::Precode, 1, 0, 32)]);
        assert_eq!(
            spans(Ready::IfftSymbol { symbol: 1 }),
            [(TaskType::Ifft, 1, 0, 3), (TaskType::Ifft, 1, 3, 1)]
        );
    }

    #[test]
    fn stale_precode_only_for_early_encoded_symbols_before_zf() {
        let mut st = FrameState::new(1, FrameSchedule::downlink(1, 3), SHAPE);
        assert!(st.precode_with_stale(1).is_empty(), "not yet encoded");
        st.on_encode_done(1, 2);
        st.on_encode_done(3, 2);
        assert_eq!(st.precode_with_stale(1), vec![Ready::PrecodeSymbol { symbol: 1 }]);
        assert!(st.precode_with_stale(1).is_empty(), "dispatched once");
        assert!(st.precode_with_stale(3).is_empty(), "third downlink symbol waits for ZF");
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use proptest::prelude::*;

    const BATCH: BatchSizes =
        BatchSizes { fft: 2, zf: 2, demod: 32, decode: 2, encode: 2, precode: 32, ifft: 4 };

    /// 4 antennas, 2 users, 32 SCs, 2 ZF groups.
    fn table(schedule: FrameSchedule, stale_precoder: bool) -> FrameTable {
        let shape = FrameShape { m: 4, k: 2, q: 32, zf_groups: 2 };
        FrameTable::new(schedule, shape, BATCH, stale_precoder, 0)
    }

    /// Delivers every packet of `symbol`, returning the messages emitted.
    fn arrive(t: &mut FrameTable, frame: u32, symbol: usize, now_ns: u64) -> Vec<Msg> {
        let mut out = Vec::new();
        for antenna in 0..4 {
            assert_eq!(t.on_packet(frame, symbol, antenna, now_ns, &mut out), Arrival::Accepted);
        }
        out
    }

    /// Completes `work` and everything it unlocks, in FIFO order, while
    /// `keep` holds; returns the messages held back.
    fn complete_while(t: &mut FrameTable, work: Vec<Msg>, keep: impl Fn(&Msg) -> bool) -> Vec<Msg> {
        let mut work: VecDeque<Msg> = work.into();
        let (mut held, mut out) = (Vec::new(), Vec::new());
        while let Some(msg) = work.pop_front() {
            if keep(&msg) {
                t.on_complete(&msg, 0, &mut out);
                work.extend(out.drain(..));
            } else {
                held.push(msg);
            }
        }
        held
    }

    /// Runs one whole frame: every symbol's packets, every message.
    fn run_frame(t: &mut FrameTable, frame: u32) {
        for symbol in 0..t.schedule.len() {
            let work = match t.schedule.symbol(symbol) {
                SymbolType::Pilot | SymbolType::Uplink => arrive(t, frame, symbol, 0),
                _ => Vec::new(),
            };
            assert!(complete_while(t, work, |_| true).is_empty());
        }
    }

    #[test]
    fn deadline_expiry_finalises_only_after_the_last_credit() {
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        let pilots = arrive(&mut t, 0, 0, 100);
        assert_eq!(pilots.len(), 2, "two FFT runs of two antennas in flight");
        assert_eq!(t.expired(110, 10).count(), 0, "exactly at the deadline is not past it");
        assert_eq!(t.expired(111, 10).collect::<Vec<_>>(), [0]);
        t.abandon(0);
        assert_eq!(t.expired(111, 10).count(), 0, "an abandoning frame does not expire again");
        assert!(t.retire(0).is_none(), "two messages still in flight");
        // One was still queued and is flushed; a worker holds the other.
        assert!(t.credit_flushed(0));
        assert!(t.retire(0).is_none());
        let mut out = Vec::new();
        assert!(t.on_complete(&pilots[1], 200, &mut out), "the last credit finishes the frame");
        let done = t.retire(0).expect("drained");
        assert!(done.dropped);
        assert_eq!(done.state.unwrap().packets_missing(), 8, "two uplink symbols never arrived");
        assert_eq!((t.watermark(), t.len()), (1, 0));
        assert!(!t.credit_flushed(0), "a retired frame takes no credit");
    }

    #[test]
    fn completion_after_abandon_unlocks_nothing() {
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        let pilots = arrive(&mut t, 0, 0, 0);
        t.abandon(0);
        let mut out = Vec::new();
        // The last pilot FFT would have started ZF.
        assert!(!t.on_complete(&pilots[0], 0, &mut out));
        assert!(t.on_complete(&pilots[1], 0, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn late_and_duplicate_packets_dispatch_nothing() {
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        let mut out = Vec::new();
        assert_eq!(t.on_packet(0, 0, 1, 0, &mut out), Arrival::Accepted);
        assert_eq!(t.on_packet(0, 0, 1, 0, &mut out), Arrival::Duplicate);
        assert!(out.is_empty(), "antenna 1 alone closes no run");
        // Frame 1 finishes while frame 0 is still live: retired, but the
        // watermark has yet to pass it.
        run_frame(&mut t, 1);
        assert!(t.retire(1).is_some());
        assert_eq!(t.on_packet(1, 0, 0, 0, &mut out), Arrival::Late);
        t.abandon(0);
        assert_eq!(t.on_packet(0, 0, 2, 0, &mut out), Arrival::Late);
        assert!(t.retire(0).is_some());
        assert_eq!(t.watermark(), 2);
        assert_eq!(t.on_packet(0, 0, 3, 0, &mut out), Arrival::Late, "below the watermark");
        assert!(out.is_empty());
    }

    #[test]
    fn frames_completing_out_of_order_retire_contiguously_from_the_bottom() {
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        let mut out = Vec::new();
        t.on_packet(0, 0, 0, 0, &mut out);
        for frame in [2, 1] {
            run_frame(&mut t, frame);
            let done = t.retire(frame).expect("complete");
            assert!(!done.dropped);
            assert!(t.retire(frame).is_none(), "a frame retires once");
            assert_eq!((t.watermark(), t.len()), (0, 3), "frame 0 holds the watermark");
        }
        t.abandon(0);
        assert!(t.retire(0).is_some());
        assert_eq!((t.watermark(), t.len()), (3, 0));
    }

    /// A frame none of whose packets arrive has no first-packet time and
    /// so no deadline of its own: it expires with a frame above it that
    /// was given up or has finished, and not while everything above it
    /// is live and in time.
    #[test]
    fn a_vacant_slot_expires_with_a_frame_above_it() {
        // Frames 1 and 3 arrive (at 100 and 105), frames 0 and 2 never do.
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        arrive(&mut t, 1, 0, 100);
        arrive(&mut t, 3, 0, 105);
        assert_eq!(t.expired(110, 10).count(), 0, "nothing above frame 0 is late yet");
        assert_eq!(t.expired(111, 10).collect::<Vec<_>>(), [0, 1], "frame 2 sits below live 3");
        assert_eq!(t.expired(116, 10).collect::<Vec<_>>(), [0, 1, 2, 3]);
        t.abandon(1);
        assert_eq!(t.expired(111, 10).collect::<Vec<_>>(), [0], "below an abandoning frame");
        t.abandon(0);
        let lost = t.retire(0).expect("nothing of it can be in flight");
        assert!(lost.dropped && lost.state.is_none());
        assert_eq!(t.watermark(), 1, "the watermark is no longer pinned");

        // Below a frame that finished, whatever the time.
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        run_frame(&mut t, 1);
        assert_eq!(t.expired(0, u64::MAX).count(), 0, "frame 1 is complete but still live");
        assert!(t.retire(1).is_some());
        assert_eq!(t.expired(0, u64::MAX).collect::<Vec<_>>(), [0]);

        // Below a frame given up without a packet.
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        t.abandon(2);
        assert_eq!(t.expired(0, u64::MAX).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn a_frame_that_never_arrived_retires_without_state() {
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        run_frame(&mut t, 1);
        assert!(t.retire(1).is_some());
        assert!(t.retire(0).is_none(), "its packets may still come");
        t.abandon(0);
        let done = t.retire(0).expect("nothing can be in flight");
        assert!(done.dropped && done.state.is_none());
        assert_eq!(t.watermark(), 2);
    }

    #[test]
    fn stale_precoder_edge_needs_an_unretired_neighbour_with_zf_complete() {
        // What completing the encodes of frame 1's downlink `symbol`
        // unlocks, after `prepare` has had its way with frame 0.
        let unlocked_by_encode =
            |stale_precoder, symbol: u32, prepare: &dyn Fn(&mut FrameTable, Vec<Msg>)| {
                let mut t = table(FrameSchedule::downlink(1, 3), stale_precoder);
                let frame0 = arrive(&mut t, 0, 0, 0);
                prepare(&mut t, frame0);
                let mut seeded = Vec::new();
                t.on_packet(1, 0, 0, 0, &mut seeded);
                let mut out = Vec::new();
                for msg in seeded.iter().filter(|m| m.symbol == symbol) {
                    assert_eq!(msg.task, TaskType::Encode);
                    t.on_complete(msg, 0, &mut out);
                }
                out
            };
        let through_zf = |t: &mut FrameTable, work| {
            complete_while(t, work, |m| matches!(m.task, TaskType::Fft | TaskType::Zf));
        };
        let to_the_end = |t: &mut FrameTable, work| {
            assert!(complete_while(t, work, |_| true).is_empty());
            assert!(t.retire(0).is_some());
        };

        let early = unlocked_by_encode(true, 1, &through_zf);
        assert_eq!(early.len(), 1);
        assert_eq!((early[0].task, early[0].frame, early[0].symbol), (TaskType::Precode, 1, 1));
        assert_eq!(early[0].stage, STAGE_STALE_PRECODER);

        assert!(unlocked_by_encode(true, 3, &through_zf).is_empty(), "third downlink symbol");
        assert!(unlocked_by_encode(false, 1, &through_zf).is_empty(), "option off");
        let pilots_only = |t: &mut FrameTable, work| {
            complete_while(t, work, |m| m.task == TaskType::Fft);
        };
        assert!(unlocked_by_encode(true, 1, &pilots_only).is_empty(), "frame 0's ZF pending");
        assert!(unlocked_by_encode(true, 1, &to_the_end).is_empty(), "frame 0 retired");
    }

    #[test]
    fn ten_thousand_frames_through_a_four_frame_window_stay_bounded() {
        let mut t = table(FrameSchedule::uplink(1, 2), false);
        let mut pending: VecDeque<Vec<Msg>> = VecDeque::new();
        for frame in 0..10_000u32 {
            // Three frames are always waiting on their workers.
            pending.push_back((0..3).flat_map(|symbol| arrive(&mut t, frame, symbol, 0)).collect());
            if pending.len() == 4 {
                let oldest = t.watermark();
                assert!(complete_while(&mut t, pending.pop_front().unwrap(), |_| true).is_empty());
                assert!(t.retire(oldest).is_some());
            }
            assert!(t.len() <= 4, "frame {frame}: {} slots", t.len());
        }
        assert_eq!((t.watermark(), t.len()), (9_997, 3));
    }

    proptest! {
        /// Whatever order one symbol's packets arrive in, the FFT
        /// messages cover every antenna exactly once, each a run of at
        /// most `batch.fft` consecutive antennas.
        #[test]
        fn fft_runs_cover_every_antenna_once(
            keys in proptest::collection::vec(any::<u32>(), 1..17),
            fft in 1usize..6,
        ) {
            let m = keys.len();
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by_key(|&a| keys[a]);
            let shape = FrameShape { m, k: 2, q: 32, zf_groups: 2 };
            let batch = BatchSizes { fft, ..BATCH };
            let mut t = FrameTable::new(FrameSchedule::uplink(1, 1), shape, batch, false, 0);
            let mut out = Vec::new();
            for &antenna in &order {
                prop_assert_eq!(t.on_packet(0, 1, antenna, 0, &mut out), Arrival::Accepted);
            }
            let mut seen = vec![0u32; m];
            for msg in &out {
                prop_assert_eq!((msg.task, msg.frame, msg.symbol), (TaskType::Fft, 0, 1));
                prop_assert!(msg.count >= 1 && msg.count as usize <= fft);
                for antenna in msg.base..msg.base + msg.count {
                    seen[antenna as usize] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&n| n == 1), "coverage {:?} for order {:?}", seen, order);
        }
    }
}
