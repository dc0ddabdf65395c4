//! Per-frame dependency tracking — the manager's bookkeeping.
//!
//! This is the pure logic behind Agora's scheduling policy: which tasks
//! become ready when a packet arrives or a completion message lands. The
//! dependency rules (Figure 1b) are one declared table, `GRAPH`:
//!
//! * FFT of (symbol, antenna) needs that antenna's packet.
//! * ZF needs *all* pilot FFTs (the synchronisation barrier of §2).
//! * Demodulation of a symbol needs that symbol's FFTs *and* all ZF.
//! * Decoding of a symbol needs it fully demodulated.
//! * Downlink: encode is free; precoding needs ZF + the symbol's encodes;
//!   IFFT needs the symbol fully precoded.
//!
//! [`FrameTable`] holds every in-flight frame from first packet to
//! retirement. Per frame and (stage, symbol) it counts the tasks done and
//! the predecessors still waiting; a completion that finishes a (stage,
//! symbol) walks that stage's edges and expands every successor left
//! waiting on nothing into batched queue messages. Around that sit
//! arrival coalescing, in-flight counts, milestones, the cross-frame
//! stale-precoder edge, abandonment and the watermark. The table owns no
//! buffers, spawns no threads and reads no clock — time is an argument —
//! so the threaded manager, the inline processor and the simulator drive
//! the same lifecycle, and tests drive it without threads.

use crate::config::BatchSizes;
use crate::stats::type_index;
use agora_phy::frame::{FrameSchedule, SymbolType};
use agora_phy::CellConfig;
use agora_queue::{Msg, TaskType};
use std::collections::VecDeque;

/// Leading downlink symbols eligible for the stale-precoder early start
/// (§3.4.2 bridges roughly the ZF-completion gap, which spans the first
/// couple of data symbols).
pub const STALE_PRECODER_SYMBOLS: usize = 2;

/// `Msg::stage` of a precode message that reads frame − 1's precoder
/// instead of its own frame's (§3.4.2).
pub const STAGE_STALE_PRECODER: u16 = 1;

/// ZF is per frame, not per symbol: its messages carry this symbol index.
const ZF_SYMBOL: usize = 0;

/// Compute stages, in [`TaskType::COMPUTE`] order.
const STAGES: usize = TaskType::COMPUTE.len();

/// How an edge of [`GRAPH`] pairs the symbols of its two stages. ZF is
/// the one stage that runs per frame, at [`ZF_SYMBOL`].
#[derive(Debug, Clone, Copy)]
enum Link {
    /// `from(s)` → `to(s)`, for every symbol `s` of the type.
    Each(SymbolType),
    /// `from(s)` for every symbol `s` of the type → the per-frame `to`:
    /// a barrier.
    Join(SymbolType),
    /// The per-frame `from` → `to(s)`, for every symbol `s` of the type.
    Fork(SymbolType),
}

/// The frame's task graph (Figure 1b): the edges `(link, to)` out of
/// each stage, in [`TaskType::COMPUTE`] order. A completion walks its
/// stage's edges in the order listed, which is the order it emits what
/// they unlock — a ZF completion unlocks demods in ascending uplink
/// symbol, then precodes in ascending downlink symbol. Decode and IFFT
/// are the sinks; encode (on a frame's first packet) and FFT (from
/// packet arrivals) are the sources.
const GRAPH: [&[(Link, TaskType)]; STAGES] = {
    use Link::{Each, Fork, Join};
    use SymbolType::{Downlink, Pilot, Uplink};
    [
        // FFT
        &[(Join(Pilot), TaskType::Zf), (Each(Uplink), TaskType::Demod)],
        // ZF
        &[(Fork(Uplink), TaskType::Demod), (Fork(Downlink), TaskType::Precode)],
        // Demod
        &[(Each(Uplink), TaskType::Decode)],
        // Decode
        &[],
        // Encode
        &[(Each(Downlink), TaskType::Precode)],
        // Precode
        &[(Each(Downlink), TaskType::Ifft)],
        // IFFT
        &[],
    ]
};

/// Where `(stage, symbol)`'s count sits in a frame's per-(stage, symbol)
/// rows: symbol-major, so a symbol's stages share a cache line.
fn at(stage: TaskType, symbol: usize) -> usize {
    symbol * STAGES + type_index(stage)
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
}

/// Milestones within a frame's processing (nanoseconds on the clock of
/// whoever drives the table), mirroring Figure 13(b).
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

/// One frame's progress through [`GRAPH`]; per-(stage, symbol) counts
/// sit at [`at`].
#[derive(Debug, Clone)]
struct FrameState {
    /// Tasks completed.
    done: Vec<u32>,
    /// Predecessors not yet complete — for an FFT, packets not yet
    /// arrived. The (stage, symbol) is dispatched when this reaches zero.
    waiting: Vec<u32>,
    /// Per-(symbol, antenna) arrival flags (`symbol * m + antenna`):
    /// rejects duplicate fronthaul packets, which would otherwise count
    /// twice toward an FFT's packets.
    seen: Vec<bool>,
    /// Per stage, the symbols it has yet to finish.
    open: [u32; STAGES],
}

impl FrameState {
    /// True once `stage` has finished on every symbol it runs on.
    fn closed(&self, stage: TaskType) -> bool {
        self.open[type_index(stage)] == 0
    }

    /// Distinct packets that have not arrived: what every FFT still
    /// waits on. This is the loss count of an abandoned frame.
    fn packets_missing(&self) -> u32 {
        self.waiting.chunks(STAGES).map(|row| row[type_index(TaskType::Fft)]).sum()
    }
}

/// [`GRAPH`] laid over one cell's schedule and shape, once per table:
/// the state every frame starts from, and what a completion looks up.
#[derive(Debug)]
struct FrameGraph {
    schedule: FrameSchedule,
    /// Per stage, by [`type_index`]: tasks per symbol it runs on (ZF: per
    /// frame), and tasks per message (§3.4 "Batching").
    tasks: [u32; STAGES],
    step: [u32; STAGES],
    /// The symbols of each [`SymbolType`], ascending.
    of_type: [Vec<usize>; 4],
    /// A new frame: nothing done, every predecessor and packet waiting.
    fresh: FrameState,
    /// The (stage, symbol)s that wait on nothing — the downlink encodes
    /// — dispatched on a frame's first packet.
    sources: Vec<(TaskType, usize)>,
    /// Per stage, by [`type_index`]: the most messages one frame emits.
    max_messages: [usize; STAGES],
}

impl FrameGraph {
    fn new(schedule: FrameSchedule, shape: FrameShape, b: BatchSizes) -> Self {
        let symbols = schedule.len();
        let FrameShape { m, k, q, zf_groups } = shape;
        let tasks = [m, zf_groups, q, k, k, q, m].map(|n| n as u32);
        let step =
            [b.fft, b.zf, b.demod, b.decode, b.encode, b.precode, b.ifft].map(|n| n.max(1) as u32);
        let of_type =
            [SymbolType::Pilot, SymbolType::Uplink, SymbolType::Downlink, SymbolType::Empty]
                .map(|t| (0..symbols).filter(|&s| schedule.symbol(s) == t).collect::<Vec<_>>());
        let mut fresh = FrameState {
            done: vec![0; symbols * STAGES],
            waiting: vec![0; symbols * STAGES],
            seen: vec![false; symbols * m],
            open: [0; STAGES],
        };
        // Which (stage, symbol)s run, and what each waits on.
        let mut runs = vec![false; symbols * STAGES];
        for (from, edges) in TaskType::COMPUTE.into_iter().zip(GRAPH) {
            for &(link, to) in edges {
                let (Link::Each(t) | Link::Join(t) | Link::Fork(t)) = link;
                for &s in &of_type[t as usize] {
                    let (on, to_on) = match link {
                        Link::Each(_) => (s, s),
                        Link::Join(_) => (s, ZF_SYMBOL),
                        Link::Fork(_) => (ZF_SYMBOL, s),
                    };
                    runs[at(from, on)] = true;
                    runs[at(to, to_on)] = true;
                    fresh.waiting[at(to, to_on)] += 1;
                }
            }
        }
        let (mut sources, mut max_messages) = (Vec::new(), [0; STAGES]);
        for stage in TaskType::COMPUTE {
            let (n, step) = (tasks[type_index(stage)], step[type_index(stage)]);
            // FFT messages are runs of consecutive antennas as packets
            // arrive: reordered packets split a run, down to one packet
            // a message.
            let per_symbol = if stage == TaskType::Fft { n } else { n.div_ceil(step) };
            for s in (0..symbols).filter(|&s| runs[at(stage, s)]) {
                fresh.open[type_index(stage)] += 1;
                max_messages[type_index(stage)] += per_symbol as usize;
                if stage == TaskType::Fft {
                    fresh.waiting[at(stage, s)] = m as u32;
                } else if fresh.waiting[at(stage, s)] == 0 {
                    sources.push((stage, s));
                }
            }
        }
        Self { schedule, tasks, step, of_type, fresh, sources, max_messages }
    }

    /// Appends the messages that carry every task of `stage` on `symbol`
    /// to `out`, [`Self::step`] tasks per message.
    fn expand(&self, stage: TaskType, frame: u32, symbol: usize, out: &mut Vec<Msg>) {
        let (total, step) = (self.tasks[type_index(stage)], self.step[type_index(stage)]);
        let chunk =
            |base: u32| Msg::task(stage, frame, symbol as u32, base, step.min(total - base));
        out.extend((0..total).step_by(step as usize).map(chunk));
    }

    /// Credits `msg`'s tasks to its (stage, symbol). When that finishes
    /// it, walks the stage's edges: each successor loses a predecessor,
    /// and one left waiting on nothing is expanded into `out`.
    fn complete(&self, st: &mut FrameState, msg: &Msg, out: &mut Vec<Msg>) {
        let (stage, symbol) = (msg.task, msg.symbol as usize);
        let done = &mut st.done[at(stage, symbol)];
        *done += msg.count;
        debug_assert!(*done <= self.tasks[type_index(stage)], "{msg:?} over-completes its stage");
        if *done != self.tasks[type_index(stage)] {
            return;
        }
        st.open[type_index(stage)] -= 1;
        let mut release = |to: TaskType, s: usize| {
            let waiting = &mut st.waiting[at(to, s)];
            if *waiting == 0 {
                // Started early by the stale edge, which took ZF's credit.
                debug_assert_eq!(to, TaskType::Precode);
                return;
            }
            *waiting -= 1;
            if *waiting == 0 {
                self.expand(to, msg.frame, s, out);
            }
        };
        let kind = self.schedule.symbol(symbol);
        for &(link, to) in GRAPH[type_index(stage)] {
            match link {
                Link::Each(t) if t == kind => release(to, symbol),
                Link::Join(t) if t == kind => release(to, ZF_SYMBOL),
                Link::Fork(t) => self.of_type[t as usize].iter().for_each(|&s| release(to, s)),
                _ => {}
            }
        }
    }

    /// The §3.4.2 stale-precoder edge, for an encode completion `msg` of
    /// a frame whose predecessor's precoder is ready: once one of the
    /// first [`STALE_PRECODER_SYMBOLS`] downlink symbols is encoded while
    /// this frame's ZF is still running, the symbol's precode goes out,
    /// flagged to read frame − 1's precoder, and takes the credit this
    /// frame's ZF would have given it.
    fn start_stale(&self, st: &mut FrameState, msg: &Msg, out: &mut Vec<Msg>) {
        let symbol = msg.symbol as usize;
        let downlink = &self.of_type[SymbolType::Downlink as usize];
        let early = downlink.iter().take(STALE_PRECODER_SYMBOLS).any(|&s| s == symbol);
        let zf_running = !st.closed(TaskType::Zf);
        let waiting = &mut st.waiting[at(TaskType::Precode, symbol)];
        // With ZF running, one predecessor left is ZF: the symbol is encoded.
        if early && zf_running && *waiting == 1 {
            *waiting = 0;
            let from = out.len();
            self.expand(TaskType::Precode, msg.frame, symbol, out);
            out[from..].iter_mut().for_each(|m| *m = m.with_stage(STAGE_STALE_PRECODER));
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
    /// The frame's milestones; `None` if none of its packets ever arrived.
    pub milestones: Option<Milestones>,
    /// Distinct pilot and uplink packets that never arrived.
    pub lost_packets: u32,
    /// Abandoned rather than completed.
    pub dropped: bool,
}

/// One frame between its first packet and its retirement.
#[derive(Debug)]
struct Record {
    state: FrameState,
    milestones: Milestones,
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
    /// Nothing in flight, and either every sink — every stage nothing
    /// waits on — has finished or the frame was given up.
    fn finished(&self) -> bool {
        let complete = (0..STAGES).all(|i| !GRAPH[i].is_empty() || self.state.open[i] == 0);
        self.inflight == 0 && (self.abandoning || complete)
    }

    /// Stamps the milestone a completion of `stage` may have reached,
    /// the first time it is reached.
    fn stamp(&mut self, stage: TaskType, now_ns: u64) {
        let (st, ms) = (&self.state, &mut self.milestones);
        let (stamp, reached) = match stage {
            // Every pilot FFT done: ZF waits on nothing more.
            TaskType::Fft => (&mut ms.pilot_done_ns, st.waiting[at(TaskType::Zf, ZF_SYMBOL)] == 0),
            TaskType::Zf => (&mut ms.zf_done_ns, st.closed(stage)),
            TaskType::Decode => (&mut ms.decode_done_ns, st.closed(stage)),
            TaskType::Ifft => (&mut ms.ifft_done_ns, st.closed(stage)),
            _ => return,
        };
        if reached && *stamp == 0 {
            *stamp = now_ns;
        }
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
            Slot::Live(rec) => rec.state.closed(TaskType::Zf),
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
    graph: FrameGraph,
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
        let graph = FrameGraph::new(schedule, shape, batch);
        Self { graph, stale_precoder, watermark, slots: VecDeque::new() }
    }

    /// The lowest frame not yet retired. Frames below it are gone: their
    /// buffers may be reused.
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// Per stage, by [`type_index`]: the most task messages one frame
    /// can emit — per symbol the stage runs on, its tasks over its batch
    /// step, except that an FFT may go out one packet per message when
    /// packets arrive out of order. The stale-precoder edge replaces a
    /// symbol's precodes, it does not add any. So `frame_window` times
    /// this bounds a cell's messages of each type in flight.
    pub fn max_messages_per_frame(&self) -> [usize; STAGES] {
        self.graph.max_messages
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
        let g = &self.graph;
        let emitted = out.len();
        if matches!(self.slots[idx], Slot::Vacant) {
            for &(stage, s) in &g.sources {
                g.expand(stage, frame, s, out);
            }
            let record = Record {
                state: g.fresh.clone(),
                milestones: Milestones {
                    first_packet_ns: now_ns,
                    processing_start_ns: now_ns,
                    ..Milestones::default()
                },
                inflight: 0,
                abandoning: false,
                fft_runs: vec![(0, 0); g.schedule.len()],
            };
            self.slots[idx] = Slot::Live(Box::new(record));
        }
        let rec = match &mut self.slots[idx] {
            Slot::Live(rec) if !rec.abandoning => rec,
            _ => return Arrival::Late,
        };
        let (m, run_max) = (g.tasks[type_index(TaskType::Fft)], g.step[type_index(TaskType::Fft)]);
        let seen = &mut rec.state.seen[symbol * m as usize + antenna];
        if *seen {
            return Arrival::Duplicate;
        }
        *seen = true;
        // Downlink symbols carry no uplink packets: no FFT waits on one
        // addressed there, and it transforms nothing.
        let packets = &mut rec.state.waiting[at(TaskType::Fft, symbol)];
        if *packets > 0 {
            *packets -= 1;
            let symbol_complete = *packets == 0;
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
            if run.1 >= run_max || symbol_complete {
                out.push(fft(*run));
                run.1 = 0;
            }
        }
        rec.inflight += out.len() - emitted;
        Arrival::Accepted
    }

    /// A task message completed. Credits the frame's in-flight count,
    /// walks the graph, stamps milestones and appends the messages it
    /// unlocked to `out` — including, with the stale precoder on, an
    /// early precode of the first downlink symbols when frame − 1 is
    /// still in the table with its ZF complete (only an unretired
    /// neighbour's precoder is safe to read). A completion for an
    /// abandoning frame unlocks nothing; one for a frame not in the table
    /// is ignored. Returns whether the frame is now finished — nothing of
    /// it left in flight, and complete or abandoned — so that
    /// [`Self::retire`] will return it.
    pub fn on_complete(&mut self, msg: &Msg, now_ns: u64, out: &mut Vec<Msg>) -> bool {
        let Some(idx) = self.index_of(msg.frame) else { return false };
        let stale = self.stale_precoder
            && msg.task == TaskType::Encode
            && idx > 0
            && self.slots[idx - 1].zf_complete();
        let g = &self.graph;
        let Slot::Live(rec) = &mut self.slots[idx] else { return false };
        rec.inflight = rec.inflight.saturating_sub(1);
        if !rec.abandoning {
            let emitted = out.len();
            g.complete(&mut rec.state, msg, out);
            if stale {
                g.start_stale(&mut rec.state, msg, out);
            }
            rec.stamp(msg.task, now_ns);
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
            !rec.abandoning && now_ns.saturating_sub(rec.milestones.first_packet_ns) > deadline_ns
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
        let (milestones, lost_packets, dropped) =
            match std::mem::replace(&mut self.slots[idx], Slot::Done { zf_complete }) {
                Slot::Live(rec) => {
                    (Some(rec.milestones), rec.state.packets_missing(), rec.abandoning)
                }
                _ => (None, self.graph.fresh.packets_missing(), true),
            };
        while matches!(self.slots.front(), Some(Slot::Done { .. })) {
            self.slots.pop_front();
            self.watermark += 1;
        }
        Some(Retired { milestones, lost_packets, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 antennas, 2 users, 32 SCs, 2 groups.
    const SHAPE: FrameShape = FrameShape { m: 4, k: 2, q: 32, zf_groups: 2 };

    /// FFT runs of two antennas, the frame's ZF in one message and every
    /// other stage of a symbol in one.
    const BATCH: BatchSizes =
        BatchSizes { fft: 2, zf: 2, demod: 32, decode: 2, encode: 2, precode: 32, ifft: 4 };

    /// `BATCH` with demod, decode and precode split in two per symbol.
    const HALVES: BatchSizes = BatchSizes { demod: 16, decode: 1, precode: 16, ..BATCH };

    fn table(schedule: &str, batch: BatchSizes, stale_precoder: bool) -> FrameTable {
        FrameTable::new(FrameSchedule::parse(schedule).unwrap(), SHAPE, batch, stale_precoder, 0)
    }

    /// `(task, symbol)` of each message.
    fn kinds(msgs: &[Msg]) -> Vec<(TaskType, u32)> {
        msgs.iter().map(|m| (m.task, m.symbol)).collect()
    }

    /// Delivers every packet of `symbol`, returning the messages emitted.
    fn arrive(t: &mut FrameTable, frame: u32, symbol: usize, now_ns: u64) -> Vec<Msg> {
        let mut out = Vec::new();
        for antenna in 0..SHAPE.m {
            assert_eq!(t.on_packet(frame, symbol, antenna, now_ns, &mut out), Arrival::Accepted);
        }
        out
    }

    /// Completes `msgs` in order at `now_ns`; returns what they unlocked
    /// and whether the last of them finished the frame.
    fn complete(t: &mut FrameTable, msgs: &[Msg], now_ns: u64) -> (Vec<Msg>, bool) {
        let mut out = Vec::new();
        let finished = msgs.iter().map(|m| t.on_complete(m, now_ns, &mut out)).last();
        (out, finished.unwrap_or(false))
    }

    /// Delivers frame 0's pilots and completes their FFTs and its ZF.
    fn pilots_and_zf(t: &mut FrameTable) -> Vec<Msg> {
        let ffts = arrive(t, 0, 0, 0);
        let (zf, _) = complete(t, &ffts, 0);
        assert_eq!(kinds(&zf), [(TaskType::Zf, 0)]);
        complete(t, &zf, 0).0
    }

    #[test]
    fn duplicate_packets_rejected() {
        // FFT runs of all four antennas: only the symbol's last packet
        // closes one.
        let mut t = table("PUU", BatchSizes { fft: 4, ..BATCH }, false);
        let mut out = Vec::new();
        for antenna in [0, 1, 2] {
            assert_eq!(t.on_packet(0, 1, antenna, 0, &mut out), Arrival::Accepted);
        }
        // Same (symbol, antenna) again: rejected, and not counted toward
        // the symbol's packets — counted, it would close the run now.
        assert_eq!(t.on_packet(0, 1, 2, 0, &mut out), Arrival::Duplicate);
        assert!(out.is_empty());
        assert_eq!(t.on_packet(0, 1, 3, 0, &mut out), Arrival::Accepted);
        assert_eq!(out.iter().map(|m| (m.base, m.count)).collect::<Vec<_>>(), [(0, 4)]);
    }

    #[test]
    fn packets_missing_counts_undelivered() {
        // 3 packet-bearing symbols (1 pilot + 2 uplink) x 4 antennas.
        let lost_after = |packets: &[(usize, usize)]| {
            let mut t = table("PUUDD", BATCH, false);
            let mut out = Vec::new();
            for &(symbol, antenna) in packets {
                t.on_packet(0, symbol, antenna, 0, &mut out);
            }
            t.abandon(0);
            complete(&mut t, &out, 0);
            t.retire(0).expect("nothing left in flight").lost_packets
        };
        // A duplicate does not count; a downlink symbol bears no packets.
        assert_eq!(lost_after(&[(0, 0), (1, 2), (1, 2), (3, 1)]), 10);
        let all: Vec<_> = (0..3).flat_map(|s| (0..4).map(move |a| (s, a))).collect();
        assert_eq!(lost_after(&all), 0);
    }

    #[test]
    fn zf_waits_for_all_pilot_ffts() {
        let mut t = table("PUU", BATCH, false);
        let ffts = arrive(&mut t, 0, 0, 0);
        assert_eq!(ffts.len(), 2, "two runs of two antennas");
        assert!(complete(&mut t, &ffts[..1], 1).0.is_empty());
        let (zf, _) = complete(&mut t, &ffts[1..], 7);
        assert_eq!(kinds(&zf), [(TaskType::Zf, 0)]);
        t.abandon(0);
        complete(&mut t, &zf, 8);
        let pilot_done = t.retire(0).unwrap().milestones.unwrap().pilot_done_ns;
        assert_eq!(pilot_done, 7, "stamped by the last pilot FFT");
    }

    #[test]
    fn demod_needs_both_fft_and_zf() {
        let mut t = table("PUU", BATCH, false);
        // Data symbol 1 fully FFT'd before ZF: no demod yet.
        let ffts = arrive(&mut t, 0, 1, 0);
        assert!(complete(&mut t, &ffts, 0).0.is_empty());
        // ZF completion unlocks the already-FFT'd symbol 1.
        assert_eq!(kinds(&pilots_and_zf(&mut t)), [(TaskType::Demod, 1)]);
        // Symbol 2 FFT'd after ZF: unlocked by the FFT completion.
        let ffts = arrive(&mut t, 0, 2, 0);
        assert_eq!(kinds(&complete(&mut t, &ffts, 0).0), [(TaskType::Demod, 2)]);
    }

    #[test]
    fn demod_completion_unlocks_decode_once() {
        let mut t = table("PUU", HALVES, false);
        pilots_and_zf(&mut t);
        let ffts = arrive(&mut t, 0, 1, 0);
        let (demods, _) = complete(&mut t, &ffts, 0);
        assert!(complete(&mut t, &demods[..1], 0).0.is_empty());
        let (decodes, _) = complete(&mut t, &demods[1..], 0);
        assert_eq!(kinds(&decodes), [(TaskType::Decode, 1), (TaskType::Decode, 1)]);
        // Symbol 2's demods unlock symbol 2's decodes, and nothing of 1's
        // again.
        let ffts = arrive(&mut t, 0, 2, 0);
        let (demods, _) = complete(&mut t, &ffts, 0);
        let (decodes, _) = complete(&mut t, &demods, 0);
        assert_eq!(kinds(&decodes), [(TaskType::Decode, 2), (TaskType::Decode, 2)]);
    }

    #[test]
    fn frame_completes_after_all_decodes() {
        let mut t = table("PUU", HALVES, false);
        pilots_and_zf(&mut t);
        let mut decodes = Vec::new();
        for symbol in [1, 2] {
            let ffts = arrive(&mut t, 0, symbol, 0);
            let (demods, _) = complete(&mut t, &ffts, 0);
            decodes.extend(complete(&mut t, &demods, 0).0);
        }
        assert_eq!(decodes.len(), 4);
        for decode in &decodes[..3] {
            assert!(!complete(&mut t, &[*decode], 0).1);
        }
        assert!(complete(&mut t, &decodes[3..], 9).1, "the last decode finishes the frame");
        assert_eq!(t.retire(0).unwrap().milestones.unwrap().decode_done_ns, 9);
    }

    #[test]
    fn downlink_flow() {
        let mut t = table("PDD", HALVES, false);
        // Encodes are available immediately, on the frame's first packet.
        let (mut encodes, mut ffts) = (Vec::new(), Vec::new());
        t.on_packet(0, 0, 0, 0, &mut encodes);
        assert_eq!(kinds(&encodes), [(TaskType::Encode, 1), (TaskType::Encode, 2)]);
        // Encode done before ZF: nothing unlocked.
        assert!(complete(&mut t, &encodes[..1], 0).0.is_empty());
        // ZF done unlocks precode for the already-encoded symbol 1.
        for antenna in 1..4 {
            t.on_packet(0, 0, antenna, 0, &mut ffts);
        }
        let (zf, _) = complete(&mut t, &ffts, 0);
        let (precodes, _) = complete(&mut t, &zf, 0);
        assert_eq!(kinds(&precodes), [(TaskType::Precode, 1), (TaskType::Precode, 1)]);
        // Second symbol encoded after ZF: unlocked directly.
        let (precodes2, _) = complete(&mut t, &encodes[1..], 0);
        assert_eq!(kinds(&precodes2), [(TaskType::Precode, 2), (TaskType::Precode, 2)]);
        // Precode -> IFFT -> frame completion.
        assert!(complete(&mut t, &precodes[..1], 0).0.is_empty());
        let (ifft1, _) = complete(&mut t, &precodes[1..], 0);
        assert_eq!(kinds(&ifft1), [(TaskType::Ifft, 1)]);
        let (ifft2, _) = complete(&mut t, &precodes2, 0);
        assert!(!complete(&mut t, &ifft1, 0).1);
        assert!(complete(&mut t, &ifft2, 5).1);
        assert_eq!(t.retire(0).unwrap().milestones.unwrap().ifft_done_ns, 5);
    }

    #[test]
    fn uplink_frame_has_no_initial_work() {
        let mut out = Vec::new();
        table("PUU", BATCH, false).on_packet(0, 0, 0, 0, &mut out);
        assert!(out.is_empty(), "no encodes, and one antenna closes no FFT run");
    }

    #[test]
    fn expand_batches_every_stage_and_keeps_the_tail() {
        let batch =
            BatchSizes { fft: 2, zf: 3, demod: 12, decode: 2, encode: 1, precode: 32, ifft: 3 };
        let g = FrameGraph::new(FrameSchedule::uplink(1, 2), SHAPE, batch);
        let spans = |stage, symbol: usize| {
            let mut out = Vec::new();
            g.expand(stage, 7, symbol, &mut out);
            assert!(out.iter().all(|m| (m.task, m.frame, m.symbol) == (stage, 7, symbol as u32)));
            out.iter().map(|m| (m.base, m.count)).collect::<Vec<_>>()
        };
        assert_eq!(spans(TaskType::Zf, 0), [(0, 2)]);
        assert_eq!(spans(TaskType::Demod, 2), [(0, 12), (12, 12), (24, 8)]);
        assert_eq!(spans(TaskType::Decode, 2), [(0, 2)]);
        assert_eq!(spans(TaskType::Encode, 1), [(0, 1), (1, 1)]);
        assert_eq!(spans(TaskType::Precode, 1), [(0, 32)]);
        assert_eq!(spans(TaskType::Ifft, 1), [(0, 3), (3, 1)]);
    }

    #[test]
    fn stale_precode_only_for_early_encoded_symbols_before_zf() {
        let g = FrameGraph::new(FrameSchedule::downlink(1, 3), SHAPE, BATCH);
        let mut st = g.fresh.clone();
        let encode = |symbol| Msg::task(TaskType::Encode, 1, symbol, 0, 2);
        let stale = |st: &mut FrameState, symbol| {
            let mut out = Vec::new();
            g.start_stale(st, &encode(symbol), &mut out);
            kinds(&out)
        };
        assert!(stale(&mut st, 1).is_empty(), "not yet encoded");
        let mut out = Vec::new();
        g.complete(&mut st, &encode(1), &mut out);
        g.complete(&mut st, &encode(3), &mut out);
        assert!(out.is_empty(), "ZF is still running");
        assert_eq!(stale(&mut st, 1), [(TaskType::Precode, 1)]);
        assert!(stale(&mut st, 1).is_empty(), "dispatched once");
        assert!(stale(&mut st, 3).is_empty(), "third downlink symbol waits for ZF");
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
        for symbol in 0..t.graph.schedule.len() {
            let work = match t.graph.schedule.symbol(symbol) {
                SymbolType::Pilot | SymbolType::Uplink => arrive(t, frame, symbol, 0),
                _ => Vec::new(),
            };
            assert!(complete_while(t, work, |_| true).is_empty());
        }
    }

    #[test]
    fn deadline_expiry_finalises_only_after_the_last_credit() {
        let mut t = table("PUU", BATCH, false);
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
        assert_eq!(done.lost_packets, 8, "two uplink symbols never arrived");
        assert_eq!((t.watermark(), t.len()), (1, 0));
        assert!(!t.credit_flushed(0), "a retired frame takes no credit");
    }

    #[test]
    fn completion_after_abandon_unlocks_nothing() {
        let mut t = table("PUU", BATCH, false);
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
        let mut t = table("PUU", BATCH, false);
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
        let mut t = table("PUU", BATCH, false);
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
        let mut t = table("PUU", BATCH, false);
        arrive(&mut t, 1, 0, 100);
        arrive(&mut t, 3, 0, 105);
        assert_eq!(t.expired(110, 10).count(), 0, "nothing above frame 0 is late yet");
        assert_eq!(t.expired(111, 10).collect::<Vec<_>>(), [0, 1], "frame 2 sits below live 3");
        assert_eq!(t.expired(116, 10).collect::<Vec<_>>(), [0, 1, 2, 3]);
        t.abandon(1);
        assert_eq!(t.expired(111, 10).collect::<Vec<_>>(), [0], "below an abandoning frame");
        t.abandon(0);
        let lost = t.retire(0).expect("nothing of it can be in flight");
        assert!(lost.dropped && lost.milestones.is_none());
        assert_eq!(lost.lost_packets, 12, "charged with every packet of the frame");
        assert_eq!(t.watermark(), 1, "the watermark is no longer pinned");

        // Below a frame that finished, whatever the time.
        let mut t = table("PUU", BATCH, false);
        run_frame(&mut t, 1);
        assert_eq!(t.expired(0, u64::MAX).count(), 0, "frame 1 is complete but still live");
        assert!(t.retire(1).is_some());
        assert_eq!(t.expired(0, u64::MAX).collect::<Vec<_>>(), [0]);

        // Below a frame given up without a packet.
        let mut t = table("PUU", BATCH, false);
        t.abandon(2);
        assert_eq!(t.expired(0, u64::MAX).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn a_frame_that_never_arrived_retires_without_state() {
        let mut t = table("PUU", BATCH, false);
        run_frame(&mut t, 1);
        assert!(t.retire(1).is_some());
        assert!(t.retire(0).is_none(), "its packets may still come");
        t.abandon(0);
        let done = t.retire(0).expect("nothing can be in flight");
        assert!(done.dropped && done.milestones.is_none());
        assert_eq!(t.watermark(), 2);
    }

    #[test]
    fn stale_precoder_edge_needs_an_unretired_neighbour_with_zf_complete() {
        // What completing the encodes of frame 1's downlink `symbol`
        // unlocks, after `prepare` has had its way with frame 0.
        let unlocked_by_encode =
            |stale_precoder, symbol: u32, prepare: &dyn Fn(&mut FrameTable, Vec<Msg>)| {
                let mut t = table("PDDD", BATCH, stale_precoder);
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
        let mut t = table("PUU", BATCH, false);
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
}
