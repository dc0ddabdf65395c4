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
//! It also owns the two translations every scheduler needs around that
//! bookkeeping — [`FrameShape::expand`] (a [`Ready`] item → the queue
//! messages that carry it) and [`FrameState::on_complete`] (a completed
//! message → the transition it triggers) — so the threaded manager, the
//! inline processor and the simulator all walk the same task graph.

use crate::config::BatchSizes;
use agora_phy::frame::{FrameSchedule, SymbolType};
use agora_phy::CellConfig;
use agora_queue::{Msg, TaskType};

/// Leading downlink symbols eligible for the stale-precoder early start
/// (§3.4.2 bridges roughly the ZF-completion gap, which spans the first
/// couple of data symbols).
pub const STALE_PRECODER_SYMBOLS: usize = 2;

/// Ready-to-dispatch work discovered by a state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// FFT for (symbol, antenna).
    Fft {
        /// Symbol index.
        symbol: usize,
        /// Antenna index.
        antenna: usize,
    },
    /// All ZF groups (dispatched together once pilots are done).
    AllZf,
    /// One group's ZF reduce (staged path: every cluster's partial Gram
    /// for the group has been published).
    ZfReduce {
        /// Subcarrier group index.
        group: usize,
    },
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

/// Which stage of the ZF block a [`TaskType::Zf`] message carries. The
/// stage travels in `Msg::symbol` (ZF has no symbol of its own, and the
/// field survives the completion echo; `aux` does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZfStage {
    /// Monolithic task: `base..base + count` are whole groups.
    Mono,
    /// Partial Gram of one antenna cluster over groups `base..base + count`.
    Partial(usize),
    /// One reduce shard of group `base`.
    Reduce(usize),
}

impl ZfStage {
    /// Decodes the `symbol` field of a ZF message: 0 = monolithic,
    /// `1..=clusters` = that cluster's partial, above = reduce shard.
    pub fn of(symbol: u32, clusters: usize) -> Self {
        match symbol as usize {
            0 => ZfStage::Mono,
            s if s <= clusters => ZfStage::Partial(s - 1),
            s => ZfStage::Reduce(s - clusters - 1),
        }
    }

    fn symbol(self, clusters: usize) -> usize {
        match self {
            ZfStage::Mono => 0,
            ZfStage::Partial(cluster) => cluster + 1,
            ZfStage::Reduce(shard) => clusters + 1 + shard,
        }
    }
}

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
    /// ZF subcarrier groups.
    pub zf_groups: usize,
    /// Antenna clusters of the staged ZF path; 0 = monolithic ZF tasks.
    pub zf_clusters: usize,
    /// Reduce shards per group on the staged path.
    pub zf_reduce_shards: usize,
}

impl FrameShape {
    /// Shape of `cell`'s frames with `zf_clusters` antenna clusters
    /// (0 = monolithic ZF). The staged reduce is sharded across the
    /// detector's antenna columns (one shard per cluster) only when
    /// nothing needs the full detector in one place: the downlink
    /// precoder normalisation scales by the *global* max antenna power,
    /// and iterative equalization publishes one shared Gram plane — both
    /// force a single reduce task.
    pub fn new(cell: &CellConfig, zf_clusters: usize, iterative_eq: bool) -> Self {
        let single_reduce = iterative_eq || !cell.schedule.downlink_indices().is_empty();
        Self {
            m: cell.num_antennas,
            k: cell.num_users,
            q: cell.num_data_sc,
            zf_groups: cell.num_zf_groups(),
            zf_clusters,
            zf_reduce_shards: if single_reduce { 1 } else { zf_clusters.max(1) },
        }
    }

    /// Appends the queue messages that carry `ready` to `out`, `batch`
    /// tasks per message (§3.4 "Batching"). FFT items become one
    /// single-antenna message; coalescing arrivals into longer runs is
    /// the caller's policy.
    pub fn expand(&self, frame: u32, ready: Ready, batch: &BatchSizes, out: &mut Vec<Msg>) {
        let mut chunked = |task: TaskType, symbol: usize, total: usize, step: usize| {
            out.extend(runs(total, step).map(|(b, n)| Msg::task(task, frame, symbol as u32, b, n)));
        };
        let c = self.zf_clusters;
        match ready {
            Ready::Fft { symbol, antenna } => {
                out.push(Msg::task(TaskType::Fft, frame, symbol as u32, antenna as u32, 1))
            }
            Ready::AllZf if c == 0 => {
                chunked(TaskType::Zf, ZfStage::Mono.symbol(c), self.zf_groups, batch.zf)
            }
            Ready::AllZf => {
                for cluster in 0..c {
                    let stage = ZfStage::Partial(cluster).symbol(c);
                    chunked(TaskType::Zf, stage, self.zf_groups, batch.zf);
                }
            }
            Ready::ZfReduce { group } => {
                for shard in 0..self.zf_reduce_shards {
                    let stage = ZfStage::Reduce(shard).symbol(c) as u32;
                    out.push(Msg::task(TaskType::Zf, frame, stage, group as u32, 1));
                }
            }
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
    /// Staged ZF: per-group partial-Gram completions.
    zf_partials: Vec<usize>,
    /// Staged ZF: per-group reduce-shard completions.
    zf_reduces: Vec<usize>,
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
    /// Creates the tracker for `frame`. With `shape.zf_clusters > 0` each
    /// group needs that many partial-Gram completions before its reduce
    /// becomes ready, and `shape.zf_reduce_shards` reduce completions
    /// before it counts toward ZF completion.
    pub fn new(frame: u32, schedule: FrameSchedule, shape: FrameShape) -> Self {
        let FrameShape { m, k, zf_groups, .. } = shape;
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
            zf_partials: vec![0; zf_groups],
            zf_reduces: vec![0; zf_groups],
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

    /// The frame schedule.
    pub fn schedule(&self) -> &FrameSchedule {
        &self.schedule
    }

    /// Downlink symbols that can start immediately (encode needs no RX
    /// input — the data comes from the MAC).
    pub fn initial_work(&self) -> Vec<Ready> {
        self.schedule
            .downlink_indices()
            .into_iter()
            .map(|symbol| Ready::EncodeSymbol { symbol })
            .collect()
    }

    /// A packet for `(symbol, antenna)` arrived; its payload is already in
    /// the frame buffer. Returns the FFT task this unlocks (uplink/pilot
    /// symbols only; downlink symbols carry no uplink packets). Returns
    /// `None` for a duplicate `(symbol, antenna)` — the caller must not
    /// dispatch anything for it (the byte-identical payload rewrite is
    /// harmless, but a second FFT would double-count the barrier).
    pub fn on_packet(&mut self, symbol: usize, antenna: usize) -> Option<Vec<Ready>> {
        let idx = symbol * self.shape.m + antenna;
        if self.rx_seen[idx] {
            return None;
        }
        self.rx_seen[idx] = true;
        self.pkts[symbol] += 1;
        Some(match self.schedule.symbol(symbol) {
            SymbolType::Pilot | SymbolType::Uplink => {
                vec![Ready::Fft { symbol, antenna }]
            }
            _ => Vec::new(),
        })
    }

    /// A task message completed: applies the transition it stands for
    /// and reports what that unlocked.
    pub fn on_complete(&mut self, msg: &Msg) -> Completion {
        let (symbol, base, count) = (msg.symbol as usize, msg.base as usize, msg.count as usize);
        let mut done = Completion::default();
        match msg.task {
            TaskType::Fft => done.ready = self.on_fft_done(symbol, count),
            TaskType::Zf => {
                done.ready = match ZfStage::of(msg.symbol, self.shape.zf_clusters) {
                    ZfStage::Mono => self.on_zf_done(count),
                    ZfStage::Partial(_) => self.on_zf_partial_done(base, count),
                    ZfStage::Reduce(_) => self.on_zf_reduce_done(base),
                }
            }
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

    /// A batch of partial-Gram tasks (one cluster each, groups
    /// `base..base + count`) completed. A group whose last cluster just
    /// published becomes reduce-ready — the fixed-order fold must only
    /// fire once every partial it reads is in place.
    fn on_zf_partial_done(&mut self, base: usize, count: usize) -> Vec<Ready> {
        debug_assert!(self.shape.zf_clusters > 0, "staged accounting without clustered ZF");
        let mut out = Vec::new();
        for group in base..base + count {
            self.zf_partials[group] += 1;
            debug_assert!(self.zf_partials[group] <= self.shape.zf_clusters);
            if self.zf_partials[group] == self.shape.zf_clusters {
                out.push(Ready::ZfReduce { group });
            }
        }
        out
    }

    /// One reduce shard of a group completed. The group counts toward
    /// `zf_done` (with the usual unlock cascade) only once *all* of its
    /// shards have published their detector columns.
    fn on_zf_reduce_done(&mut self, group: usize) -> Vec<Ready> {
        debug_assert!(self.shape.zf_clusters > 0, "staged accounting without clustered ZF");
        self.zf_reduces[group] += 1;
        debug_assert!(self.zf_reduces[group] <= self.shape.zf_reduce_shards);
        if self.zf_reduces[group] == self.shape.zf_reduce_shards {
            self.on_zf_done(1)
        } else {
            Vec::new()
        }
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
    pub fn uplink_complete(&self) -> bool {
        self.ul_decodes_remaining == 0
    }

    /// True when every downlink IFFT has finished.
    pub fn downlink_complete(&self) -> bool {
        self.dl_iffts_remaining == 0
    }

    /// True once all pilot FFT+CSI work is done.
    pub fn pilots_complete(&self) -> bool {
        self.pilot_ffts_remaining == 0
    }

    /// Packets received so far for one symbol.
    pub fn packets_received(&self, symbol: usize) -> usize {
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
    /// this frame's ZF still pending. The caller checks that the previous
    /// frame's precoder exists.
    pub fn precode_with_stale(&mut self, symbol: usize) -> Vec<Ready> {
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
    pub fn zf_complete(&self) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use agora_phy::frame::FrameSchedule;

    /// 4 antennas, 2 users, 32 SCs, 2 groups.
    fn shape(zf_clusters: usize, zf_reduce_shards: usize) -> FrameShape {
        FrameShape { m: 4, k: 2, q: 32, zf_groups: 2, zf_clusters, zf_reduce_shards }
    }

    /// 1 pilot + 2 uplink symbols.
    fn ul_state() -> FrameState {
        FrameState::new(0, FrameSchedule::uplink(1, 2), shape(0, 1))
    }

    /// 1 pilot + 2 downlink symbols.
    fn dl_state() -> FrameState {
        FrameState::new(0, FrameSchedule::downlink(1, 2), shape(0, 1))
    }

    #[test]
    fn packets_unlock_ffts() {
        let mut st = ul_state();
        let r = st.on_packet(0, 3).unwrap();
        assert_eq!(r, vec![Ready::Fft { symbol: 0, antenna: 3 }]);
    }

    #[test]
    fn duplicate_packets_rejected() {
        let mut st = ul_state();
        assert!(st.on_packet(1, 2).is_some());
        // Same (symbol, antenna) again: rejected, no second FFT, and the
        // arrival counter does not double-count toward the barrier.
        assert!(st.on_packet(1, 2).is_none());
        assert_eq!(st.packets_received(1), 1);
        // A different antenna on the same symbol is still accepted.
        assert!(st.on_packet(1, 3).is_some());
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
    fn staged_zf_reduce_fires_only_when_all_partials_land() {
        // 2 groups x 3 clusters x 2 reduce shards.
        let mut st = FrameState::new(0, FrameSchedule::uplink(1, 1), shape(3, 2));
        for ant in 0..4 {
            st.on_packet(0, ant);
            st.on_packet(1, ant);
            st.on_fft_done(1, 1);
        }
        let r = st.on_fft_done(0, 4);
        assert_eq!(r, vec![Ready::AllZf]);
        // Two clusters across both groups: no reduce yet.
        assert!(st.on_zf_partial_done(0, 2).is_empty());
        assert!(st.on_zf_partial_done(0, 2).is_empty());
        // Third cluster finishes group 0 first, then group 1.
        assert_eq!(st.on_zf_partial_done(0, 1), vec![Ready::ZfReduce { group: 0 }]);
        assert_eq!(st.on_zf_partial_done(1, 1), vec![Ready::ZfReduce { group: 1 }]);
        // One shard of each group: ZF still incomplete, nothing unlocked.
        assert!(st.on_zf_reduce_done(0).is_empty());
        assert!(st.on_zf_reduce_done(1).is_empty());
        assert!(!st.zf_complete());
        // Final shards: group 0 completes silently (group 1 pending),
        // group 1's completion runs the usual post-ZF unlock cascade.
        assert!(st.on_zf_reduce_done(0).is_empty());
        let r = st.on_zf_reduce_done(1);
        assert!(st.zf_complete());
        assert_eq!(r, vec![Ready::DemodSymbol { symbol: 1 }]);
    }

    /// Every staged-ZF message `expand` emits routes back, through
    /// `on_complete`, to the transition for its stage — the encode and
    /// the decode of `Msg::symbol` are one table.
    #[test]
    fn expanded_zf_messages_route_back_through_on_complete() {
        let sh = shape(3, 2);
        let batch = BatchSizes { zf: 2, ..BatchSizes::default() };
        let mut st = FrameState::new(5, FrameSchedule::uplink(1, 1), sh);
        for ant in 0..4 {
            st.on_packet(0, ant);
        }
        assert_eq!(st.on_fft_done(0, 4), vec![Ready::AllZf]);
        let mut partials = Vec::new();
        sh.expand(5, Ready::AllZf, &batch, &mut partials);
        // 3 clusters x one 2-group message each.
        assert_eq!(partials.len(), 3);
        assert!(partials.iter().all(|m| m.task == TaskType::Zf && m.frame == 5 && m.count == 2));
        let stages: Vec<ZfStage> = partials.iter().map(|m| ZfStage::of(m.symbol, 3)).collect();
        assert_eq!(stages, [ZfStage::Partial(0), ZfStage::Partial(1), ZfStage::Partial(2)]);
        let mut reduces = Vec::new();
        for m in &partials {
            for r in st.on_complete(m).ready {
                sh.expand(5, r, &batch, &mut reduces);
            }
        }
        // Both groups became reduce-ready on the last cluster: 2 shards each.
        assert_eq!(reduces.len(), 4);
        assert_eq!(ZfStage::of(reduces[1].symbol, 3), ZfStage::Reduce(1));
        assert_eq!((reduces[2].base, reduces[2].count), (1, 1));
        for m in &reduces {
            assert!(!st.zf_complete());
            st.on_complete(m);
        }
        assert!(st.zf_complete());
    }

    #[test]
    fn expand_batches_every_stage_and_keeps_the_tail() {
        let sh = shape(0, 1);
        let batch =
            BatchSizes { fft: 2, zf: 3, demod: 12, decode: 2, encode: 1, precode: 32, ifft: 3 };
        let spans = |ready| {
            let mut out = Vec::new();
            sh.expand(0, ready, &batch, &mut out);
            out.iter().map(|m| (m.task, m.symbol, m.base, m.count)).collect::<Vec<_>>()
        };
        assert_eq!(spans(Ready::Fft { symbol: 1, antenna: 3 }), [(TaskType::Fft, 1, 3, 1)]);
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
    fn reduce_is_sharded_only_when_nothing_needs_the_whole_detector() {
        let mut cell = CellConfig::tiny_test(2);
        assert_eq!(FrameShape::new(&cell, 4, false).zf_reduce_shards, 4);
        assert_eq!(FrameShape::new(&cell, 4, true).zf_reduce_shards, 1, "iterative");
        assert_eq!(FrameShape::new(&cell, 0, false).zf_reduce_shards, 1, "monolithic");
        cell.schedule = FrameSchedule::parse("PUD").unwrap();
        assert_eq!(FrameShape::new(&cell, 4, false).zf_reduce_shards, 1, "downlink");
    }

    #[test]
    fn stale_precode_only_for_early_encoded_symbols_before_zf() {
        let mut st = FrameState::new(1, FrameSchedule::downlink(1, 3), shape(0, 1));
        assert!(st.precode_with_stale(1).is_empty(), "not yet encoded");
        st.on_encode_done(1, 2);
        st.on_encode_done(3, 2);
        assert_eq!(st.precode_with_stale(1), vec![Ready::PrecodeSymbol { symbol: 1 }]);
        assert!(st.precode_with_stale(1).is_empty(), "dispatched once");
        assert!(st.precode_with_stale(3).is_empty(), "third downlink symbol waits for ZF");
    }
}
