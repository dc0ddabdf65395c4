//! Calibrated discrete-event simulator of Agora's schedule.
//!
//! The evaluation machine for this reproduction exposes two CPU cores,
//! so the paper's multi-core wall-clock results are regenerated by
//! *replaying Agora's exact scheduling policy* over N virtual cores
//! (DESIGN.md §3, substitution 4). The simulator runs the engine's own
//! frame lifecycle — a [`FrameTable`] fed packet arrivals and task
//! completions under a virtual clock, emitting the very messages the
//! threaded manager would place — and drives it with:
//!
//! * **compute costs** per task, measured on the real kernels by the
//!   repo benchmark ([`Calibration`]) and carried to other `(M, K)` with
//!   the paper's analytic shapes;
//! * a **data-movement model**: bytes touched per task, converted to
//!   time through a cache-line transfer cost and the probability that
//!   the line is in a remote core's cache (`1 - 1/workers`);
//! * a **synchronisation model**: every queue message serialises on the
//!   manager (dispatch cost, a multiple of the calibrated queue
//!   message) and pays an inter-core hop that grows with the worker
//!   count (queue contention);
//! * optional **OS-jitter injection** reproducing the "not a real-time
//!   process" tail blow-up of Table 4.
//!
//! Both scheduling policies are supported: Agora's data-parallel design
//! and the BigStation-style pipeline-parallel variant with static core
//! groups.

use crate::config::BatchSizes;
use crate::state::{FrameShape, FrameTable, Milestones};
use agora_phy::frame::SymbolType;
use agora_phy::CellConfig;
use agora_queue::{Msg, TaskType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// The simulator's inputs from the real code: seven task costs measured
/// on the 64x16 cell (`CellConfig::emulated_rru(64, 16, _)`: 2048-point
/// FFT, 1200 data subcarriers, Z = 104, 5 iterations) and two queue
/// costs, all in nanoseconds. The repo benchmark measures every one
/// (`--trace 1`: its kernel pass on `ul_64x16` for the tasks, its
/// `xqueue` pass for the queues); the bench crate reads them from the
/// committed calibration file, and [`CostModel::scaled`] carries them to
/// other cells.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// The seven task costs at 64x16 (`core.kernels.*`).
    pub costs: CostModel,
    /// One operation, a push or a pop, on a shared MPMC queue
    /// (`xqueue.mpmc_ns_per_op`); a message through it takes two.
    pub queue_op_ns: f64,
    /// One message, batched push and pop, through a worker lane
    /// (`xqueue.lane_ns_per_msg`).
    pub lane_msg_ns: f64,
}

/// Per-task compute costs in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// One FFT(+fused CSI) task: one antenna, one symbol.
    pub fft_ns: f64,
    /// One ZF task: one subcarrier group.
    pub zf_ns: f64,
    /// Equalization + demodulation of ONE subcarrier (all users).
    pub demod_sc_ns: f64,
    /// One LDPC decode: one (symbol, user) code block.
    pub decode_ns: f64,
    /// One LDPC encode.
    pub encode_ns: f64,
    /// Modulation + precoding of one subcarrier.
    pub precode_sc_ns: f64,
    /// One IFFT task.
    pub ifft_ns: f64,
}

/// The paper's ZF cost shape `a * M * K^2 + b`, fitted through its
/// Table 3 points (21.1 us at 64x16, 10.1 us at 64x8).
fn zf_shape(m: usize, k: usize) -> f64 {
    0.8972 * (m as f64) * (k as f64) * (k as f64) + 6_400.0
}

impl CostModel {
    /// The calibrated 64x16 task costs carried to `cell` with the paper's
    /// analytic shapes:
    /// * FFT/IFFT and encode are per antenna or per code block and flat;
    /// * ZF follows [`zf_shape`], scaled so 64x16 reads the calibration;
    /// * demod and precode are proportional to `M * K` (the GEMMs);
    /// * decode is linear in `Z` and in the iteration count, as Figure
    ///   12a establishes, from the calibration cell's Z = 104, 5
    ///   iterations.
    pub fn scaled(cal: &Calibration, cell: &CellConfig) -> Self {
        let (m, k) = (cell.num_antennas, cell.num_users);
        let c = &cal.costs;
        let mk = (m * k) as f64;
        let scale = c.zf_ns / zf_shape(64, 16);
        let ldpc = (cell.ldpc.z as f64 / 104.0) * (cell.ldpc.max_iters as f64 / 5.0);
        Self {
            fft_ns: c.fft_ns,
            zf_ns: zf_shape(m, k) * scale,
            demod_sc_ns: c.demod_sc_ns * mk / 1024.0,
            decode_ns: c.decode_ns * ldpc,
            encode_ns: c.encode_ns,
            precode_sc_ns: c.precode_sc_ns * mk / 1024.0,
            ifft_ns: c.ifft_ns,
        }
    }
}

/// Data-movement model: bytes each task pulls from / pushes to other
/// cores' caches, costed per 64-byte line.
#[derive(Debug, Clone, Copy)]
pub struct MovementModel {
    /// Cost of transferring one cache line from a remote cache (ns).
    pub line_ns: f64,
    /// When false (Table 4's "memory access optimisation disabled"), the
    /// demodulation input is subcarrier-strided so every 8-byte sample
    /// costs a whole line (8x read amplification).
    pub cache_layout: bool,
    /// When false (Table 4's "non-temporal store disabled"), producer
    /// writes leave dirty lines in the producer's cache and the consumer
    /// pays an extra coherence round trip (modelled as 60% extra read
    /// cost).
    pub streaming_stores: bool,
}

impl Default for MovementModel {
    fn default() -> Self {
        Self { line_ns: 8.0, cache_layout: true, streaming_stores: true }
    }
}

impl MovementModel {
    /// Movement nanoseconds for one task of `t`, given cell geometry and
    /// the number of workers (more workers -> a line is more likely
    /// remote).
    pub fn task_ns(&self, t: TaskType, cell: &CellConfig, workers: usize) -> f64 {
        let m = cell.num_antennas as f64;
        let k = cell.num_users as f64;
        let q = cell.num_data_sc as f64;
        let bps = cell.modulation.bits_per_symbol() as f64;
        let read_amp = if self.cache_layout { 1.0 } else { 5.0 };
        let coherence = if self.streaming_stores { 1.0 } else { 1.8 };
        let bytes = match t {
            // Read one antenna's time samples, write Q frequency samples
            // (or Q/K CSI entries on pilots — same order).
            TaskType::Fft | TaskType::Ifft => 3.0 * cell.fft_size as f64 + 8.0 * q,
            // Read M*K CSI, write detector + precoder.
            TaskType::Zf => 8.0 * m * k * 3.0,
            // Per subcarrier: read M antenna samples (+ detector share),
            // write K*bps LLRs.
            TaskType::Demod => (8.0 * m) * read_amp + 4.0 * k * bps + 8.0 * k,
            // Read the code block's i8 LLRs: one user's q * bps, a byte each.
            TaskType::Decode => q * bps,
            TaskType::Encode => q * bps / 8.0,
            TaskType::Precode => 8.0 * k + 8.0 * m,
            _ => 0.0,
        };
        let remote_fraction = 1.0 - 1.0 / workers.max(1) as f64;
        (bytes / 64.0).ceil() * self.line_ns * coherence * remote_fraction
    }
}

/// Manager CPU per message, as a multiple of one message (a push and a
/// pop) through a shared queue: the model's 25 ns dispatch over the
/// 67.5 ns the shared path cost per task when the model was set.
const DISPATCH_MSGS: f64 = 25.0 / 67.5;

/// Worker CPU per message (dequeue, completion enqueue and the misses on
/// the message line), the same way: 180 ns over 67.5 ns.
const WORKER_MSGS: f64 = 180.0 / 67.5;

/// Synchronisation model: manager dispatch serialisation and per-message
/// inter-core hops.
#[derive(Debug, Clone, Copy)]
pub struct SyncModel {
    /// Manager CPU time consumed per queue message (dispatch or
    /// completion handling).
    pub dispatch_ns: f64,
    /// Base one-way queue hop latency.
    pub hop_ns: f64,
    /// Extra hop latency per worker (queue contention growth).
    pub hop_per_worker_ns: f64,
    /// Worker CPU time per message (dequeue, completion enqueue, and the
    /// cache misses on the message line itself).
    pub worker_msg_ns: f64,
}

impl SyncModel {
    /// Shared per-type queues, what type-restricted workers pay: a push
    /// and a pop per message on every hop, so the CPU terms are multiples
    /// of the calibrated shared-queue message.
    pub fn shared_queues(cal: &Calibration) -> Self {
        let msg_ns = 2.0 * cal.queue_op_ns;
        Self {
            dispatch_ns: msg_ns * DISPATCH_MSGS,
            hop_ns: 350.0,
            hop_per_worker_ns: 25.0,
            worker_msg_ns: msg_ns * WORKER_MSGS,
        }
    }

    /// Per-worker lanes with batched claims and stealing, what
    /// data-parallel workers are served through: the CPU terms shrink by
    /// the calibrated ratio of a lane message to a shared-queue message;
    /// the one-way hop latency is physical (cache-line transfer) and is
    /// unchanged.
    pub fn lanes(cal: &Calibration) -> Self {
        let scale = cal.lane_msg_ns / (2.0 * cal.queue_op_ns);
        let shared = SyncModel::shared_queues(cal);
        Self {
            dispatch_ns: shared.dispatch_ns * scale,
            hop_ns: shared.hop_ns,
            hop_per_worker_ns: shared.hop_per_worker_ns,
            worker_msg_ns: shared.worker_msg_ns * scale,
        }
    }

    fn hop(&self, workers: usize) -> f64 {
        self.hop_ns + self.hop_per_worker_ns * workers as f64
    }
}

/// OS-scheduler jitter injection (Table 4, "real-time process" off).
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Probability a task gets preempted.
    pub preempt_prob: f64,
    /// Mean preemption duration (exponential), ns.
    pub mean_ns: f64,
}

/// Scheduling policy under simulation.
#[derive(Debug, Clone)]
pub enum SimPolicy {
    /// Agora: any core takes any ready task, earliest frame first.
    DataParallel,
    /// BigStation-style static groups: `cores[i]` cores serve block `i`
    /// in the canonical order [FFT, ZF, Demod, Decode, Encode, Precode,
    /// IFFT].
    PipelineParallel {
        /// Cores per block, aligned with [`crate::stats::TYPE_NAMES`].
        cores: Vec<usize>,
    },
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cell being simulated.
    pub cell: CellConfig,
    /// Virtual worker cores.
    pub workers: usize,
    /// Batch sizes (tasks per message).
    pub batch: BatchSizes,
    /// Scheduling policy.
    pub policy: SimPolicy,
    /// Compute costs.
    pub costs: CostModel,
    /// Data-movement model.
    pub movement: MovementModel,
    /// Synchronisation model.
    pub sync: SyncModel,
    /// Optional preemption jitter.
    pub jitter: Option<JitterModel>,
    /// Frames to simulate.
    pub frames: usize,
    /// §3.4.2: let the downlink reuse the previous frame's precoder for
    /// its first symbols so the RRU never idles.
    pub stale_precoder: bool,
    /// Extra idle time inserted between frames (ns). Zero (default) is
    /// back-to-back arrival at the frame rate; ablation studies that
    /// would otherwise rate-collapse use a gap to measure the pure
    /// latency effect of a disabled optimisation.
    pub inter_frame_gap_ns: f64,
    /// RNG seed for jitter.
    pub seed: u64,
}

impl SimConfig {
    /// Data-parallel simulation of a cell on calibrated costs.
    pub fn new(cell: CellConfig, workers: usize, frames: usize, cal: &Calibration) -> Self {
        Self {
            costs: CostModel::scaled(cal, &cell),
            cell,
            workers,
            batch: BatchSizes::default(),
            policy: SimPolicy::DataParallel,
            movement: MovementModel::default(),
            sync: SyncModel::lanes(cal),
            jitter: None,
            frames,
            stale_precoder: false,
            inter_frame_gap_ns: 0.0,
            seed: 1,
        }
    }
}

/// Aggregated simulation output.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-frame uplink (or downlink) latency: first packet to frame
    /// completion, ns.
    pub latencies_ns: Vec<f64>,
    /// Milestones (ns since simulation start) of the retired frames, in
    /// frame order.
    pub milestones: Vec<Milestones>,
    /// Cumulative compute time per block across all cores/frames, ns
    /// (Table 3's "total time across cores").
    pub busy_ns: [f64; 7],
    /// Cumulative data-movement time per block, ns (Figure 10).
    pub datamove_ns: [f64; 7],
    /// Cumulative synchronisation time (manager dispatch + hops), ns
    /// (Figure 11).
    pub sync_ns: f64,
    /// Tasks executed per block.
    pub tasks: [u64; 7],
    /// Messages exchanged per block.
    pub messages: [u64; 7],
}

impl SimReport {
    /// Median per-frame latency in ms.
    pub fn median_latency_ms(&self) -> f64 {
        percentile(&self.latencies_ns, 50.0) / 1e6
    }

    /// Arbitrary percentile latency in ms.
    pub fn percentile_latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ns, p) / 1e6
    }

    /// Maximum per-frame latency in ms.
    pub fn max_latency_ms(&self) -> f64 {
        self.latencies_ns.iter().copied().fold(0.0, f64::max) / 1e6
    }

    /// Whether the simulated engine kept up with the frame rate: the
    /// latency of the last quartile of frames must not exceed the first
    /// quartile's by more than 30% of a frame duration (backlog-growth
    /// test — a sustained deficit makes the tail drift upward linearly).
    pub fn keeps_up(&self, frame_ns: f64) -> bool {
        let n = self.latencies_ns.len();
        if n < 8 {
            return true;
        }
        let head: f64 = self.latencies_ns[..n / 4].iter().sum::<f64>() / (n / 4) as f64;
        let tail: f64 = self.latencies_ns[3 * n / 4..].iter().sum::<f64>() / (n - 3 * n / 4) as f64;
        tail - head < 0.3 * frame_ns
    }
}

/// Percentile over an unsorted slice (p in [0, 100]).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

// --- event machinery -----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A packet (one antenna of one symbol) finished arriving.
    Packet { frame: u32, symbol: usize, antenna: usize },
    /// A worker finished a message.
    TaskDone { core: usize, msg: SimMsg },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SimMsg {
    msg: Msg,
    /// Time the message became visible to workers.
    ready_ns: f64,
}

#[derive(Debug, Clone, Copy)]
struct Timed {
    at: f64,
    seq: u64,
    ev: Event,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap via reverse.
        other.at.partial_cmp(&self.at).unwrap_or(CmpOrdering::Equal).then(other.seq.cmp(&self.seq))
    }
}

fn priority_rank(t: TaskType) -> usize {
    crate::engine::PRIORITY.iter().position(|&p| p == t).unwrap_or(7)
}

/// Heap entry for the ready pool: min-ordered by (frame, priority rank,
/// insertion sequence) so `pop` yields the earliest frame's highest-
/// priority message.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    frame: u32,
    prio: usize,
    seq: u64,
    msg: SimMsg,
}

/// Heap entry for in-flight messages, min-ordered by visibility time.
#[derive(Debug, Clone, Copy)]
struct IncomingEntry(ReadyEntry);

impl PartialEq for IncomingEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for IncomingEntry {}
impl PartialOrd for IncomingEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for IncomingEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .0
            .msg
            .ready_ns
            .partial_cmp(&self.0.msg.ready_ns)
            .unwrap_or(CmpOrdering::Equal)
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

impl PartialEq for ReadyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for ReadyEntry {}
impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed for a min-heap on (frame, prio, seq).
        (other.frame, other.prio, other.seq).cmp(&(self.frame, self.prio, self.seq))
    }
}

/// Runs the simulation.
pub fn simulate(cfg: &SimConfig) -> SimReport {
    Simulator::new(cfg).run()
}

struct Simulator<'a> {
    cfg: &'a SimConfig,
    /// The frame lifecycle, exactly as the engine's manager runs it. No
    /// flow control stands in front of it here: a simulated engine that
    /// falls behind shows as a growing table.
    table: FrameTable,
    /// Reusable buffer for the messages one table call emits.
    out: Vec<Msg>,
    now: f64,
    seq: u64,
    events: BinaryHeap<Timed>,
    /// Messages not yet visible to workers (in hop flight), ordered by
    /// visibility time.
    incoming: BinaryHeap<IncomingEntry>,
    /// Visible ready messages per core group, ordered by (frame,
    /// priority, seq). Data-parallel uses one group.
    visible: Vec<BinaryHeap<ReadyEntry>>,
    /// Free cores per group (data-parallel: one group of all cores).
    free: Vec<usize>,
    /// Group id per core.
    core_group: Vec<usize>,
    /// Which group serves each task type.
    type_group: [usize; 7],
    manager_free: f64,
    report: SimReport,
    /// Milestones of retired frames, in retirement order.
    retired: Vec<(u32, Milestones)>,
    rng: StdRng,
    completed: usize,
}

impl<'a> Simulator<'a> {
    fn new(cfg: &'a SimConfig) -> Self {
        let (core_group, type_group) = match &cfg.policy {
            SimPolicy::DataParallel => (vec![0usize; cfg.workers], [0usize; 7]),
            SimPolicy::PipelineParallel { cores } => {
                assert_eq!(cores.len(), 7, "pipeline policy needs 7 block core counts");
                let mut cg = Vec::new();
                let mut tg = [0usize; 7];
                for (block, &n) in cores.iter().enumerate() {
                    tg[block] = block;
                    for _ in 0..n {
                        cg.push(block);
                    }
                }
                assert!(!cg.is_empty(), "pipeline policy allocated zero cores");
                (cg, tg)
            }
        };
        let report = SimReport {
            latencies_ns: Vec::new(),
            milestones: Vec::new(),
            busy_ns: [0.0; 7],
            datamove_ns: [0.0; 7],
            sync_ns: 0.0,
            tasks: [0; 7],
            messages: [0; 7],
        };
        let num_groups = core_group.iter().copied().max().unwrap_or(0) + 1;
        let shape = FrameShape::new(&cfg.cell);
        let schedule = cfg.cell.schedule.clone();
        Self {
            cfg,
            table: FrameTable::new(schedule, shape, cfg.batch, cfg.stale_precoder, 0),
            out: Vec::new(),
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            incoming: BinaryHeap::new(),
            visible: (0..num_groups).map(|_| BinaryHeap::new()).collect(),
            free: (0..core_group.len()).collect(),
            core_group,
            type_group,
            manager_free: 0.0,
            report,
            retired: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            completed: 0,
        }
    }

    fn run(mut self) -> SimReport {
        // Seed packet arrival events: antenna `a` of symbol `s` of frame
        // `f` finishes arriving at (f*S + s)*T + (a+1)/M * T.
        let cell = &self.cfg.cell;
        let sym_ns = cell.symbol_duration_ns as f64;
        let m = cell.num_antennas;
        for f in 0..self.cfg.frames as u32 {
            let frame_start =
                f as f64 * (cell.symbols_per_frame() as f64 * sym_ns + self.cfg.inter_frame_gap_ns);
            for s in 0..cell.symbols_per_frame() {
                // Downlink symbols carry no uplink packets but do mark
                // time; pilot/uplink symbols deliver M packets.
                if !matches!(cell.schedule.symbol(s), SymbolType::Pilot | SymbolType::Uplink) {
                    continue;
                }
                let sym_start = frame_start + s as f64 * sym_ns;
                for a in 0..m {
                    let at = sym_start + sym_ns * (a + 1) as f64 / m as f64;
                    self.push_event(at, Event::Packet { frame: f, symbol: s, antenna: a });
                }
            }
        }

        let target = self.cfg.frames;
        while self.completed < target {
            // Dispatch ready messages to free cores first.
            self.place_ready();
            let Some(t) = self.events.pop() else { break };
            self.now = self.now.max(t.at);
            match t.ev {
                // symbol == usize::MAX marks a pure wake-up event emitted
                // by `place_ready` to advance time past a message's
                // visibility point; it carries no packet.
                Event::Packet { symbol, .. } if symbol == usize::MAX => {}
                Event::Packet { frame, symbol, antenna } => {
                    let mut out = std::mem::take(&mut self.out);
                    self.table.on_packet(frame, symbol, antenna, self.now as u64, &mut out);
                    self.dispatch(&mut out);
                    self.out = out;
                }
                Event::TaskDone { core, msg } => self.on_task_done(core, msg),
            }
        }
        let mut report = self.report;
        self.retired.sort_by_key(|&(frame, _)| frame);
        report.milestones = self.retired.into_iter().map(|(_, ms)| ms).collect();
        report
    }

    fn push_event(&mut self, at: f64, ev: Event) {
        self.seq += 1;
        self.events.push(Timed { at, seq: self.seq, ev });
    }

    /// Sends the messages a table call emitted through the manager
    /// (serialised dispatch, then a hop to the workers) and empties `out`.
    fn dispatch(&mut self, out: &mut Vec<Msg>) {
        let hop = self.cfg.sync.hop(self.cfg.workers);
        for msg in out.drain(..) {
            let t0 = self.manager_free.max(self.now);
            self.manager_free = t0 + self.cfg.sync.dispatch_ns;
            self.report.sync_ns += self.cfg.sync.dispatch_ns + hop;
            self.report.messages[crate::stats::type_index(msg.task)] += 1;
            self.seq += 1;
            self.incoming.push(IncomingEntry(ReadyEntry {
                frame: msg.frame,
                prio: priority_rank(msg.task),
                seq: self.seq,
                msg: SimMsg { msg, ready_ns: self.manager_free + hop },
            }));
        }
    }

    /// Assigns ready messages to free cores (policy-aware).
    fn place_ready(&mut self) {
        // 1. Migrate messages that have become visible.
        while let Some(top) = self.incoming.peek() {
            if top.0.msg.ready_ns > self.now {
                break;
            }
            let e = self.incoming.pop().unwrap().0;
            let group = self.type_group[crate::stats::type_index(e.msg.msg.task)];
            self.visible[group].push(e);
        }
        // 2. Hand visible work to free cores, one pop per placement.
        let mut i = 0;
        while i < self.free.len() {
            let core = self.free[i];
            let group = self.core_group[core];
            if let Some(entry) = self.visible[group].pop() {
                self.free.swap_remove(i);
                let msg = entry.msg;
                let dur = self.execution_ns(&msg.msg);
                self.push_event(self.now + dur, Event::TaskDone { core, msg });
                // Restart scan: swap_remove reordered `free`.
                i = 0;
            } else {
                i += 1;
            }
        }
        // 3. If every core is idle but messages are still in flight,
        // schedule a wake-up at the earliest visibility time.
        if self.free.len() == self.core_group.len() {
            if let Some(top) = self.incoming.peek() {
                let at = top.0.msg.ready_ns;
                if at > self.now {
                    self.push_event(
                        at,
                        Event::Packet { frame: 0, symbol: usize::MAX, antenna: usize::MAX },
                    );
                }
            }
        }
    }

    fn execution_ns(&mut self, msg: &Msg) -> f64 {
        let c = &self.cfg.costs;
        let n = msg.count as f64;
        let compute = match msg.task {
            TaskType::Fft => c.fft_ns * n,
            TaskType::Zf => c.zf_ns * n,
            TaskType::Demod => c.demod_sc_ns * n,
            TaskType::Decode => c.decode_ns * n,
            TaskType::Encode => c.encode_ns * n,
            TaskType::Precode => c.precode_sc_ns * n,
            TaskType::Ifft => c.ifft_ns * n,
            _ => 0.0,
        };
        let per_task_move = self.cfg.movement.task_ns(msg.task, &self.cfg.cell, self.cfg.workers);
        let movement = per_task_move * n;
        let jitter = match self.cfg.jitter {
            Some(j) if self.rng.gen::<f64>() < j.preempt_prob => {
                -j.mean_ns * (1.0 - self.rng.gen::<f64>()).ln()
            }
            _ => 0.0,
        };
        let idx = crate::stats::type_index(msg.task);
        self.report.busy_ns[idx] += compute;
        self.report.datamove_ns[idx] += movement;
        self.report.tasks[idx] += msg.count as u64;
        self.report.sync_ns += self.cfg.sync.worker_msg_ns;
        compute + movement + self.cfg.sync.worker_msg_ns + jitter
    }

    fn on_task_done(&mut self, core: usize, msg: SimMsg) {
        let msg = msg.msg;
        self.free.push(core);
        // Completion message costs the manager too.
        let t0 = self.manager_free.max(self.now);
        self.manager_free = t0 + self.cfg.sync.dispatch_ns;
        self.report.sync_ns += self.cfg.sync.dispatch_ns + self.cfg.sync.hop(self.cfg.workers);

        let mut out = std::mem::take(&mut self.out);
        let finished = self.table.on_complete(&msg, self.now as u64, &mut out);
        self.dispatch(&mut out);
        self.out = out;
        if finished {
            self.retire(msg.frame);
        }
    }

    /// Takes a finished frame out of the table and into the report.
    fn retire(&mut self, frame: u32) {
        let Some(done) = self.table.retire(frame) else { return };
        self.completed += 1;
        let ms = done.milestones.unwrap_or_default();
        let uplink = !self.cfg.cell.schedule.uplink_indices().is_empty();
        let end = if uplink { ms.decode_done_ns } else { ms.ifft_done_ns };
        self.report.latencies_ns.push((end - ms.first_packet_ns) as f64);
        self.retired.push((frame, ms));
    }
}

/// Derives a static pipeline-parallel core allocation for a simulated
/// cell: probes per-block work (compute + movement) with a short
/// data-parallel run, then applies the §5.4 allocation policy
/// ([`crate::alloc::allocate_cores`]). Returns the 7-slot cores-per-block
/// vector for [`SimPolicy::PipelineParallel`].
pub fn pipeline_allocation(cfg: &SimConfig) -> Vec<usize> {
    use crate::alloc::{allocate_cores, BlockWork};
    let mut probe_cfg = cfg.clone();
    probe_cfg.frames = cfg.frames.min(4);
    probe_cfg.policy = SimPolicy::DataParallel;
    let probe = simulate(&probe_cfg);
    let frames = probe_cfg.frames as u64;
    let cell = &cfg.cell;
    let mk = |t: TaskType, par: usize| BlockWork {
        task: t,
        total_ns: (probe.busy_ns[crate::stats::type_index(t)]
            + probe.datamove_ns[crate::stats::type_index(t)]) as u64
            / frames.max(1),
        max_parallelism: par.max(1),
    };
    let blocks = [
        mk(TaskType::Fft, cell.num_antennas * cell.symbols_per_frame()),
        mk(TaskType::Zf, cell.num_zf_groups()),
        mk(TaskType::Demod, cell.num_data_sc),
        mk(TaskType::Decode, cell.num_users * cell.schedule.uplink_indices().len().max(1)),
        mk(TaskType::Encode, cell.num_users),
        mk(TaskType::Precode, cell.num_data_sc),
        mk(TaskType::Ifft, cell.num_antennas),
    ];
    let active: Vec<BlockWork> = blocks.iter().copied().filter(|b| b.total_ns > 0).collect();
    let frame_ns = cell.frame_duration_ns();
    // The pipeline variant may need more cores than the data-parallel
    // engine to sustain the same rate (each block must keep up on its
    // own) — that is one of the paper's points. Grant the minimum.
    let cores = match allocate_cores(&active, cfg.workers, frame_ns) {
        Ok(c) => c,
        Err(crate::alloc::AllocError::NotEnoughCores { needed }) => {
            allocate_cores(&active, needed, frame_ns).expect("allocation at minimum")
        }
    };
    let mut out = vec![0usize; 7];
    for (b, c) in active.iter().zip(cores.iter()) {
        out[crate::stats::type_index(b.task)] = *c;
    }
    out
}

/// Finds the minimum worker count that keeps up with the frame rate for
/// a cell (Figure 6's right axis): scans upward until the backlog test
/// passes and median latency stays within `max_latency_ns`.
pub fn min_workers(
    cell: &CellConfig,
    frames: usize,
    max_latency_ns: f64,
    cal: &Calibration,
    configure: impl Fn(&mut SimConfig),
) -> Option<usize> {
    let ok = |workers: usize| -> bool {
        let mut cfg = SimConfig::new(cell.clone(), workers, frames, cal);
        configure(&mut cfg);
        let rep = simulate(&cfg);
        let frame_ns = cell.frame_duration_ns() as f64;
        rep.keeps_up(frame_ns) && rep.percentile_latency_ms(50.0) * 1e6 <= max_latency_ns
    };
    // Keeping up is monotone in the worker count: doubling search for the
    // first passing count, then binary search down.
    let mut hi = 1usize;
    while hi <= 64 && !ok(hi) {
        hi *= 2;
    }
    if hi > 64 {
        if !ok(64) {
            return None;
        }
        hi = 64;
    }
    let mut lo = hi / 2; // lo failed (or is 0)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 64x16 costs the simulator ran on before it read the
    /// benchmark's calibration, so these assertions stay where they were.
    const FIXTURE: Calibration = Calibration {
        costs: CostModel {
            fft_ns: 3_821.0,
            zf_ns: 6_781.0,
            demod_sc_ns: 190.0,
            decode_ns: 46_500.0,
            encode_ns: 3_000.0,
            precode_sc_ns: 170.0,
            ifft_ns: 3_821.0,
        },
        queue_op_ns: 33.75,
        lane_msg_ns: 25.3,
    };

    fn paper_cell(data_symbols: usize) -> CellConfig {
        CellConfig::emulated_rru(64, 16, data_symbols)
    }

    fn sim_config(cell: CellConfig, workers: usize, frames: usize) -> SimConfig {
        SimConfig::new(cell, workers, frames, &FIXTURE)
    }

    #[test]
    fn single_frame_completes() {
        let cfg = sim_config(paper_cell(13), 26, 1);
        let rep = simulate(&cfg);
        assert_eq!(rep.latencies_ns.len(), 1);
        // Latency close to (but above) the 1 ms frame length.
        let ms = rep.latencies_ns[0] / 1e6;
        assert!(ms > 0.9 && ms < 3.0, "latency {ms} ms out of range");
    }

    #[test]
    fn paper_26_cores_keeps_up_at_1ms() {
        let cfg = sim_config(paper_cell(13), 26, 16);
        let rep = simulate(&cfg);
        assert_eq!(rep.latencies_ns.len(), 16);
        assert!(rep.keeps_up(1e6), "26 cores must sustain the 1 ms frame rate");
        let med = rep.median_latency_ms();
        // Paper: 1.19 ms median. Allow the model a generous band.
        assert!((1.0..1.6).contains(&med), "median {med} ms");
    }

    #[test]
    fn few_cores_fall_behind() {
        let cfg = sim_config(paper_cell(13), 6, 16);
        let rep = simulate(&cfg);
        assert!(!rep.keeps_up(1e6), "6 cores cannot sustain 64x16 at 1 ms");
    }

    #[test]
    fn more_cores_reduce_latency() {
        let lat = |w: usize| {
            let rep = simulate(&sim_config(paper_cell(13), w, 4));
            rep.median_latency_ms()
        };
        let l8 = lat(8);
        let l16 = lat(16);
        let l26 = lat(26);
        assert!(l8 > l16 && l16 > l26, "{l8} {l16} {l26} must decrease");
    }

    #[test]
    fn decode_dominates_busy_time() {
        let rep = simulate(&sim_config(paper_cell(13), 26, 4));
        let decode = rep.busy_ns[crate::stats::type_index(TaskType::Decode)];
        let total: f64 = rep.busy_ns.iter().sum();
        // Paper Table 3: decode is 9.67 of 16.63 ms ~ 58%.
        let share = decode / total;
        assert!((0.4..0.8).contains(&share), "decode share {share}");
    }

    #[test]
    fn task_counts_match_paper_table3() {
        let rep = simulate(&sim_config(paper_cell(13), 26, 1));
        // 896 FFT (64 ant x 14 symbols), 75 ZF, 15600 demod SCs, 208
        // decodes.
        assert_eq!(rep.tasks[crate::stats::type_index(TaskType::Fft)], 896);
        assert_eq!(rep.tasks[crate::stats::type_index(TaskType::Zf)], 75);
        assert_eq!(rep.tasks[crate::stats::type_index(TaskType::Demod)], 15600);
        assert_eq!(rep.tasks[crate::stats::type_index(TaskType::Decode)], 208);
        assert_eq!(
            rep.messages[crate::stats::type_index(TaskType::Fft)],
            14 * 64 / 2,
            "arrivals are coalesced by the engine's own frame table: m / batch.fft \
             messages per symbol, not one per packet"
        );
    }

    /// The simulator expands work with the engine's own routine, so every
    /// batch size the engine honours is honoured here: two decodes per
    /// message halve the decode message count, not the task count.
    #[test]
    fn decode_batch_halves_decode_messages() {
        let decode = crate::stats::type_index(TaskType::Decode);
        let mut cfg = sim_config(paper_cell(13), 26, 1);
        let single = simulate(&cfg);
        cfg.batch.decode = 2;
        let paired = simulate(&cfg);
        assert_eq!(single.messages[decode], 208);
        assert_eq!(paired.messages[decode], 104);
        assert_eq!(paired.tasks[decode], 208);
    }

    #[test]
    fn pipeline_parallel_is_slower() {
        let mut dp = sim_config(paper_cell(13), 26, 6);
        dp.frames = 6;
        let dp_rep = simulate(&dp);
        let mut pp = sim_config(paper_cell(13), 26, 6);
        // A reasonable static allocation: FFT 4, ZF 3, Demod 4, Decode 15.
        pp.policy = SimPolicy::PipelineParallel { cores: vec![4, 3, 4, 15, 0, 0, 0] };
        let pp_rep = simulate(&pp);
        assert!(
            pp_rep.median_latency_ms() > dp_rep.median_latency_ms(),
            "pipeline {} vs data {} ms",
            pp_rep.median_latency_ms(),
            dp_rep.median_latency_ms()
        );
    }

    #[test]
    fn jitter_blows_up_the_tail() {
        let mut cfg = sim_config(paper_cell(13), 26, 48);
        let base = simulate(&cfg);
        cfg.jitter = Some(JitterModel { preempt_prob: 0.0002, mean_ns: 4e6 });
        let jit = simulate(&cfg);
        assert!(
            jit.max_latency_ms() > base.max_latency_ms() * 1.5,
            "jitter must inflate the tail: {} vs {}",
            jit.max_latency_ms(),
            base.max_latency_ms()
        );
        // Median moves much less.
        assert!(jit.median_latency_ms() < base.median_latency_ms() * 1.5);
    }

    /// With cores to spare the extra messages hide behind the tasks, so
    /// the comparison runs at the fewest cores that sustain the batched
    /// frame rate: there the unbatched message load no longer fits.
    #[test]
    fn batching_ablation_increases_latency() {
        let cell = paper_cell(13);
        let unbatch = |c: &mut SimConfig| c.batch = BatchSizes::ones();
        let edge = min_workers(&cell, 8, 4e6, &FIXTURE, |_| {}).expect("some count must keep up");
        let mut cfg = sim_config(cell.clone(), edge, 12);
        let on = simulate(&cfg);
        unbatch(&mut cfg);
        let off = simulate(&cfg);
        assert!(
            off.median_latency_ms() > on.median_latency_ms(),
            "at {edge} cores unbatched {} must exceed batched {}",
            off.median_latency_ms(),
            on.median_latency_ms()
        );
        let unbatched_edge =
            min_workers(&cell, 8, 4e6, &FIXTURE, unbatch).expect("some count must keep up");
        assert!(unbatched_edge > edge, "unbatched needs {unbatched_edge} cores, batched {edge}");
        let fft = crate::stats::type_index(TaskType::Fft);
        assert_eq!(off.messages[fft], 2 * on.messages[fft], "one FFT message per packet");
        assert!(
            off.sync_ns > 10.0 * on.sync_ns,
            "unbatched sync {} vs batched {}",
            off.sync_ns,
            on.sync_ns
        );
    }

    #[test]
    fn downlink_frame_completes() {
        let mut cell = paper_cell(0);
        cell.schedule = agora_phy::frame::FrameSchedule::downlink(1, 13);
        let cfg = sim_config(cell, 21, 2);
        let rep = simulate(&cfg);
        assert_eq!(rep.latencies_ns.len(), 2);
        assert!(rep.milestones[0].ifft_done_ns > 0);
    }

    /// The early start reads frame − 1's precoder, which is safe only
    /// while frame − 1 is unretired, so the cell is TDD with its uplink
    /// last: each frame is still decoding when its successor's pilots
    /// arrive.
    #[test]
    fn stale_precoder_reduces_downlink_latency() {
        let mut cell = paper_cell(0);
        cell.schedule = agora_phy::frame::FrameSchedule::parse("PDDDUUUUUUUUUU").unwrap();
        let mut base = sim_config(cell, 26, 8);
        let off = simulate(&base);
        base.stale_precoder = true;
        let on = simulate(&base);
        // Frame 0 has no previous precoder; compare later frames.
        let mean = |rep: &SimReport| {
            let downlink = &rep.milestones[2..];
            assert_eq!(downlink.len(), 6, "every frame must finish");
            downlink.iter().map(|m| m.ifft_done_ns.saturating_sub(m.first_packet_ns)).sum::<u64>()
                / downlink.len() as u64
        };
        assert!(
            mean(&on) < mean(&off),
            "stale precoder must start DL earlier: {} vs {}",
            mean(&on),
            mean(&off)
        );
    }

    #[test]
    fn min_workers_finds_reasonable_count() {
        let cell = paper_cell(13);
        let w = min_workers(&cell, 8, 4e6, &FIXTURE, |_| {}).expect("some count must keep up");
        assert!((15..=40).contains(&w), "minimum workers {w} far from the paper's 26");
    }

    #[test]
    fn percentile_helper() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
