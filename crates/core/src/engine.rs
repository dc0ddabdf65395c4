//! The Agora engine: manager-worker baseband processing (Figure 3).
//!
//! One manager thread tracks dependencies — of the engine's cell, or of
//! every cell of a [`crate::deploy::Deployment`] — and places 64-byte task
//! messages on per-worker lock-free lanes (overflow goes to shared
//! per-type queues); worker threads drain their lane, then the shared
//! queues in a static priority order, then steal from peers, execute
//! kernels against the shared frame buffers, and post completions. An
//! intake thread ingests fronthaul packets into the buffers. Workers are
//! data-parallel: any worker takes any task type. The BigStation-style
//! pipeline-parallel baseline of §5.4 exists only in the simulator
//! (`sim::SimPolicy`).

use crate::buffers::{FrameBuffers, FrameWindow};
use crate::config::EngineConfig;
use crate::kernels::{Kernels, WorkerScratch};
use crate::state::{Arrival, FrameTable, Milestones, Retired};
use crate::stats::{Counter, EngineStats, NUM_TASK_TYPES};
use agora_fronthaul::demux::Route;
use agora_fronthaul::packet::decode_ref;
use agora_fronthaul::{Fronthaul, PacketBuf};
use agora_queue::{IdleAction, IdleBackoff, IdleGate, MpmcQueue, Msg, TaskLane, TaskType};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Messages a worker takes from its lane (or a victim's) per trip: one
/// cursor claim amortised over up to this many tasks.
const WORKER_BATCH: usize = 16;

/// Capacity of each worker's task lane. Tasks that don't fit overflow to
/// the shared per-type queues, so this bounds per-worker buffering, not
/// correctness — and it sets the order a worker runs its tasks in: what
/// fits its lane first, FIFO, the overflowed backlog after by
/// [`PRIORITY`] (DESIGN.md, "Why the overflow tier stays").
const LANE_CAPACITY: usize = 256;

/// Completion messages the manager drains per cursor claim.
const COMPLETE_BATCH: usize = 64;

/// With the network thread finished and every queue empty, this long
/// without a packet or completion means the remaining frames are missing
/// packets that will never come.
const STALL: Duration = Duration::from_millis(200);

/// Parked workers re-poll at least this often (belt-and-braces against
/// a missed wake; also bounds shutdown latency).
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Order in which workers poll the shared per-type queues: unblock the
/// widest dependency fans first (ZF gates every data symbol), keep the
/// per-symbol chain moving (demod), then drain the heavy sink (decode),
/// and fill remaining cycles with FFTs of future symbols — the
/// intra-frame pipeline parallelism of §3.4.1.
pub(crate) const PRIORITY: [TaskType; 7] = [
    TaskType::Zf,
    TaskType::Demod,
    TaskType::Decode,
    TaskType::Fft,
    TaskType::Precode,
    TaskType::Ifft,
    TaskType::Encode,
];

/// Everything produced for one completed frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Frame id.
    pub frame: u32,
    /// Timing milestones (ns since the start of the `process_fronthaul`
    /// call that returned the frame).
    pub milestones: Milestones,
    /// Decoded information bits per `[symbol][user]` (uplink symbols
    /// only; other symbols have empty vecs).
    pub decoded: Vec<Vec<Vec<u8>>>,
    /// Per `[symbol][user]` decode success flags.
    pub decode_ok: Vec<Vec<bool>>,
    /// True if the frame was abandoned because packets never arrived
    /// (fronthaul loss) — decoded bits are whatever completed before the
    /// timeout.
    pub dropped: bool,
    /// Packets that never arrived for this frame (0 for completed
    /// frames; the per-frame share of fronthaul loss for dropped ones).
    pub lost_packets: u32,
}

impl FrameResult {
    /// Frame processing latency: first packet to uplink completion.
    pub fn uplink_latency_ns(&self) -> u64 {
        self.milestones.decode_done_ns.saturating_sub(self.milestones.first_packet_ns)
    }
}

pub(crate) struct TaskQueues {
    /// Shared per-type queues: where a batch's tail goes when its lane is
    /// full, and where the survivors of an abandoned frame's flush return.
    /// Each holds every message of its type the cell can have in flight.
    pub(crate) tasks: Vec<MpmcQueue<Msg>>,
    pub(crate) complete: MpmcQueue<Msg>,
    pub(crate) rx: MpmcQueue<Msg>,
    /// Per-worker task lanes. Lane `w` is filled by the manager, drained
    /// by worker `w`, and stolen from by idle peers.
    pub(crate) lanes: Vec<TaskLane<Msg>>,
    /// Park/wake gate for idle workers.
    pub(crate) gate: IdleGate,
}

impl TaskQueues {
    /// `task_capacity[t]`: the slots of the type-`t` shared queue.
    fn new(capacity: usize, num_lanes: usize, task_capacity: [usize; NUM_TASK_TYPES]) -> Self {
        Self {
            tasks: task_capacity.iter().map(|&n| MpmcQueue::new(n)).collect(),
            complete: MpmcQueue::new(capacity),
            rx: MpmcQueue::new(capacity),
            lanes: (0..num_lanes).map(|_| TaskLane::new(LANE_CAPACITY)).collect(),
            gate: IdleGate::new(),
        }
    }

    pub(crate) fn queue(&self, t: TaskType) -> &MpmcQueue<Msg> {
        &self.tasks[crate::stats::type_index(t)]
    }
}

/// "No worker yet" in the affinity table.
const NO_LANE: u16 = u16::MAX;

/// Manager-thread placement state: the (frame, symbol) → worker
/// affinity table, a reusable drain buffer, and the round-robin cursor
/// breaking least-loaded ties. Owned by `manager_loop`, never shared.
pub(crate) struct ManagerCtx {
    /// Last worker to execute (or be handed) tasks of a (frame, symbol)
    /// — its L1/L2 holds that symbol's buffers, so later stages of the
    /// same symbol go to the same lane. One row of `symbols` entries per
    /// window slot (`frame % window`), reset when the frame retires.
    affinity: Vec<u16>,
    window: usize,
    symbols: usize,
    /// Reusable drain buffer for `flush_abandoned`.
    flush_scratch: Vec<Msg>,
    /// Round-robin cursor for least-loaded tie-breaking, so equal-depth
    /// lanes don't all collapse onto worker 0.
    rr: usize,
}

impl ManagerCtx {
    fn new(window: usize, symbols: usize) -> Self {
        Self {
            affinity: vec![NO_LANE; window * symbols],
            window,
            symbols,
            flush_scratch: Vec::new(),
            rr: 0,
        }
    }

    fn row(&self, frame: u32) -> usize {
        frame as usize % self.window * self.symbols
    }

    fn lane_of(&self, msg: &Msg) -> Option<usize> {
        let lane = self.affinity[self.row(msg.frame) + msg.symbol as usize];
        (lane != NO_LANE).then_some(lane as usize)
    }

    /// Records that `lane`'s worker holds the buffers of `msg`'s symbol.
    /// ZF is per frame: its messages say nothing about any symbol's data.
    fn set_lane(&mut self, msg: &Msg, lane: usize) {
        if msg.task != TaskType::Zf {
            let row = self.row(msg.frame);
            self.affinity[row + msg.symbol as usize] = lane as u16;
        }
    }

    fn forget(&mut self, frame: u32) {
        let row = self.row(frame);
        self.affinity[row..row + self.symbols].fill(NO_LANE);
    }
}

/// Network-thread intake state: validates, retains and announces
/// received packets. The packet itself (pooled or heap) is parked in the
/// frame slot's [`crate::buffers::PacketSlots`] table, so the FFT stage
/// reads IQ samples straight out of the receive buffer — intake never
/// copies payload bytes.
struct NetIngest<'a> {
    core: &'a CellCore,
    /// Which frame currently owns each window slot's packet table. The
    /// network thread is the sole writer of every table, so this is
    /// plain thread-local state: a slot is cleared exactly once, at the
    /// moment its first packet of a new frame arrives.
    slot_frame: Vec<Option<u32>>,
}

impl NetIngest<'_> {
    /// Ingests one packet: decode + validate, reject stragglers, apply
    /// window flow control, retain the buffer in the frame's slot table
    /// and notify the manager.
    fn ingest(&mut self, pkt: PacketBuf) {
        let CellCore { kernels, window, queues, stats, min_frame, held } = self.core;
        let g = &kernels.geom;
        let win = self.slot_frame.len() as u64;
        let Ok((hdr, payload)) = decode_ref(&pkt) else {
            stats.add(Counter::RxErrors, 1);
            return;
        };
        let (frame, symbol, ant) = (hdr.frame, hdr.symbol as usize, hdr.antenna as usize);
        // Shape validation: a mis-addressed or mis-sized packet must not
        // index out of the slot table or hand the FFT a short payload.
        if symbol >= g.symbols || ant >= g.m || payload.len() != g.samples * 3 {
            stats.add(Counter::RxErrors, 1);
            return;
        }
        // Late rejection: the frame's slot has been retired (and may
        // already belong to a newer frame) — storing would corrupt the
        // new occupant. Happens to duplicates/stragglers arriving after
        // their frame completed or was abandoned.
        if (frame as u64) < min_frame.load(Ordering::Acquire) {
            stats.add(Counter::PacketsLate, 1);
            return;
        }
        // Flow control: wait until the frame's slot is free, saying so to
        // the manager while waiting (the admitted path stores nothing).
        if frame as u64 >= min_frame.load(Ordering::Acquire) + win {
            held.store(true, Ordering::Relaxed);
            while frame as u64 >= min_frame.load(Ordering::Acquire) + win {
                std::thread::yield_now();
            }
            held.store(false, Ordering::Relaxed);
        }
        let fb = window.slot(frame);
        let slot = (frame as u64 % win) as usize;
        if self.slot_frame[slot] != Some(frame) {
            // First packet of `frame` in this slot: drop the previous
            // occupant's retained packets (returning pooled buffers).
            // SAFETY: the previous occupant is `frame - k*win` for some
            // k >= 1, which is below `min_frame` (Acquire above), so the
            // manager retired it with zero in-flight tasks — no reader
            // can touch the table; this thread is the sole writer.
            unsafe { fb.rx_pkts.clear_all() };
            self.slot_frame[slot] = Some(frame);
        }
        if !fb.rx_pkts.occupied(symbol, ant) {
            // SAFETY: sole writer thread, entry unoccupied, and no task
            // was dispatched for it yet (dispatch follows the rx message
            // pushed below).
            unsafe { fb.rx_pkts.store(symbol, ant, pkt) };
        }
        // Duplicates drop the new copy (the retained payload is
        // byte-identical) but still notify the manager, which owns the
        // duplicate ledger.
        let msg = Msg::task(TaskType::PacketRx, frame, symbol as u32, ant as u32, 1);
        let mut m = msg;
        while let Err(back) = queues.rx.push(m) {
            m = back;
            std::thread::yield_now();
        }
    }
}

/// The per-cell processing core: kernels, frame window, task queues,
/// stats and the flow-control watermark — everything the manager,
/// network and worker threads share for ONE cell. A [`Pool`] runs one
/// core ([`Engine`]) or several ([`crate::deploy::Deployment`]).
#[derive(Clone)]
pub(crate) struct CellCore {
    pub(crate) kernels: Arc<Kernels>,
    pub(crate) window: Arc<FrameWindow>,
    pub(crate) queues: Arc<TaskQueues>,
    pub(crate) stats: Arc<EngineStats>,
    pub(crate) min_frame: Arc<AtomicU64>,
    /// Set while this cell's intake waits on flow control for
    /// `min_frame` to move. In a deployment the shared intake thread
    /// blocks in one cell's intake, so only that cell's stall rule sees
    /// it.
    pub(crate) held: Arc<AtomicBool>,
}

impl CellCore {
    /// Builds the shared state for one cell. `workers` sizes the
    /// per-worker task lanes and busy-time table — the engine passes its
    /// own pool size, a deployment the *global* pool size so any worker
    /// can serve, and record against, any cell.
    pub(crate) fn new(mut cfg: EngineConfig, workers: usize) -> Self {
        cfg.clamp_batches();
        let frame_window = cfg.frame_window;
        let kernels = Arc::new(Kernels::new(cfg));
        let window = Arc::new(FrameWindow::new(kernels.geom, frame_window));
        // Completion and packet queues: room for every message of all
        // in-flight frames (demod dominates at q/8 messages per symbol;
        // counting it as q leaves room for everything else).
        let g = &kernels.geom;
        let cap = (g.symbols * (g.m + g.q + g.k + 8) * frame_window).next_power_of_two();
        // Each shared queue holds every message of its type the cell can
        // have in flight — the table admits `frame_window` frames — so an
        // overflowing tail, or a flush's survivors, always fit.
        let (schedule, batch) = (kernels.cfg.cell.schedule.clone(), kernels.cfg.batch);
        let table = FrameTable::new(schedule, kernels.shape, batch, false, 0);
        let task_cap = table.max_messages_per_frame().map(|n| frame_window * n);
        Self {
            kernels,
            window,
            queues: Arc::new(TaskQueues::new(cap, workers, task_cap)),
            stats: Arc::new(EngineStats::new(workers)),
            min_frame: Arc::new(AtomicU64::new(0)),
            held: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// The threaded system behind both public types: the cells' shared
/// state, each worker's cell assignment, and the workers serving them.
/// An [`Engine`] is a pool of one cell whose assignment never changes;
/// a [`crate::deploy::Deployment`] adds the demux and the supervisor
/// that moves workers between cells.
pub(crate) struct Pool {
    pub(crate) cells: Vec<CellCore>,
    /// Worker id -> the index into `cells` it serves.
    pub(crate) assign: Arc<Vec<AtomicUsize>>,
    /// The link's own counters: batches, socket errors, misroutes.
    link: Arc<EngineStats>,
    /// Packets requested per `recv_batch` poll.
    rx_batch: usize,
    /// Pin the manager, intake and worker threads (best-effort).
    pin: bool,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns one worker per entry of `assign`, worker `w` starting on
    /// cell `assign[w]`.
    pub(crate) fn new(
        cells: Vec<CellCore>,
        assign: Vec<usize>,
        link: Arc<EngineStats>,
        rx_batch: usize,
        pin: bool,
    ) -> Self {
        let assign = Arc::new(assign.into_iter().map(AtomicUsize::new).collect::<Vec<_>>());
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..assign.len())
            .map(|wid| {
                let (cells, assign, shutdown) = (cells.clone(), assign.clone(), shutdown.clone());
                std::thread::Builder::new()
                    .name(format!("agora-worker-{wid}"))
                    .spawn(move || {
                        pin_thread(pin, PinRole::Worker(wid));
                        worker_loop(wid, &cells, &assign[wid], &shutdown)
                    })
                    .expect("failed to spawn worker")
            })
            .collect();
        Self { cells, assign, link, rx_batch, pin, shutdown, workers }
    }

    /// Processes `num_frames` frames of every cell from one link. An
    /// intake thread drains the link, handing each packet to the intake
    /// of the cell `route` names, while this thread runs the manager over
    /// every cell and calls `on_retire` after each pass that retired a
    /// frame. Returns `results[cell]` in frame order.
    pub(crate) fn process_fronthaul<F: Fronthaul + Sync + ?Sized>(
        &self,
        fh: &F,
        num_frames: u32,
        producer_done: &AtomicBool,
        route: impl Fn(&[u8]) -> Route + Send,
        on_retire: impl FnMut(),
    ) -> Vec<Vec<FrameResult>> {
        let start = Instant::now();
        let net_done = &AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                self.drain_link(fh, producer_done, route);
                net_done.store(true, Ordering::Release);
            });
            pin_thread(self.pin, PinRole::Manager);
            manager_loop(&self.cells, start, num_frames, net_done, on_retire)
        })
    }

    /// The intake thread: receives from `fh` in batches of up to
    /// `rx_batch`, handing every packet to the intake of the cell `route`
    /// names, until `producer_done` is set and the link is empty; then
    /// records the link's error counters.
    ///
    /// The flag is read *before* each poll: the producer sets it after its
    /// last send, so once it has been observed, an empty poll means the
    /// link is drained for good. Polling first would strand a final burst
    /// that lands between the empty poll and the flag read.
    fn drain_link<F: Fronthaul + ?Sized>(
        &self,
        fh: &F,
        producer_done: &AtomicBool,
        route: impl Fn(&[u8]) -> Route,
    ) {
        pin_thread(self.pin, PinRole::Net);
        let link = &*self.link;
        let mut ingests: Vec<NetIngest> = (self.cells.iter())
            .map(|core| NetIngest { core, slot_frame: vec![None; core.window.window()] })
            .collect();
        let mut batch: Vec<PacketBuf> = Vec::with_capacity(self.rx_batch);
        loop {
            let done = producer_done.load(Ordering::Acquire);
            let n = fh.recv_batch(&mut batch, self.rx_batch);
            if n > 0 {
                link.add(Counter::RxBatches, 1);
                link.add(Counter::RxBatchPackets, n as u64);
                link.max(Counter::RxBatchMax, n as u64);
                for pkt in batch.drain(..) {
                    match route(&pkt) {
                        Route::Cell(c) => ingests[c].ingest(pkt),
                        Route::Misrouted => link.add(Counter::PacketsMisrouted, 1),
                        Route::Undecodable => link.add(Counter::RxErrors, 1),
                    }
                }
            } else if done {
                break;
            } else {
                std::thread::yield_now();
            }
        }
        let (tx_e, rx_e) = fh.link_errors();
        link.set(Counter::LinkTxErrors, tx_e);
        link.set(Counter::LinkRxErrors, rx_e);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Parked workers re-check `shutdown` as soon as they're woken
        // (and at latest after PARK_TIMEOUT), whichever cell's gate they
        // park on.
        for core in &self.cells {
            core.queues.gate.wake_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The running engine: a pool of one cell.
pub struct Engine(Pool);

impl Engine {
    /// Builds the engine and spawns its workers.
    pub fn new(cfg: EngineConfig) -> Self {
        let (workers, rx_batch, pin) = (cfg.num_workers, cfg.rx_batch.max(1), cfg.pin_cores);
        let core = CellCore::new(cfg, workers);
        let link = core.stats.clone();
        Self(Pool::new(vec![core], vec![0; workers], link, rx_batch, pin))
    }

    /// Statistics sink (live; read after `process_fronthaul` for Table 3
    /// numbers).
    pub fn stats(&self) -> &EngineStats {
        &self.0.cells[0].stats
    }

    /// The engine's kernel set (geometry, plans).
    pub fn kernels(&self) -> &Kernels {
        &self.0.cells[0].kernels
    }

    /// The frame buffers of `frame`'s window slot (testing and
    /// instrumentation; the mirror of `InlineProcessor::buffers`). Only
    /// meaningful once `process_fronthaul` has returned, and for a frame still
    /// inside the window — one of the last `frame_window` it processed.
    pub fn buffers(&self, frame: u32) -> &FrameBuffers {
        self.0.cells[0].window.slot(frame)
    }

    /// Processes `num_frames` frames arriving live over a fronthaul
    /// link. The network thread drains the link in whole batches per
    /// poll ([`Fronthaul::recv_batch`] — one `recvmmsg` on UDP links)
    /// and parks each packet buffer, pooled or heap, in the frame's slot
    /// table for zero-copy FFT intake. Polling continues until
    /// `producer_done` is observed true *and* the link is empty, so the
    /// caller must set it after the last packet has been sent. Returns
    /// one [`FrameResult`] per frame, in frame order; socket error and
    /// batch-size counters land in [`Self::stats`].
    pub fn process_fronthaul<F: Fronthaul + Sync + ?Sized>(
        &self,
        fh: &F,
        num_frames: u32,
        producer_done: &AtomicBool,
    ) -> Vec<FrameResult> {
        // Every packet is this engine's: the cell byte is not read.
        let route = |_: &[u8]| Route::Cell(0);
        let mut results = self.0.process_fronthaul(fh, num_frames, producer_done, route, || {});
        results.pop().expect("an engine has one cell")
    }
}

/// Which thread is being pinned; decides its CPU under the fixed map.
#[derive(Debug, Clone, Copy)]
enum PinRole {
    /// The manager thread: CPU 0.
    Manager,
    /// The intake thread: CPU 1 when available, else CPU 0.
    Net,
    /// Worker `wid`: CPUs 2.. round-robin, keeping workers off the
    /// manager/net CPUs whenever the machine has more than two.
    Worker(usize),
}

/// Best-effort pin of the calling thread under the engine's CPU map, if
/// `pin` asks for it. Failure (no pinning support, cpuset restrictions,
/// too few CPUs) is ignored: pinning is a cache-locality hint, never
/// correctness.
fn pin_thread(pin: bool, role: PinRole) {
    if !pin {
        return;
    }
    let n = agora_queue::affinity::available_cpus();
    let cpu = match role {
        PinRole::Manager => 0,
        PinRole::Net => usize::from(n >= 2),
        PinRole::Worker(wid) => {
            if n >= 3 {
                2 + wid % (n - 2)
            } else {
                wid % n
            }
        }
    };
    let _ = agora_queue::affinity::pin_current_thread(cpu);
}

/// The manager: one event pump between every cell's queues and that
/// cell's [`FrameTable`]. Packet notifications and completions go in,
/// the task messages they unlock come out and are placed on the cell's
/// lanes, and finished frames are read out and retired. Each pass
/// visits every unfinished cell, and the thread yields only when no cell
/// had work. `on_retire` runs after each pass that retired a frame.
/// Returns once every cell has `num_frames` results — its watermark at
/// entry and the `num_frames - 1` above it — as `results[cell]` in frame
/// order.
fn manager_loop(
    cells: &[CellCore],
    start: Instant,
    num_frames: u32,
    net_done: &AtomicBool,
    mut on_retire: impl FnMut(),
) -> Vec<Vec<FrameResult>> {
    let n = num_frames as usize;
    let mut runs: Vec<CellRun> = cells.iter().map(|core| CellRun::new(core, n)).collect();
    while runs.iter().any(|run| run.results.len() < n) {
        let (mut busy, mut retired) = (false, false);
        // A finished cell is left alone: whatever reaches its queues now
        // waits for the next call, as it does in a standalone engine.
        for (core, run) in cells.iter().zip(&mut runs).filter(|(_, run)| run.results.len() < n) {
            let before = run.results.len();
            busy |= core.pass(run, start, net_done);
            retired |= run.results.len() > before;
        }
        if retired {
            on_retire();
        }
        if !busy {
            std::thread::yield_now();
        }
    }
    runs.iter_mut().for_each(|run| run.results.sort_by_key(|r| r.frame));
    runs.into_iter().map(|run| run.results).collect()
}

/// One cell's side of a [`manager_loop`] call.
struct CellRun {
    table: FrameTable,
    ctx: ManagerCtx,
    results: Vec<FrameResult>,
    /// The call's frames run from the watermark at entry up to this one.
    end: u32,
    /// The cell's last packet, completion or given-up frame.
    last_progress: Duration,
    /// Reusable: a table call's output, a completion batch, expired frames.
    out: Vec<Msg>,
    cbuf: Vec<Msg>,
    expired: Vec<u32>,
}

impl CellRun {
    fn new(core: &CellCore, num_frames: usize) -> Self {
        let (k, cfg) = (&core.kernels, &core.kernels.cfg);
        // Frames an earlier call on this core retired stay retired.
        let first = core.min_frame.load(Ordering::Acquire) as u32;
        Self {
            table: FrameTable::new(cfg.cell.schedule.clone(), k.shape, cfg.batch, false, first),
            ctx: ManagerCtx::new(core.window.window(), k.geom.symbols),
            results: Vec::with_capacity(num_frames),
            end: first + num_frames as u32,
            last_progress: Duration::ZERO,
            out: Vec::new(),
            cbuf: Vec::with_capacity(COMPLETE_BATCH),
            expired: Vec::new(),
        }
    }
}

impl CellCore {
    /// One manager pass over this cell: its packet notifications, its
    /// completions and its deadline watchdog, or, when none of them had
    /// anything to do, its stall rules. Returns whether it did anything.
    fn pass(&self, run: &mut CellRun, start: Instant, net_done: &AtomicBool) -> bool {
        let CellRun { table, ctx, results, end, last_progress, out, cbuf, expired } = run;
        let mut busy = false;

        // 1. Packet notifications.
        while let Some(msg) = self.queues.rx.pop() {
            busy = true;
            *last_progress = start.elapsed();
            let (symbol, antenna) = (msg.symbol as usize, msg.base as usize);
            let now_ns = last_progress.as_nanos() as u64;
            match table.on_packet(msg.frame, symbol, antenna, now_ns, out) {
                Arrival::Accepted => {}
                Arrival::Duplicate => self.stats.add(Counter::PacketsDuplicate, 1),
                Arrival::Late => self.stats.add(Counter::PacketsLate, 1),
            }
            // The network thread admits no frame a window above the
            // watermark, so the table never outgrows the window.
            debug_assert!(table.len() <= self.window.window());
            self.place(ctx, out);
        }

        // 2. Completions, a whole batch per cursor claim.
        loop {
            cbuf.clear();
            if self.queues.complete.pop_batch(cbuf, COMPLETE_BATCH) == 0 {
                break;
            }
            busy = true;
            for msg in cbuf.iter() {
                *last_progress = start.elapsed();
                // The completing worker's caches now hold this symbol's
                // buffers: send the symbol's next stage to its lane.
                ctx.set_lane(msg, msg.aux as usize);
                let finished = table.on_complete(msg, last_progress.as_nanos() as u64, out);
                self.place(ctx, out);
                if finished {
                    self.retire(ctx, table, msg.frame, results);
                }
            }
        }

        // 3. Deadline watchdog: abandon frames in flight longer than the
        // configured budget — missing packets would otherwise stall the
        // pipeline (and, via flow control, the whole fronthaul) until
        // end-of-input.
        if let Some(deadline) = self.kernels.cfg.frame_deadline_ns.filter(|_| !table.is_empty()) {
            let now = start.elapsed();
            expired.clear();
            expired.extend(table.expired(now.as_nanos() as u64, deadline));
            if !expired.is_empty() {
                busy = true;
                *last_progress = now;
                expired.iter().for_each(|&frame| table.abandon(frame));
                // Queued tasks must never run against a freed slot;
                // tasks a worker already holds drain as completions.
                self.flush_abandoned(ctx, table);
                for &frame in expired.iter() {
                    self.retire(ctx, table, frame, results);
                }
            }
        }
        if busy {
            return true;
        }

        // 4. Stall rules. Nothing has arrived or completed for a while
        // and nothing is queued: whatever is unfinished is missing
        // packets.
        let stalled = start.elapsed() - *last_progress > STALL
            && self.queues.tasks.iter().all(|q| q.is_empty())
            && self.queues.lanes.iter().all(|l| l.is_empty());
        if !stalled {
            return false;
        }
        // End of input: the network thread has delivered all it ever
        // will, so that holds for every frame of this call still
        // unfinished. Give them up rather than spin forever.
        if net_done.load(Ordering::Acquire) {
            for frame in table.watermark()..*end {
                table.abandon(frame);
                self.retire(ctx, table, frame, results);
            }
            return true;
        }
        // Flow control: the network thread holds a packet a whole window
        // above the watermark and admits nothing more until the watermark
        // moves, and the watermark frame has nothing left to run. Give it
        // up, whatever state its slot is in — without a deadline nothing
        // else would, the network thread would wait on it for good and
        // `net_done` would never come. The table's length cannot say
        // this: when the frame at the top of the window lost every
        // packet, the table spans one frame less.
        if self.held.load(Ordering::Relaxed) {
            let frame = table.watermark();
            table.abandon(frame);
            self.retire(ctx, table, frame, results);
            *last_progress = start.elapsed();
            return true;
        }
        false
    }

    /// Reads out a finished frame's result, counts it, and moves the
    /// flow-control watermark to the table's. No-op while the frame still
    /// has tasks in flight (its last completion retires it).
    fn retire(
        &self,
        ctx: &mut ManagerCtx,
        table: &mut FrameTable,
        frame: u32,
        results: &mut Vec<FrameResult>,
    ) {
        let Some(done) = table.retire(frame) else { return };
        ctx.forget(frame);
        let result = self.frame_result(frame, done);
        if result.dropped {
            self.stats.add(Counter::PacketsLost, result.lost_packets as u64);
            self.stats.add(Counter::FramesDropped, 1);
        } else {
            self.stats.add(Counter::FramesCompleted, 1);
        }
        results.push(result);
        // Release: the result is read out and nothing of the retired
        // frames is in flight — the network thread (Acquire) may now
        // reuse every slot below the watermark.
        self.min_frame.store(table.watermark() as u64, Ordering::Release);
    }

    /// Places what one table call emitted — one batch per run of
    /// messages for the same (task, symbol) — and empties `out`.
    fn place(&self, ctx: &mut ManagerCtx, out: &mut Vec<Msg>) {
        for batch in out.chunk_by(|a, b| (a.task, a.symbol) == (b.task, b.symbol)) {
            self.place_batch(ctx, batch);
        }
        out.clear();
    }

    /// Places a batch of task messages: pick the affinity lane for the
    /// batch's (frame, symbol) — the worker whose caches last held those
    /// buffers — falling back to the least-loaded lane; enqueue the whole
    /// batch with one cursor claim; overflow any tail to the shared
    /// per-type queues; wake parked workers once. Imbalance from affinity
    /// clustering is corrected by stealing, not by the manager.
    fn place_batch(&self, ctx: &mut ManagerCtx, msgs: &[Msg]) {
        let lanes = &self.queues.lanes;
        let lane_id = ctx.lane_of(&msgs[0]).unwrap_or_else(|| {
            // Least-loaded fallback, round-robin start so equal
            // depths spread instead of piling onto worker 0.
            let start = ctx.rr;
            ctx.rr = (ctx.rr + 1) % lanes.len();
            let mut best = start;
            let mut best_len = lanes[start].len();
            for off in 1..lanes.len() {
                let i = (start + off) % lanes.len();
                let l = lanes[i].len();
                if l < best_len {
                    best = i;
                    best_len = l;
                }
            }
            best
        });
        let lane = &lanes[lane_id];
        let depth = lane.len();
        let fit = lane.push_batch(msgs);
        if fit > 0 {
            self.stats.add(Counter::LanePushes, fit as u64);
            self.stats.max(Counter::LaneDepthMax, (depth + fit) as u64);
        }
        if fit < msgs.len() {
            self.stats.add(Counter::LaneOverflows, (msgs.len() - fit) as u64);
            self.push_shared(&msgs[fit..]);
        }
        ctx.set_lane(&msgs[0], lane_id);
        if self.queues.gate.wake_all() {
            self.stats.add(Counter::Wakes, 1);
        }
    }

    /// Pushes a run of same-type messages into their shared queue with
    /// one cursor claim. The queue holds every message of its type the
    /// cell can have in flight, so the run always fits.
    fn push_shared(&self, msgs: &[Msg]) {
        let fit = self.queues.queue(msgs[0].task).push_batch(msgs);
        assert_eq!(fit, msgs.len(), "a shared queue holds every task of its type in flight");
    }

    /// Removes every queued task of an abandoning frame, crediting its
    /// in-flight count. Tasks a worker already popped complete normally
    /// and drain through the completion queue — the frame's slot stays
    /// valid until its count reaches zero, so workers never observe a
    /// freed buffer. The manager is the only task-queue producer, so
    /// pop-all / re-push cannot chase its own tail. Survivors go back to
    /// the shared queues, which are sized to absorb every in-flight
    /// message, lane survivors included.
    fn flush_abandoned(&self, ctx: &mut ManagerCtx, table: &mut FrameTable) {
        let scratch = &mut ctx.flush_scratch;
        let mut sweep = |pop: &mut dyn FnMut(&mut Vec<Msg>) -> usize| {
            scratch.clear();
            while pop(scratch) > 0 {}
            for msg in scratch.iter().filter(|msg| !table.credit_flushed(msg.frame)) {
                self.push_shared(std::slice::from_ref(msg));
            }
        };
        for q in &self.queues.tasks {
            sweep(&mut |buf| q.pop_batch(buf, COMPLETE_BATCH));
        }
        for lane in &self.queues.lanes {
            sweep(&mut |buf| lane.pop_batch(buf, COMPLETE_BATCH));
        }
        if self.queues.gate.wake_all() {
            self.stats.add(Counter::Wakes, 1);
        }
    }

    /// The result of a retired frame: what its uplink decodes left in the
    /// frame's buffers, or — when no packet of it ever arrived, so
    /// nothing was written and the window slot may hold another frame's
    /// data — an empty result.
    fn frame_result(&self, frame: u32, done: Retired) -> FrameResult {
        let Retired { milestones, lost_packets, dropped } = done;
        let uplink = self.kernels.cfg.cell.schedule.uplink_indices();
        let written = if milestones.is_some() { &uplink[..] } else { &[] };
        // The frame is finished with nothing in flight: no writers remain.
        let (decoded, decode_ok) = self.window.slot(frame).read_decoded(written);
        let milestones = milestones.unwrap_or_default();
        FrameResult { frame, milestones, decoded, decode_ok, dropped, lost_packets }
    }
}

/// True if any lane or shared queue holds work. The final check before
/// parking: taken *after* the gate epoch snapshot, so a push racing with
/// the park bumps the epoch and the park returns at once.
fn has_work(queues: &TaskQueues) -> bool {
    queues.lanes.iter().any(|l| !l.is_empty()) || queues.tasks.iter().any(|q| !q.is_empty())
}

/// The worker routine of every pool: serves whichever of `cells` the
/// `assigned` index names, re-reading it (Acquire) every trip so a
/// migration takes effect at the next poll — any in-hand batch finishes
/// on the old cell first. An [`Engine`] is the one-cell case whose
/// assignment never changes. Scratch is per cell (geometries differ).
fn worker_loop(wid: usize, cells: &[CellCore], assigned: &AtomicUsize, shutdown: &AtomicBool) {
    let mut scratches: Vec<WorkerScratch> = cells.iter().map(|c| c.kernels.scratch()).collect();
    let mut batch: Vec<Msg> = Vec::with_capacity(WORKER_BATCH);
    let mut done: Vec<Msg> = Vec::with_capacity(WORKER_BATCH);
    let mut backoff = IdleBackoff::new();
    while !shutdown.load(Ordering::Acquire) {
        let cell = assigned.load(Ordering::Acquire);
        let core = &cells[cell];
        let (queues, stats) = (&*core.queues, &*core.stats);
        batch.clear();
        // 1. Own lane: a batch per cursor claim.
        queues.lanes[wid].pop_batch(&mut batch, WORKER_BATCH);
        // 2. Shared per-type queues in priority order (lane overflow
        //    traffic).
        if batch.is_empty() {
            for t in PRIORITY {
                if let Some(msg) = queues.queue(t).pop() {
                    batch.push(msg);
                    break;
                }
            }
        }
        // 3. Steal: scan the same cell's peer lanes from our right-hand
        //    neighbour, taking half a victim's backlog in one claim.
        if batch.is_empty() {
            for off in 1..queues.lanes.len() {
                let victim = (wid + off) % queues.lanes.len();
                let n = queues.lanes[victim].steal_batch(&mut batch, WORKER_BATCH);
                if n > 0 {
                    stats.add(Counter::Steals, n as u64);
                    stats.add(Counter::StealBatches, 1);
                    break;
                }
            }
        }
        if !batch.is_empty() {
            backoff.reset();
            done.clear();
            let mut rest = &batch[..];
            while !rest.is_empty() {
                // A run of decode messages executes as one; each is still
                // recorded, with its share of the time, and completed.
                let (run, after) = rest.split_at(decode_run(rest, core.kernels.packs_pairs()));
                let mut msg = run[0];
                msg.count = run.iter().map(|m| m.count).sum();
                let t0 = Instant::now();
                execute(&core.kernels, &core.window, &mut scratches[cell], &msg);
                let ns = t0.elapsed().as_nanos() as u64;
                for m in run {
                    let share =
                        if run.len() == 1 { ns } else { ns * m.count as u64 / msg.count as u64 };
                    stats.record(wid, m.task, m.count as u64, share);
                    done.push(m.complete(wid as u16));
                }
                rest = after;
            }
            // Completion pushes amortised: one claim per batch.
            let mut off = 0;
            while off < done.len() {
                let n = queues.complete.push_batch(&done[off..]);
                if n == 0 {
                    std::thread::yield_now();
                }
                off += n;
            }
            continue;
        }
        // 4. Idle: spin → yield → park.
        match backoff.next() {
            IdleAction::Spin => std::hint::spin_loop(),
            IdleAction::Yield => std::thread::yield_now(),
            IdleAction::Park => {
                let seen = queues.gate.epoch();
                // Re-checks ordered after the epoch snapshot: work pushed
                // (or a reassignment applied — the supervisor wakes every
                // gate) in between bumps the epoch and the park falls
                // through.
                if has_work(queues)
                    || assigned.load(Ordering::Acquire) != cell
                    || shutdown.load(Ordering::Acquire)
                {
                    continue;
                }
                stats.add(Counter::Parks, 1);
                queues.gate.park(seen, PARK_TIMEOUT);
            }
        }
    }
}

/// How many messages at the front of `batch` run as one [`execute`]:
/// when the kernels decode users in pairs, a run of `Decode` messages of
/// one frame and symbol whose users follow on from each other; one
/// message otherwise.
fn decode_run(batch: &[Msg], packs_pairs: bool) -> usize {
    let first = batch[0];
    if !packs_pairs || first.task != TaskType::Decode {
        return 1;
    }
    let mut next = first.base + first.count;
    let joins = |m: &&Msg| {
        let join = m.task == TaskType::Decode
            && (m.frame, m.symbol) == (first.frame, first.symbol)
            && m.base == next;
        next += m.count;
        join
    };
    1 + batch[1..].iter().take_while(joins).count()
}

/// Runs the kernel(s) a task message stands for — the only
/// message-to-kernel mapping; the inline processor calls it too. An
/// (I)FFT message of any size runs as one batched transform.
pub(crate) fn execute(
    kernels: &Kernels,
    window: &FrameWindow,
    scratch: &mut WorkerScratch,
    msg: &Msg,
) {
    let fb = window.slot(msg.frame);
    let symbol = msg.symbol as usize;
    let base = msg.base as usize;
    let count = msg.count as usize;
    match msg.task {
        TaskType::Fft => kernels.fft_batch_task(fb, scratch, symbol, base, count),
        TaskType::Zf => {
            for group in base..base + count {
                kernels.zf_task(fb, scratch, group);
            }
        }
        TaskType::Demod => kernels.demod_task(fb, scratch, msg.frame, symbol, base, count),
        TaskType::Decode => kernels.decode_users_task(fb, scratch, symbol, base, count),
        TaskType::Encode => {
            for user in base..base + count {
                kernels.encode_task(fb, msg.frame, symbol, user);
            }
        }
        TaskType::Precode => kernels.precode_task(fb, scratch, symbol, base, count),
        TaskType::Ifft => kernels.ifft_batch_task(fb, scratch, symbol, base, count),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::deploy::{Deployment, DeploymentConfig};
    use agora_fronthaul::{MemFronthaul, RruConfig, RruEmulator};
    use agora_phy::CellConfig;

    /// A worker runs adjacent decode messages as one only when the kernels
    /// pack pairs and the messages share frame and symbol with users that
    /// follow on from each other.
    #[test]
    fn decode_runs_join_contiguous_users_of_one_symbol() {
        let decode =
            |frame, symbol, base, count| Msg::task(TaskType::Decode, frame, symbol, base, count);
        let run = |batch: &[Msg]| decode_run(batch, true);
        let users =
            [decode(3, 2, 0, 1), decode(3, 2, 1, 1), decode(3, 2, 2, 2), decode(3, 2, 4, 1)];
        assert_eq!(run(&users), 4);
        assert_eq!(decode_run(&users, false), 1, "kernels that do not pack run each alone");
        assert_eq!(run(&users[2..]), 2);
        assert_eq!(run(&[decode(3, 2, 0, 1), decode(3, 2, 2, 1)]), 1, "a gap in the users");
        assert_eq!(run(&[decode(3, 2, 1, 1), decode(3, 2, 0, 1)]), 1, "users out of order");
        assert_eq!(run(&[decode(3, 2, 0, 1), decode(4, 2, 1, 1)]), 1, "another frame");
        assert_eq!(run(&[decode(3, 2, 0, 1), decode(3, 3, 1, 1)]), 1, "another symbol");
        let encode = Msg::task(TaskType::Encode, 3, 2, 1, 1);
        assert_eq!(run(&[decode(3, 2, 0, 1), encode]), 1, "another task type");
        assert_eq!(run(&[encode, decode(3, 2, 2, 1)]), 1, "only decodes join");
        let demod = Msg::task(TaskType::Demod, 3, 2, 1, 1);
        assert_eq!(run(&[decode(3, 2, 0, 1), decode(3, 2, 1, 1), demod]), 2);
    }

    /// A ZF completion names groups of the frame, never a symbol: the
    /// lane that holds data symbol 2 stays its lane.
    #[test]
    fn zf_completion_leaves_data_symbol_affinity_alone() {
        let (window, symbols) = (4, 6);
        let mut ctx = ManagerCtx::new(window, symbols);
        let demod = Msg::task(TaskType::Demod, 5, 2, 0, 8);
        assert_eq!(ctx.lane_of(&demod), None);
        ctx.set_lane(&demod.complete(1), 1);
        assert_eq!(ctx.lane_of(&demod), Some(1));

        // The ZF messages a frame table emits once frame 5's pilots are in.
        let shape = crate::state::FrameShape { m: 2, k: 2, q: 16, zf_groups: 6 };
        let batch = crate::config::BatchSizes { zf: 2, ..Default::default() };
        let schedule = agora_phy::frame::FrameSchedule::parse("PUU").unwrap();
        let mut table = FrameTable::new(schedule, shape, batch, false, 5);
        let (mut fft, mut zf) = (Vec::new(), Vec::new());
        for antenna in 0..2 {
            table.on_packet(5, 0, antenna, 0, &mut fft);
        }
        for msg in &fft {
            table.on_complete(msg, 0, &mut zf);
        }
        assert_eq!(zf.len(), 3, "six groups, two per message");
        for msg in &zf {
            ctx.set_lane(&msg.complete(0), 0);
        }
        assert_eq!(ctx.lane_of(&demod), Some(1));
        assert!(zf.iter().all(|m| ctx.lane_of(m).is_none()), "ZF homes no symbol at all");

        // Retirement forgets the frame's row and no other.
        let other = Msg::task(TaskType::Demod, 6, 2, 0, 8);
        ctx.set_lane(&other, 0);
        ctx.forget(5);
        assert_eq!(ctx.lane_of(&demod), None);
        assert_eq!(ctx.lane_of(&other), Some(0));
    }

    /// The depth high-water mark counts the batch being placed: one
    /// batch of `n` messages onto an empty lane reports `n`.
    #[test]
    fn lane_depth_counts_the_batch_just_placed() {
        let core = CellCore::new(EngineConfig::new(CellConfig::tiny_test(2), 1), 1);
        let mut ctx = ManagerCtx::new(core.window.window(), core.kernels.geom.symbols);
        let batch: Vec<Msg> = (0..5).map(|i| Msg::task(TaskType::Demod, 0, 1, 8 * i, 8)).collect();
        core.place_batch(&mut ctx, &batch);
        assert_eq!(core.stats.get(Counter::LanePushes), 5);
        assert_eq!(core.stats.get(Counter::LaneDepthMax), 5);
        assert_eq!(core.queues.lanes[0].len(), 5);
    }

    /// Every message of a type the cell can have in flight fits its
    /// shared queue: a lane-overflowing window's worth, pushed at once.
    #[test]
    fn shared_queues_hold_a_window_of_their_type() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 1);
        cfg.batch = crate::config::BatchSizes::ones();
        let core = CellCore::new(cfg.clone(), 1);
        let (schedule, batch) = (cfg.cell.schedule.clone(), core.kernels.cfg.batch);
        let table = FrameTable::new(schedule, core.kernels.shape, batch, false, 0);
        for t in TaskType::COMPUTE {
            let n = cfg.frame_window * table.max_messages_per_frame()[crate::stats::type_index(t)];
            let msgs = vec![Msg::task(t, 0, 0, 0, 1); n];
            if n > 0 {
                core.push_shared(&msgs);
            }
            assert_eq!(core.queues.queue(t).len(), n, "{t:?}");
        }
    }

    /// `frame_window + 2` frames, frame `f` keeping only the packets
    /// `keep(f, i)` selects (by index `i` within the frame), through the
    /// engine and again as cell 1 of a two-cell deployment whose cell 0
    /// loses nothing. In both runs every frame comes back, in order, each
    /// short one dropped and charged with exactly the packets it lost, the
    /// others decoded to ground truth, and the ledger reconciles; cell 0
    /// decodes every frame.
    fn run_with_short_frames(deadline_ns: Option<u64>, keep: impl Fn(u32, usize) -> bool) {
        let cell = CellConfig::tiny_test(2);
        let rru = |cell_id, seed| {
            let cfg = RruConfig { snr_db: 30.0, seed, cell_id, ..Default::default() };
            RruEmulator::new(cell.clone(), cfg)
        };
        // Stamped cell 1 for the deployment; the engine reads no cell byte.
        let (mut rru, mut full_rru) = (rru(1, 45), rru(0, 46));
        let mut cfg = EngineConfig::new(cell.clone(), 2);
        cfg.noise_power = rru.noise_power();
        cfg.frame_deadline_ns = deadline_ns;
        let frames = cfg.frame_window as u32 + 2;
        let (mut packets, mut both) = (Vec::new(), Vec::new());
        let (mut gts, mut full_gts) = (Vec::new(), Vec::new());
        let mut lost = Vec::new();
        for f in 0..frames {
            let (p, gt) = rru.generate_frame(f);
            let sent = p.len();
            let kept = p.into_iter().enumerate().filter(|&(i, _)| keep(f, i));
            let kept: Vec<_> = kept.map(|(_, pkt)| pkt).collect();
            lost.push(sent - kept.len());
            let (full, full_gt) = full_rru.generate_frame(f);
            both.extend(full);
            both.extend(kept.iter().cloned());
            packets.extend(kept);
            gts.push(gt);
            full_gts.push(full_gt);
        }
        let short = lost.iter().filter(|&&n| n > 0).count() as u64;
        assert!(short > 0, "some frame must lose something");
        let check = |results: &[FrameResult], stats: &EngineStats| {
            assert_eq!(
                results.iter().map(|r| r.frame).collect::<Vec<_>>(),
                (0..frames).collect::<Vec<_>>()
            );
            for r in results {
                let lost = lost[r.frame as usize];
                if lost > 0 {
                    assert!(r.dropped, "frame {}", r.frame);
                    assert_eq!(r.lost_packets as usize, lost, "charged with exactly what it lost");
                    continue;
                }
                assert!(!r.dropped && r.lost_packets == 0, "frame {}", r.frame);
                for symbol in cell.schedule.uplink_indices() {
                    assert_eq!(r.decoded[symbol], gts[r.frame as usize].info_bits[symbol]);
                }
            }
            assert_eq!(stats.get(Counter::PacketsLost), lost.iter().sum::<usize>() as u64);
            assert_eq!(
                (stats.get(Counter::FramesCompleted), stats.get(Counter::FramesDropped)),
                (frames as u64 - short, short)
            );
            assert_eq!(
                (stats.get(Counter::PacketsLate), stats.get(Counter::PacketsDuplicate)),
                (0, 0)
            );
        };
        let done = AtomicBool::new(true);
        let engine = Engine::new(cfg.clone());
        let results = engine.process_fronthaul(&MemFronthaul::preloaded(&packets), frames, &done);
        check(&results, engine.stats());

        let mut full_cfg = cfg.clone();
        full_cfg.noise_power = full_rru.noise_power();
        let deployment = Deployment::new(DeploymentConfig::new(vec![full_cfg, cfg], 2));
        let results = deployment.process_fronthaul(&MemFronthaul::preloaded(&both), frames, &done);
        check(&results[1], deployment.stats().cell(1));
        for r in &results[0] {
            assert!(!r.dropped, "cell 0 frame {}", r.frame);
            for symbol in cell.schedule.uplink_indices() {
                assert_eq!(r.decoded[symbol], full_gts[r.frame as usize].info_bits[symbol]);
            }
        }
        assert_eq!(results[0].len(), frames as usize);
    }

    /// A frame none of whose packets arrive must not pin flow control:
    /// with more than a window of frames behind it the network thread
    /// waits on the watermark, so the vacant slot has to expire with the
    /// frames finishing above it — the deadline is generous, the lost
    /// frame goes with its neighbours, not by time.
    #[test]
    fn wholly_lost_frame_beyond_the_window_is_dropped_not_waited_for() {
        run_with_short_frames(Some(30_000_000_000), |f, _| f != 1);
    }

    /// The same streams with no deadline at all: once the network thread
    /// is held by flow control and nothing moves, the manager gives the
    /// watermark frame up, which is what lets the network thread go on —
    /// whether the frame lost every packet or a single one.
    #[test]
    fn wholly_lost_frame_beyond_the_window_is_dropped_without_a_deadline() {
        run_with_short_frames(None, |f, _| f != 1);
    }

    #[test]
    fn frame_one_packet_short_beyond_the_window_is_dropped_without_a_deadline() {
        run_with_short_frames(None, |f, i| f != 1 || i != 5);
    }

    /// Frame 1 one packet short and frame 4, the top of the window above
    /// it, wholly lost, with no deadline: the table then spans one frame
    /// less than the window while the network thread waits to admit frame
    /// 5, so it is the network thread's own signal, not the table's
    /// length, that lets the manager give frame 1 up.
    #[test]
    fn wholly_lost_frame_at_the_top_of_a_full_window_is_dropped_without_a_deadline() {
        run_with_short_frames(None, |f, i| match f {
            1 => i != 5,
            4 => false,
            _ => true,
        });
    }

    /// Driving the engine off a [`Fronthaul`] link must decode to ground
    /// truth, drain the link in whole batches, and surface the
    /// batch/error observability counters — with its threads pinned too.
    #[test]
    fn process_fronthaul_drains_batches_and_records_stats() {
        let cell = CellConfig::tiny_test(2);
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig { snr_db: 30.0, seed: 9, ..Default::default() },
        );
        let frames = 2u32;
        // One malformed datagram rides along; intake must count and
        // skip it without disturbing the frames.
        let mut packets = vec![bytes::Bytes::from(vec![0xFFu8; 32])];
        let mut gts = Vec::new();
        for f in 0..frames {
            let (p, gt) = rru.generate_frame(f);
            packets.extend(p);
            gts.push(gt);
        }
        let total = packets.len() as u64;
        // Unpinned first: pinning binds this test's thread for good.
        for pin in [false, true] {
            let rx = MemFronthaul::preloaded(&packets);
            let mut cfg = EngineConfig::new(cell.clone(), 2);
            cfg.noise_power = rru.noise_power();
            cfg.pin_cores = pin;
            let rx_batch = cfg.rx_batch as u64;
            let engine = Engine::new(cfg);
            // Everything is already queued, so the producer is done.
            let done = AtomicBool::new(true);
            let results = engine.process_fronthaul(&rx, frames, &done);
            assert_eq!(results.len(), frames as usize);
            for r in &results {
                assert!(!r.dropped, "frame {} dropped", r.frame);
                let gt = &gts[r.frame as usize];
                for symbol in cell.schedule.uplink_indices() {
                    for user in 0..cell.num_users {
                        assert!(
                            r.decode_ok[symbol][user],
                            "frame {} sym {symbol} u {user}",
                            r.frame
                        );
                        assert_eq!(r.decoded[symbol][user], gt.info_bits[symbol][user]);
                    }
                }
            }
            let stats = engine.stats();
            assert_eq!(stats.rx_batch_packets(), total, "every queued packet drained");
            assert!(stats.rx_batches() >= total.div_ceil(rx_batch), "batch count sanity");
            assert!(
                stats.get(Counter::RxBatchMax) <= rx_batch,
                "polls bounded by the configured batch"
            );
            assert!(
                stats.get(Counter::RxBatchMax) > 1,
                "a pre-filled link must drain multi-packet batches"
            );
            assert_eq!(stats.get(Counter::RxErrors), 1, "the malformed datagram is counted");
            assert_eq!(
                (stats.get(Counter::LinkTxErrors), stats.get(Counter::LinkRxErrors)),
                (0, 0),
                "in-memory link has no socket errors"
            );
        }
    }
}
