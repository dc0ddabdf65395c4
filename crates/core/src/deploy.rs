//! Multi-cell deployment: C independent cells on one shared worker-core
//! budget.
//!
//! The paper's engine serves one `M × K` cell; a production site serves
//! many from the same server. A [`Deployment`] is the engine's worker
//! pool with one [`CellCore`](crate::engine) per cell — its own frame
//! window, task queues, stats and flow-control watermark, so cells never
//! share frame state. Each worker is *assigned* to one cell at a time (an
//! atomic it re-reads every poll) and executes only that cell's queues,
//! giving strict per-cell buffer ownership: a worker finishes its current
//! task before an assignment change takes effect, and task/completion
//! queue edges order all buffer access.
//!
//! One manager thread serves every cell, as Agora's single master does:
//! each pass drains every cell's packet notifications and completions,
//! and applies each cell's deadline and stall rules against that cell's
//! own progress time.
//!
//! A supervisor generalizes the §5.4 core-allocation solver from
//! task-groups-within-a-cell to cells-within-a-server: each epoch it
//! samples per-cell busy time from [`EngineStats`], solves for the
//! load-proportional core split, and migrates at most a few workers
//! toward overloaded cells — gated by hysteresis so balanced loads never
//! thrash. Epochs are counted in completed frames, not wall-clock time,
//! so supervised runs are reproducible in tests. The manager checks for
//! a finished epoch after every pass that retired a frame.
//!
//! One fronthaul socket feeds all cells: one intake thread drains
//! `recv_batch` and routes each packet by its header cell byte via
//! [`CellDemux`]. Packets naming a cell outside the deployment are
//! counted (`packets_misrouted`) and dropped — never delivered to cell 0.

use crate::alloc::{allocate_weighted, ShareWork};
use crate::config::EngineConfig;
use crate::engine::{CellCore, FrameResult, Pool};
use crate::stats::{Counter, EngineStats};
use agora_fronthaul::demux::CellDemux;
use agora_fronthaul::Fronthaul;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Frames (summed across cells) per reallocation epoch.
const EPOCH_FRAMES: u64 = 4;

/// A worker migrates only when the receiving cell's per-core load
/// exceeds the donor's by this fraction (0.25 = 25%). Keeps balanced
/// deployments from thrashing cores back and forth.
const HYSTERESIS: f64 = 0.25;

/// Upper bound on worker migrations per epoch (gradual rebalancing).
const MAX_MOVES_PER_EPOCH: usize = 1;

/// Every cell keeps at least this many workers, no matter how idle.
const MIN_CORES_PER_CELL: usize = 1;

/// The cells-over-shared-cores core reallocator: the §5.4 solver with
/// cells as the competing shares, plus hysteresis-gated migration.
///
/// Pure state machine — [`Supervisor::step`] maps a per-cell busy-time
/// sample to the next allocation with no clocks or randomness, so tests
/// drive it deterministically.
#[derive(Debug)]
pub(crate) struct Supervisor {
    alloc: Vec<usize>,
    migrations: u64,
}

impl Supervisor {
    /// Even initial split of `total_cores` over `num_cells` (remainder
    /// to the lowest cell ids).
    ///
    /// # Panics
    /// If the budget cannot give every cell its minimum.
    pub(crate) fn new(num_cells: usize, total_cores: usize) -> Self {
        assert!(num_cells > 0, "a deployment has at least one cell");
        assert!(
            total_cores >= num_cells * MIN_CORES_PER_CELL,
            "core budget {total_cores} below {num_cells} cells x {MIN_CORES_PER_CELL} minimum",
        );
        let base = total_cores / num_cells;
        let rem = total_cores % num_cells;
        let alloc = (0..num_cells).map(|c| base + usize::from(c < rem)).collect();
        Self { alloc, migrations: 0 }
    }

    /// Current cores-per-cell allocation.
    pub(crate) fn allocation(&self) -> &[usize] {
        &self.alloc
    }

    /// Total workers migrated since start.
    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    /// One reallocation epoch: `busy_ns[c]` is cell `c`'s busy time over
    /// the elapsed epoch. Returns the (possibly updated) allocation.
    ///
    /// The target split comes from [`allocate_weighted`] — the same
    /// greedy latency-minimiser the pipeline variant uses, with each
    /// cell's floor at [`MIN_CORES_PER_CELL`]. The supervisor then walks
    /// toward the target with at most [`MAX_MOVES_PER_EPOCH`] single-core
    /// moves, each gated on the receiver's per-core load exceeding the
    /// donor's by the [`HYSTERESIS`] margin.
    pub(crate) fn step(&mut self, busy_ns: &[u64]) -> &[usize] {
        assert_eq!(busy_ns.len(), self.alloc.len(), "one busy sample per cell");
        let total: usize = self.alloc.iter().sum();
        let min = MIN_CORES_PER_CELL;
        // Leave every *other* cell its floor; the rest is one cell's cap.
        let cap = total - (self.alloc.len() - 1) * min;
        let work: Vec<ShareWork> =
            busy_ns.iter().map(|&b| ShareWork { total_ns: b, max_parallelism: cap }).collect();
        // `frame_ns = u64::MAX` disables the keep-up minimum (an epoch
        // has no deadline); floors come from `min_cores`. The budget
        // always suffices: `new` checked `total >= cells * min`.
        let target = allocate_weighted(&work, total, u64::MAX, min)
            .expect("allocation feasible by construction");

        let load = |busy: u64, cores: usize| busy as f64 / cores as f64;
        for _ in 0..MAX_MOVES_PER_EPOCH {
            // Receiver: the under-target cell with the worst per-core
            // load; donor: the over-target cell with the best.
            let recv =
                (0..self.alloc.len()).filter(|&c| self.alloc[c] < target[c]).max_by(|&a, &b| {
                    load(busy_ns[a], self.alloc[a])
                        .partial_cmp(&load(busy_ns[b], self.alloc[b]))
                        .unwrap()
                });
            let donor = (0..self.alloc.len())
                .filter(|&c| self.alloc[c] > target[c] && self.alloc[c] > min)
                .min_by(|&a, &b| {
                    load(busy_ns[a], self.alloc[a])
                        .partial_cmp(&load(busy_ns[b], self.alloc[b]))
                        .unwrap()
                });
            let (Some(r), Some(d)) = (recv, donor) else { break };
            let l_recv = load(busy_ns[r], self.alloc[r]);
            let l_donor = load(busy_ns[d], self.alloc[d]);
            if l_recv <= l_donor * (1.0 + HYSTERESIS) {
                break;
            }
            self.alloc[d] -= 1;
            self.alloc[r] += 1;
            self.migrations += 1;
        }
        &self.alloc
    }
}

/// Configuration for a multi-cell deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// One engine configuration per cell (index = cell id on the wire).
    /// Each cell's `num_workers` and `pin_cores` fields are ignored —
    /// workers come from the shared pool, which this config pins.
    pub cells: Vec<EngineConfig>,
    /// Shared worker-core budget across all cells.
    pub total_workers: usize,
    /// Packets requested per `recv_batch` poll on the shared socket.
    pub rx_batch: usize,
    /// Pin the manager, intake and pool threads to distinct CPUs
    /// (best-effort, same map as [`EngineConfig::pin_cores`]).
    pub pin_cores: bool,
}

impl DeploymentConfig {
    /// Default batch sizing for the given cells/budget.
    pub fn new(cells: Vec<EngineConfig>, total_workers: usize) -> Self {
        Self { cells, total_workers, rx_batch: 32, pin_cores: false }
    }

    /// Sanity checks across the whole deployment.
    pub fn validate(&self) -> Result<(), String> {
        if self.cells.is_empty() {
            return Err("deployment needs at least one cell".into());
        }
        if self.cells.len() > u8::MAX as usize + 1 {
            return Err("cell ids are one byte on the wire: at most 256 cells".into());
        }
        if self.total_workers < self.cells.len() {
            return Err(format!(
                "total_workers {} below one per cell for {} cells",
                self.total_workers,
                self.cells.len()
            ));
        }
        if self.rx_batch == 0 {
            return Err("rx batch must be at least 1".into());
        }
        for (c, cell) in self.cells.iter().enumerate() {
            let mut cfg = cell.clone();
            cfg.num_workers = 1; // pooled: the per-cell field is unused
            cfg.validate().map_err(|e| format!("cell {c}: {e}"))?;
        }
        Ok(())
    }
}

/// Aggregated deployment statistics: per-cell [`EngineStats`] plus the
/// shared link's counters (rx batches, socket errors, misrouted
/// packets), with a merged roll-up view.
#[derive(Clone)]
pub struct DeploymentStats {
    cells: Vec<Arc<EngineStats>>,
    link: Arc<EngineStats>,
    total_workers: usize,
}

impl DeploymentStats {
    /// One cell's counters.
    pub fn cell(&self, c: usize) -> &EngineStats {
        &self.cells[c]
    }

    /// The shared link's counters (rx batches, link errors, misrouted).
    pub fn link(&self) -> &EngineStats {
        &self.link
    }

    /// Merges link + every cell into one fresh sink.
    pub fn rollup(&self) -> EngineStats {
        let total = EngineStats::new(self.total_workers);
        total.merge(&self.link);
        for c in &self.cells {
            total.merge(c);
        }
        total
    }

    /// Per-cell frame/packet ledgers plus the rolled-up summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (c, s) in self.cells.iter().enumerate() {
            out.push_str(&format!("cell {c}: {}", s.summary()));
        }
        out.push_str(&format!("total: {}", self.rollup().summary()));
        out
    }
}

struct SupervisorState {
    supervisor: Supervisor,
    /// Per-cell cumulative busy-ns at the last epoch boundary.
    last_busy: Vec<u64>,
    /// Total completed+dropped frames that end the next epoch.
    next_epoch: u64,
}

/// C cells sharing one worker pool, one manager, one fronthaul socket,
/// and a core-reallocation supervisor.
pub struct Deployment {
    pool: Pool,
    stats: DeploymentStats,
    demux: CellDemux,
    sup: Mutex<SupervisorState>,
}

impl Deployment {
    /// Builds the per-cell cores and spawns the shared worker pool.
    ///
    /// # Panics
    /// If `cfg` fails [`DeploymentConfig::validate`].
    pub fn new(cfg: DeploymentConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid deployment config: {e}"));
        let total = cfg.total_workers;
        // Every cell's lane array and busy-time table is sized to the
        // GLOBAL pool: any worker may be assigned to any cell, and it
        // drains/steals lanes of its current cell only, indexed by its
        // global worker id.
        let cells: Vec<CellCore> = cfg.cells.into_iter().map(|c| CellCore::new(c, total)).collect();
        let supervisor = Supervisor::new(cells.len(), total);
        // Initial worker->cell map from the even split.
        let assign = (supervisor.allocation().iter().enumerate())
            .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
            .collect();
        let stats = DeploymentStats {
            cells: cells.iter().map(|c| c.stats.clone()).collect(),
            link: Arc::new(EngineStats::new(total)),
            total_workers: total,
        };
        let demux = CellDemux::new(cells.len());
        let sup = Mutex::new(SupervisorState {
            last_busy: vec![0; cells.len()],
            next_epoch: EPOCH_FRAMES,
            supervisor,
        });
        let pool = Pool::new(cells, assign, stats.link.clone(), cfg.rx_batch, cfg.pin_cores);
        Self { pool, stats, demux, sup }
    }

    /// Aggregated statistics (live).
    pub fn stats(&self) -> &DeploymentStats {
        &self.stats
    }

    /// The shared-socket demux counters (per-cell routed, misrouted,
    /// undecodable), cumulative across `process_fronthaul` calls.
    pub fn demux_stats(&self) -> &agora_fronthaul::demux::DemuxStats {
        self.demux.stats()
    }

    /// Snapshot of the supervisor's cores-per-cell allocation.
    pub fn allocation(&self) -> Vec<usize> {
        self.sup.lock().unwrap().supervisor.allocation().to_vec()
    }

    /// Workers migrated between cells since start.
    pub fn migrations(&self) -> u64 {
        self.sup.lock().unwrap().supervisor.migrations()
    }

    /// Processes `frames_per_cell` frames for every cell from one shared
    /// fronthaul link. An intake thread demuxes the link into the cells'
    /// intakes while the calling thread becomes the one manager of every
    /// cell and runs the supervisor. Returns `results[cell]` in frame
    /// order, exactly as each cell's standalone [`crate::Engine`] would.
    ///
    /// Per-cell flow control holds the *shared* intake when one cell's
    /// window is full (head-of-line blocking) — the same backpressure a
    /// shared socket has; the supervisor exists to shift cores before
    /// that point.
    pub fn process_fronthaul<F: Fronthaul + Sync + ?Sized>(
        &self,
        fh: &F,
        frames_per_cell: u32,
        producer_done: &AtomicBool,
    ) -> Vec<Vec<FrameResult>> {
        let demux = &self.demux;
        let route = |pkt: &[u8]| demux.classify(pkt);
        let on_retire = || self.maybe_reallocate();
        self.pool.process_fronthaul(fh, frames_per_cell, producer_done, route, on_retire)
    }

    /// Runs a supervisor epoch if enough frames completed since the last
    /// one, and applies any allocation change to the worker pool.
    fn maybe_reallocate(&self) {
        let done: u64 = self
            .stats
            .cells
            .iter()
            .map(|s| s.get(Counter::FramesCompleted) + s.get(Counter::FramesDropped))
            .sum();
        let mut st = self.sup.lock().expect("the supervisor never panics holding its lock");
        if done < st.next_epoch {
            return;
        }
        st.next_epoch = done + EPOCH_FRAMES;
        let busy: Vec<u64> = self.stats.cells.iter().map(|s| s.total_busy_ns()).collect();
        let delta: Vec<u64> =
            busy.iter().zip(&st.last_busy).map(|(b, l)| b.saturating_sub(*l)).collect();
        st.last_busy = busy;
        st.supervisor.step(&delta);
        self.apply_allocation(st.supervisor.allocation());
    }

    /// Reassigns the fewest workers that realize `alloc`: cells over
    /// their share yield their highest-numbered workers to cells under
    /// it. Running tasks finish on the old cell; the worker re-reads its
    /// assignment before every poll.
    fn apply_allocation(&self, alloc: &[usize]) {
        let assign = &self.pool.assign;
        let mut have = vec![0usize; alloc.len()];
        for a in assign.iter() {
            have[a.load(Ordering::Relaxed)] += 1;
        }
        let mut surplus: Vec<usize> = Vec::new();
        for (wid, a) in assign.iter().enumerate().rev() {
            let c = a.load(Ordering::Relaxed);
            if have[c] > alloc[c] {
                have[c] -= 1;
                surplus.push(wid);
            }
        }
        for (c, (&want, &h)) in alloc.iter().zip(&have).enumerate() {
            for _ in h..want {
                let wid = surplus.pop().expect("allocation sums preserved");
                assign[wid].store(c, Ordering::Release);
            }
        }
        // A reassigned worker may be parked on its OLD cell's gate; wake
        // every gate so it re-reads its assignment promptly instead of
        // waiting out the park timeout.
        for core in &self.pool.cells {
            core.queues.gate.wake_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_fronthaul::{
        Fronthaul, MemFronthaul, MultiCellGenerator, PacketBuf, RruConfig, RruEmulator,
    };
    use agora_phy::CellConfig;

    #[test]
    fn supervisor_initial_split_is_even() {
        let s = Supervisor::new(4, 8);
        assert_eq!(s.allocation(), &[2, 2, 2, 2]);
        let s = Supervisor::new(3, 8);
        assert_eq!(s.allocation(), &[3, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "core budget")]
    fn supervisor_rejects_budget_below_floor() {
        Supervisor::new(4, 3);
    }

    /// The acceptance-criteria scenario: one loaded cell among idle
    /// ones. The supervisor must move >= 1 core from an idle cell to the
    /// loaded one within a bounded number of epochs — no wall clock,
    /// pure `step` calls.
    #[test]
    fn skewed_load_migrates_cores_within_bounded_epochs() {
        let mut s = Supervisor::new(4, 8);
        // Cell 1 is saturated (8 ms busy per epoch); the rest are idle.
        let busy = [0u64, 8_000_000, 0, 0];
        let mut first_migration = None;
        for epoch in 1..=8 {
            s.step(&busy);
            if first_migration.is_none() && s.migrations() > 0 {
                first_migration = Some(epoch);
            }
        }
        assert_eq!(first_migration, Some(1), "an idle->loaded move happens immediately");
        // With max_moves 1/epoch and 3 donor cells at the floor of 1,
        // the allocation converges to [1, 5, 1, 1] within 3 epochs.
        assert_eq!(s.allocation(), &[1, 5, 1, 1]);
        assert_eq!(s.migrations(), 3, "converged: no further thrash after the target");
    }

    #[test]
    fn balanced_load_never_thrashes() {
        let mut s = Supervisor::new(2, 8);
        for _ in 0..16 {
            s.step(&[1_000_000, 1_050_000]); // within the 25% band
        }
        assert_eq!(s.migrations(), 0);
        assert_eq!(s.allocation(), &[4, 4]);
    }

    #[test]
    fn all_idle_cells_never_thrash() {
        let mut s = Supervisor::new(4, 8);
        for _ in 0..8 {
            s.step(&[0, 0, 0, 0]);
        }
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn load_reversal_migrates_back() {
        let mut s = Supervisor::new(2, 6);
        for _ in 0..4 {
            s.step(&[9_000_000, 0]);
        }
        assert_eq!(s.allocation(), &[5, 1]);
        for _ in 0..8 {
            s.step(&[0, 9_000_000]);
        }
        assert_eq!(s.allocation(), &[1, 5], "cores follow the load when it moves");
    }

    #[test]
    fn min_cores_floor_is_respected() {
        let mut s = Supervisor::new(3, 9);
        for _ in 0..16 {
            s.step(&[50_000_000, 0, 0]);
        }
        assert_eq!(s.allocation(), &[7, 1, 1], "the idle cells keep their floor of one");
    }

    fn tiny_cell_cfg(cell_id: u8, seed: u64) -> (EngineConfig, RruEmulator) {
        let cell = CellConfig::tiny_test(2);
        let rru = RruEmulator::new(
            cell.clone(),
            RruConfig { snr_db: 30.0, seed, cell_id, ..Default::default() },
        );
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = rru.noise_power();
        (cfg, rru)
    }

    /// End-to-end C=2: both cells decode their own ground truth from one
    /// shared link, and per-cell stats stay separate — with the pool's
    /// threads pinned too.
    #[test]
    fn two_cell_deployment_decodes_both_cells() {
        let frames = 2u32;
        // Unpinned first: pinning binds this test's thread for good.
        for pin_cores in [false, true] {
            let (cfg0, rru0) = tiny_cell_cfg(0, 301);
            let (cfg1, rru1) = tiny_cell_cfg(1, 302);
            let schedule = cfg0.cell.schedule.clone();
            let users = cfg0.cell.num_users;
            let mut generator = MultiCellGenerator::new(vec![rru0, rru1]);
            let (tx, rx) = MemFronthaul::pair(4096);
            let truths = generator.run(&tx, frames);

            let cfg = DeploymentConfig { pin_cores, ..DeploymentConfig::new(vec![cfg0, cfg1], 2) };
            let deployment = Deployment::new(cfg);
            let done = AtomicBool::new(true);
            let results = deployment.process_fronthaul(&rx, frames, &done);
            assert_eq!(results.len(), 2);
            for (cell, res) in results.iter().enumerate() {
                assert_eq!(res.len(), frames as usize, "cell {cell}");
                for r in res {
                    assert!(!r.dropped, "cell {cell} frame {} dropped", r.frame);
                    let gt = &truths[cell][r.frame as usize];
                    for symbol in schedule.uplink_indices() {
                        for user in 0..users {
                            assert!(r.decode_ok[symbol][user], "cell {cell} frame {}", r.frame);
                            assert_eq!(r.decoded[symbol][user], gt.info_bits[symbol][user]);
                        }
                    }
                }
            }
            let stats = deployment.stats();
            assert_eq!(stats.cell(0).get(Counter::FramesCompleted), frames as u64);
            assert_eq!(stats.cell(1).get(Counter::FramesCompleted), frames as u64);
            assert_eq!(stats.rollup().get(Counter::FramesCompleted), 2 * frames as u64);
            assert_eq!(stats.link().packets_misrouted(), 0);
        }
    }

    /// A link that scripts the interleaving a live producer only hits by
    /// chance: the consumer's first empty poll is followed at once by the
    /// producer's last burst and its `done` store.
    struct LateBurst<'a> {
        tx: MemFronthaul,
        rx: MemFronthaul,
        burst: Mutex<Vec<PacketBuf>>,
        done: &'a AtomicBool,
    }

    impl Fronthaul for LateBurst<'_> {
        fn send(&self, packet: PacketBuf) -> Result<(), PacketBuf> {
            self.tx.send(packet)
        }

        fn recv(&self) -> Option<PacketBuf> {
            self.rx.recv()
        }

        fn recv_batch(&self, out: &mut Vec<PacketBuf>, max: usize) -> usize {
            let n = self.rx.recv_batch(out, max);
            if n == 0 {
                let burst = std::mem::take(&mut *self.burst.lock().unwrap());
                if !burst.is_empty() {
                    for pkt in burst {
                        self.tx.send(pkt).expect("link sized for the burst");
                    }
                    self.done.store(true, Ordering::Release);
                }
            }
            n
        }
    }

    /// A burst that lands between an empty poll and the read of
    /// `producer_done` must still be received, by the engine and by the
    /// deployment: the intake loop reads the flag first, so only an empty
    /// poll *after* the flag was seen ends it. (Polling first left the
    /// burst on the link and its frame came back dropped once the stall
    /// detector fired.)
    #[test]
    fn burst_landing_after_an_empty_poll_is_still_received() {
        let (cfg, mut rru) = tiny_cell_cfg(0, 321);
        let late_burst = |rru: &mut RruEmulator, done| {
            let (tx, rx) = MemFronthaul::pair(1024);
            let burst = rru.generate_frame(0).0.into_iter().map(PacketBuf::Heap).collect();
            LateBurst { tx, rx, burst: Mutex::new(burst), done }
        };

        let done = AtomicBool::new(false);
        let link = late_burst(&mut rru, &done);
        let results = crate::Engine::new(cfg.clone()).process_fronthaul(&link, 1, &done);
        assert!(!results[0].dropped, "engine stranded the final burst");

        let done = AtomicBool::new(false);
        let link = late_burst(&mut rru, &done);
        let deployment = Deployment::new(DeploymentConfig::new(vec![cfg], 1));
        let results = deployment.process_fronthaul(&link, 1, &done);
        assert!(!results[0][0].dropped, "deployment stranded the final burst");
    }

    /// A second call on one engine covers the frames above the first
    /// call's: when its last frame never arrives, the end-of-input path
    /// must report *that* frame dropped — not frames 0 and 1 again, which
    /// the first call already returned.
    #[test]
    fn second_process_call_reports_only_its_own_frames() {
        let (cfg, mut rru) = tiny_cell_cfg(0, 331);
        let full_load = {
            let s = &cfg.cell.schedule;
            (s.pilot_indices().len() + s.uplink_indices().len()) * cfg.cell.num_antennas
        };
        let mut frame = |f| rru.generate_frame(f).0;
        let first = MemFronthaul::preloaded(&[frame(0), frame(1)].concat());
        let engine = crate::Engine::new(cfg);
        let done = AtomicBool::new(true);
        let results = engine.process_fronthaul(&first, 2, &done);
        assert_eq!(
            results.iter().map(|r| (r.frame, r.dropped)).collect::<Vec<_>>(),
            [(0, false), (1, false)]
        );
        // Frames 2 and 3 are due; frame 3 is lost on the way.
        let results = engine.process_fronthaul(&MemFronthaul::preloaded(&frame(2)), 2, &done);
        assert_eq!(
            results.iter().map(|r| (r.frame, r.dropped)).collect::<Vec<_>>(),
            [(2, false), (3, true)]
        );
        assert_eq!(results[1].lost_packets as usize, full_load);
        assert_eq!(engine.stats().get(Counter::FramesCompleted), 3);
        assert_eq!(engine.stats().get(Counter::FramesDropped), 1);
    }

    /// A packet naming cell 7 in a C=2 deployment is counted and
    /// dropped; both real cells still complete every frame.
    #[test]
    fn misrouted_packets_counted_and_dropped() {
        let frames = 1u32;
        let (cfg0, rru0) = tiny_cell_cfg(0, 311);
        let (cfg1, rru1) = tiny_cell_cfg(1, 313);
        let (_, mut rogue) = tiny_cell_cfg(7, 312);
        let (tx, rx) = MemFronthaul::pair(4096);
        // A rogue stream for cell 7 rides along on the same link.
        let (rogue_pkts, _) = rogue.generate_frame(0);
        let rogue_count = rogue_pkts.len() as u64;
        for p in rogue_pkts {
            tx.send(PacketBuf::Heap(p)).unwrap();
        }
        let mut generator = MultiCellGenerator::new(vec![rru0, rru1]);
        let truths = generator.run(&tx, frames);

        let deployment = Deployment::new(DeploymentConfig::new(vec![cfg0, cfg1], 2));
        let done = AtomicBool::new(true);
        let results = deployment.process_fronthaul(&rx, frames, &done);
        for (cell, res) in results.iter().enumerate() {
            assert_eq!(res.len(), 1);
            assert!(!res[0].dropped, "cell {cell} survived the rogue stream");
            assert!(!truths[cell].is_empty());
        }
        let stats = deployment.stats();
        assert_eq!(stats.link().packets_misrouted(), rogue_count);
        assert_eq!(stats.rollup().packets_misrouted(), rogue_count);
        assert_eq!(stats.cell(0).get(Counter::RxErrors), 0, "rogue packets never reach a cell");
    }
}
