//! Runtime statistics: per-worker, per-task-type busy time and counts,
//! plus one declared table of scalar counters.
//!
//! Workers bump relaxed atomics around each task execution; the
//! aggregates feed Table 3 ("time per task", "total time across cores")
//! and the synchronisation-overhead analysis of Figure 11 (total budget
//! minus busy time).

use agora_queue::msg::TaskType;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of distinct task types tracked.
pub const NUM_TASK_TYPES: usize = 7;

/// Maps a compute task type to its stats slot.
pub fn type_index(t: TaskType) -> usize {
    match t {
        TaskType::Fft => 0,
        TaskType::Zf => 1,
        TaskType::Demod => 2,
        TaskType::Decode => 3,
        TaskType::Encode => 4,
        TaskType::Precode => 5,
        TaskType::Ifft => 6,
        _ => panic!("not a compute task type: {t:?}"),
    }
}

/// Human-readable block names in slot order.
pub const TYPE_NAMES: [&str; NUM_TASK_TYPES] =
    ["FFT", "ZF", "Demod", "Decode", "Encode", "Precode", "IFFT"];

/// The scalar counters of an [`EngineStats`] sink. `Counter as usize` is
/// the counter's slot in the sink and in [`EngineStats::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Packets that never arrived for frames the engine gave up on.
    PacketsLost,
    /// Packets rejected because their frame was already completed,
    /// abandoned, or retired past the flow-control window.
    PacketsLate,
    /// Packets rejected because the same (frame, symbol, antenna) was
    /// already received.
    PacketsDuplicate,
    /// Frames fully processed to completion.
    FramesCompleted,
    /// Frames abandoned (deadline or stall) with partial output.
    FramesDropped,
    /// Packets rejected at intake as malformed (bad header, out-of-range
    /// symbol/antenna, or wrong payload size for the cell).
    RxErrors,
    /// Packets addressed to a cell id outside the deployment — dropped at
    /// the demux, never delivered to cell 0 by default.
    PacketsMisrouted,
    /// Non-empty receive batches drained by the network thread.
    RxBatches,
    /// Packets delivered across those batches.
    RxBatchPackets,
    /// Largest single receive batch observed.
    RxBatchMax,
    /// Socket-level send errors reported by the fronthaul link (a gauge
    /// the network thread publishes with [`EngineStats::set`]).
    LinkTxErrors,
    /// Socket-level receive errors reported by the fronthaul link.
    LinkRxErrors,
    /// Task messages placed directly into a worker's lane.
    LanePushes,
    /// Task messages that overflowed a full lane to the shared queues.
    LaneOverflows,
    /// Deepest lane backlog observed at placement time, the placed batch
    /// included.
    LaneDepthMax,
    /// Task messages a worker took from another worker's lane.
    Steals,
    /// Steal operations (batches), regardless of size.
    StealBatches,
    /// Times a worker parked on the idle gate.
    Parks,
    /// Wake signals that found at least one parked worker.
    Wakes,
}

/// Number of [`Counter`]s.
pub const NUM_COUNTERS: usize = 19;

/// How two sinks' values of one counter combine in [`EngineStats::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Counts add (link error gauges too: each cell reports its own
    /// link's cumulative counts).
    Add,
    /// High-water marks take the larger.
    Max,
}

/// The counter table, in slot order: the name `summary()`'s ledger and
/// structured consumers use, and the merge rule.
pub const COUNTERS: [(Counter, &str, Fold); NUM_COUNTERS] = [
    (Counter::PacketsLost, "packets_lost", Fold::Add),
    (Counter::PacketsLate, "packets_late", Fold::Add),
    (Counter::PacketsDuplicate, "packets_duplicate", Fold::Add),
    (Counter::FramesCompleted, "frames_completed", Fold::Add),
    (Counter::FramesDropped, "frames_dropped", Fold::Add),
    (Counter::RxErrors, "rx_errors", Fold::Add),
    (Counter::PacketsMisrouted, "packets_misrouted", Fold::Add),
    (Counter::RxBatches, "rx_batches", Fold::Add),
    (Counter::RxBatchPackets, "rx_batch_packets", Fold::Add),
    (Counter::RxBatchMax, "rx_batch_max", Fold::Max),
    (Counter::LinkTxErrors, "link_tx_errors", Fold::Add),
    (Counter::LinkRxErrors, "link_rx_errors", Fold::Add),
    (Counter::LanePushes, "lane_pushes", Fold::Add),
    (Counter::LaneOverflows, "lane_overflows", Fold::Add),
    (Counter::LaneDepthMax, "lane_depth_max", Fold::Max),
    (Counter::Steals, "steals", Fold::Add),
    (Counter::StealBatches, "steal_batches", Fold::Add),
    (Counter::Parks, "parks", Fold::Add),
    (Counter::Wakes, "wakes", Fold::Add),
];

// Row `i` of the table describes slot `i`: everything that indexes by
// `Counter as usize` relies on it.
const _: () = {
    let mut i = 0;
    while i < NUM_COUNTERS {
        assert!(COUNTERS[i].0 as usize == i);
        i += 1;
    }
};

/// `summary()`'s ledger lines: a line prints when any of its gate
/// counters is non-zero (no gate: always). `{name}` is a counter from
/// [`COUNTERS`], `{a/b}` the ratio of two to one decimal.
const LEDGER: [(&[Counter], &str); 4] = [
    (
        &[],
        "frames: {frames_completed} completed, {frames_dropped} dropped | \
         packets: {packets_lost} lost, {packets_late} late, {packets_duplicate} dup, \
         {rx_errors} rx-err, {packets_misrouted} misrouted\n",
    ),
    (
        &[Counter::RxBatches],
        "rx: {rx_batches} batches, {rx_batch_packets} packets \
         (mean {rx_batch_packets/rx_batches}/batch, max {rx_batch_max})\n",
    ),
    (
        &[Counter::LinkTxErrors, Counter::LinkRxErrors],
        "link errors: {link_tx_errors} tx, {link_rx_errors} rx\n",
    ),
    (
        &[Counter::LanePushes, Counter::LaneOverflows, Counter::Steals, Counter::Parks],
        "sched: {lane_pushes} lane pushes (max depth {lane_depth_max}), \
         {lane_overflows} overflows, {steals} stolen in {steal_batches} steals, \
         {parks} parks, {wakes} wakes\n",
    ),
];

/// Appends `template` to `out` with its `{…}` placeholders filled from
/// `snap` (see [`LEDGER`]).
fn render(template: &str, snap: &[u64; NUM_COUNTERS], out: &mut String) {
    let value = |name: &str| {
        let slot = COUNTERS.iter().position(|&(_, n, _)| n == name);
        snap[slot.expect("ledger placeholder names a counter")]
    };
    let mut rest = template;
    while let Some((text, tail)) = rest.split_once('{') {
        let (key, tail) = tail.split_once('}').expect("ledger placeholder is closed");
        out.push_str(text);
        let _ = match key.split_once('/') {
            Some((a, b)) => write!(out, "{:.1}", value(a) as f64 / value(b) as f64),
            None => write!(out, "{}", value(key)),
        };
        rest = tail;
    }
    out.push_str(rest);
}

/// Shared, lock-free statistics sink.
#[derive(Debug, Default)]
pub struct EngineStats {
    busy_ns: [AtomicU64; NUM_TASK_TYPES],
    tasks: [AtomicU64; NUM_TASK_TYPES],
    messages: [AtomicU64; NUM_TASK_TYPES],
    /// Total busy nanoseconds per worker id (sized at engine start).
    worker_busy_ns: Vec<AtomicU64>,
    /// The scalar counters, one slot per [`Counter`].
    counters: [AtomicU64; NUM_COUNTERS],
}

impl EngineStats {
    /// Creates a sink for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self {
            worker_busy_ns: (0..num_workers).map(|_| AtomicU64::new(0)).collect(),
            ..Default::default()
        }
    }

    /// Records one executed message: `count` tasks of type `t` taking
    /// `ns` nanoseconds on worker `worker`.
    pub fn record(&self, worker: usize, t: TaskType, count: u64, ns: u64) {
        let i = type_index(t);
        self.busy_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.tasks[i].fetch_add(count, Ordering::Relaxed);
        self.messages[i].fetch_add(1, Ordering::Relaxed);
        if let Some(w) = self.worker_busy_ns.get(worker) {
            w.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Cumulative busy nanoseconds for one task type.
    pub fn busy_ns(&self, t: TaskType) -> u64 {
        self.busy_ns[type_index(t)].load(Ordering::Relaxed)
    }

    /// Number of queue messages processed for one type.
    pub fn messages(&self, t: TaskType) -> u64 {
        self.messages[type_index(t)].load(Ordering::Relaxed)
    }

    /// Total busy nanoseconds across all workers and types.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Adds `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises high-water counter `c` to at least `v`.
    pub fn max(&self, c: Counter, v: u64) {
        self.counters[c as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrites gauge `c` with a cumulative value read elsewhere (the
    /// fronthaul link's socket error counts).
    pub fn set(&self, c: Counter, v: u64) {
        self.counters[c as usize].store(v, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Every scalar counter as plain data, indexed by `Counter as usize`
    /// and named by [`COUNTERS`].
    pub fn snapshot(&self) -> [u64; NUM_COUNTERS] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    // One-line forwards for the names `benchmark/src/api.rs` reads.

    /// Packets addressed to a cell id outside the deployment.
    pub fn packets_misrouted(&self) -> u64 {
        self.get(Counter::PacketsMisrouted)
    }

    /// Non-empty receive batches drained by the network thread.
    pub fn rx_batches(&self) -> u64 {
        self.get(Counter::RxBatches)
    }

    /// Packets delivered across all receive batches.
    pub fn rx_batch_packets(&self) -> u64 {
        self.get(Counter::RxBatchPackets)
    }

    /// Tasks placed directly into worker lanes.
    pub fn lane_pushes(&self) -> u64 {
        self.get(Counter::LanePushes)
    }

    /// Tasks that overflowed full lanes to the shared queues.
    pub fn lane_overflows(&self) -> u64 {
        self.get(Counter::LaneOverflows)
    }

    /// Tasks taken from other workers' lanes.
    pub fn steals(&self) -> u64 {
        self.get(Counter::Steals)
    }

    /// Parks on the idle gate.
    pub fn parks(&self) -> u64 {
        self.get(Counter::Parks)
    }

    /// Always 0: every task queue holds all the tasks it can be handed,
    /// so no push waits on a full one. Kept because the benchmark reads
    /// it.
    pub fn total_push_retries(&self) -> u64 {
        0
    }

    /// Accumulates `other`'s counters into `self`, so per-cell stats
    /// roll up into one sink. Scalar counters combine by their
    /// [`Fold`]; the per-type arrays add; per-worker busy time adds by
    /// worker id — deployments size every cell's sink to the global
    /// pool, so ids line up.
    pub fn merge(&self, other: &EngineStats) {
        let add_all = |mine: &[AtomicU64], theirs: &[AtomicU64]| {
            for (m, t) in mine.iter().zip(theirs) {
                m.fetch_add(t.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        };
        add_all(&self.busy_ns, &other.busy_ns);
        add_all(&self.tasks, &other.tasks);
        add_all(&self.messages, &other.messages);
        add_all(&self.worker_busy_ns, &other.worker_busy_ns);
        for (c, _, fold) in COUNTERS {
            match fold {
                Fold::Add => self.add(c, other.get(c)),
                Fold::Max => self.max(c, other.get(c)),
            }
        }
    }

    /// One-paragraph human-readable summary: frame ledger, packet
    /// ledger, and the busiest task blocks. Complements [`Self::table`]
    /// (which is per-block timing only).
    pub fn summary(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (gate, line) in LEDGER {
            if gate.is_empty() || gate.iter().any(|&c| snap[c as usize] > 0) {
                render(line, &snap, &mut out);
            }
        }
        let mut blocks: Vec<(usize, u64)> = (0..NUM_TASK_TYPES)
            .map(|i| (i, self.busy_ns[i].load(Ordering::Relaxed)))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        blocks.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        if !blocks.is_empty() {
            out.push_str("busy: ");
            let parts: Vec<String> = blocks
                .iter()
                .map(|&(i, ns)| format!("{} {:.2}ms", TYPE_NAMES[i], ns as f64 / 1e6))
                .collect();
            out.push_str(&parts.join(", "));
            out.push('\n');
        }
        out
    }

    /// Formats a Table 3-style summary.
    pub fn table(&self) -> String {
        let mut out = String::from("block     tasks    msgs     time/task(us)  total(ms)\n");
        for (i, name) in TYPE_NAMES.iter().enumerate() {
            let tasks = self.tasks[i].load(Ordering::Relaxed);
            if tasks == 0 {
                continue;
            }
            let msgs = self.messages[i].load(Ordering::Relaxed);
            let busy = self.busy_ns[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{:<9} {:<8} {:<8} {:<14.2} {:.3}\n",
                name,
                tasks,
                msgs,
                busy as f64 / tasks as f64 / 1000.0,
                busy as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EngineStats {
        fn worker_busy_ns(&self, worker: usize) -> u64 {
            self.worker_busy_ns[worker].load(Ordering::Relaxed)
        }

        fn tasks(&self, t: TaskType) -> u64 {
            self.tasks[type_index(t)].load(Ordering::Relaxed)
        }
    }

    #[test]
    fn record_and_read_back() {
        let s = EngineStats::new(2);
        s.record(0, TaskType::Fft, 2, 5000);
        s.record(1, TaskType::Fft, 2, 7000);
        s.record(0, TaskType::Decode, 1, 40_000);
        assert_eq!(s.tasks(TaskType::Fft), 4);
        assert_eq!(s.messages(TaskType::Fft), 2);
        assert_eq!(s.busy_ns(TaskType::Fft), 12_000);
        assert_eq!(s.total_busy_ns(), 52_000);
        assert_eq!(s.worker_busy_ns(0), 45_000);
        assert_eq!(s.worker_busy_ns(1), 7_000);
    }

    #[test]
    #[should_panic(expected = "not a compute task")]
    fn non_compute_type_panics() {
        type_index(TaskType::Complete);
    }

    #[test]
    fn counter_ops_add_max_set_get() {
        let s = EngineStats::new(1);
        s.add(Counter::PacketsLost, 3);
        s.add(Counter::PacketsLost, 2);
        s.max(Counter::RxBatchMax, 32);
        s.max(Counter::RxBatchMax, 12);
        s.set(Counter::LinkRxErrors, 5);
        s.set(Counter::LinkRxErrors, 4);
        assert_eq!(s.get(Counter::PacketsLost), 5);
        assert_eq!(s.get(Counter::RxBatchMax), 32);
        assert_eq!(s.get(Counter::LinkRxErrors), 4);
        let snap = s.snapshot();
        for (c, name, _) in COUNTERS {
            assert_eq!(snap[c as usize], s.get(c), "{name}");
        }
    }

    /// A sink with every counter, per-type slot and worker set to a
    /// distinct value derived from `seed`.
    fn filled(seed: u64) -> EngineStats {
        let s = EngineStats::new(2);
        for (i, (c, _, _)) in COUNTERS.into_iter().enumerate() {
            s.add(c, seed * 100 + i as u64);
        }
        for (i, &t) in TaskType::COMPUTE.iter().enumerate() {
            s.record(i % 2, t, seed + i as u64, seed * 1000 + i as u64);
        }
        s
    }

    #[test]
    fn merge_is_the_fieldwise_fold_of_every_counter() {
        let (a, b) = (filled(3), filled(7));
        let total = EngineStats::new(2);
        total.merge(&a);
        total.merge(&b);
        for (c, name, fold) in COUNTERS {
            let want = match fold {
                Fold::Add => a.get(c) + b.get(c),
                Fold::Max => a.get(c).max(b.get(c)),
            };
            assert_eq!(total.get(c), want, "{name}");
        }
        for t in TaskType::COMPUTE {
            assert_eq!(total.busy_ns(t), a.busy_ns(t) + b.busy_ns(t));
            assert_eq!(total.tasks(t), a.tasks(t) + b.tasks(t));
            assert_eq!(total.messages(t), 2);
        }
        for w in 0..2 {
            assert_eq!(total.worker_busy_ns(w), a.worker_busy_ns(w) + b.worker_busy_ns(w));
        }
    }

    /// `summary()` and `table()` text of the commit before the counter
    /// table (742eb83), for the same recorded events, without that
    /// commit's queue-full retry line.
    #[test]
    fn summary_and_table_match_the_golden_text() {
        let s = EngineStats::new(2);
        assert_eq!(
            s.summary(),
            "frames: 0 completed, 0 dropped | packets: 0 lost, 0 late, 0 dup, 0 rx-err, 0 misrouted\n"
        );
        assert_eq!(s.table(), "block     tasks    msgs     time/task(us)  total(ms)\n");

        s.record(0, TaskType::Fft, 2, 5000);
        s.record(1, TaskType::Fft, 2, 7000);
        s.record(0, TaskType::Decode, 1, 40_000);
        s.record(1, TaskType::Demod, 64, 12_345);
        s.add(Counter::FramesCompleted, 3);
        s.add(Counter::FramesDropped, 1);
        s.add(Counter::PacketsLost, 5);
        s.add(Counter::PacketsLate, 1);
        s.add(Counter::PacketsDuplicate, 2);
        s.add(Counter::RxErrors, 1);
        s.add(Counter::PacketsMisrouted, 4);
        for n in [4, 32, 12] {
            s.add(Counter::RxBatches, 1);
            s.add(Counter::RxBatchPackets, n);
            s.max(Counter::RxBatchMax, n);
        }
        s.set(Counter::LinkTxErrors, 2);
        s.set(Counter::LinkRxErrors, 5);
        for (n, depth) in [(4, 9), (6, 5)] {
            s.add(Counter::LanePushes, n);
            s.max(Counter::LaneDepthMax, depth);
        }
        s.add(Counter::LaneOverflows, 2);
        for n in [3, 1] {
            s.add(Counter::Steals, n);
            s.add(Counter::StealBatches, 1);
        }
        s.add(Counter::Parks, 2);
        s.add(Counter::Wakes, 1);
        assert_eq!(
            s.summary(),
            "frames: 3 completed, 1 dropped | packets: 5 lost, 1 late, 2 dup, 1 rx-err, 4 misrouted\n\
             rx: 3 batches, 48 packets (mean 16.0/batch, max 32)\n\
             link errors: 2 tx, 5 rx\n\
             sched: 10 lane pushes (max depth 9), 2 overflows, 4 stolen in 2 steals, 2 parks, 1 wakes\n\
             busy: Decode 0.04ms, Demod 0.01ms, FFT 0.01ms\n"
        );
        assert_eq!(
            s.table(),
            "block     tasks    msgs     time/task(us)  total(ms)\n\
             FFT       4        2        3.00           0.012\n\
             Demod     64       1        0.19           0.012\n\
             Decode    1        1        40.00          0.040\n"
        );
    }
}
