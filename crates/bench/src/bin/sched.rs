//! Scheduler micro-benchmark: per-task scheduling overhead of the
//! work-stealing dispatch path (per-worker lanes + batched queue ops)
//! vs the legacy shared per-type queues, at the paper's 64x16 message
//! mix with 8 worker lanes. Also probes the idle-CPU cost of parked vs
//! spinning workers, and doubles as the PGO training workload
//! (`--pgo-workload` runs the threaded engine frame loop at 64x16).
//!
//! Gate (scripts/ci.sh): the lane path must cut per-task scheduling
//! overhead (dispatch -> execute-start -> completion-retire, queue ops
//! only) by >= 30% vs the shared-queue baseline; exit code 1 otherwise.
//!
//! Writes `results/sched.csv` (metric,mode,value).

use agora_bench::csv::write_csv;
use agora_queue::{IdleGate, MpmcQueue, Msg, TaskLane, TaskType};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const LANES: usize = 8;
const WORKER_BATCH: usize = 16;
const COMPLETE_BATCH: usize = 64;
const NUM_TYPES: usize = 7;

/// Same drain priority as `agora_core::engine::PRIORITY`.
const PRIORITY: [TaskType; NUM_TYPES] = [
    TaskType::Zf,
    TaskType::Demod,
    TaskType::Decode,
    TaskType::Fft,
    TaskType::Precode,
    TaskType::Ifft,
    TaskType::Encode,
];

/// One frame's dispatch events at 64x16 (paper batch sizes: FFT 2,
/// ZF 3, demod 64, decode 1). Each inner vec is one `Ready` batch the
/// manager hands to the scheduler at once.
fn frame_events(frame: u32) -> Vec<Vec<Msg>> {
    let (m, k, q, groups) = (64u32, 16u32, 1200u32, 75u32);
    let symbols = 14u32; // 1 pilot + 13 uplink
    let mut events = Vec::new();
    for sym in 0..symbols {
        let fft: Vec<Msg> =
            (0..m.div_ceil(2)).map(|i| Msg::task(TaskType::Fft, frame, sym, i * 2, 2)).collect();
        events.push(fft);
        if sym == 0 {
            let zf: Vec<Msg> = (0..groups.div_ceil(3))
                .map(|i| Msg::task(TaskType::Zf, frame, 0, i * 3, 3))
                .collect();
            events.push(zf);
        } else {
            let demod: Vec<Msg> = (0..q.div_ceil(64))
                .map(|i| Msg::task(TaskType::Demod, frame, sym, i * 64, 64))
                .collect();
            events.push(demod);
            let decode: Vec<Msg> =
                (0..k).map(|u| Msg::task(TaskType::Decode, frame, sym, u, 1)).collect();
            events.push(decode);
        }
    }
    events
}

fn total_msgs(events: &[Vec<Msg>]) -> usize {
    events.iter().map(Vec::len).sum()
}

/// Legacy path: per-type shared MPMC queues, one CAS per message on
/// every hop, workers scan the priority list to find work, completions
/// retired one at a time.
fn shared_round_trip(events: &[Vec<Msg>], reps: usize) -> f64 {
    let queues: Vec<MpmcQueue<Msg>> = (0..NUM_TYPES).map(|_| MpmcQueue::new(2048)).collect();
    let complete: MpmcQueue<Msg> = MpmcQueue::new(2048);
    let msgs = total_msgs(events) * reps;
    let start = Instant::now();
    for _ in 0..reps {
        for ev in events {
            for m in ev {
                queues[m.task as usize].push(*m).expect("shared push");
            }
            // Worker: scan priority queues, execute one message at a
            // time, push its completion.
            loop {
                let mut got = None;
                for t in PRIORITY {
                    if let Some(m) = queues[t as usize].pop() {
                        got = Some(m);
                        break;
                    }
                }
                let Some(m) = got else { break };
                black_box(m);
                complete.push(m.complete(0)).ok();
            }
            // Manager: retire completions one at a time.
            while let Some(c) = complete.pop() {
                black_box(c);
            }
        }
    }
    start.elapsed().as_nanos() as f64 / msgs as f64
}

/// Work-stealing path: the manager places each Ready batch into a lane
/// with one batched claim, workers drain lanes in WORKER_BATCH chunks
/// and push completions batched, the manager retires completions in
/// COMPLETE_BATCH chunks.
fn steal_round_trip(events: &[Vec<Msg>], reps: usize) -> f64 {
    let lanes: Vec<TaskLane<Msg>> = (0..LANES).map(|_| TaskLane::new(256)).collect();
    let complete: MpmcQueue<Msg> = MpmcQueue::new(2048);
    let msgs = total_msgs(events) * reps;
    let mut buf: Vec<Msg> = Vec::with_capacity(WORKER_BATCH);
    let mut done: Vec<Msg> = Vec::with_capacity(WORKER_BATCH);
    let mut cbuf: Vec<Msg> = Vec::with_capacity(COMPLETE_BATCH);
    let mut rr = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        for ev in events {
            let lane = &lanes[rr % LANES];
            rr += 1;
            let mut off = lane.push_batch(ev);
            while off < ev.len() {
                // Lane full: drain a worker batch to make room (the
                // engine falls back to shared queues here; for the
                // queue-op cost that path is identical).
                drain_worker(&lanes, &complete, &mut buf, &mut done);
                off += lane.push_batch(&ev[off..]);
            }
            loop {
                if !drain_worker(&lanes, &complete, &mut buf, &mut done) {
                    break;
                }
            }
            loop {
                cbuf.clear();
                if complete.pop_batch(&mut cbuf, COMPLETE_BATCH) == 0 {
                    break;
                }
                for c in &cbuf {
                    black_box(*c);
                }
            }
        }
    }
    start.elapsed().as_nanos() as f64 / msgs as f64
}

/// One worker trip: pop a batch from the first non-empty lane, execute,
/// push completions batched. Returns false when all lanes are dry.
fn drain_worker(
    lanes: &[TaskLane<Msg>],
    complete: &MpmcQueue<Msg>,
    buf: &mut Vec<Msg>,
    done: &mut Vec<Msg>,
) -> bool {
    buf.clear();
    for lane in lanes {
        if lane.pop_batch(buf, WORKER_BATCH) > 0 {
            break;
        }
    }
    if buf.is_empty() {
        return false;
    }
    done.clear();
    for m in buf.iter() {
        black_box(*m);
        done.push(m.complete(0));
    }
    let mut off = 0;
    while off < done.len() {
        off += complete.push_batch(&done[off..]);
    }
    true
}

/// Fixed busy-work kernel for the idle probe.
fn busy_work(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    black_box(acc)
}

/// Measures how much `n` idle worker threads slow down a busy thread:
/// spinning workers steal cycles, parked workers should not. Returns
/// (solo_ms, spin_ms, park_ms).
fn idle_probe(n: usize, iters: u64) -> (f64, f64, f64) {
    let solo = {
        let t = Instant::now();
        busy_work(iters);
        t.elapsed().as_secs_f64() * 1e3
    };

    let spin = {
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t = Instant::now();
        busy_work(iters);
        let el = t.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        el
    };

    let park = {
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(IdleGate::new());
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let seen = gate.epoch();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        gate.park(seen, std::time::Duration::from_millis(50));
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t = Instant::now();
        busy_work(iters);
        let el = t.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Relaxed);
        while gate.sleepers() > 0 {
            gate.wake_all();
            std::thread::yield_now();
        }
        gate.wake_all();
        for h in handles {
            h.join().unwrap();
        }
        el
    };

    (solo, spin, park)
}

/// PGO training workload: the threaded engine frame loop at 64x16
/// (short frame so the profile run stays bounded on small machines).
fn pgo_workload() {
    use agora_core::{Engine, EngineConfig};
    use agora_fronthaul::{RruConfig, RruEmulator};
    use agora_phy::CellConfig;

    let cell = CellConfig::emulated_rru(64, 16, 2);
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 30.0, seed: 9, ..Default::default() });
    let mut packets = Vec::new();
    for f in 0..2u32 {
        let (p, _) = rru.generate_frame(f);
        packets.extend(p);
    }
    let mut cfg = EngineConfig::new(cell, 2);
    cfg.noise_power = rru.noise_power();
    let engine = Engine::new(cfg);
    let results = engine.process(packets, 2, false);
    println!("pgo workload: processed {} frames at 64x16", results.len());
}

fn main() {
    if std::env::args().any(|a| a == "--pgo-workload") {
        pgo_workload();
        return;
    }

    println!("Scheduler overhead — 64x16 message mix, {LANES} lanes, batched vs shared queues");
    let events = frame_events(0);
    let per_frame = total_msgs(&events);
    println!("messages per frame: {per_frame}");

    // Warm up, then measure.
    let reps = 200;
    shared_round_trip(&events, 20);
    steal_round_trip(&events, 20);
    let shared_ns = shared_round_trip(&events, reps);
    let steal_ns = steal_round_trip(&events, reps);
    let reduction = 100.0 * (1.0 - steal_ns / shared_ns);
    println!("shared queues : {shared_ns:>7.1} ns/task");
    println!("lane+batch    : {steal_ns:>7.1} ns/task");
    println!("reduction     : {reduction:>7.1} %  (gate: >= 30%)");

    let (solo_ms, spin_ms, park_ms) = idle_probe(8, 200_000_000);
    let spin_x = spin_ms / solo_ms;
    let park_x = park_ms / solo_ms;
    println!("idle probe    : busy thread solo {solo_ms:.1} ms, vs 8 spinning {spin_ms:.1} ms ({spin_x:.2}x), vs 8 parked {park_ms:.1} ms ({park_x:.2}x)");

    let rows = vec![
        format!("per_task_overhead_ns,shared,{shared_ns:.2}"),
        format!("per_task_overhead_ns,steal,{steal_ns:.2}"),
        format!("overhead_reduction_pct,steal_vs_shared,{reduction:.2}"),
        format!("busy_ms,solo,{solo_ms:.2}"),
        format!("busy_ms,8_spinning,{spin_ms:.2}"),
        format!("busy_ms,8_parked,{park_ms:.2}"),
        format!("interference_x,8_spinning,{spin_x:.3}"),
        format!("interference_x,8_parked,{park_x:.3}"),
    ];
    let p = write_csv("sched", "metric,mode,value", &rows);
    println!("wrote {}", p.display());

    let mut ok = true;
    if reduction < 30.0 {
        println!("FAIL per-task scheduling overhead reduction {reduction:.1}% < 30%");
        ok = false;
    } else {
        println!("OK   per-task scheduling overhead reduction {reduction:.1}% >= 30%");
    }
    if park_x > spin_x {
        println!("FAIL parked workers interfere more than spinning ({park_x:.2}x > {spin_x:.2}x)");
        ok = false;
    } else {
        println!(
            "OK   parked workers interfere no more than spinning ({park_x:.2}x <= {spin_x:.2}x)"
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
