//! Extension ablations beyond the paper's tables (DESIGN.md §5):
//!
//! 1. **Stale-precoder downlink early start** (§3.4.2) — the paper
//!    describes the mechanism but never isolates its benefit; we do.
//! 2. **Batch-size sweep** — the paper picks FFT batch 2 and demod
//!    batch 64 empirically; we sweep the space.

use agora_bench::csv::write_csv;
use agora_core::sim::{simulate, SimConfig};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;

fn main() {
    let mut rows = Vec::new();

    // --- 1. Stale precoder -------------------------------------------------
    // The early start reads frame − 1's precoder, which the engine (and
    // so the model) allows only while frame − 1 is unretired. A
    // downlink-only cell that keeps up retires each frame long before
    // the next begins; a TDD frame with its uplink last is still in
    // flight when its successor's pilots arrive.
    println!("Extension 1 — §3.4.2 stale-precoder downlink early start");
    println!("  frame            downlink done, us after first packet (off -> on)");
    for (name, schedule) in [("downlink-only", "PDDDDDDDDDDDDD"), ("tdd", "PDDDUUUUUUUUUU")] {
        let mut cell = CellConfig::emulated_rru(64, 16, 0);
        cell.schedule = FrameSchedule::parse(schedule).expect("literal schedule");
        let mut cfg = SimConfig::new(cell, 26, 16);
        let steady = |rep: &agora_core::sim::SimReport| {
            let done: Vec<f64> = rep.milestones[2..]
                .iter()
                .map(|m| m.ifft_done_ns.saturating_sub(m.first_packet_ns) as f64 / 1e3)
                .collect();
            done.iter().sum::<f64>() / done.len() as f64
        };
        let off = steady(&simulate(&cfg));
        cfg.stale_precoder = true;
        let on = steady(&simulate(&cfg));
        println!("  {name:<14} {schedule}  {off:>7.1} -> {on:>7.1}");
        rows.push(format!("stale_precoder,{name} off,{off}"));
        rows.push(format!("stale_precoder,{name} on,{on}"));
    }
    println!("  -> it fires only beside a frame still in flight\n");

    // --- 2. Batch-size sweep ----------------------------------------------
    println!("Extension 2 — batch-size sweep (64x16, 1 ms frame, 26 cores)");
    println!("  fft_batch demod_batch  median_ms");
    let cell = CellConfig::emulated_rru(64, 16, 13);
    for (fft_b, demod_b) in
        [(1usize, 8usize), (1, 64), (2, 64), (4, 64), (2, 8), (2, 16), (2, 128), (8, 256)]
    {
        let mut cfg = SimConfig::new(cell.clone(), 26, 12);
        cfg.batch.fft = fft_b;
        cfg.batch.demod = demod_b;
        let rep = simulate(&cfg);
        println!("  {fft_b:>9} {demod_b:>11}  {:>9.3}", rep.median_latency_ms());
        rows.push(format!("batch,{fft_b}x{demod_b},{}", rep.median_latency_ms()));
    }
    println!("  -> the paper's (2, 64) sits in the flat optimum\n");

    let p = write_csv("ext_ablations", "experiment,variant,value", &rows);
    println!("wrote {}", p.display());
}
