//! Table 4: effectiveness of the optimisations, shown by disabling one
//! at a time (median and p99.9 uplink latency, 64x16, 1 ms frames, 26
//! cores).
//!
//! Every row runs on the schedule simulator (`SimConfig::{batch,
//! movement, costs, jitter}`); the real engine has no switch for any of
//! them. The two matrix rows (direct-inverse vs SVD, specialised vs
//! generic GEMM) scale a simulated task cost by the paper's ratio, and
//! this machine's ratio for the same pair of *real kernels* is measured
//! on `agora-math` and printed beside it.

use agora_bench::csv::write_csv;
use agora_core::sim::{simulate, JitterModel, SimConfig};
use agora_core::BatchSizes;
use agora_math::{pinv_direct, pinv_svd, CMat, Cf32, Gemm};
use agora_phy::CellConfig;
use std::time::Instant;

fn rand_mat(rows: usize, cols: usize, seed: u64) -> CMat {
    let mut state = seed | 1;
    CMat::from_fn(rows, cols, |_, _| {
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
        };
        Cf32::new(next(), next())
    })
}

/// Measures the real slowdown of the SVD pseudo-inverse vs the direct
/// route on this machine (paper: ~8.5x on MKL).
fn measure_pinv_ratio() -> f64 {
    let h = rand_mat(64, 16, 3);
    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(pinv_direct(&h).unwrap());
    }
    let direct = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(pinv_svd(&h, 1e-6));
    }
    let svd = t0.elapsed().as_secs_f64();
    svd / direct
}

/// Measures the generic-vs-specialised GEMM ratio (paper: MKL JIT gives
/// 3-5x on small shapes).
fn measure_gemm_ratio() -> f64 {
    let a = rand_mat(16, 64, 5);
    let b = rand_mat(64, 8, 6);
    let mut c = vec![Cf32::ZERO; 16 * 8];
    let spec = Gemm::plan(16, 64, 8);
    let gen = Gemm::plan_generic(16, 64, 8);
    let reps = 3000;
    let t0 = Instant::now();
    for _ in 0..reps {
        spec.run(a.as_slice(), b.as_slice(), &mut c);
        std::hint::black_box(&c);
    }
    let fast = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        gen.run(a.as_slice(), b.as_slice(), &mut c);
        std::hint::black_box(&c);
    }
    let slow = t0.elapsed().as_secs_f64();
    slow / fast
}

fn main() {
    let cell = CellConfig::emulated_rru(64, 16, 13);
    let frames = 200;
    // Scheduling ablations run at the sustained frame rate, like the
    // deployed system.
    let base_cfg = SimConfig::new(cell.clone(), 26, frames);
    let base = simulate(&base_cfg);
    let b_med = base.median_latency_ms();
    let b_999 = base.percentile_latency_ms(99.9);
    // The matrix ablations add more work than ANY 26-core schedule can
    // sustain at a 1 ms frame rate (SVD alone adds ~9 core-ms per
    // frame), so they are measured in isolated-frame mode: frames spaced
    // 5x apart, reporting the pure latency penalty. The paper's modest
    // 1.27x suggests the same effective methodology.
    let mut gap_cfg = base_cfg.clone();
    gap_cfg.inter_frame_gap_ns = 4.0 * cell.frame_duration_ns() as f64;
    let gap_base = simulate(&gap_cfg);
    let g_med = gap_base.median_latency_ms();
    let g_999 = gap_base.percentile_latency_ms(99.9);

    println!("Table 4 — optimisation ablations (64x16, 1 ms frame, 26 cores, uplink)");
    println!("configuration                    median_ms  x     p99.9_ms  x");
    println!("baseline (all optimisations on)  {b_med:>9.2}  1.00  {b_999:>8.2}  1.00");
    let mut rows = vec![format!("baseline,{b_med},1.0,{b_999},1.0")];

    let rows_ref = &mut rows;
    let mut report =
        move |name: &str, rep: &agora_core::sim::SimReport, ref_med: f64, ref_999: f64| {
            let med = rep.median_latency_ms();
            let p999 = rep.percentile_latency_ms(99.9);
            println!(
                "{name:<36} {med:>9.2}  {:<4.2}  {p999:>8.2}  {:<4.2}",
                med / ref_med,
                p999 / ref_999
            );
            rows_ref.push(format!("{name},{med},{},{p999},{}", med / ref_med, p999 / ref_999));
        };

    // Batching off: one task per message.
    let mut cfg = base_cfg.clone();
    cfg.batch = BatchSizes::ones();
    report("batching disabled", &simulate(&cfg), b_med, b_999);

    // Memory access optimisation off: strided demod input.
    let mut cfg = base_cfg.clone();
    cfg.movement.cache_layout = false;
    report("memory access opt disabled", &simulate(&cfg), b_med, b_999);

    // Non-temporal stores off.
    let mut cfg = base_cfg.clone();
    cfg.movement.streaming_stores = false;
    report("non-temporal store disabled", &simulate(&cfg), b_med, b_999);

    // Matrix inverse optimisation off. The paper measures the SVD route
    // at 135 us vs 15.8 us direct (8.5x, §4.2); our deliberately naive
    // Jacobi SVD is slower still — both ratios are reported, the paper's
    // drives the simulated row.
    let measured_pinv = measure_pinv_ratio();
    let paper_pinv = 135.0 / 15.8;
    let mut cfg = gap_cfg.clone();
    cfg.costs.zf_ns *= paper_pinv;
    report(
        &format!("matrix inverse opt disabled ({paper_pinv:.1}x ZF) [isolated]"),
        &simulate(&cfg),
        g_med,
        g_999,
    );
    println!("    (this machine's Jacobi-SVD/direct ratio: {measured_pinv:.1}x)");

    // JIT GEMM off. The paper cites 3-5x from MKL's JIT on small shapes;
    // the GEMM is ~60% of the fused demod task. Our monomorphised-vs-
    // generic Rust ratio is also measured and reported.
    let measured_gemm = measure_gemm_ratio();
    let paper_gemm: f64 = 3.0; // low end of the paper's 3-5x JIT gain
    let gemm_share = 0.6;
    let scale = 1.0 + gemm_share * (paper_gemm - 1.0);
    let mut cfg = base_cfg.clone();
    cfg.costs.demod_sc_ns *= scale;
    cfg.costs.precode_sc_ns *= scale;
    report(&format!("JIT matmul disabled ({paper_gemm:.1}x GEMM)"), &simulate(&cfg), b_med, b_999);
    println!("    (this machine's generic/specialised GEMM ratio: {measured_gemm:.1}x)");

    // Real-time process off: inject OS preemption jitter (Linux CFS
    // timeslices are a few ms; most tasks escape, the tail does not).
    let mut cfg = base_cfg.clone();
    cfg.jitter = Some(JitterModel { preempt_prob: 3e-4, mean_ns: 0.8e6 });
    report("real-time process disabled", &simulate(&cfg), b_med, b_999);

    let p = write_csv("table4_ablation", "config,median_ms,median_x,p999_ms,p999_x", &rows);
    println!("\nwrote {}", p.display());
    println!("expected shape (paper): batching 1.64x median; memory access 1.40x;");
    println!("NT stores 1.12x; inverse opt 1.27x; JIT 1.18x; non-RT ~1.0x median");
    println!("but 3.7x p99.9.");
}
