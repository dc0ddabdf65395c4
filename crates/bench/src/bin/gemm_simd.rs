//! Measured complex-GEMM sweep: scalar planned kernels vs the AVX2 plane.
//!
//! This is the evidence behind the AVX2 complex-GEMM plane: per-call wall
//! time for the beamforming shapes the frame loop actually runs, compared
//! between a `SimdTier::Scalar`-pinned plan (what runs where AVX2 is
//! absent — still the shape-specialised "JIT" kernel where one exists)
//! and the AVX2 register-tiled kernel. Three matrix products are timed
//! per antenna/user geometry:
//!
//! - **equalize** — the batched `(K, M, B=8)` GEMM behind `demod_task`
//!   (one cache line of subcarriers per call),
//! - **gemv** — the single-subcarrier `(K, M)` detector apply used by the
//!   strided (cache-layout-off) path and `equalize_one`,
//! - **zf** — the full `pinv_into` Gram chain (`H^H H`, Gauss-Jordan
//!   inverse, `(H^H H)^-1 H^H`) behind `zf_task`.
//!
//! The 64x16 row is the paper configuration; its measured equalize and ZF
//! times feed the simulator's calibration constants
//! (`agora_core::sim::MEASURED_ZF_NS` / `MEASURED_EQ_SC_NS`). Writes
//! `results/gemm_simd.csv`.

use agora_bench::csv::write_csv;
use agora_math::simd::SimdTier;
use agora_math::{pinv_into, CMat, Cf32, Gemm, PinvMethod, PinvScratch};
use std::time::Instant;

/// Subcarriers per equalize call (one 64-byte cache line of `Cf32`).
const BATCH: usize = 8;

/// Timing trials per configuration; the minimum is reported, which is the
/// robust estimator on a shared core (anything above the minimum is
/// scheduler or frequency noise, not the kernel under test).
const TRIALS: usize = 5;

fn fill(seed: u64, buf: &mut [Cf32]) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
    };
    for v in buf.iter_mut() {
        *v = Cf32::new(next(), next());
    }
}

/// Per-call nanoseconds for a planned GEMM `(m, k, n)`: best of [`TRIALS`].
fn time_gemm(plan: &Gemm, a: &[Cf32], b: &[Cf32], c: &mut [Cf32], reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for _ in 0..reps {
            plan.run(std::hint::black_box(a), std::hint::black_box(b), c);
            std::hint::black_box(&c);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / reps as f64);
    }
    best
}

/// Per-call nanoseconds for `pinv_into` with the scratch tier pinned.
fn time_pinv(h: &CMat, s: &mut PinvScratch, out: &mut CMat, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for _ in 0..reps {
            pinv_into(std::hint::black_box(h), PinvMethod::Direct, s, out);
            std::hint::black_box(&out);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / reps as f64);
    }
    best
}

fn main() {
    let tier = SimdTier::detect();
    println!("complex GEMM sweep (detected tier: {tier:?}, equalize batch B={BATCH})");
    println!(
        "{:>8} {:>6} | {:>11} {:>9} {:>6} | {:>11} {:>9} {:>6} | {:>11} {:>9} {:>6}",
        "M",
        "K",
        "eq_scal_ns",
        "eq_simd",
        "x",
        "gv_scal_ns",
        "gv_simd",
        "x",
        "zf_scal_ns",
        "zf_simd",
        "x"
    );
    let mut rows = Vec::new();
    let mut eq64 = 0.0f64;
    let mut paper = (0.0f64, 0.0f64); // (eq_simd_per_sc, zf_simd)
    for (m, k) in [(64usize, 16usize), (32, 8), (16, 4)] {
        // Equalize: users_out[K x B] = W[K x M] * ant_block[M x B].
        let mut w = vec![Cf32::ZERO; k * m];
        let mut ant = vec![Cf32::ZERO; m * BATCH];
        let mut out = vec![Cf32::ZERO; k * BATCH];
        fill(m as u64 * 31 + k as u64, &mut w);
        fill(m as u64 * 57 + 5, &mut ant);
        let reps = (1usize << 22) / (m * k * BATCH);
        let scal_plan = Gemm::plan_with_tier(k, m, BATCH, SimdTier::Scalar);
        let simd_plan = Gemm::plan_with_tier(k, m, BATCH, tier);
        let eq_scal = time_gemm(&scal_plan, &w, &ant, &mut out, reps);
        let eq_simd = time_gemm(&simd_plan, &w, &ant, &mut out, reps);

        // GEMV: users_out[K] = W[K x M] * y[M] (strided / one-subcarrier path).
        let gv_reps = reps * BATCH;
        let mut one_out = vec![Cf32::ZERO; k];
        let gv_scal = {
            let mut best = f64::INFINITY;
            for _ in 0..TRIALS {
                let t0 = Instant::now();
                for _ in 0..gv_reps {
                    agora_math::gemv_with_tier(
                        k,
                        m,
                        std::hint::black_box(&w),
                        std::hint::black_box(&ant[..m]),
                        &mut one_out,
                        SimdTier::Scalar,
                    );
                    std::hint::black_box(&one_out);
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e9 / gv_reps as f64);
            }
            best
        };
        let gv_simd = {
            let mut best = f64::INFINITY;
            for _ in 0..TRIALS {
                let t0 = Instant::now();
                for _ in 0..gv_reps {
                    agora_math::gemv_with_tier(
                        k,
                        m,
                        std::hint::black_box(&w),
                        std::hint::black_box(&ant[..m]),
                        &mut one_out,
                        tier,
                    );
                    std::hint::black_box(&one_out);
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e9 / gv_reps as f64);
            }
            best
        };

        // ZF: pinv of an M x K channel (the per-group zf_task core).
        let h = CMat::from_fn(m, k, |r, c| {
            let i = (r * k + c) as u64;
            Cf32::new(
                ((i * 2654435761 % 1000) as f32 / 1000.0) - 0.5,
                ((i * 40503 % 1000) as f32 / 1000.0) - 0.5,
            )
        });
        let mut pout = CMat::zeros(k, m);
        let zf_reps = ((1usize << 24) / (m * k * k)).max(64);
        let mut s_scal = PinvScratch::with_tier(m, k, SimdTier::Scalar);
        let mut s_simd = PinvScratch::with_tier(m, k, tier);
        let zf_scal = time_pinv(&h, &mut s_scal, &mut pout, zf_reps);
        let zf_simd = time_pinv(&h, &mut s_simd, &mut pout, zf_reps);

        let eq_x = eq_scal / eq_simd;
        let gv_x = gv_scal / gv_simd;
        let zf_x = zf_scal / zf_simd;
        println!(
            "{m:>8} {k:>6} | {eq_scal:>11.0} {eq_simd:>9.0} {eq_x:>5.1}x | {gv_scal:>11.0} {gv_simd:>9.0} {gv_x:>5.1}x | {zf_scal:>11.0} {zf_simd:>9.0} {zf_x:>5.1}x"
        );
        rows.push(format!(
            "{m},{k},{BATCH},{eq_scal:.0},{eq_simd:.0},{eq_x:.2},{gv_scal:.0},{gv_simd:.0},{gv_x:.2},{zf_scal:.0},{zf_simd:.0},{zf_x:.2}"
        ));
        if (m, k) == (64, 16) {
            eq64 = eq_x;
            paper = (eq_simd / BATCH as f64, zf_simd);
        }
    }
    let p = write_csv(
        "gemm_simd",
        "m,k,batch,eq_scalar_ns,eq_simd_ns,eq_speedup,gemv_scalar_ns,gemv_simd_ns,gemv_speedup,zf_scalar_ns,zf_simd_ns,zf_speedup",
        &rows,
    );
    println!("\nwrote {}", p.display());
    println!(
        "64x16 (paper config): equalize {eq64:.1}x; per-subcarrier equalize {:.0} ns, zf group {:.0} ns",
        paper.0, paper.1
    );
    // The PR's acceptance floor — fail loudly if the kernels regress.
    if eq64 < 3.0 {
        println!("FAIL: below the >=3x floor for the 64x16 equalize GEMM");
        std::process::exit(1);
    }
}
