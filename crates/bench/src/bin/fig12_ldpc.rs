//! Figure 12: LDPC BER and decode time vs SNR, for (a) lifting sizes
//! Z in {104, 384} x iterations in {5, 10} at rate 1/3, and (b) code
//! rates {1/3, 2/3, 8/9} at Z=104, 5 iterations. BPSK over AWGN,
//! measured on this machine's real decoder.
//!
//! A third sweep runs both decoding planes — `f32` and fixed-point `i8`,
//! each on the detected and the forced-scalar tier — over identical
//! noisy words, writing `results/ldpc_simd.csv` with per-point times
//! (so the Z-lane ratio of both precisions is one table) and BLER, plus
//! a per-Z summary row recording the waterfall SNR shift
//! (`bler_delta_db`) the quantisation costs.

use agora_bench::csv::write_csv;
use agora_ldpc::{
    quantize_llrs, BaseGraphId, DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, Encoder,
    ErrorStats, RateMatch, DEFAULT_LLR_SCALE,
};
use agora_math::SimdTier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Point {
    ber: f64,
    bler: f64,
    time_us: f64,
}

fn run_point(z: usize, iters: usize, rate: f32, snr_db: f32, blocks: usize, seed: u64) -> Point {
    let bg = BaseGraphId::Bg1;
    let enc = Encoder::new(bg, z);
    let rm = RateMatch::for_rate(bg, z, rate);
    let mut dec = Decoder::new(bg, z);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = ErrorStats::new();
    let sigma2 = 10.0f32.powf(-snr_db / 10.0);
    let sigma = sigma2.sqrt();
    let mut decode_time = 0.0f64;

    for _ in 0..blocks {
        let info: Vec<u8> = (0..enc.info_len()).map(|_| rng.gen::<bool>() as u8).collect();
        let cw = enc.encode(&info);
        let tx = rm.extract(&cw);
        // BPSK + AWGN, LLR = 2y/sigma^2.
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| {
                let x = if b == 0 { 1.0f32 } else { -1.0 };
                let n: f32 = {
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
                };
                2.0 * (x + sigma * n) / sigma2
            })
            .collect();
        let full = rm.fill_llrs(&llrs);
        let t0 = Instant::now();
        let res = dec.decode(
            &full,
            &DecodeConfig {
                max_iters: iters,
                active_rows: Some(rm.active_rows()),
                early_termination: false,
                ..Default::default()
            },
        );
        decode_time += t0.elapsed().as_secs_f64();
        stats.record(&info, &res.info_bits, res.success);
    }
    Point { ber: stats.ber(), bler: stats.bler(), time_us: decode_time * 1e6 / blocks as f64 }
}

struct SimdPoint {
    f32_bler: f64,
    i8_bler: f64,
    f32_time_us: f64,
    f32_scalar_time_us: f64,
    i8_time_us: f64,
    i8_scalar_time_us: f64,
}

/// Runs the `f32` and the `i8` layered decoder (each on the detected tier
/// and forced scalar) over the *same* noisy words, so BLER differences
/// are purely quantisation and time differences purely the decoder plane
/// and tier.
fn run_simd_point(
    z: usize,
    iters: usize,
    rate: f32,
    snr_db: f32,
    blocks: usize,
    seed: u64,
) -> SimdPoint {
    let bg = BaseGraphId::Bg1;
    let enc = Encoder::new(bg, z);
    let rm = RateMatch::for_rate(bg, z, rate);
    let mut dec = Decoder::new(bg, z);
    let mut dec_scalar = Decoder::with_tier(bg, z, SimdTier::Scalar);
    let mut dec_i8 = DecoderI8::new(bg, z);
    let mut dec_i8_scalar = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma2 = 10.0f32.powf(-snr_db / 10.0);
    let sigma = sigma2.sqrt();

    let mut f32_stats = ErrorStats::new();
    let mut i8_stats = ErrorStats::new();
    let mut full = vec![0.0f32; dec.codeword_len()];
    let mut tx_i8 = Vec::new();
    let mut full_i8 = vec![0i8; dec_i8.codeword_len()];
    let (mut t_f32, mut t_f32_scalar, mut t_i8, mut t_i8_scalar) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);

    for _ in 0..blocks {
        let info: Vec<u8> = (0..enc.info_len()).map(|_| rng.gen::<bool>() as u8).collect();
        let cw = enc.encode(&info);
        let tx = rm.extract(&cw);
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| {
                let x = if b == 0 { 1.0f32 } else { -1.0 };
                let n: f32 = {
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
                };
                2.0 * (x + sigma * n) / sigma2
            })
            .collect();
        rm.fill_llrs_into(&llrs, &mut full);
        tx_i8.resize(llrs.len(), 0);
        quantize_llrs(&llrs, &mut tx_i8, DEFAULT_LLR_SCALE);
        rm.fill_llrs_into(&tx_i8, &mut full_i8);

        let cfg_f32 = DecodeConfig {
            max_iters: iters,
            active_rows: Some(rm.active_rows()),
            early_termination: false,
            ..Default::default()
        };
        let cfg_i8 = DecodeConfigI8 {
            max_iters: iters,
            active_rows: Some(rm.active_rows()),
            early_termination: false,
            ..Default::default()
        };

        let t0 = Instant::now();
        let rf = dec.decode(&full, &cfg_f32);
        t_f32 += t0.elapsed().as_secs_f64();
        f32_stats.record(&info, &rf.info_bits, rf.success);

        let t0 = Instant::now();
        let rfs = dec_scalar.decode(&full, &cfg_f32);
        t_f32_scalar += t0.elapsed().as_secs_f64();
        assert_eq!(rfs.info_bits, rf.info_bits, "f32 tiers must be bit-exact");

        let t0 = Instant::now();
        let ri = dec_i8.decode(&full_i8, &cfg_i8);
        t_i8 += t0.elapsed().as_secs_f64();
        i8_stats.record(&info, &ri.info_bits, ri.success);

        let t0 = Instant::now();
        let rs = dec_i8_scalar.decode(&full_i8, &cfg_i8);
        t_i8_scalar += t0.elapsed().as_secs_f64();
        assert_eq!(rs.info_bits, ri.info_bits, "i8 tiers must be bit-exact");
    }
    let us = 1e6 / blocks as f64;
    SimdPoint {
        f32_bler: f32_stats.bler(),
        i8_bler: i8_stats.bler(),
        f32_time_us: t_f32 * us,
        f32_scalar_time_us: t_f32_scalar * us,
        i8_time_us: t_i8 * us,
        i8_scalar_time_us: t_i8_scalar * us,
    }
}

/// SNR (linear interpolation in dB) where a BLER curve first crosses
/// `target`, or `None` if it never does on the grid.
fn waterfall_snr(snrs: &[f32], blers: &[f64], target: f64) -> Option<f64> {
    for i in 1..blers.len() {
        let (b0, b1) = (blers[i - 1], blers[i]);
        if b0 > target && b1 <= target {
            let (s0, s1) = (snrs[i - 1] as f64, snrs[i] as f64);
            if (b0 - b1).abs() < 1e-12 {
                return Some(s1);
            }
            return Some(s0 + (s1 - s0) * (b0 - target) / (b0 - b1));
        }
    }
    None
}

fn main() {
    let blocks: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let snrs = [-2.0f32, 0.0, 2.0, 4.0, 6.0, 10.0, 15.0, 20.0];
    let mut rows = Vec::new();

    println!("Figure 12(a) — BER & decode time vs SNR for (Z, iterations), R=1/3");
    println!("config          snr_db   ber       bler     time_us");
    for (z, iters) in [(384usize, 10usize), (384, 5), (104, 10), (104, 5)] {
        for &snr in &snrs {
            let p = run_point(z, iters, 1.0 / 3.0, snr, blocks, 7);
            println!(
                "Z={z:<4} it={iters:<3}  {snr:>6.1}  {:>8.2e}  {:>7.3}  {:>8.1}",
                p.ber, p.bler, p.time_us
            );
            rows.push(format!("a,{z},{iters},0.333,{snr},{},{},{}", p.ber, p.bler, p.time_us));
        }
    }

    println!("\nFigure 12(b) — BER & decode time vs SNR for code rates, Z=104, 5 it");
    println!("rate   snr_db   ber       bler     time_us");
    for rate in [1.0f32 / 3.0, 2.0 / 3.0, 8.0 / 9.0] {
        for &snr in &snrs {
            let p = run_point(104, 5, rate, snr, blocks, 9);
            println!(
                "{rate:<5.2} {snr:>6.1}  {:>8.2e}  {:>7.3}  {:>8.1}",
                p.ber, p.bler, p.time_us
            );
            rows.push(format!("b,104,5,{rate},{snr},{},{},{}", p.ber, p.bler, p.time_us));
        }
    }

    let p = write_csv("fig12_ldpc", "panel,z,iters,rate,snr_db,ber,bler,time_us", &rows);
    println!("\nwrote {}", p.display());
    println!("expected shapes: decode time linear in Z and iterations; lower rate ->");
    println!("more time and lower BER; BER waterfall below ~10 dB (paper Figure 12).");

    // Both planes (detected + forced-scalar tier) on identical noisy
    // words, across the waterfall. The summary rows interpolate where
    // each curve crosses BLER = 0.5 and record the SNR shift the i8
    // quantisation costs (acceptance: <= 0.2 dB).
    println!("\nDecoding planes — f32 vs i8 layered decoder, R=1/3, 5 it");
    println!("Z     snr_db  f32_bler  i8_bler  f32_us  f32_scalar_us   i8_us  i8_scalar_us");
    let simd_blocks = blocks.max(24);
    let simd_snrs = [1.0f32, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0];
    let mut simd_rows = Vec::new();
    for z in [64usize, 104, 384] {
        let mut f32_blers = Vec::new();
        let mut i8_blers = Vec::new();
        for &snr in &simd_snrs {
            let sp = run_simd_point(z, 5, 1.0 / 3.0, snr, simd_blocks, 21);
            println!(
                "{z:<5} {snr:>6.1}  {:>8.3}  {:>7.3}  {:>6.1}  {:>13.1}  {:>6.1}  {:>12.1}",
                sp.f32_bler,
                sp.i8_bler,
                sp.f32_time_us,
                sp.f32_scalar_time_us,
                sp.i8_time_us,
                sp.i8_scalar_time_us
            );
            simd_rows.push(format!(
                "point,{z},5,{snr},{},{},{},{},{},{},{:.3},{:.3},",
                sp.f32_bler,
                sp.i8_bler,
                sp.f32_time_us,
                sp.f32_scalar_time_us,
                sp.i8_time_us,
                sp.i8_scalar_time_us,
                sp.f32_scalar_time_us / sp.f32_time_us,
                sp.i8_scalar_time_us / sp.i8_time_us
            ));
            f32_blers.push(sp.f32_bler);
            i8_blers.push(sp.i8_bler);
        }
        // Waterfall positions at BLER = 0.5: the curves are steep there,
        // so the correlated-noise comparison resolves small shifts.
        let delta = match (
            waterfall_snr(&simd_snrs, &f32_blers, 0.5),
            waterfall_snr(&simd_snrs, &i8_blers, 0.5),
        ) {
            (Some(f), Some(i)) => i - f,
            // A curve pinned at 0 or 1 over the whole grid means the
            // shift is below the grid resolution at this Z.
            _ => 0.0,
        };
        println!("Z={z}: waterfall shift from quantisation = {delta:+.3} dB");
        simd_rows.push(format!("summary,{z},5,,,,,,,,,,{delta:.3}"));
    }
    let p = write_csv(
        "ldpc_simd",
        "kind,z,iters,snr_db,f32_bler,i8_bler,f32_time_us,f32_scalar_time_us,i8_time_us,i8_scalar_time_us,f32_lane_speedup,i8_lane_speedup,bler_delta_db",
        &simd_rows,
    );
    println!("\nwrote {}", p.display());
    println!("expected shape: each plane several times faster on the vector tier than on");
    println!("its scalar tier, i8 ahead of f32 (32 lanes per op against 8), and the");
    println!("quantisation waterfall shift within 0.2 dB.");
}
