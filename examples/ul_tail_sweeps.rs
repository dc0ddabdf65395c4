//! Where the two GEMM tasks' time goes: `demod_task` and `precode_task`
//! of one whole symbol next to their GEMMs (planned on every SIMD tier
//! the CPU runs; the tasks run the last, detected one) and the sweeps
//! around them,
//! and `decode_task` next to its gather and its decoder, each timed
//! through its public entry point on a frame primed by one inline pass
//! (EXPERIMENTS.md, "Uplink tail sweeps"). Decode reads the engine's `i8`
//! LLR plane, as `decode_task` does. `demod_task - GEMMs` is also printed
//! once per vector tier, `Kernels` pinned to it: both run the AVX2
//! demapper, so the rows differ only in the GEMM the task runs, and the
//! tiers are timed in alternating order, round by round.
//!
//! ```text
//! cargo run --release --example ul_tail_sweeps          # 64x16, 1200 sc, 64-QAM
//! cargo run --release --example ul_tail_sweeps small    # 8x2, 240 sc, QPSK
//! ```

use agora_core::{EngineConfig, InlineProcessor, Kernels};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_ldpc::{quantize_llrs, DecodeConfigI8, DecoderI8, DEFAULT_LLR_SCALE};
use agora_math::{Cf32, Gemm, SimdTier};
use agora_phy::demod::Demapper;
use agora_phy::frame::FrameSchedule;
use agora_phy::modulation::modulate;
use agora_phy::CellConfig;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 60;

/// Alternating rounds of the per-tier `demod_task - GEMMs` rows.
const ROUNDS: usize = 6;

/// Median of `REPS` timings of `f`, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut ns: Vec<u128> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e3
}

fn main() {
    let small = std::env::args().nth(1).as_deref() == Some("small");
    let mut cell =
        if small { CellConfig::tiny_test(1) } else { CellConfig::emulated_rru(64, 16, 1) };
    cell.schedule = FrameSchedule::parse("PUD").expect("valid schedule");
    let (uplink, downlink) = (1, 2);
    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db: 25.0, ..Default::default() });
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let noise = cfg.noise_power.max(1e-9);
    let mut proc = InlineProcessor::new(cfg.clone());
    let (packets, _) = rru.generate_frame(0);
    proc.process_frame(0, &packets);
    let (kernels, fb) = (proc.kernels(), proc.buffers(0));
    let mut scratch = kernels.scratch();
    let g = kernels.geom;
    let (scheme, bps) = (cell.modulation, cell.modulation.bits_per_symbol());
    let blocks = g.q / g.block;

    // --- uplink: one symbol of equalize + demodulate
    let demod_task = median_us(|| kernels.demod_task(fb, &mut scratch, 0, uplink, 0, g.q));
    // SAFETY (here and below): single-threaded; the inline pass has run
    // and no task is in flight while a view is alive.
    let freq = unsafe { fb.freq.view(Some(uplink)) };
    let det_of = |blk: usize| unsafe { fb.det.view(Some(blk * g.block / g.zf_group)) };
    let mut user_block = vec![Cf32::ZERO; g.k * g.block];
    let eq_gemms: Vec<(SimdTier, f64)> = SimdTier::supported()
        .map(|tier| {
            let eq = Gemm::plan_with_tier(g.k, g.m, g.block, tier);
            let us = median_us(|| {
                for blk in 0..blocks {
                    eq.run(det_of(blk), &freq[g.block_cols(blk)], &mut user_block);
                    black_box(&mut user_block);
                }
            });
            (tier, us)
        })
        .collect();
    let eq_gemm = eq_gemms.last().expect("the scalar tier is always supported").1;
    // The post-ZF noise variance of every (block, user): `noise * ||w_u||^2`,
    // the detector row summed in order.
    let noise_scale = median_us(|| {
        for blk in 0..blocks {
            for row in det_of(blk).chunks_exact(g.m) {
                black_box(noise * row.iter().map(|z| z.norm_sqr()).sum::<f32>());
            }
        }
    });
    // Every user's row of every block demapped and quantised to its place
    // in a `[user][bit]` plane, as the task does after each GEMM: the
    // demapper's float row then the quantiser, and the two fused.
    let demapper = Demapper::new(scheme, SimdTier::cached());
    let inv_of = |blk: usize| unsafe { fb.inv_noise.view(Some(blk * g.block / g.zf_group)) };
    let mut plane = vec![0i8; g.k * g.cap_bits];
    let mut llrs = vec![0.0; g.block * bps];
    let mut demap_rows = |fused: bool| {
        median_us(|| {
            for blk in 0..blocks {
                let inv_noise = inv_of(blk);
                for (user, row) in user_block.chunks_exact(g.block).enumerate() {
                    let at = user * g.cap_bits + blk * g.block * bps;
                    let out = &mut plane[at..at + llrs.len()];
                    if fused {
                        demapper.demap_quantized(row, inv_noise[user], DEFAULT_LLR_SCALE, out);
                    } else {
                        demapper.demap(row, inv_noise[user], &mut llrs);
                        quantize_llrs(&llrs, out, DEFAULT_LLR_SCALE);
                    }
                }
            }
            black_box(&mut plane);
        })
    };
    let (demap, fused) = (demap_rows(false), demap_rows(true));
    let zf_task = median_us(|| kernels.zf_task(fb, &mut scratch, 0));
    // Per vector tier: the task and its GEMMs, one after the other, each
    // round visiting the tiers in the other order; medians over rounds.
    let pinned: Vec<(SimdTier, Kernels, Gemm)> = SimdTier::supported()
        .filter(|&tier| tier >= SimdTier::Avx2)
        .map(|tier| {
            let eq = Gemm::plan_with_tier(g.k, g.m, g.block, tier);
            (tier, Kernels::with_tier(cfg.clone(), tier), eq)
        })
        .collect();
    let mut rounds = vec![Vec::new(); pinned.len()];
    for round in 0..ROUNDS {
        for i in 0..pinned.len() {
            let i = if round % 2 == 0 { i } else { pinned.len() - 1 - i };
            let (_, k, eq) = &pinned[i];
            let mut s = k.scratch();
            let task = median_us(|| k.demod_task(fb, &mut s, 0, uplink, 0, g.q));
            let gemms = median_us(|| {
                for blk in 0..blocks {
                    eq.run(det_of(blk), &freq[g.block_cols(blk)], &mut user_block);
                    black_box(&mut user_block);
                }
            });
            rounds[i].push((task, gemms));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let tails: Vec<(SimdTier, f64, f64, f64)> = pinned
        .iter()
        .zip(rounds)
        .map(|((tier, ..), r)| {
            let task = median(r.iter().map(|p| p.0).collect());
            let gemms = median(r.iter().map(|p| p.1).collect());
            (*tier, task, gemms, median(r.iter().map(|p| p.0 - p.1).collect()))
        })
        .collect();

    // --- uplink: one code block
    let decode_task = median_us(|| kernels.decode_task(fb, &mut scratch, uplink, 0));
    let rm = kernels.rate_match();
    let llr = unsafe { fb.llr.view(Some((uplink, 0))) };
    let mut full = vec![0i8; rm.codeword_len()];
    let fill = median_us(|| {
        rm.fill_llrs_into(&llr[..rm.tx_len()], &mut full);
        black_box(&mut full);
    });
    let mut decoder = DecoderI8::new(cell.ldpc.base_graph, cell.ldpc.z);
    let decode_cfg = DecodeConfigI8 {
        max_iters: cell.ldpc.max_iters,
        active_rows: Some(rm.active_rows()),
        ..Default::default()
    };
    let mut info = vec![0u8; decoder.info_len()];
    let decode_into = median_us(|| {
        black_box(decoder.decode_into(&full, &decode_cfg, &mut info));
    });

    // --- downlink: one symbol of modulate + precode
    let precode_task = median_us(|| kernels.precode_task(fb, &mut scratch, downlink, 0, g.q));
    let pre_of = |blk: usize| unsafe { fb.pre.view(Some(blk * g.block / g.zf_group)) };
    let mut ant_block = vec![Cf32::ZERO; g.m * g.block];
    let pre_gemms: Vec<(SimdTier, f64)> = SimdTier::supported()
        .map(|tier| {
            let pre = Gemm::plan_with_tier(g.m, g.k, g.block, tier);
            let us = median_us(|| {
                for blk in 0..blocks {
                    pre.run(pre_of(blk), &user_block, &mut ant_block);
                    black_box(&mut ant_block);
                }
            });
            (tier, us)
        })
        .collect();
    let pre_gemm = pre_gemms.last().expect("the scalar tier is always supported").1;
    // The scalar reference: one bit at a time into `map_symbol`, which is
    // what the task itself once ran per (block, user). It takes a bit per
    // byte, so the packed `dl_bits` rows are unpacked first, outside the
    // timing.
    let mut symbols = Vec::with_capacity(g.block);
    let unpacked: Vec<Vec<u8>> = (0..g.k)
        .map(|user| {
            let packed = unsafe { fb.dl_bits.view(Some((downlink, user))) };
            (0..packed.len() * 8).map(|j| packed[j / 8] >> (j % 8) & 1).collect()
        })
        .collect();
    let modulation = median_us(|| {
        for blk in 0..blocks {
            for (user, bits) in unpacked.iter().enumerate() {
                modulate(
                    scheme,
                    &bits[blk * g.block * bps..(blk + 1) * g.block * bps],
                    &mut symbols,
                );
                user_block[user * g.block..(user + 1) * g.block].copy_from_slice(&symbols);
            }
            black_box(&mut user_block);
        }
    });

    let per_sc = |us: f64| us * 1e3 / g.q as f64;
    println!(
        "{}x{}, {} subcarriers in {blocks} blocks of {}, {scheme:?} — medians of {REPS}, us",
        g.m, g.k, g.q, g.block
    );
    println!("uplink, one symbol");
    println!(
        "  demod_task            {demod_task:8.2}   {:6.1} ns per subcarrier",
        per_sc(demod_task)
    );
    for (tier, us) in &eq_gemms {
        println!(
            "  {blocks:4} eq GEMMs         {us:8.2}   {:6.1} ns per subcarrier, {tier:?}",
            per_sc(*us)
        );
    }
    println!("  {:4} noise scales     {noise_scale:8.2}   (in the task before PR 23; {} per group in zf_task since)", blocks * g.k, g.k);
    println!(
        "  {:4} demap + store    {demap:8.2}   Demapper::demap, then quantize_llrs, per user row",
        blocks * g.k
    );
    println!(
        "  {:4} demap_quantized  {fused:8.2}   the two fused, as the task runs them",
        blocks * g.k
    );
    println!("  demod_task - GEMMs    {:8.2}", demod_task - eq_gemm);
    for (tier, task, gemms, tail) in &tails {
        println!(
            "  demod_task - GEMMs    {tail:8.2}   {tier:?} Kernels, AVX2 demapper: task {task:.2}, GEMMs {gemms:.2} ({ROUNDS} alternating rounds)"
        );
    }
    println!("  zf_task, one group    {zf_task:8.2}");
    println!("uplink, one code block");
    println!("  decode_task           {decode_task:8.2}");
    println!("  fill_llrs_into        {fill:8.2}");
    println!("  decode_into           {decode_into:8.2}");
    println!("downlink, one symbol");
    println!(
        "  precode_task          {precode_task:8.2}   {:6.1} ns per subcarrier",
        per_sc(precode_task)
    );
    for (tier, us) in &pre_gemms {
        println!(
            "  {blocks:4} precode GEMMs    {us:8.2}   {:6.1} ns per subcarrier, {tier:?}",
            per_sc(*us)
        );
    }
    println!("  {:4} modulate rows    {modulation:8.2}   scalar reference: a bit at a time into map_symbol", blocks * g.k);
    println!(
        "  precode_task - GEMMs  {:8.2}   modulation + store as the task runs them",
        precode_task - pre_gemm
    );
}
