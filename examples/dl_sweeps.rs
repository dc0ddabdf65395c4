//! Where the downlink's time goes: `encode_task` next to the parts of the
//! byte pipeline it replaced (payload, encode, rate-match and store); one
//! downlink symbol's `precode_task` and, right after it, the symbol's
//! IFFT tasks at the default batch (`ifft_batch_task`, as the engine
//! runs them), next to the precoding GEMMs of those tasks' antenna rows
//! (one `count x K` GEMM per task and block) and the precoding GEMMs of
//! the whole symbol (planned on every SIMD tier the CPU runs); the
//! single-antenna `ifft_task` next to the transforms it runs (interleaved,
//! each row the median of per-round values, each difference row of
//! per-round differences); and the share of
//! `InlineProcessor::process_frame` a downlink frame spends copying its
//! `dl_time` samples out. It runs in the allocator state the
//! benchmark sets (`pin_allocator` in `benchmark/src/sys.rs`), where the
//! readout's fresh `Vec`s reuse freed heap instead of faulting in new
//! pages. Only the public API is used, so the same file runs unchanged on
//! an older checkout for a before/after (EXPERIMENTS.md, "Downlink
//! sweeps").
//!
//! ```text
//! cargo run --release --example dl_sweeps          # 64x16, 2048/1200, 64-QAM, BG1 Z=104
//! cargo run --release --example dl_sweeps small    # 8x2, 256/240, QPSK, BG2 Z=12
//! ```

use agora_core::kernels::mac_payload;
use agora_core::{EngineConfig, InlineProcessor};
use agora_fft::{Direction, FftPlan};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_ldpc::Encoder;
use agora_math::{Cf32, Gemm, SimdTier};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 200;

/// Rounds of the symbol and IFFT rows, each timing the symbol's precode
/// and IFFT tasks, their GEMM rows, the single-antenna task warm and both
/// transforms, in alternating order.
const ROUNDS: usize = 9;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median of `reps` timings of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    median(
        (0..reps)
            .map(|rep| {
                let t = Instant::now();
                f(rep);
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect(),
    )
}

/// An inline processor for `cell`, with one frame of it processed, and
/// that frame's received packets: the RRU sends nothing in a downlink
/// slot.
fn primed(cell: &CellConfig) -> (InlineProcessor, Vec<bytes::Bytes>) {
    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db: 25.0, ..Default::default() });
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg);
    let (packets, _) = rru.generate_frame(0);
    proc.process_frame(0, &packets);
    (proc, packets)
}

/// The benchmark's allocator state: glibc's mmap threshold fixed at
/// 128 KB and trimming off, so freed blocks stay in the heap for the next
/// frame's readout. Called before anything allocates.
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: glibc's tuning call, two integers, one thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

fn main() {
    pin_allocator();
    let small = std::env::args().nth(1).as_deref() == Some("small");
    let base = if small { CellConfig::tiny_test(1) } else { CellConfig::emulated_rru(64, 16, 1) };
    let mut cell = base.clone();
    cell.schedule = FrameSchedule::parse("PD").expect("valid schedule");
    let downlink = 1;
    let (proc, _) = primed(&cell);
    let (kernels, fb) = (proc.kernels(), proc.buffers(0));
    let mut scratch = kernels.scratch();
    let (g, n) = (kernels.geom, cell.fft_size);

    // --- encode: the task, then the byte pipeline's parts
    let k = g.k as u32;
    let encode_task = median_us(REPS, |rep| kernels.encode_task(fb, 0, downlink, rep % g.k));
    let rm = kernels.rate_match();
    let encoder = Encoder::new(cell.ldpc.base_graph, cell.ldpc.z);
    let payload = median_us(REPS, |rep| {
        black_box(mac_payload(0, downlink as u32, rep as u32 % k, rm.info_len()));
    });
    let info = mac_payload(0, downlink as u32, 0, rm.info_len());
    let encode = median_us(REPS, |_| {
        black_box(encoder.encode(&info));
    });
    let codeword = encoder.encode(&info);
    let mut row = vec![0u8; g.cap_bits];
    let rate_match = median_us(REPS, |_| {
        let mut tx = rm.extract(&codeword);
        tx.resize(g.cap_bits, 0);
        row.copy_from_slice(&tx);
        black_box(&mut row);
    });

    // --- one symbol: precode, then its IFFT tasks at the default batch,
    // the GEMM rows those tasks' antennas take, the single-antenna IFFT
    // task and the transforms it can run, interleaved
    let batch = kernels.cfg.batch.ifft;
    let tasks: Vec<(usize, usize)> =
        (0..g.m).step_by(batch).map(|base| (base, batch.min(g.m - base))).collect();
    let blocks = g.q / g.block;
    // A `[block][user][block sc]` plane of user symbols, the operand the
    // IFFT tasks' GEMMs read block by block.
    let symbols: Vec<Cf32> =
        (0..g.q * g.k).map(|i| Cf32::new(0.5 - (i % 7) as f32 / 8.0, 0.25)).collect();
    let mut rows = vec![Cf32::ZERO; g.m * g.block];
    let plans: Vec<Gemm> = tasks
        .iter()
        .map(|&(_, count)| Gemm::plan_with_tier(count, g.k, g.block, SimdTier::cached()))
        .collect();
    let mut gemm_rows = || {
        median_us(REPS / 4, |_| {
            for (&(base, count), plan) in tasks.iter().zip(&plans) {
                for blk in 0..blocks {
                    // SAFETY: single-threaded; no task is in flight.
                    let w = unsafe { fb.pre.view(Some(blk * g.block / g.zf_group)) };
                    let b = &symbols[blk * g.k * g.block..(blk + 1) * g.k * g.block];
                    plan.run(&w[base * g.k..(base + count) * g.k], b, &mut rows[..count * g.block]);
                    black_box(&mut rows);
                }
            }
        })
    };
    // Per repetition, the symbol's precode task and then its IFFT tasks,
    // as the engine orders them: (precode, IFFT tasks, both) medians.
    let mut symbol_tasks = || {
        let (mut pre, mut ifft, mut both) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS / 4 {
            let t = Instant::now();
            kernels.precode_task(fb, &mut scratch, downlink, 0, g.q);
            let mid = Instant::now();
            for &(base, count) in &tasks {
                kernels.ifft_batch_task(fb, &mut scratch, downlink, base, count);
            }
            let end = Instant::now();
            pre.push((mid - t).as_nanos() as f64 / 1e3);
            ifft.push((end - mid).as_nanos() as f64 / 1e3);
            both.push((end - t).as_nanos() as f64 / 1e3);
        }
        [median(pre), median(ifft), median(both)]
    };
    let plan = FftPlan::new(n);
    let time = unsafe { fb.dl_time.view(Some(downlink)) };
    let mut grid = vec![Cf32::ZERO; n];
    let mut transform = |dir: Direction| {
        median_us(REPS, |rep| {
            // A fresh copy per pass: repeated un-normalised forward
            // transforms would overflow.
            let ant = rep % g.m;
            grid.copy_from_slice(&time[ant * g.samples..ant * g.samples + n]);
            plan.execute_prereversed(&mut grid, dir);
            black_box(&mut grid);
        })
    };
    let mut warm_scratch = kernels.scratch();
    let rounds: Vec<[f64; 7]> = (0..ROUNDS)
        .map(|round| {
            let mut us = [0.0; 7];
            let order = if round % 2 == 0 { [0, 1, 2, 3, 4] } else { [4, 3, 2, 1, 0] };
            for i in order {
                match i {
                    0 => us[..3].copy_from_slice(&symbol_tasks()),
                    1 => us[3] = gemm_rows(),
                    2 => {
                        us[4] = median_us(REPS, |rep| {
                            kernels.ifft_task(fb, &mut warm_scratch, downlink, rep % g.m)
                        })
                    }
                    3 => us[5] = transform(Direction::Inverse),
                    _ => us[6] = transform(Direction::Forward),
                }
            }
            us
        })
        .collect();
    let over_rounds = |f: &dyn Fn(&[f64; 7]) -> f64| median(rounds.iter().map(f).collect());
    let [precode_task, ifft_tasks, symbol_both, gemms, ifft_task, inverse, forward] =
        [0, 1, 2, 3, 4, 5, 6].map(|i| over_rounds(&|r| r[i]));
    let (minus_inverse, minus_forward) =
        (over_rounds(&|r| r[4] - r[5]), over_rounds(&|r| r[4] - r[6]));
    let copy = median_us(REPS, |rep| {
        let ant = rep % g.m;
        grid.copy_from_slice(&time[ant * g.samples..ant * g.samples + n]);
        black_box(&mut grid);
    });

    // The precoding GEMMs of the whole symbol, every antenna in one GEMM
    // per block, on every tier.
    let user_block = vec![Cf32::new(0.5, -0.5); g.k * g.block];
    let mut ant_block = vec![Cf32::ZERO; g.m * g.block];
    let pre_gemms: Vec<(SimdTier, f64)> = SimdTier::supported()
        .map(|tier| {
            let pre = Gemm::plan_with_tier(g.m, g.k, g.block, tier);
            let us = median_us(REPS / 4, |_| {
                for blk in 0..blocks {
                    // SAFETY: single-threaded; no task is in flight.
                    let w = unsafe { fb.pre.view(Some(blk * g.block / g.zf_group)) };
                    pre.run(w, &user_block, &mut ant_block);
                    black_box(&mut ant_block);
                }
            });
            (tier, us)
        })
        .collect();

    // --- the whole frame, and its readout
    let mut full = base;
    full.schedule = FrameSchedule::downlink(1, 13);
    let (mut frame_proc, packets) = primed(&full);
    let frames = if small { 60 } else { 8 };
    let frame_ms = median_us(frames, |_| {
        black_box(frame_proc.process_frame(0, &packets));
    }) / 1e3;
    let dl = full.schedule.downlink_indices();
    let fb = frame_proc.buffers(0);
    let readout_ms = median_us(frames, |_| {
        // What `process_frame` does last: every downlink symbol's antennas
        // copied into fresh `Vec`s.
        let rows: Vec<Vec<Vec<Cf32>>> = dl
            .iter()
            .map(|&s| {
                let row = unsafe { fb.dl_time.view(Some(s)) };
                row.chunks_exact(g.samples).map(<[_]>::to_vec).collect()
            })
            .collect();
        black_box(rows);
    }) / 1e3;

    println!(
        "{}x{}, FFT {n}, {} subcarriers, {:?}, {:?} Z={} — medians, us",
        g.m, g.k, g.q, cell.modulation, cell.ldpc.base_graph, cell.ldpc.z
    );
    println!("encode, one code block ({} info bits)", rm.info_len());
    println!("  encode_task           {encode_task:8.2}   the task as the engine runs it");
    println!("  mac_payload           {payload:8.2}   bit-serial payload");
    println!("  Encoder::encode       {encode:8.2}   byte encoder, whole mother code");
    println!(
        "  extract + store       {rate_match:8.2}   rate match, pad and copy a byte-per-bit row"
    );
    println!(
        "  sum of the parts      {:8.2}   the byte pipeline end to end",
        payload + encode + rate_match
    );
    println!(
        "downlink symbol: precode, then {} IFFT tasks of {batch} antennas ({ROUNDS} interleaved rounds)",
        tasks.len()
    );
    println!(
        "  precode_task          {precode_task:8.2}   {:6.1} ns per subcarrier",
        precode_task * 1e3 / g.q as f64
    );
    println!("  IFFT tasks            {ifft_tasks:8.2}   right after it, the engine's order");
    println!("  precode + IFFT tasks  {symbol_both:8.2}   the two back to back");
    println!(
        "  IFFT tasks' GEMM rows {gemms:8.2}   {} GEMMs of count x {} x {}, detected tier",
        tasks.len() * blocks,
        g.k,
        g.block
    );
    for (tier, us) in &pre_gemms {
        println!(
            "  {blocks:4} symbol GEMMs     {us:8.2}   {:6.1} ns per subcarrier, {} x {} x {}, {tier:?}",
            us * 1e3 / g.q as f64,
            g.m,
            g.k,
            g.block
        );
    }
    println!("IFFT, one antenna");
    println!("  ifft_task             {ifft_task:8.2}   warm, one antenna a task");
    println!("  execute_prereversed   {inverse:8.2}   inverse (conj passes included)");
    println!("  execute_prereversed   {forward:8.2}   forward (butterflies only)");
    println!("  grid copy             {copy:8.2}   one 16-byte-aligned copy of {n} samples");
    println!("  ifft_task - inverse   {minus_inverse:8.2}   (median difference)");
    println!("  ifft_task - forward   {minus_forward:8.2}   everything but the butterflies");
    println!("downlink frame ({} downlink symbols), ms", dl.len());
    println!("  process_frame         {frame_ms:8.3}");
    println!(
        "  dl_time readout       {readout_ms:8.3}   {:.1} % of the frame; {:.1} MB into fresh Vecs",
        100.0 * readout_ms / frame_ms,
        (dl.len() * g.m * g.samples * 8) as f64 / 1e6
    );
}
