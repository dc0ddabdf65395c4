//! Where the downlink's time goes: `encode_task` next to the parts of the
//! byte pipeline it replaced (payload, encode, rate-match and store),
//! `ifft_task` next to the transforms it runs, `precode_task` next to its
//! GEMMs (planned on every SIMD tier the CPU runs), and the
//! share of `InlineProcessor::process_frame` a downlink frame spends
//! copying its `dl_time` samples out. It runs in the allocator state the
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
use agora_fronthaul::packet::decode_ref;
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_ldpc::Encoder;
use agora_math::{Cf32, Gemm, SimdTier};
use agora_phy::frame::{FrameSchedule, SymbolType};
use agora_phy::CellConfig;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 200;

/// Median of `reps` timings of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let mut ns: Vec<u128> = (0..reps)
        .map(|rep| {
            let t = Instant::now();
            f(rep);
            t.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e3
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
    let received = |p: &bytes::Bytes| {
        let symbol = decode_ref(p).expect("generated packets decode").0.symbol as usize;
        cell.schedule.symbol(symbol) != SymbolType::Downlink
    };
    let packets: Vec<_> = packets.into_iter().filter(received).collect();
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

    // --- IFFT: the task, then the transforms it can run
    let ifft_task = median_us(REPS, |rep| kernels.ifft_task(fb, &mut scratch, downlink, rep % g.m));
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
    let (inverse, forward) = (transform(Direction::Inverse), transform(Direction::Forward));
    let copy = median_us(REPS, |rep| {
        let ant = rep % g.m;
        grid.copy_from_slice(&time[ant * g.samples..ant * g.samples + n]);
        black_box(&mut grid);
    });

    // --- precode: one whole symbol
    let precode_task =
        median_us(REPS / 4, |_| kernels.precode_task(fb, &mut scratch, downlink, 0, g.q));
    // Its GEMMs, one per block of subcarriers, on every tier; the task
    // runs the last, detected one.
    let blocks = g.q / g.block;
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
    println!("IFFT, one antenna");
    println!("  ifft_task             {ifft_task:8.2}");
    println!("  execute_prereversed   {inverse:8.2}   inverse (conj passes included)");
    println!("  execute_prereversed   {forward:8.2}   forward (butterflies only)");
    println!("  grid copy             {copy:8.2}   one 16-byte-aligned copy of {n} samples");
    println!("  ifft_task - inverse   {:8.2}", ifft_task - inverse);
    println!("  ifft_task - forward   {:8.2}   scatter + store", ifft_task - forward);
    println!("precode, one symbol");
    println!(
        "  precode_task          {precode_task:8.2}   {:6.1} ns per subcarrier",
        precode_task * 1e3 / g.q as f64
    );
    for (tier, us) in &pre_gemms {
        println!(
            "  {blocks:4} precode GEMMs    {us:8.2}   {:6.1} ns per subcarrier, {tier:?}",
            us * 1e3 / g.q as f64
        );
    }
    println!("downlink frame ({} downlink symbols), ms", dl.len());
    println!("  process_frame         {frame_ms:8.3}");
    println!(
        "  dl_time readout       {readout_ms:8.3}   {:.1} % of the frame; {:.1} MB into fresh Vecs",
        100.0 * readout_ms / frame_ms,
        (dl.len() * g.m * g.samples * 8) as f64 / 1e6
    );
}
