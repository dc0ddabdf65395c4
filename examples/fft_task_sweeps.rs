//! Where an (I)FFT task's time goes: the sweeps around the transform
//! timed one by one through their public entry points — the unpack on the
//! detected tier and as its scalar oracle, the forward and inverse
//! butterflies — next to the whole task bodies, on a frame primed by one
//! inline pass (EXPERIMENTS.md, "FFT task sweeps").
//!
//! ```text
//! cargo run --release --example fft_task_sweeps          # 64x16, 2048/1200
//! cargo run --release --example fft_task_sweeps small    # 8x2, 256/240
//! ```

use agora_core::kernels::unpack_bitrev;
use agora_core::{EngineConfig, InlineProcessor};
use agora_fft::{Direction, FftPlan, SubcarrierMap};
use agora_fronthaul::packet::decode_ref;
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_math::{Cf32, SimdTier};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use std::time::Instant;

const REPS: usize = 400;

fn main() {
    let small = std::env::args().nth(1).as_deref() == Some("small");
    let mut cell =
        if small { CellConfig::tiny_test(1) } else { CellConfig::emulated_rru(64, 16, 1) };
    cell.schedule = FrameSchedule::parse("PUD").expect("valid schedule");
    let (pilot, uplink, downlink) = (0, 1, 2);
    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db: 25.0, ..Default::default() });
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg);
    let (packets, _) = rru.generate_frame(0);
    proc.process_frame(0, &packets);
    let (kernels, fb) = (proc.kernels(), proc.buffers(0));
    let mut scratch = kernels.scratch();
    let (g, n) = (kernels.geom, cell.fft_size);
    let plan = FftPlan::new(n);
    let oracle = FftPlan::with_tier(n, SimdTier::Scalar);
    let map = SubcarrierMap::new(n, cell.num_data_sc);
    let mut grid = vec![Cf32::ZERO; n];
    let mut active = vec![Cf32::ZERO; cell.num_data_sc];
    // The uplink symbol's payloads, per antenna: what its FFT tasks read.
    let mut payloads = vec![&[][..]; g.m];
    for pkt in &packets {
        let (hdr, payload) = decode_ref(pkt).expect("generated packets decode");
        if hdr.symbol as usize == uplink {
            payloads[hdr.antenna as usize] = payload;
        }
    }

    // One column of samples per stage; each rep walks to the next antenna
    // so successive tasks touch the lines a real symbol would.
    let mut ns: [Vec<u128>; 8] = Default::default();
    for rep in 0..REPS {
        let ant = rep % g.m;
        let payload = payloads[ant];
        let mut t = Instant::now();
        let mut lap = |col: &mut Vec<u128>| {
            col.push(t.elapsed().as_nanos());
            t = Instant::now();
        };
        unpack_bitrev(payload, g.samples - n, &oracle, &mut grid);
        lap(&mut ns[0]);
        unpack_bitrev(payload, g.samples - n, &plan, &mut grid);
        lap(&mut ns[1]);
        plan.execute_prereversed(&mut grid, Direction::Forward);
        lap(&mut ns[2]);
        map.demap_symbols(&grid, &mut active);
        std::hint::black_box(&active);
        lap(&mut ns[3]);
        plan.execute_prereversed(&mut grid, Direction::Inverse);
        std::hint::black_box(&grid);
        lap(&mut ns[4]);
        kernels.fft_task(fb, &mut scratch, uplink, ant);
        lap(&mut ns[5]);
        kernels.fft_task(fb, &mut scratch, pilot, ant);
        lap(&mut ns[6]);
        kernels.ifft_task(fb, &mut scratch, downlink, ant);
        lap(&mut ns[7]);
    }
    let [oracle, unpack, forward, demap, inverse, ul_task, pilot_task, ifft_task] =
        ns.map(|mut col| {
            col.sort_unstable();
            col[col.len() / 2] as f64 / 1e3
        });
    let tier = format!("{:?}", plan.tier());
    println!("{}x{}, FFT {n}, {} subcarriers — medians of {REPS}, us", g.m, g.k, g.q);
    println!("  unpack_bitrev, scalar{oracle:8.2}   the oracle: unpack_sample per sample");
    println!("  unpack_bitrev, {tier:<6}{unpack:8.2}   what the FFT task runs");
    println!("  execute_prereversed  {forward:8.2}   forward");
    println!(
        "  demap_symbols        {demap:8.2}   (a sweep of its own once; fused into the store)"
    );
    println!("  execute_prereversed  {inverse:8.2}   inverse");
    println!("  fft_task, uplink     {ul_task:8.2}   store = task - unpack - forward [- demap]");
    println!("  fft_task, pilot      {pilot_task:8.2}");
    println!("  ifft_task            {ifft_task:8.2}   gather + conj passes = task - inverse");
}
