//! Threaded uplink end-to-end run: RRU emulator -> fronthaul packets ->
//! the manager/worker engine -> per-frame latency and per-block stats.
//!
//! This exercises the *threaded* engine (manager + worker + network
//! threads with lock-free queues), i.e. the same machinery the paper
//! runs on its 64-core server, scaled to a cell that fits this machine.
//!
//! Run with: `cargo run --release --example uplink_e2e [num_workers]`

use agora_core::stats::COUNTERS;
use agora_core::{Engine, EngineConfig};
use agora_fronthaul::{MemFronthaul, RruConfig, RruEmulator};
use agora_phy::{CellConfig, ModScheme};
use std::sync::atomic::AtomicBool;

fn main() {
    let workers: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);

    // A mid-size cell: 16 antennas, 4 users, 16-QAM, 1 pilot + 4 UL
    // symbols.
    let mut cell = CellConfig::emulated_rru(16, 4, 4);
    cell.fft_size = 512;
    cell.num_data_sc = 240;
    cell.modulation = ModScheme::Qam16;
    cell.ldpc.z = 12; // code block 792 bits <= 240 * 4 = 960-bit capacity
    cell.validate().expect("valid cell");

    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db: 25.0, ..Default::default() });
    let mut cfg = EngineConfig::new(cell.clone(), workers);
    cfg.noise_power = rru.noise_power();
    let engine = Engine::new(cfg);

    // Pre-generate frames (the generator is not the system under test).
    let num_frames = 8u32;
    let mut packets = Vec::new();
    let mut truths = Vec::new();
    for f in 0..num_frames {
        let (pkts, gt) = rru.generate_frame(f);
        packets.extend(pkts);
        truths.push(gt);
    }

    println!(
        "processing {num_frames} frames of {}x{} MIMO with {workers} workers...",
        cell.num_antennas, cell.num_users
    );
    let link = MemFronthaul::preloaded(&packets);
    let results = engine.process_fronthaul(&link, num_frames, &AtomicBool::new(true));

    let mut errors = 0usize;
    let mut blocks = 0usize;
    for r in &results {
        for symbol in cell.schedule.uplink_indices() {
            for user in 0..cell.num_users {
                blocks += 1;
                if r.decoded[symbol][user] != truths[r.frame as usize].info_bits[symbol][user] {
                    errors += 1;
                }
            }
        }
        println!(
            "frame {:>2}: latency {:.2} ms (pilot {:.2}, ZF {:.2}, decode {:.2})",
            r.frame,
            r.uplink_latency_ns() as f64 / 1e6,
            (r.milestones.pilot_done_ns - r.milestones.first_packet_ns) as f64 / 1e6,
            (r.milestones.zf_done_ns - r.milestones.first_packet_ns) as f64 / 1e6,
            (r.milestones.decode_done_ns - r.milestones.first_packet_ns) as f64 / 1e6,
        );
    }
    println!("\nblock errors: {errors}/{blocks}");
    println!("\nrun summary:\n{}", engine.stats().summary().trim_end());
    // The same counters as plain data, for a consumer that is not a human.
    let counters: Vec<String> = COUNTERS
        .iter()
        .zip(engine.stats().snapshot())
        .filter(|(_, v)| *v > 0)
        .map(|((_, name, _), v)| format!("{name}={v}"))
        .collect();
    println!("counters: {}", counters.join(" "));
    println!("\nper-block execution stats (Table 3 style):\n{}", engine.stats().table());
    assert_eq!(errors, 0, "all blocks must decode correctly at 25 dB");
    println!("all {blocks} blocks decoded correctly ✓");
}
