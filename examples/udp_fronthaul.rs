//! Real-network fronthaul demo: two emulated RRU cells and a multi-cell
//! baseband deployment talk over actual UDP sockets (loopback),
//! exercising the same packet format the paper puts on 40 GbE — 64-byte
//! header plus 24-bit IQ samples, one packet per (frame, symbol,
//! antenna), with the originating cell in the header's cell byte.
//!
//! The in-memory ring (the DPDK stand-in) is the benchmark transport;
//! this example shows the identical code path surviving a real kernel
//! network stack: both cell streams interleave on ONE socket, the
//! deployment's demux routes packets to the right cell's engine, and a
//! shared worker pool serves both cells.
//!
//! Run with: `cargo run --release --example udp_fronthaul`

use agora_core::deploy::{Deployment, DeploymentConfig};
use agora_core::EngineConfig;
use agora_fronthaul::{Fronthaul, PacketBuf, PacketPool, RruConfig, RruEmulator, UdpFronthaul};
use agora_phy::CellConfig;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const CELLS: usize = 2;

fn main() {
    let cell = CellConfig::tiny_test(2);
    let mut rrus: Vec<RruEmulator> = (0..CELLS)
        .map(|c| {
            RruEmulator::new(
                cell.clone(),
                RruConfig {
                    snr_db: 28.0,
                    seed: 40 + c as u64,
                    cell_id: c as u8,
                    ..Default::default()
                },
            )
        })
        .collect();
    let cfgs: Vec<EngineConfig> = rrus
        .iter()
        .map(|r| {
            let mut cfg = EngineConfig::new(cell.clone(), 1);
            cfg.noise_power = r.noise_power();
            // UDP is best-effort: abandon rather than stall if the
            // kernel drops a packet under load.
            cfg.frame_deadline_ns = Some(500_000_000);
            cfg
        })
        .collect();

    // Bind both endpoints on ephemeral loopback ports and cross-wire.
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut rru_side = UdpFronthaul::new(any, any).expect("bind RRU socket");
    // Receive into recycled pool slots: steady-state RX never allocates.
    let bbu_side = UdpFronthaul::new(any, rru_side.local_addr().unwrap())
        .expect("bind BBU socket")
        .with_pool(PacketPool::new(256, 2048));
    rru_side.set_peer(bbu_side.local_addr().unwrap());
    println!(
        "fronthaul: {CELLS} cells via RRU {} -> BBU {}",
        rru_side.local_addr().unwrap(),
        bbu_side.local_addr().unwrap()
    );

    // Pre-generate every frame and interleave both cells' packets into
    // per-symbol bursts — the order they'd share the wire in.
    let frames = 4u32;
    let symbols = cell.symbols_per_frame();
    let mut truths = Vec::new();
    let mut bursts: Vec<Vec<PacketBuf>> = Vec::new();
    for frame in 0..frames {
        let per_cell: Vec<_> = rrus.iter_mut().map(|r| r.generate_frame(frame)).collect();
        for sym in 0..symbols {
            let mut burst = Vec::with_capacity(CELLS * cell.num_antennas);
            for (packets, _) in &per_cell {
                let per_sym = packets.len() / symbols;
                burst.extend(
                    packets[sym * per_sym..(sym + 1) * per_sym]
                        .iter()
                        .cloned()
                        .map(PacketBuf::Heap),
                );
            }
            bursts.push(burst);
        }
        if frame == 0 {
            truths = per_cell.iter().map(|(_, gt)| vec![gt.clone()]).collect();
        } else {
            for (c, (_, gt)) in per_cell.iter().enumerate() {
                truths[c].push(gt.clone());
            }
        }
    }

    let deployment = Deployment::new(DeploymentConfig::new(cfgs, CELLS));
    let done = AtomicBool::new(false);
    let results = std::thread::scope(|scope| {
        // Producer: one send_batch per symbol slot, sleeping between
        // bursts so the intake thread keeps pace on small machines (a
        // real RRU paces at the symbol clock; sleeping also yields the
        // core, which a spin-pacer would hog).
        scope.spawn(|| {
            for burst in bursts {
                let mut out: VecDeque<PacketBuf> = burst.into();
                while !out.is_empty() {
                    if rru_side.send_batch(&mut out) == 0 {
                        std::thread::yield_now();
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            done.store(true, Ordering::Release);
        });
        deployment.process_fronthaul(&bbu_side, frames, &done)
    });

    let mut total_blocks = 0usize;
    let mut bad_blocks = 0usize;
    let mut dropped = 0usize;
    for (c, res) in results.iter().enumerate() {
        for r in res {
            if r.dropped {
                dropped += 1;
                continue;
            }
            let gt = &truths[c][r.frame as usize];
            for symbol in cell.schedule.uplink_indices() {
                for user in 0..cell.num_users {
                    total_blocks += 1;
                    if r.decoded[symbol][user] != gt.info_bits[symbol][user] {
                        bad_blocks += 1;
                    }
                }
            }
        }
        println!("cell {c}: {}", deployment.stats().cell(c).summary().trim_end());
    }
    println!(
        "\ndecoded {total_blocks} blocks across {CELLS} cells over a real UDP fronthaul, \
         {bad_blocks} errors, {dropped} frames dropped"
    );
    assert_eq!(bad_blocks, 0, "completed frames must decode cleanly");
    assert!(dropped <= (CELLS * frames as usize) / 2, "loopback should deliver most frames");
    println!("rollup: {}", deployment.stats().rollup().summary().trim_end());
    println!("multi-cell UDP fronthaul path verified ✓");
}
