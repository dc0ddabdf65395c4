//! Figure 8, deployment flavour: multi-cell scalability at a FIXED
//! total core budget. Sweeps C ∈ {1, 2, 4, 8} cells over one shared
//! link and one shared 8-worker pool — the "millions of users" axis:
//! how much aggregate frame throughput one server sustains as it is
//! sliced into more cells, and what the slicing costs per frame.
//!
//! Each cell runs the tiny 8x2 test geometry with its own seed; the
//! paced `MultiCellGenerator` interleaves all cell streams onto one
//! in-memory link and the deployment demuxes by the header cell byte.
//! The supervisor runs with default policy; with evenly loaded cells it
//! should migrate rarely or never (the `migrations` column records it).

use agora_bench::csv::write_csv;
use agora_core::deploy::{Deployment, DeploymentConfig};
use agora_core::{Counter, EngineConfig};
use agora_fronthaul::{MemFronthaul, MultiCellGenerator, RruConfig, RruEmulator};
use agora_phy::CellConfig;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

const TOTAL_WORKERS: usize = 8;
const FRAMES_PER_CELL: u32 = 6;

fn main() {
    let cell = CellConfig::tiny_test(2);
    println!(
        "Figure 8 (cells) — aggregate throughput vs cell count at {TOTAL_WORKERS} total workers"
    );
    println!("cells  frames  completed  dropped  wall_ms  frames/s  mean_ul_us  migrations");
    let mut rows = Vec::new();
    for cells in [1usize, 2, 4, 8] {
        let rrus: Vec<RruEmulator> = (0..cells)
            .map(|c| {
                RruEmulator::new(
                    cell.clone(),
                    RruConfig {
                        snr_db: 30.0,
                        seed: 4000 + c as u64,
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
                cfg
            })
            .collect();
        let per_frame = cell.symbols_per_frame() * cell.num_antennas;
        let capacity = (2 * cells * per_frame * FRAMES_PER_CELL as usize).next_power_of_two();
        let (tx, rx) = MemFronthaul::pair(capacity);
        let mut generator = MultiCellGenerator::new(rrus);
        let _truths = generator.run(&tx, FRAMES_PER_CELL);

        let deployment = Deployment::new(DeploymentConfig::new(cfgs, TOTAL_WORKERS));
        let done = AtomicBool::new(true);
        let t0 = Instant::now();
        let results = deployment.process_fronthaul(&rx, FRAMES_PER_CELL, &done);
        let wall = t0.elapsed();

        let total_frames = (cells as u32 * FRAMES_PER_CELL) as u64;
        let stats = deployment.stats().rollup();
        let completed = stats.get(Counter::FramesCompleted);
        let dropped = stats.get(Counter::FramesDropped);
        let mut lat_sum_ns = 0u64;
        let mut lat_n = 0u64;
        for res in &results {
            for r in res {
                if !r.dropped {
                    lat_sum_ns += r.uplink_latency_ns();
                    lat_n += 1;
                }
            }
        }
        let mean_ul_us =
            if lat_n > 0 { lat_sum_ns as f64 / lat_n as f64 / 1000.0 } else { f64::NAN };
        let wall_ms = wall.as_secs_f64() * 1e3;
        let fps = total_frames as f64 / wall.as_secs_f64();
        let migrations = deployment.migrations();
        println!(
            "{cells:>5}  {total_frames:>6}  {completed:>9}  {dropped:>7}  {wall_ms:>7.2}  \
             {fps:>8.1}  {mean_ul_us:>10.1}  {migrations:>10}"
        );
        rows.push(format!(
            "{cells},{TOTAL_WORKERS},{FRAMES_PER_CELL},{total_frames},{completed},{dropped},\
             {wall_ms:.3},{fps:.1},{mean_ul_us:.1},{migrations}"
        ));
    }
    let p = write_csv(
        "fig8_cells",
        "cells,total_workers,frames_per_cell,frames_total,completed,dropped,wall_ms,\
         frames_per_sec,mean_uplink_latency_us,migrations",
        &rows,
    );
    println!("\nwrote {}", p.display());
    println!("expected shape: aggregate throughput holds roughly flat as the fixed core");
    println!("budget is sliced across more cells, with per-frame latency rising from");
    println!("cross-cell contention (this machine time-shares one physical core).");
}
