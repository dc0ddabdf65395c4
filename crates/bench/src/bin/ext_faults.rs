//! Extension: frame-completion ratio and end-to-end block error rate
//! under injected fronthaul faults (packet loss, reordering,
//! duplication), sweeping the i.i.d. loss rate plus one bursty
//! Gilbert-Elliott point of matched mean rate.
//!
//! The paper's stance (§6) is that Agora drops a frame it cannot finish
//! in time and keeps pace; this sweep quantifies the cost of that
//! policy: each lost packet strands a whole frame, so the completed-
//! frame ratio decays like (1-p)^packets_per_frame while the engine
//! itself never stalls, and the block error rate tracks the abandoned
//! frames rather than the decoder.
//!
//! Usage: ext_faults [frames_per_point]   (default 40)

use agora_bench::csv::write_csv;
use agora_core::{Counter, Engine, EngineConfig};
use agora_fronthaul::{
    FaultConfig, FaultInjector, LossModel, MemFronthaul, RruConfig, RruEmulator,
};
use agora_ldpc::BaseGraphId;
use agora_phy::frame::LdpcParams;
use agora_phy::pilots::PilotScheme;
use agora_phy::{CellConfig, FrameSchedule, ModScheme};
use std::sync::atomic::AtomicBool;

/// Reduced 64x16 cell (full paper antenna/user counts, short FFT and
/// code so a multi-point sweep stays fast).
fn cell_64x16() -> CellConfig {
    let cell = CellConfig {
        num_antennas: 64,
        num_users: 16,
        fft_size: 128,
        num_data_sc: 64,
        cp_len: 0,
        modulation: ModScheme::Qpsk,
        pilot_scheme: PilotScheme::FrequencyOrthogonal,
        zf_group: 16,
        ldpc: LdpcParams { base_graph: BaseGraphId::Bg2, z: 4, rate: 1.0 / 3.0, max_iters: 8 },
        schedule: FrameSchedule::uplink(1, 2),
        symbol_duration_ns: 71_000,
    };
    cell.validate().expect("valid reduced cell");
    cell
}

struct PointResult {
    completed: u64,
    dropped: u64,
    lost: u64,
    late: u64,
    dup: u64,
    reordered: u64,
    offered: u64,
    bler: f64,
}

fn run_point(cell: &CellConfig, frames: u32, loss: LossModel, seed: u64) -> PointResult {
    let mut rru = RruEmulator::new(
        cell.clone(),
        RruConfig { snr_db: 30.0, seed: 1000 + seed, ..Default::default() },
    );
    let mut packets = Vec::new();
    let mut truths = Vec::new();
    for f in 0..frames {
        let (p, gt) = rru.generate_frame(f);
        packets.extend(p);
        truths.push(gt);
    }
    let noise = rru.noise_power();
    let mut inj = FaultInjector::new(FaultConfig {
        loss,
        reorder_prob: 0.05,
        max_delay: 16,
        duplicate_prob: 0.005,
        seed,
    });
    let faulted = inj.apply(packets);
    let fs = inj.stats().clone();

    let mut cfg = EngineConfig::new(cell.clone(), 3);
    cfg.noise_power = noise;
    cfg.frame_deadline_ns = Some(200_000_000);
    let engine = Engine::new(cfg);
    let results = engine.process_fronthaul(
        &MemFronthaul::preloaded(&faulted),
        frames,
        &AtomicBool::new(true),
    );

    // End-to-end BLER vs ground truth: a block is in error if its frame
    // was abandoned before decode or the decoded bits mismatch.
    let mut blocks = 0u64;
    let mut bad = 0u64;
    for r in &results {
        let gt = &truths[r.frame as usize];
        for symbol in cell.schedule.uplink_indices() {
            for user in 0..cell.num_users {
                blocks += 1;
                let ok = r.decode_ok[symbol][user]
                    && r.decoded[symbol][user] == gt.info_bits[symbol][user];
                if !ok {
                    bad += 1;
                }
            }
        }
    }
    let stats = engine.stats();
    PointResult {
        completed: stats.get(Counter::FramesCompleted),
        dropped: stats.get(Counter::FramesDropped),
        lost: fs.lost,
        late: stats.get(Counter::PacketsLate),
        dup: stats.get(Counter::PacketsDuplicate),
        reordered: fs.reordered,
        offered: fs.offered,
        bler: if blocks == 0 { 0.0 } else { bad as f64 / blocks as f64 },
    }
}

fn main() {
    let frames: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    let cell = cell_64x16();
    let pkts_per_frame = (cell.schedule.pilot_indices().len()
        + cell.schedule.uplink_indices().len())
        * cell.num_antennas;

    println!("Extension — frame survival under fronthaul faults (64x16, {frames} frames/point)");
    println!("model  p        completed  dropped  pred_ratio  lost  late  dup   bler");
    let header = "model,loss_rate,frames,completed,dropped,completed_ratio,\
                  predicted_ratio,offered,lost,late,duplicate,reordered,bler";
    let mut rows = Vec::new();

    let mut points: Vec<(String, LossModel)> = vec![("none".into(), LossModel::None)];
    for p in [0.001, 0.005, 0.01, 0.02, 0.05] {
        points.push(("iid".to_string(), LossModel::Iid { p }));
    }
    // A bursty point matched to 1% mean loss: rare bursts, 50% in-burst
    // loss. Bursts concentrate losses into fewer frames, so MORE frames
    // survive than under i.i.d. loss of the same mean rate.
    let ge = LossModel::GilbertElliott {
        p_enter_burst: 0.004,
        p_exit_burst: 0.2,
        loss_good: 0.0,
        loss_bad: 0.5,
    };
    points.push(("gilbert".into(), ge));

    for (i, (name, loss)) in points.iter().enumerate() {
        let r = run_point(&cell, frames, *loss, 7 + i as u64);
        let rate = loss.mean_rate();
        let ratio = r.completed as f64 / frames as f64;
        // Under i.i.d. loss a frame survives iff none of its packets is
        // lost: (1-p)^n. Bursty loss beats this bound at equal mean rate.
        let pred = (1.0 - rate).powi(pkts_per_frame as i32);
        println!(
            "{:<6} {:<8.4} {:<10} {:<8} {:<11.4} {:<5} {:<5} {:<5} {:.4}",
            name, rate, r.completed, r.dropped, pred, r.lost, r.late, r.dup, r.bler
        );
        rows.push(format!(
            "{},{:.5},{},{},{},{:.5},{:.5},{},{},{},{},{},{:.5}",
            name,
            rate,
            frames,
            r.completed,
            r.dropped,
            ratio,
            pred,
            r.offered,
            r.lost,
            r.late,
            r.dup,
            r.reordered,
            r.bler
        ));
    }

    let path = write_csv("ext_faults", header, &rows);
    println!("wrote {}", path.display());
}
