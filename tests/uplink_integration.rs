//! Cross-crate integration: emulated RRU -> fronthaul packets -> the
//! *threaded* manager/worker engine -> decoded bits vs ground truth. The
//! engine drains its packets off a fronthaul link that holds the whole
//! run (`MemFronthaul::preloaded`), or that a paced sender fills.

use agora_core::{Engine, EngineConfig, InlineProcessor};
use agora_fronthaul::{Fronthaul, MemFronthaul, Pacer, PacketBuf, RruConfig, RruEmulator};
use agora_phy::CellConfig;
use agora_queue::TaskType;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A preloaded link holds the whole run before the engine starts on it.
static DONE: AtomicBool = AtomicBool::new(true);

fn tiny_cell() -> CellConfig {
    CellConfig::tiny_test(2)
}

fn generate(
    cell: &CellConfig,
    frames: u32,
    seed: u64,
) -> (Vec<bytes::Bytes>, Vec<agora_fronthaul::FrameGroundTruth>, f32) {
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 28.0, seed, ..Default::default() });
    let mut packets = Vec::new();
    let mut truths = Vec::new();
    for f in 0..frames {
        let (p, gt) = rru.generate_frame(f);
        packets.extend(p);
        truths.push(gt);
    }
    (packets, truths, rru.noise_power())
}

#[test]
fn threaded_engine_decodes_all_frames() {
    let cell = tiny_cell();
    let (packets, truths, noise) = generate(&cell, 3, 5);
    let mut cfg = EngineConfig::new(cell.clone(), 2);
    cfg.noise_power = noise;
    let engine = Engine::new(cfg);
    let results = engine.process_fronthaul(&MemFronthaul::preloaded(&packets), 3, &DONE);
    assert_eq!(results.len(), 3);
    for r in &results {
        let gt = &truths[r.frame as usize];
        for symbol in cell.schedule.uplink_indices() {
            for user in 0..cell.num_users {
                assert!(r.decode_ok[symbol][user], "frame {} sym {symbol} user {user}", r.frame);
                assert_eq!(
                    r.decoded[symbol][user], gt.info_bits[symbol][user],
                    "frame {} sym {symbol} user {user} bits differ",
                    r.frame
                );
            }
        }
        // Milestones must be causally ordered.
        let m = &r.milestones;
        assert!(m.pilot_done_ns >= m.first_packet_ns);
        assert!(m.zf_done_ns >= m.pilot_done_ns);
        assert!(m.decode_done_ns >= m.zf_done_ns);
    }
}

#[test]
fn threaded_engine_matches_inline_reference() {
    let cell = tiny_cell();
    let (packets, _truths, noise) = generate(&cell, 2, 11);
    let mut cfg = EngineConfig::new(cell.clone(), 2);
    cfg.noise_power = noise;

    let engine = Engine::new(cfg.clone());
    let threaded = engine.process_fronthaul(&MemFronthaul::preloaded(&packets), 2, &DONE);

    let mut inline = InlineProcessor::new(cfg);
    for f in 0..2u32 {
        let per_frame: Vec<bytes::Bytes> = packets
            .iter()
            .filter(|p| agora_fronthaul::decode(p).unwrap().0.frame == f)
            .cloned()
            .collect();
        let reference = inline.process_frame(f, &per_frame);
        let t = threaded.iter().find(|r| r.frame == f).unwrap();
        assert_eq!(t.decoded, reference.decoded, "frame {f} differs from reference");
    }
}

#[test]
fn engine_reports_per_block_stats() {
    let cell = tiny_cell();
    let (packets, _t, noise) = generate(&cell, 2, 23);
    let mut cfg = EngineConfig::new(cell.clone(), 2);
    cfg.noise_power = noise;
    let engine = Engine::new(cfg);
    engine.process_fronthaul(&MemFronthaul::preloaded(&packets), 2, &DONE);
    let stats = engine.stats();
    // Task counts per frame: FFT = M * (1 pilot + 2 UL) = 24, ZF = 15
    // groups, demod = 240 SCs, decode = 2 users x 2 symbols.
    assert_eq!(stats.tasks(TaskType::Fft), 2 * 24);
    assert_eq!(stats.tasks(TaskType::Zf), 2 * 15);
    assert_eq!(stats.tasks(TaskType::Demod), 2 * 480);
    assert_eq!(stats.tasks(TaskType::Decode), 2 * 4);
    assert!(stats.busy_ns(TaskType::Decode) > 0);
    // Batching reduced message counts below task counts.
    assert!(stats.messages(TaskType::Fft) < stats.tasks(TaskType::Fft));
    assert!(stats.messages(TaskType::Demod) < stats.tasks(TaskType::Demod));
}

#[test]
fn paced_processing_tracks_frame_rate() {
    // Pace a short run at a 200 us symbol so the test stays fast:
    // 3 symbols/frame * 2 frames = 6 symbol slots ~ 1.2 ms wall clock.
    let mut cell = tiny_cell();
    cell.symbol_duration_ns = 200_000;
    let (packets, _t, noise) = generate(&cell, 2, 31);
    let mut cfg = EngineConfig::new(cell.clone(), 2);
    cfg.noise_power = noise;
    let engine = Engine::new(cfg);
    // A sender releases each symbol's packets (the RRU emits them symbol
    // by symbol) at the start of its slot, as an RRU does.
    let (rru, bbu) = MemFronthaul::pair(packets.len());
    let done = AtomicBool::new(false);
    let results = std::thread::scope(|s| {
        s.spawn(|| {
            let mut pacer = Pacer::new(Duration::from_nanos(cell.symbol_duration_ns));
            for symbol in packets.chunks(cell.num_antennas) {
                pacer.wait_next();
                for pkt in symbol {
                    rru.send(PacketBuf::Heap(pkt.clone())).expect("the link holds the run");
                }
            }
            done.store(true, Ordering::Release);
        });
        engine.process_fronthaul(&bbu, 2, &done)
    });
    assert_eq!(results.len(), 2);
    // Frame 1's first packet cannot arrive before one frame duration.
    let f1 = results.iter().find(|r| r.frame == 1).unwrap();
    assert!(
        f1.milestones.first_packet_ns >= cell.frame_duration_ns() * 9 / 10,
        "paced frame 1 arrived too early: {} ns",
        f1.milestones.first_packet_ns
    );
}

#[test]
fn lost_packets_drop_frame_instead_of_hanging() {
    // Drop every packet of frame 1's last symbol: the engine must emit
    // frames 0 and 2 normally and abandon frame 1 with a partial result.
    let cell = tiny_cell();
    let (packets, truths, noise) = generate(&cell, 3, 41);
    let last_symbol = (cell.symbols_per_frame() - 1) as u16;
    let filtered: Vec<bytes::Bytes> = packets
        .into_iter()
        .filter(|p| {
            let (h, _) = agora_fronthaul::decode(p).unwrap();
            !(h.frame == 1 && h.symbol == last_symbol)
        })
        .collect();
    let mut cfg = EngineConfig::new(cell.clone(), 2);
    cfg.noise_power = noise;
    let engine = Engine::new(cfg);
    let results = engine.process_fronthaul(&MemFronthaul::preloaded(&filtered), 3, &DONE);
    assert_eq!(results.len(), 3);
    for r in &results {
        match r.frame {
            1 => assert!(r.dropped, "frame 1 must be marked dropped"),
            f => {
                assert!(!r.dropped, "frame {f} must complete");
                for symbol in cell.schedule.uplink_indices() {
                    for user in 0..cell.num_users {
                        assert_eq!(
                            r.decoded[symbol][user],
                            truths[f as usize].info_bits[symbol][user]
                        );
                    }
                }
            }
        }
    }
}
