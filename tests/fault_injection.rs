//! Acceptance test for the fault-injected fronthaul: a 64x16 uplink
//! cell pushed through `FaultInjector` (i.i.d. loss + reordering +
//! duplication) must neither hang nor panic. Every frame yields a
//! result within its deadline: clean frames decode perfectly, lossy
//! frames come back `dropped: true` with partial output, and the
//! engine's loss/late/duplicate counters reconcile exactly with the
//! injector's ground-truth fault log under a fixed seed.

use agora_core::{Counter, Engine, EngineConfig};
use agora_fronthaul::{
    decode_ref, FaultConfig, FaultInjector, Fronthaul, LossModel, MemFronthaul, MultiCellGenerator,
    PacketBuf, PacketPool, RruConfig, RruEmulator, UdpFronthaul,
};
use agora_ldpc::BaseGraphId;
use agora_phy::frame::LdpcParams;
use agora_phy::pilots::PilotScheme;
use agora_phy::{CellConfig, FrameSchedule, ModScheme};
use std::sync::atomic::{AtomicBool, Ordering};

/// A reduced 64-antenna, 16-user cell: full paper antenna/user counts
/// but a 128-point FFT and a short BG2 code so the debug-build test
/// finishes in seconds rather than minutes.
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
    cell.validate().expect("64x16 reduced cell must validate");
    cell
}

const FRAMES: u32 = 8;

fn faulted_packets(
    cell: &CellConfig,
) -> (Vec<bytes::Bytes>, Vec<agora_fronthaul::FrameGroundTruth>, f32, FaultInjector) {
    let mut rru = RruEmulator::new(
        cell.clone(),
        RruConfig { snr_db: 30.0, seed: 4242, ..Default::default() },
    );
    let mut packets = Vec::new();
    let mut truths = Vec::new();
    for f in 0..FRAMES {
        let (p, gt) = rru.generate_frame(f);
        packets.extend(p);
        truths.push(gt);
    }
    let noise = rru.noise_power();
    let mut inj = FaultInjector::new(FaultConfig {
        loss: LossModel::Iid { p: 0.01 },
        reorder_prob: 0.05,
        max_delay: 16,
        duplicate_prob: 0.01,
        seed: 7,
    });
    let faulted = inj.apply(packets);
    (faulted, truths, noise, inj)
}

#[test]
fn lossy_uplink_completes_every_frame_with_reconciled_counters() {
    let cell = cell_64x16();
    let (faulted, truths, noise, inj) = faulted_packets(&cell);
    let fs = inj.stats().clone();
    assert!(fs.lost > 0, "1% over {} packets must lose some", fs.offered);
    assert!(fs.duplicated > 0, "1% duplication must inject some");
    assert!(fs.reordered > 0, "5% reordering must displace some");

    let mut cfg = EngineConfig::new(cell.clone(), 3);
    cfg.noise_power = noise;
    cfg.frame_deadline_ns = Some(700_000_000);
    let engine = Engine::new(cfg);
    let results = engine.process_fronthaul(
        &MemFronthaul::preloaded(&faulted),
        FRAMES,
        &AtomicBool::new(true),
    );

    // No hang, no panic: every frame produced a result.
    assert_eq!(results.len(), FRAMES as usize);

    let stats = engine.stats();
    // The engine's loss counter reconciles exactly with the injector's
    // ground truth: a packet is "lost" iff the injector removed it.
    assert_eq!(stats.get(Counter::PacketsLost), fs.lost, "loss counters must reconcile");
    // Every injected duplicate is rejected exactly once — either as a
    // duplicate (frame still in flight) or as late (frame already
    // retired). The split depends on worker timing; the sum does not.
    assert_eq!(
        stats.get(Counter::PacketsDuplicate) + stats.get(Counter::PacketsLate),
        fs.duplicated,
        "dup+late must equal injected duplicates"
    );
    assert_eq!(
        stats.get(Counter::FramesCompleted) + stats.get(Counter::FramesDropped),
        FRAMES as u64,
        "every frame is either completed or dropped"
    );

    for r in &results {
        let lost_here = fs.per_frame_lost.get(&r.frame).copied().unwrap_or(0);
        // A frame is dropped iff the injector removed one of its packets.
        assert_eq!(
            r.dropped,
            lost_here > 0,
            "frame {}: dropped={} but injector lost {} of its packets",
            r.frame,
            r.dropped,
            lost_here
        );
        assert_eq!(r.lost_packets, lost_here, "frame {} lost-packet count", r.frame);
        if !r.dropped {
            // Clean frames decode perfectly despite reordering and dups.
            let gt = &truths[r.frame as usize];
            for symbol in cell.schedule.uplink_indices() {
                for user in 0..cell.num_users {
                    assert!(
                        r.decode_ok[symbol][user],
                        "frame {} sym {symbol} user {user}",
                        r.frame
                    );
                    assert_eq!(r.decoded[symbol][user], gt.info_bits[symbol][user]);
                }
            }
        } else {
            // Partial output: the result still carries the full per-
            // symbol structure (no stale/partial buffer access panics).
            assert_eq!(r.decoded.len(), cell.symbols_per_frame());
        }
    }
}

#[test]
fn fault_injection_is_deterministic_end_to_end() {
    let cell = cell_64x16();
    let (a_pkts, _, _, a_inj) = faulted_packets(&cell);
    let (b_pkts, _, _, b_inj) = faulted_packets(&cell);
    // Same seeds => byte-identical fault pattern and packet stream.
    assert_eq!(a_pkts.len(), b_pkts.len());
    assert!(a_pkts.iter().zip(&b_pkts).all(|(x, y)| x == y));
    let (sa, sb) = (a_inj.stats(), b_inj.stats());
    assert_eq!(sa.lost, sb.lost);
    assert_eq!(sa.duplicated, sb.duplicated);
    assert_eq!(sa.reordered, sb.reordered);
    assert_eq!(sa.per_frame_lost, sb.per_frame_lost);
}

/// The paced multi-cell generator drives C=4 cell streams through one
/// batched link with inline fault injection; a demuxing receiver feeds
/// one engine per cell, and every per-cell loss/late/dup ledger must
/// reconcile exactly with the injector's ground truth.
#[test]
fn multi_cell_streams_over_one_link_reconcile_per_cell() {
    const CELLS: usize = 4;
    const MC_FRAMES: u32 = 4;
    let cell = CellConfig::tiny_test(2);
    let rrus: Vec<RruEmulator> = (0..CELLS)
        .map(|c| {
            RruEmulator::new(
                cell.clone(),
                RruConfig {
                    snr_db: 30.0,
                    seed: 1000 + c as u64,
                    cell_id: c as u8,
                    ..Default::default()
                },
            )
        })
        .collect();
    let noise: Vec<f32> = rrus.iter().map(|r| r.noise_power()).collect();
    let per_cell_frame = cell.symbols_per_frame() * cell.num_antennas;
    let mut gen = MultiCellGenerator::new(rrus).with_faults(FaultConfig {
        loss: LossModel::Iid { p: 0.03 },
        reorder_prob: 0.05,
        max_delay: 8,
        duplicate_prob: 0.03,
        seed: 11,
    });
    // One lossless batched link (the DPDK stand-in ring) carries all
    // four interleaved cell streams, sized for the whole run so the
    // reconciliation below is exact rather than modulo socket drops.
    let capacity = (2 * CELLS * per_cell_frame * MC_FRAMES as usize).next_power_of_two();
    let (tx, rx) = MemFronthaul::pair(capacity);
    let truths = gen.run(&tx, MC_FRAMES);
    let fs = gen.stats().clone();
    assert!(fs.lost > 0, "3% loss over the run must fire");
    assert!(fs.duplicated > 0, "3% duplication must fire");

    // Demux the merged stream by header cell id, in batches.
    let mut per_cell_pkts: Vec<Vec<bytes::Bytes>> = vec![Vec::new(); CELLS];
    let mut batch = Vec::new();
    let mut delivered = 0u64;
    while rx.recv_batch(&mut batch, 64) > 0 {
        for pkt in batch.drain(..) {
            let cell_id = decode_ref(&pkt).expect("generator emits valid packets").0.cell;
            per_cell_pkts[cell_id as usize].push(pkt.into_bytes());
            delivered += 1;
        }
    }
    assert_eq!(delivered, fs.delivered, "lossless link: every surviving packet arrives");

    for c in 0..CELLS {
        let cid = c as u8;
        let lost_c = fs.per_cell_lost.get(&cid).copied().unwrap_or(0);
        let dup_c = fs.per_cell_duplicated.get(&cid).copied().unwrap_or(0);
        assert_eq!(
            per_cell_pkts[c].len() as u64,
            fs.per_cell_delivered.get(&cid).copied().unwrap_or(0),
            "cell {c}: demuxed count matches the injector's delivery ledger"
        );
        let mut cfg = EngineConfig::new(cell.clone(), 3);
        cfg.noise_power = noise[c];
        cfg.frame_deadline_ns = Some(700_000_000);
        let engine = Engine::new(cfg);
        let link = MemFronthaul::preloaded(&per_cell_pkts[c]);
        let results = engine.process_fronthaul(&link, MC_FRAMES, &AtomicBool::new(true));
        assert_eq!(results.len(), MC_FRAMES as usize);
        let stats = engine.stats();
        assert_eq!(stats.get(Counter::PacketsLost), lost_c, "cell {c}: loss ledger must reconcile");
        assert_eq!(
            stats.get(Counter::PacketsDuplicate) + stats.get(Counter::PacketsLate),
            dup_c,
            "cell {c}: dup+late must equal injected duplicates"
        );
        for r in &results {
            let lost_here = fs.per_cell_frame_lost.get(&(cid, r.frame)).copied().unwrap_or(0);
            assert_eq!(
                r.dropped,
                lost_here > 0,
                "cell {c} frame {}: dropped={} with {} lost packets",
                r.frame,
                r.dropped,
                lost_here
            );
            if !r.dropped {
                let gt = &truths[c][r.frame as usize];
                for symbol in cell.schedule.uplink_indices() {
                    for user in 0..cell.num_users {
                        assert!(
                            r.decode_ok[symbol][user],
                            "cell {c} frame {} sym {symbol} user {user}",
                            r.frame
                        );
                        assert_eq!(r.decoded[symbol][user], gt.info_bits[symbol][user]);
                    }
                }
            }
        }
    }
}

/// Pooled packet buffers parked in the engine's zero-copy slot tables
/// must all return to the pool, even for frames the engine abandons
/// (their retained packets are freed on slot reuse or engine teardown).
#[test]
fn abandoned_frames_release_pooled_packets() {
    use std::collections::VecDeque;
    use std::net::SocketAddr;

    let cell = CellConfig::tiny_test(2);
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 30.0, seed: 5, ..Default::default() });
    let frames = 2u32;
    let mut packets = Vec::new();
    for f in 0..frames {
        let (p, _gt) = rru.generate_frame(f);
        packets.extend(p);
    }
    // Drop a few of frame 1's packets so the engine must abandon it
    // with pooled packets still parked in its slot table.
    let before = packets.len();
    packets.retain(|p| {
        let (h, _) = decode_ref(p).unwrap();
        !(h.frame == 1 && h.symbol == 0 && h.antenna < 3)
    });
    assert!(packets.len() < before, "some frame-1 packets must be removed");

    let pool = PacketPool::new(128, 4096);
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut tx = UdpFronthaul::new(any, any).unwrap();
    let rx = UdpFronthaul::new(any, tx.local_addr().unwrap()).unwrap().with_pool(pool.clone());
    tx.set_peer(rx.local_addr().unwrap());

    let mut cfg = EngineConfig::new(cell.clone(), 2);
    cfg.noise_power = rru.noise_power();
    cfg.frame_deadline_ns = Some(300_000_000);
    let engine = Engine::new(cfg);
    let done = AtomicBool::new(false);
    let results = std::thread::scope(|s| {
        s.spawn(|| {
            let mut out: VecDeque<PacketBuf> =
                packets.iter().cloned().map(PacketBuf::Heap).collect();
            while !out.is_empty() {
                if tx.send_batch(&mut out) == 0 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
        engine.process_fronthaul(&rx, frames, &done)
    });
    assert_eq!(results.len(), frames as usize);
    assert!(
        results.iter().any(|r| r.dropped && r.frame == 1),
        "frame 1 must be abandoned (packets withheld)"
    );
    assert!(
        results.iter().any(|r| !r.dropped && r.frame == 0),
        "frame 0 arrived whole and must complete"
    );
    // Tearing down the engine joins its workers and frees the frame
    // window, dropping every packet the abandoned frame still retained;
    // dropping the endpoint returns its staged receive slots.
    drop(engine);
    drop(rx);
    assert_eq!(pool.available(), pool.capacity(), "no pooled slot may leak");
}
