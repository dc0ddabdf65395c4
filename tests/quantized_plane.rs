//! End-to-end acceptance for the fixed-point decoding plane
//! (`EngineConfig::quantized_decoder`): demodulation emits saturating `i8`
//! LLRs and `decode_task` routes through the Z-lane-vectorised i8
//! layered min-sum decoder. The toggle is the A/B for float vs
//! fixed-point fig-style runs, so it must (a) decode every frame
//! correctly at operating SNR, (b) agree bit-for-bit between the
//! threaded engine and the inline reference, (c) agree with the float
//! plane's decoded bits, and (d) keep the engine's fault counters
//! reconciling under injected fronthaul loss.

use agora_core::{Counter, Engine, EngineConfig, InlineProcessor};
use agora_fronthaul::{FaultConfig, FaultInjector, LossModel, RruConfig, RruEmulator};
use agora_ldpc::BaseGraphId;
use agora_phy::frame::LdpcParams;
use agora_phy::pilots::PilotScheme;
use agora_phy::{CellConfig, FrameSchedule, ModScheme};

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

fn quantized_config(cell: &CellConfig, workers: usize, noise: f32) -> EngineConfig {
    let mut cfg = EngineConfig::new(cell.clone(), workers);
    cfg.noise_power = noise;
    cfg.quantized_decoder = true;
    cfg
}

#[test]
fn quantized_plane_decodes_all_frames() {
    let cell = CellConfig::tiny_test(2);
    let (packets, truths, noise) = generate(&cell, 3, 5);
    let engine = Engine::new(quantized_config(&cell, 2, noise));
    let results = engine.process(packets, 3, false);
    assert_eq!(results.len(), 3);
    for r in &results {
        let gt = &truths[r.frame as usize];
        for symbol in cell.schedule.uplink_indices() {
            for user in 0..cell.num_users {
                assert!(
                    r.decode_ok[symbol][user],
                    "frame {} sym {symbol} user {user} failed on i8 plane",
                    r.frame
                );
                assert_eq!(
                    r.decoded[symbol][user], gt.info_bits[symbol][user],
                    "frame {} sym {symbol} user {user} bits differ",
                    r.frame
                );
            }
        }
    }
}

#[test]
fn quantized_threaded_matches_inline_reference() {
    let cell = CellConfig::tiny_test(2);
    let (packets, _truths, noise) = generate(&cell, 2, 11);
    let cfg = quantized_config(&cell, 2, noise);

    let engine = Engine::new(cfg.clone());
    let threaded = engine.process(packets.clone(), 2, false);

    let mut inline = InlineProcessor::new(cfg);
    for f in 0..2u32 {
        let per_frame: Vec<bytes::Bytes> = packets
            .iter()
            .filter(|p| agora_fronthaul::decode(p).unwrap().0.frame == f)
            .cloned()
            .collect();
        let reference = inline.process_frame(f, &per_frame);
        let t = threaded.iter().find(|r| r.frame == f).unwrap();
        assert_eq!(t.decoded, reference.decoded, "frame {f} differs from inline reference");
        assert_eq!(t.decode_ok, reference.decode_ok, "frame {f} success flags differ");
    }
}

#[test]
fn quantized_and_float_planes_agree_at_operating_snr() {
    // The A/B the switch exists for: at operating SNR the
    // quantised plane must land on the same information bits as the
    // float plane. Run both over the identical packet stream.
    let cell = CellConfig::tiny_test(2);
    let (packets, truths, noise) = generate(&cell, 3, 29);

    let mut float_cfg = EngineConfig::new(cell.clone(), 2);
    float_cfg.noise_power = noise;
    let float_results = Engine::new(float_cfg).process(packets.clone(), 3, false);

    let quant_results = Engine::new(quantized_config(&cell, 2, noise)).process(packets, 3, false);

    for (fr, qr) in float_results.iter().zip(quant_results.iter()) {
        assert_eq!(fr.frame, qr.frame);
        let gt = &truths[fr.frame as usize];
        for symbol in cell.schedule.uplink_indices() {
            for user in 0..cell.num_users {
                assert!(fr.decode_ok[symbol][user] && qr.decode_ok[symbol][user]);
                assert_eq!(
                    fr.decoded[symbol][user], qr.decoded[symbol][user],
                    "frame {} sym {symbol} user {user}: planes disagree",
                    fr.frame
                );
                assert_eq!(qr.decoded[symbol][user], gt.info_bits[symbol][user]);
            }
        }
    }
}

#[test]
fn quantized_plane_counters_reconcile_under_loss() {
    // The fault_injection acceptance criteria must hold unchanged with
    // the quantised plane active: every frame yields a result, the
    // loss/dup counters reconcile exactly with the injector's log, and
    // clean frames decode perfectly.
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
    cell.validate().expect("reduced cell must validate");
    const FRAMES: u32 = 8;

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
    let fs = inj.stats().clone();
    assert!(fs.lost > 0, "1% over {} packets must lose some", fs.offered);

    let mut cfg = quantized_config(&cell, 3, noise);
    cfg.frame_deadline_ns = Some(700_000_000);
    let engine = Engine::new(cfg);
    let results = engine.process(faulted, FRAMES, false);

    assert_eq!(results.len(), FRAMES as usize);
    let stats = engine.stats();
    assert_eq!(stats.get(Counter::PacketsLost), fs.lost, "loss counters must reconcile");
    assert_eq!(
        stats.get(Counter::PacketsDuplicate) + stats.get(Counter::PacketsLate),
        fs.duplicated,
        "dup+late must equal injected duplicates"
    );
    assert_eq!(
        stats.get(Counter::FramesCompleted) + stats.get(Counter::FramesDropped),
        FRAMES as u64
    );

    for r in &results {
        let lost_here = fs.per_frame_lost.get(&r.frame).copied().unwrap_or(0);
        assert_eq!(r.dropped, lost_here > 0, "frame {} drop status", r.frame);
        if !r.dropped {
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
            assert_eq!(r.decoded.len(), cell.symbols_per_frame());
        }
    }
}
