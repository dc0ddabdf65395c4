//! Work-stealing scheduler equivalence and counter sanity.
//!
//! The dispatch path only changes *where* task messages queue and
//! *which* worker executes them — every kernel writes disjoint buffer
//! regions determined solely by the message coordinates, so
//! `FrameResult`s must be bit-identical through the per-worker lanes
//! (with stealing), through the shared per-type queues a full lane
//! overflows to, and on the single-threaded inline reference, for any
//! worker count and batch-size mix.

use agora_core::{BatchSizes, Counter, Engine, EngineConfig, FrameResult, InlineProcessor};
use agora_fronthaul::{MemFronthaul, RruConfig, RruEmulator};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use agora_queue::TaskType;
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;

const FRAMES: u32 = 2;

/// Every link here holds the whole run before the engine starts on it.
static DONE: AtomicBool = AtomicBool::new(true);

fn generate(cell: &CellConfig, seed: u64) -> (Vec<bytes::Bytes>, f32) {
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 28.0, seed, ..Default::default() });
    let mut packets = Vec::new();
    for f in 0..FRAMES {
        let (p, _) = rru.generate_frame(f);
        packets.extend(p);
    }
    (packets, rru.noise_power())
}

fn results_equal(a: &[FrameResult], b: &[FrameResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.frame == y.frame
                && x.dropped == y.dropped
                && x.decode_ok == y.decode_ok
                && x.decoded == y.decoded
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lanes == inline, bit-identical, across random worker counts and
    /// batch-size mixes.
    #[test]
    fn scheduling_is_result_invariant(
        workers in 1usize..5,
        seed in 0u64..1024,
        fft_batch in 1usize..4,
        demod_batch in 16usize..128,
        decode_batch in 1usize..3,
    ) {
        let cell = CellConfig::tiny_test(2);
        let (packets, noise) = generate(&cell, seed);
        let mut cfg = EngineConfig::new(cell, workers);
        cfg.noise_power = noise;
        cfg.batch.fft = fft_batch;
        cfg.batch.demod = demod_batch;
        cfg.batch.decode = decode_batch;

        let lanes = Engine::new(cfg.clone());
        let with_lanes = lanes.process_fronthaul(&MemFronthaul::preloaded(&packets), FRAMES, &DONE);

        let mut inline = InlineProcessor::new(cfg);
        for f in 0..FRAMES {
            let per_frame: Vec<bytes::Bytes> = packets
                .iter()
                .filter(|p| agora_fronthaul::decode(p).unwrap().0.frame == f)
                .cloned()
                .collect();
            let reference = inline.process_frame(f, &per_frame);
            let t = with_lanes.iter().find(|r| r.frame == f).unwrap();
            prop_assert_eq!(
                &t.decoded, &reference.decoded,
                "frame {} differs from inline (workers={} seed={})", f, workers, seed
            );
        }
    }
}

/// `BatchSizes::ones()` sends every task in a message of its own — one
/// antenna, one ZF group, one user, and for demodulation and precoding
/// one cache-line block, their unit of work. Results must equal the
/// default's, on an uplink frame and on a TDD frame whose downlink half
/// runs unbatched too.
#[test]
fn unbatched_messages_decode_like_the_default() {
    let uplink = CellConfig::tiny_test(2);
    let mut tdd = uplink.clone();
    tdd.schedule = FrameSchedule::parse("PUUDD").unwrap();
    tdd.validate().unwrap();
    for cell in [uplink, tdd] {
        let (packets, noise) = generate(&cell, 29);
        let mut cfg = EngineConfig::new(cell.clone(), 2);
        cfg.noise_power = noise;
        let want = Engine::new(cfg.clone()).process_fronthaul(
            &MemFronthaul::preloaded(&packets),
            FRAMES,
            &DONE,
        );
        assert!(want.iter().all(|r| !r.dropped && r.decode_ok.iter().flatten().all(|&ok| ok)));

        cfg.batch = BatchSizes::ones();
        let block = cfg.demod_block;
        let unbatched = Engine::new(cfg);
        let got = unbatched.process_fronthaul(&MemFronthaul::preloaded(&packets), FRAMES, &DONE);
        let what = format!("{:?}", cell.schedule);
        assert!(results_equal(&got, &want), "{what}: results differ");
        let precodes = unbatched.stats().messages(TaskType::Precode);
        let blocks = cell.schedule.downlink_indices().len() * cell.num_data_sc / block;
        assert_eq!(precodes, (FRAMES as usize * blocks) as u64, "{what}: one block a message");
    }
}

/// With lanes, every compute message goes through a lane first:
/// lane_pushes + lane_overflows must equal the total message count, and
/// an engine left idle must park its workers.
#[test]
fn sched_counters_account_for_every_message() {
    let cell = CellConfig::tiny_test(2);
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 28.0, seed: 7, ..Default::default() });
    let halves: Vec<Vec<bytes::Bytes>> = (0..2u32)
        .map(|half| {
            let mut packets = Vec::new();
            for f in (2 * half)..(2 * half + FRAMES) {
                let (p, _) = rru.generate_frame(f);
                packets.extend(p);
            }
            packets
        })
        .collect();
    let mut cfg = EngineConfig::new(cell, 2);
    cfg.noise_power = rru.noise_power();
    let engine = Engine::new(cfg);
    let results = engine.process_fronthaul(&MemFronthaul::preloaded(&halves[0]), FRAMES, &DONE);
    assert_eq!(results.len(), FRAMES as usize);

    // Workers have nothing to do now: the idle ladder must reach Park.
    // The second batch's dispatch then has to wake them.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let results = engine.process_fronthaul(&MemFronthaul::preloaded(&halves[1]), FRAMES, &DONE);
    assert_eq!(results.len(), FRAMES as usize);

    let stats = engine.stats();
    let compute = [
        TaskType::Fft,
        TaskType::Zf,
        TaskType::Demod,
        TaskType::Decode,
        TaskType::Encode,
        TaskType::Precode,
        TaskType::Ifft,
    ];
    let messages: u64 = compute.iter().map(|&t| stats.messages(t)).sum();
    assert!(messages > 0);
    assert_eq!(
        stats.lane_pushes() + stats.lane_overflows(),
        messages,
        "every dispatched message must hit a lane or be counted as overflow"
    );
    assert!(stats.get(Counter::LaneDepthMax) > 0);
    assert!(stats.parks() > 0, "idle workers must park, not spin");
    assert!(stats.get(Counter::Wakes) > 0, "dispatch must wake parked workers");
}

/// One ready item that expands into more messages than a lane holds
/// forces the overflow-to-shared-queue fallback; results must still be
/// correct and the overflow counter must fire.
#[test]
fn lane_overflow_falls_back_to_shared_queues() {
    // 3840 subcarriers demodulated one cache-line block per message: each
    // symbol's 480-message demod batch is nearly two lanes' worth, however
    // fast the workers drain.
    let mut cell = CellConfig::tiny_test(2);
    cell.fft_size = 4096;
    cell.num_data_sc = 3840;
    cell.validate().unwrap();
    let (packets, noise) = generate(&cell, 13);
    let mut cfg = EngineConfig::new(cell, 2);
    cfg.noise_power = noise;

    let mut block_demod = cfg.clone();
    block_demod.batch.demod = block_demod.demod_block;
    let overflowing = Engine::new(block_demod);
    let got = overflowing.process_fronthaul(&MemFronthaul::preloaded(&packets), FRAMES, &DONE);
    assert!(
        overflowing.stats().lane_overflows() > 0,
        "a 480-message batch must overflow a lane to the shared queues"
    );

    let roomy = Engine::new(cfg);
    let want = roomy.process_fronthaul(&MemFronthaul::preloaded(&packets), FRAMES, &DONE);
    assert_eq!(roomy.stats().lane_overflows(), 0, "default batches fit their lanes");
    assert!(results_equal(&got, &want), "overflow path changed decoded results");
}
