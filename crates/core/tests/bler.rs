//! The engine's i8 decoding plane against the float decoder through the
//! real uplink chain (release speed; CI runs it with `--nocapture`, and the
//! table it prints is EXPERIMENTS.md's).

use agora_channel::FadingModel;
use agora_core::{EngineConfig, InlineProcessor};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_ldpc::{
    quantize_llrs, DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, DEFAULT_LLR_SCALE,
};
use agora_math::{Cf32, Gemm, SimdTier};
use agora_phy::demod::Demapper;
use agora_phy::CellConfig;

/// Code blocks of one sweep point decoded to the transmitted bits.
struct Point {
    snr_db: u32,
    /// By the float decoder, on the demapper's LLRs.
    f32: usize,
    /// By the i8 decoder behind a fixed `DEFAULT_LLR_SCALE` quantiser.
    fixed: usize,
    /// By the engine.
    engine: usize,
}

/// Word lengths validated by block error rate across the whole operating
/// range, on the benchmark's two cell shapes, the benchmark's flat channel
/// and a 4-tap Rayleigh one: RRU → FFT → ZF → demapper → quantiser →
/// `DecoderI8`, as the engine runs it, against the float `Decoder` on the
/// same frames' float LLRs. At every point the engine decodes at least as
/// many blocks as the float decoder, and all of them wherever it does; a
/// per-block superset is not asked for, since marginal blocks at the
/// waterfall flip either way. The fixed ×4.0 column is the quantiser the
/// engine's i8 plane had first, whose saturation at high SNR the harness
/// must still see.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn i8_plane_decodes_what_f32_does_at_every_snr() {
    let shapes = [
        (CellConfig::tiny_test(13), "8x2", 20),
        (CellConfig::emulated_rru(64, 16, 13), "64x16", 2),
    ];
    let channels = [(FadingModel::Awgn, 0, "AWGN"), (FadingModel::Rayleigh, 4, "Rayleigh 4-tap")];
    // 0 to 30 dB in 2 dB steps, and the benchmark's 25 dB.
    let mut snrs: Vec<u32> = (0..=30).step_by(2).chain([25]).collect();
    snrs.sort_unstable();
    for (cell, shape, frames) in &shapes {
        for &(fading, taps, channel) in &channels {
            let what = format!("{shape} {channel}");
            // Two threads, every other point each: generating the frames
            // is most of the time.
            let mut points: Vec<Point> = std::thread::scope(|s| {
                let halves: Vec<_> = (0..2)
                    .map(|half| {
                        let snrs = &snrs;
                        s.spawn(move || {
                            let point = |&snr| bler_point(cell, *frames, fading, taps, snr);
                            snrs.iter().skip(half).step_by(2).map(point).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                halves.into_iter().flat_map(|h| h.join().expect("sweep thread")).collect()
            });
            points.sort_by_key(|p| p.snr_db);
            let blocks = *frames as usize * cell.schedule.uplink_indices().len() * cell.num_users;
            println!("     {what}, {blocks} blocks per point — dB: f32 / i8 at x4.0 / engine i8");
            let row: Vec<String> = points
                .iter()
                .map(|p| format!("{}: {}/{}/{}", p.snr_db, p.f32, p.fixed, p.engine))
                .collect();
            row.chunks(6).for_each(|r| println!("       {}", r.join("   ")));
            let short: Vec<u32> = points
                .iter()
                .filter(|p| p.engine < p.f32 || (p.f32 == blocks && p.engine < blocks))
                .map(|p| p.snr_db)
                .collect();
            assert!(short.is_empty(), "{what}: engine i8 ≥ f32 at every SNR (short: {short:?})");
            if (*shape, channel) == ("64x16", "AWGN") {
                let seen = points.iter().any(|p| p.fixed < p.f32);
                assert!(seen, "{what}: the fixed x4.0 quantiser's loss is visible");
            }
        }
    }
}

/// One point of [`bler`]: `frames` frames of `cell` at `snr_db` through
/// the inline engine, then the float and fixed-scale oracles on the
/// demapper rows of the same frames, built from the planes the engine
/// left: its equalised samples' source (`freq`), detectors and noise
/// scales.
fn bler_point(
    cell: &CellConfig,
    frames: u32,
    fading: FadingModel,
    taps: usize,
    snr_db: u32,
) -> Point {
    let rc = RruConfig {
        snr_db: snr_db as f32,
        fading,
        delay_spread_taps: taps,
        seed: 26,
        ..Default::default()
    };
    let mut rru = RruEmulator::new(cell.clone(), rc);
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg);
    let g = proc.kernels().geom;
    let (ldpc, rm) = (&cell.ldpc, cell.ldpc.rate_match());
    let row_llrs = g.block * cell.modulation.bits_per_symbol();
    let eq = Gemm::plan(g.k, g.m, g.block);
    let demapper = Demapper::new(cell.modulation, SimdTier::detect());
    let (mut dec_f32, mut dec_i8) =
        (Decoder::new(ldpc.base_graph, ldpc.z), DecoderI8::new(ldpc.base_graph, ldpc.z));
    let active_rows = Some(rm.active_rows());
    let cfg_f32 = DecodeConfig { max_iters: ldpc.max_iters, active_rows, ..Default::default() };
    let cfg_i8 = DecodeConfigI8 { max_iters: ldpc.max_iters, active_rows, ..Default::default() };
    let mut user_block = vec![Cf32::ZERO; g.k * g.block];
    let mut llr = vec![0.0f32; g.k * g.cap_bits];
    let mut q = vec![0i8; rm.tx_len()];
    let (mut full_f32, mut full_i8) = (vec![0.0; rm.codeword_len()], vec![0; rm.codeword_len()]);
    let mut point = Point { snr_db, f32: 0, fixed: 0, engine: 0 };
    for frame in 0..frames {
        let (packets, truth) = rru.generate_frame(frame);
        let out = proc.process_frame(frame, &packets);
        let fb = proc.buffers(frame);
        for symbol in cell.schedule.uplink_indices() {
            // SAFETY (here and below): single-threaded; the frame is done.
            let freq = unsafe { fb.freq.view(Some(symbol)) };
            for blk in 0..g.q / g.block {
                let group = blk * g.block / g.zf_group;
                let det = unsafe { fb.det.view(Some(group)) };
                let inv_noise = unsafe { fb.inv_noise.view(Some(group)) };
                eq.run(det, &freq[g.block_cols(blk)], &mut user_block);
                for (user, row) in user_block.chunks_exact(g.block).enumerate() {
                    let at = user * g.cap_bits + blk * row_llrs;
                    demapper.demap(row, inv_noise[user], &mut llr[at..at + row_llrs]);
                }
            }
            for user in 0..g.k {
                let sent = &truth.info_bits[symbol][user];
                let llr = &llr[user * g.cap_bits..][..rm.tx_len()];
                rm.fill_llrs_into(llr, &mut full_f32);
                let r = dec_f32.decode(&full_f32, &cfg_f32);
                point.f32 += (r.success && r.info_bits == *sent) as usize;
                quantize_llrs(llr, &mut q, DEFAULT_LLR_SCALE);
                rm.fill_llrs_into(&q, &mut full_i8);
                let r = dec_i8.decode(&full_i8, &cfg_i8);
                point.fixed += (r.success && r.info_bits == *sent) as usize;
                point.engine +=
                    (out.decode_ok[symbol][user] && out.decoded[symbol][user] == *sent) as usize;
            }
        }
    }
    point
}
