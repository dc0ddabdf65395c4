//! Where a decode task's time goes, per SIMD tier: microseconds per code
//! block of `DecoderI8::decode_into` on the LLRs an uplink frame at the
//! benchmark's SNR (the RRU default, 25 dB) leaves in the `llr` plane,
//! re-inflated as `decode_task` does, and the histogram of the iterations
//! those blocks take. Then the same blocks with `max_iters` pinned to 0,
//! 1 and 2 and no early exit: 0 is the once-per-block work (priors,
//! message reset, output bits) and a syndrome pass that fails at the
//! first row; 1 adds a layered pass over the active rows and a syndrome
//! pass over all of them; 2 one more layered pass. Z = 12 is the 8x2
//! cell (BG2), Z = 104 the 64x16 cell (BG1). Only the public API is
//! used, so the same file runs unchanged on an older checkout for a
//! before/after; a tier the CPU lacks is skipped.
//!
//! ```text
//! cargo run --release --example decode_sweeps         # both cells
//! cargo run --release --example decode_sweeps small   # 8x2 only, well under a second
//! ```

use agora_core::{EngineConfig, InlineProcessor};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_ldpc::{DecodeConfigI8, DecoderI8};
use agora_math::SimdTier;
use agora_phy::CellConfig;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes over a frame's blocks; the median pass is reported.
const PASSES: usize = 15;

/// The full-length LLRs of every uplink code block of one frame of
/// `cell`, as `decode_task` hands them to the decoder.
fn frame_blocks(cell: &CellConfig) -> (Vec<Vec<i8>>, DecodeConfigI8) {
    let mut rru = RruEmulator::new(cell.clone(), RruConfig::default());
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg);
    let (packets, _) = rru.generate_frame(0);
    proc.process_frame(0, &packets);
    let rm = proc.kernels().rate_match();
    let fb = proc.buffers(0);
    let mut blocks = Vec::new();
    for symbol in cell.schedule.uplink_indices() {
        for user in 0..cell.num_users {
            // SAFETY: single-threaded, and the frame is done.
            let llr = unsafe { fb.llr.view(Some((symbol, user))) };
            let mut full = vec![0i8; rm.codeword_len()];
            rm.fill_llrs_into(&llr[..rm.tx_len()], &mut full);
            blocks.push(full);
        }
    }
    let dec_cfg = DecodeConfigI8 {
        max_iters: cell.ldpc.max_iters,
        active_rows: Some(rm.active_rows()),
        ..Default::default()
    };
    (blocks, dec_cfg)
}

/// Median over [`PASSES`] passes of the microseconds per block.
fn us_per_block(dec: &mut DecoderI8, blocks: &[Vec<i8>], cfg: &DecodeConfigI8) -> f64 {
    let mut bits = vec![0u8; dec.info_len()];
    let mut passes: Vec<f64> = (0..=PASSES)
        .map(|_| {
            let t = Instant::now();
            for llr in blocks {
                black_box(dec.decode_into(llr, cfg, &mut bits));
            }
            t.elapsed().as_secs_f64() * 1e6 / blocks.len() as f64
        })
        .skip(1)
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[PASSES / 2]
}

fn main() {
    let small = std::env::args().nth(1).as_deref() == Some("small");
    let mut cells =
        vec![("8x2", CellConfig::tiny_test(13)), ("64x16", CellConfig::emulated_rru(64, 16, 13))];
    cells.truncate(if small { 1 } else { 2 });
    for (what, cell) in cells {
        let (blocks, cfg) = frame_blocks(&cell);
        let (bg, z) = (cell.ldpc.base_graph, cell.ldpc.z);
        println!("{what}: {bg:?} Z={z}, {} blocks of one frame, us per block", blocks.len());
        // Named through `detect` past AVX2, so the file builds on a
        // checkout that has no wider tier.
        let mut tiers = vec![SimdTier::Scalar, SimdTier::Avx2, SimdTier::detect()];
        tiers.retain(|&t| t <= SimdTier::detect());
        tiers.dedup();
        for tier in tiers {
            let mut dec = DecoderI8::with_tier(bg, z, tier);
            let mut bits = vec![0u8; dec.info_len()];
            let mut histogram = vec![0usize; cfg.max_iters + 1];
            for llr in &blocks {
                histogram[dec.decode_into(llr, &cfg, &mut bits).1] += 1;
            }
            let hist: Vec<String> = histogram
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, n)| format!("{i}:{n}"))
                .collect();
            let decode = us_per_block(&mut dec, &blocks, &cfg);
            let pinned = [0, 1, 2].map(|max_iters| {
                let pinned = DecodeConfigI8 { max_iters, early_termination: false, ..cfg };
                format!("{:7.2}", us_per_block(&mut dec, &blocks, &pinned))
            });
            println!(
                "  {:<8} decode {decode:7.2}   iterations {}   max_iters 0 / 1 / 2: {}",
                format!("{tier:?}"),
                hist.join(" "),
                pinned.join(" /")
            );
        }
    }
}
