//! Two code blocks per decode against one: microseconds per code block
//! of an 8x2 uplink frame's blocks (BG2, Z = 12, the LLRs the benchmark's
//! SNR leaves in the `llr` plane, re-inflated as `decode_task` does)
//! through `DecoderI8::decode_pair_into`, a symbol's two users at a time,
//! and through `decode_into`, per SIMD tier. The two alternate round by
//! round; each column is the median over the rounds, `pair / single` the
//! median of the per-round ratios. A tier that does not pack pairs runs
//! `decode_pair_into` as two `decode_into` calls, so its ratio reads 1.
//!
//! ```text
//! cargo run --release --example decode_pairs
//! ```

use agora_core::{EngineConfig, InlineProcessor};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_ldpc::{DecodeConfigI8, DecoderI8};
use agora_math::SimdTier;
use agora_phy::CellConfig;
use std::hint::black_box;
use std::time::Instant;

/// Alternating rounds, each timing every block of the frame `PASSES`
/// times both ways.
const ROUNDS: usize = 31;
const PASSES: usize = 20;

fn main() {
    let cell = CellConfig::tiny_test(13);
    let mut rru = RruEmulator::new(cell.clone(), RruConfig::default());
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg);
    proc.process_frame(0, &rru.generate_frame(0).0);
    let (rm, fb) = (proc.kernels().rate_match(), proc.buffers(0));
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
    let (max_iters, active_rows) = (cell.ldpc.max_iters, Some(rm.active_rows()));
    let dec_cfg = DecodeConfigI8 { max_iters, active_rows, ..Default::default() };
    let (bg, z) = (cell.ldpc.base_graph, cell.ldpc.z);
    println!("8x2: {bg:?} Z={z}, {} blocks of one frame, us per block", blocks.len());
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    for tier in SimdTier::supported() {
        let mut dec = DecoderI8::with_tier(bg, z, tier);
        let (mut a, mut b) = (vec![0u8; dec.info_len()], vec![0u8; dec.info_len()]);
        let mut rounds = Vec::new();
        // Round 0 warms both ways up.
        for round in 0..=ROUNDS {
            let t = Instant::now();
            for _ in 0..PASSES {
                for llr in &blocks {
                    black_box(dec.decode_into(llr, &dec_cfg, &mut a));
                }
            }
            let single = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..PASSES {
                for two in blocks.chunks_exact(2) {
                    let out = [&mut a[..], &mut b[..]];
                    black_box(dec.decode_pair_into([&two[0], &two[1]], &dec_cfg, out));
                }
            }
            let us = 1e6 / (PASSES * blocks.len()) as f64;
            if round > 0 {
                rounds.push((single * us, t.elapsed().as_secs_f64() * us));
            }
        }
        println!(
            "  {:<8} single {:7.2}   pair {:7.2}   pair / single {:5.2}   packs pairs: {}",
            format!("{tier:?}"),
            median(rounds.iter().map(|r| r.0).collect()),
            median(rounds.iter().map(|r| r.1).collect()),
            median(rounds.iter().map(|r| r.1 / r.0).collect()),
            DecoderI8::packs_pairs(z, tier)
        );
    }
}
