//! Deterministic single-threaded frame processor.
//!
//! Runs the exact same kernels as the threaded engine, in the order the
//! same [`FrameTable`] unlocks them, on the calling thread. This is the
//! tool for accuracy
//! experiments (Figure 9's BLER-vs-users, LDPC waterfalls) where
//! thousands of frames must be pushed through the full PHY and threading
//! adds nothing but noise — and it doubles as the reference
//! implementation the threaded engine is differentially tested against.

use crate::buffers::{FrameBuffers, FrameWindow};
use crate::config::{BatchSizes, EngineConfig};
use crate::engine::execute;
use crate::kernels::{Kernels, WorkerScratch};
use crate::state::FrameTable;
use agora_fronthaul::packet::decode as decode_packet;
use agora_fronthaul::PacketBuf;
use agora_queue::Msg;
use bytes::Bytes;

/// Decoded output of one inline-processed frame.
#[derive(Debug, Clone)]
pub struct InlineResult {
    /// Frame id.
    pub frame: u32,
    /// Decoded info bits per `[symbol][user]` (uplink symbols only).
    pub decoded: Vec<Vec<Vec<u8>>>,
    /// Decode success per `[symbol][user]`.
    pub decode_ok: Vec<Vec<bool>>,
    /// Downlink time-domain samples per `[symbol][antenna]` (downlink
    /// symbols only; empty otherwise).
    pub dl_time: Vec<Vec<Vec<agora_math::Cf32>>>,
}

/// Single-threaded processor owning one frame slot.
pub struct InlineProcessor {
    kernels: Kernels,
    window: FrameWindow,
    scratch: WorkerScratch,
    /// Batch sizes that make every non-(I)FFT stage of a symbol one
    /// message; (I)FFTs keep the configured run length.
    whole: BatchSizes,
    /// Unlocked messages not yet executed, next one last.
    work: Vec<Msg>,
    unlocked: Vec<Msg>,
}

impl InlineProcessor {
    /// Builds the processor for a cell configuration.
    pub fn new(mut cfg: EngineConfig) -> Self {
        cfg.clamp_batches();
        let kernels = Kernels::new(cfg);
        let window = FrameWindow::new(kernels.geom, 2);
        let scratch = kernels.scratch();
        let sh = kernels.shape;
        let whole = BatchSizes {
            zf: sh.zf_groups,
            demod: sh.q,
            decode: sh.k,
            encode: sh.k,
            precode: sh.q,
            ..kernels.cfg.batch
        };
        Self { kernels, window, scratch, whole, work: Vec::new(), unlocked: Vec::new() }
    }

    /// Access to the kernels (geometry etc.).
    pub fn kernels(&self) -> &Kernels {
        &self.kernels
    }

    /// Processes one frame's packets synchronously and returns the
    /// decoded output. Packets may arrive in any order but must all
    /// belong to `frame`.
    pub fn process_frame(&mut self, frame: u32, packets: &[Bytes]) -> InlineResult {
        let g = self.kernels.geom;
        let shape = self.kernels.shape;
        let cell = self.kernels.cfg.cell.clone();

        // 1. Ingest packets, retained zero-copy in the slot table (the
        // `Bytes` clone bumps a refcount; payload bytes are not copied).
        // SAFETY: single-threaded processor — exclusive table access.
        // Clearing first drops the slot's previous occupant's packets.
        let fb = self.window.slot(frame);
        unsafe { fb.rx_pkts.clear_all() };
        for pkt in packets {
            let (hdr, _) = decode_packet(pkt).expect("bad packet");
            assert_eq!(hdr.frame, frame, "packet from a different frame");
            let (symbol, antenna) = (hdr.symbol as usize, hdr.antenna as usize);
            // SAFETY: exclusive access as above; duplicates overwrite
            // with byte-identical packets.
            unsafe { fb.rx_pkts.store(symbol, antenna, PacketBuf::Heap(pkt.clone())) };
        }

        // 2. Replay the arrivals symbol by symbol through the frame
        // table, running everything each symbol unlocks before the next
        // arrives: pilots → ZF, then FFT → demod → decode per uplink
        // symbol and precode → IFFT per downlink symbol, each stage's
        // data still warm for the next.
        let mut table = FrameTable::new(cell.schedule.clone(), shape, self.whole, false, frame);
        for symbol in 0..g.symbols {
            for antenna in 0..g.m {
                if self.window.slot(frame).rx_pkts.occupied(symbol, antenna) {
                    table.on_packet(frame, symbol, antenna, 0, &mut self.unlocked);
                }
            }
            self.run_unlocked(&mut table);
        }

        // 3. Read out the uplink bits and the downlink samples: every task
        // has run.
        let fb = self.window.slot(frame);
        let (decoded, decode_ok) = fb.read_decoded(&cell.schedule.uplink_indices());
        let mut dl_time = vec![Vec::new(); cell.symbols_per_frame()];
        for symbol in cell.schedule.downlink_indices() {
            dl_time[symbol] =
                fb.dl_time.row(symbol).chunks_exact(g.samples).map(<[_]>::to_vec).collect();
        }

        InlineResult { frame, decoded, decode_ok, dl_time }
    }

    /// Executes every unlocked message, depth first: what a completion
    /// unlocks runs, in the order the table emitted it, before anything
    /// unlocked earlier.
    fn run_unlocked(&mut self, table: &mut FrameTable) {
        self.work.extend(self.unlocked.drain(..).rev());
        while let Some(msg) = self.work.pop() {
            execute(&self.kernels, &self.window, &mut self.scratch, &msg);
            table.on_complete(&msg, 0, &mut self.unlocked);
            self.work.extend(self.unlocked.drain(..).rev());
        }
    }

    /// Direct access to the frame buffers of a frame slot (testing and
    /// instrumentation).
    pub fn buffers(&self, frame: u32) -> &FrameBuffers {
        self.window.slot(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_channel::FadingModel;
    use agora_fronthaul::{RruConfig, RruEmulator};
    use agora_phy::CellConfig;

    /// End-to-end: generator -> inline engine -> decoded bits match the
    /// generator's ground truth. This exercises the entire uplink PHY.
    #[test]
    fn uplink_e2e_recovers_all_bits_awgn() {
        let cell = CellConfig::tiny_test(2);
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig { snr_db: 30.0, fading: FadingModel::Awgn, seed: 7, ..Default::default() },
        );
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = rru.noise_power();
        let mut proc = InlineProcessor::new(cfg);
        for frame in 0..3u32 {
            let (packets, gt) = rru.generate_frame(frame);
            let res = proc.process_frame(frame, &packets);
            for symbol in proc.kernels().cfg.cell.schedule.uplink_indices() {
                for user in 0..proc.kernels().geom.k {
                    assert!(
                        res.decode_ok[symbol][user],
                        "frame {frame} symbol {symbol} user {user} failed decode"
                    );
                    assert_eq!(
                        res.decoded[symbol][user], gt.info_bits[symbol][user],
                        "frame {frame} symbol {symbol} user {user} bits differ"
                    );
                }
            }
        }
    }

    #[test]
    fn uplink_e2e_rayleigh_fading() {
        let cell = CellConfig::tiny_test(2);
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig {
                snr_db: 30.0,
                fading: FadingModel::Rayleigh,
                seed: 21,
                ..Default::default()
            },
        );
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = rru.noise_power();
        let mut proc = InlineProcessor::new(cfg);
        let (packets, gt) = rru.generate_frame(0);
        let res = proc.process_frame(0, &packets);
        for symbol in proc.kernels().cfg.cell.schedule.uplink_indices() {
            for user in 0..2 {
                assert!(res.decode_ok[symbol][user]);
                assert_eq!(res.decoded[symbol][user], gt.info_bits[symbol][user]);
            }
        }
    }

    /// Downlink: encode/precode/IFFT produce time-domain signals that a
    /// simulated user can demodulate back to the MAC payload.
    #[test]
    fn downlink_e2e_user_recovers_payload() {
        use agora_fft::{Direction, FftPlan, SubcarrierMap};
        use agora_ldpc::{DecodeConfig, Decoder};
        use agora_math::Cf32;
        use agora_phy::demod::demod_soft;
        use agora_phy::frame::FrameSchedule;

        let mut cell = CellConfig::tiny_test(0);
        cell.schedule = FrameSchedule::parse("PDD").unwrap();
        cell.validate().unwrap();
        let mut cfg = EngineConfig::new(cell.clone(), 1);
        cfg.noise_power = 1e-3;
        let mut proc = InlineProcessor::new(cfg);

        // The downlink needs CSI from pilots: the RRU emulator produces
        // the frame's pilot packets, and none for its downlink symbols.
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig { snr_db: 50.0, seed: 33, ..Default::default() },
        );
        let (packets, gt) = rru.generate_frame(0);
        let res = proc.process_frame(0, &packets);

        // Simulated user receiver: r_k = sum_a H^T[k][a] * y_a (TDD
        // reciprocity), per downlink symbol.
        let g = proc.kernels().geom;
        let map = SubcarrierMap::new(cell.fft_size, cell.num_data_sc);
        let plan = FftPlan::new(cell.fft_size);
        let rm = cell.ldpc.rate_match();
        let mut dec = Decoder::new(cell.ldpc.base_graph, cell.ldpc.z);
        for symbol in cell.schedule.downlink_indices() {
            // FFT each antenna's transmitted time signal once.
            let mut grids: Vec<Vec<Cf32>> = Vec::new();
            for ant in 0..g.m {
                let mut grid = res.dl_time[symbol][ant].clone();
                plan.execute(&mut grid, Direction::Forward);
                grids.push(grid);
            }
            for user in 0..g.k {
                let mut rx_grid = vec![Cf32::ZERO; cell.fft_size];
                for (ant, grid) in grids.iter().enumerate() {
                    let h = gt.h[(ant, user)]; // H^T row = column of H
                    for (acc, &v) in rx_grid.iter_mut().zip(grid.iter()) {
                        *acc = h.mul_add(v, *acc);
                    }
                }
                let mut active = vec![Cf32::ZERO; g.q];
                map.demap_symbols(&rx_grid, &mut active);
                // ZF makes H^T W = c I with real positive c; normalise by
                // the mean amplitude so the constellation has unit power.
                let p: f32 = active.iter().map(|z| z.norm_sqr()).sum::<f32>() / active.len() as f32;
                let scale = 1.0 / p.sqrt().max(1e-9);
                for z in active.iter_mut() {
                    *z = z.scale(scale);
                }
                let mut llrs = Vec::new();
                demod_soft(cell.modulation, &active, 0.05, &mut llrs);
                let full = rm.fill_llrs(&llrs[..rm.tx_len()]);
                let out = dec.decode(
                    &full,
                    &DecodeConfig {
                        max_iters: 20,
                        active_rows: Some(rm.active_rows()),
                        ..Default::default()
                    },
                );
                let expect =
                    crate::kernels::mac_payload(0, symbol as u32, user as u32, rm.info_len());
                assert!(out.success, "symbol {symbol} user {user} DL decode failed");
                assert_eq!(out.info_bits, expect, "symbol {symbol} user {user} bits");
            }
        }
    }
}

#[cfg(test)]
mod selective_channel_tests {
    use super::*;
    use agora_fronthaul::{RruConfig, RruEmulator};
    use agora_phy::CellConfig;

    /// Frequency-selective multipath: the per-group ZF approximation and
    /// the estimator's in-group interpolation now carry real model error;
    /// at high SNR with a modest delay spread the link must still close.
    #[test]
    fn uplink_survives_frequency_selective_channel() {
        let mut cell = CellConfig::tiny_test(2);
        // Tighter ZF groups reduce the per-group flatness error.
        cell.zf_group = 8;
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig { snr_db: 35.0, seed: 5, delay_spread_taps: 3, ..Default::default() },
        );
        let mut cfg = EngineConfig::new(cell.clone(), 1);
        cfg.noise_power = rru.noise_power();
        let mut proc = InlineProcessor::new(cfg);
        let mut bad = 0usize;
        let mut total = 0usize;
        for frame in 0..3u32 {
            let (packets, gt) = rru.generate_frame(frame);
            assert!(gt.h_freq.is_some(), "ground truth must expose per-SC channel");
            let res = proc.process_frame(frame, &packets);
            for symbol in cell.schedule.uplink_indices() {
                for user in 0..cell.num_users {
                    total += 1;
                    if res.decoded[symbol][user] != gt.info_bits[symbol][user] {
                        bad += 1;
                    }
                }
            }
        }
        assert_eq!(bad, 0, "{bad}/{total} blocks failed under multipath");
    }

    /// The per-subcarrier ground-truth channel actually varies across the
    /// band (sanity check on the tap model).
    #[test]
    fn selective_ground_truth_varies_across_band() {
        let cell = CellConfig::tiny_test(1);
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig { delay_spread_taps: 4, seed: 9, ..Default::default() },
        );
        let (_p, gt) = rru.generate_frame(0);
        let per_sc = gt.h_freq.unwrap();
        let first = &per_sc[0];
        let last = &per_sc[cell.num_data_sc - 1];
        assert!(first.max_abs_diff(last) > 0.05, "channel should differ across the band");
        // Adjacent subcarriers stay highly correlated (smooth response).
        let adjacent = per_sc[1].max_abs_diff(first);
        assert!(adjacent < 0.2, "adjacent-subcarrier jump {adjacent} too large");
    }
}
