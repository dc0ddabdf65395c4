//! Multi-cell traffic generation.
//!
//! The paper's IQ sample generator saturates the baseband server from a
//! second machine (§5.2). [`MultiCellGenerator`] scales the single-cell
//! [`RruEmulator`] to that role for C cells at once: every cell
//! contributes one packet per antenna per symbol, an inline
//! [`FaultInjector`] perturbs the merged stream of each symbol slot, and
//! the result is batch-emitted through [`Fronthaul::send_batch`] — so a
//! single socket carries C interleaved cell streams exactly the way one
//! 40 GbE pipe carries a multi-cell deployment.
//!
//! Per-cell ground truth and per-cell fault statistics come back to the
//! caller, so a demuxing receiver can reconcile every loss, duplicate
//! and late packet per cell, exactly.

use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::fronthaul::Fronthaul;
use crate::pool::PacketBuf;
use crate::rru::{FrameGroundTruth, RruEmulator};
use bytes::Bytes;
use std::collections::VecDeque;

/// A fault-injecting, multi-cell packet source.
///
/// All cells must share one frame schedule length (they are symbol-
/// synchronous, as co-located cells driven by one clock would be).
pub struct MultiCellGenerator {
    cells: Vec<RruEmulator>,
    injector: FaultInjector,
}

impl MultiCellGenerator {
    /// Builds a generator over `cells` (each carrying its own
    /// `cell_id`, seed and channel). No faults until [`Self::with_faults`]
    /// is called.
    pub fn new(cells: Vec<RruEmulator>) -> MultiCellGenerator {
        assert!(!cells.is_empty(), "need at least one cell");
        let symbols = cells[0].cell().symbols_per_frame();
        assert!(
            cells.iter().all(|c| c.cell().symbols_per_frame() == symbols),
            "cells must be symbol-synchronous (same schedule length)"
        );
        MultiCellGenerator { cells, injector: FaultInjector::new(FaultConfig::default()) }
    }

    /// Injects faults inline between generation and emission.
    pub fn with_faults(mut self, cfg: FaultConfig) -> MultiCellGenerator {
        self.injector = FaultInjector::new(cfg);
        self
    }

    /// The fault ground truth accumulated so far (per-cell maps filled).
    pub fn stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// Drives frames `0..frames` for every cell through `fh`, returning
    /// `truths[cell][frame]` ground truth. Emission retries on
    /// backpressure, so the link must be drained concurrently or sized
    /// for the whole stream.
    pub fn run<F: Fronthaul + ?Sized>(
        &mut self,
        fh: &F,
        frames: u32,
    ) -> Vec<Vec<FrameGroundTruth>> {
        let symbols = self.cells[0].cell().symbols_per_frame();
        let mut truths: Vec<Vec<FrameGroundTruth>> =
            (0..self.cells.len()).map(|_| Vec::with_capacity(frames as usize)).collect();
        let mut out: VecDeque<PacketBuf> = VecDeque::new();
        // per_cell[c] = packets of cell c for the current frame, in
        // symbol-major order (the RRU emits symbol-major already).
        let mut per_cell: Vec<Vec<Bytes>> = vec![Vec::new(); self.cells.len()];
        for frame in 0..frames {
            for (c, rru) in self.cells.iter_mut().enumerate() {
                let (packets, gt) = rru.generate_frame(frame);
                per_cell[c] = packets;
                truths[c].push(gt);
            }
            for sym in 0..symbols {
                // Interleave all cells' packets of this symbol slot and
                // run them through the fault model as one tick batch.
                let mut tick: Vec<Bytes> = Vec::new();
                for (c, pkts) in per_cell.iter().enumerate() {
                    let per_sym = pkts.len() / symbols;
                    debug_assert_eq!(per_sym, self.cells[c].cell().num_antennas);
                    tick.extend(pkts[sym * per_sym..(sym + 1) * per_sym].iter().cloned());
                }
                for pkt in self.injector.apply(tick) {
                    out.push_back(PacketBuf::Heap(pkt));
                }
                // Batch-emit with retry: unsent packets stay queued.
                while !out.is_empty() {
                    if fh.send_batch(&mut out) == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }
        truths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LossModel;
    use crate::fronthaul::MemFronthaul;
    use crate::packet::decode_ref;
    use crate::rru::RruConfig;
    use agora_phy::CellConfig;

    fn make_cells(n: usize) -> Vec<RruEmulator> {
        (0..n)
            .map(|c| {
                RruEmulator::new(
                    CellConfig::tiny_test(2),
                    RruConfig {
                        snr_db: 30.0,
                        seed: 100 + c as u64,
                        cell_id: c as u8,
                        ..Default::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn faultless_run_delivers_every_cell_in_order() {
        let cells = make_cells(3);
        let per_frame: usize =
            cells.iter().map(|c| c.cell().symbols_per_frame() * c.cell().num_antennas).sum();
        let frames = 2u32;
        let mut gen = MultiCellGenerator::new(cells);
        let (tx, rx) = MemFronthaul::pair(per_frame * frames as usize + 8);
        let truths = gen.run(&tx, frames);
        assert_eq!(truths.len(), 3);
        assert!(truths.iter().all(|t| t.len() == frames as usize));

        let mut seen = vec![0usize; 3];
        let mut batch = Vec::new();
        let mut last_slot = None;
        while rx.recv_batch(&mut batch, 32) > 0 {
            for pkt in batch.drain(..) {
                let (h, _) = decode_ref(&pkt).unwrap();
                seen[h.cell as usize] += 1;
                // The merged stream is ordered by (frame, symbol) slots.
                let slot = (h.frame, h.symbol);
                if let Some(prev) = last_slot {
                    assert!(slot >= prev, "slot order violated: {prev:?} then {slot:?}");
                }
                last_slot = Some(slot);
            }
        }
        let per_cell = per_frame / 3 * frames as usize;
        assert_eq!(seen, vec![per_cell; 3], "every cell delivers every packet");
        assert_eq!(gen.stats().offered, (per_cell * 3) as u64);
        assert_eq!(gen.stats().lost, 0);
    }

    #[test]
    fn per_cell_fault_ledgers_reconcile_with_delivery() {
        let cells = make_cells(4);
        let per_frame: usize =
            cells.iter().map(|c| c.cell().symbols_per_frame() * c.cell().num_antennas).sum();
        let frames = 4u32;
        let mut gen = MultiCellGenerator::new(cells).with_faults(FaultConfig {
            loss: LossModel::Iid { p: 0.05 },
            duplicate_prob: 0.05,
            reorder_prob: 0.1,
            max_delay: 4,
            seed: 99,
        });
        let (tx, rx) = MemFronthaul::pair(2 * per_frame * frames as usize + 8);
        gen.run(&tx, frames);

        let mut delivered = std::collections::BTreeMap::<u8, u64>::new();
        let mut batch = Vec::new();
        while rx.recv_batch(&mut batch, 64) > 0 {
            for pkt in batch.drain(..) {
                let (h, _) = decode_ref(&pkt).unwrap();
                *delivered.entry(h.cell).or_insert(0) += 1;
            }
        }
        let st = gen.stats();
        assert!(st.lost > 0 && st.duplicated > 0, "faults must fire at these rates");
        // Global ledger: offered = delivered - duplicated + lost.
        assert_eq!(st.offered, st.delivered - st.duplicated + st.lost);
        // Per-cell ledgers sum to the global ones and match delivery.
        assert_eq!(st.per_cell_lost.values().sum::<u64>(), st.lost);
        assert_eq!(st.per_cell_duplicated.values().sum::<u64>(), st.duplicated);
        let per_cell_offered = (per_frame / 4 * frames as usize) as u64;
        for c in 0u8..4 {
            let got = delivered.get(&c).copied().unwrap_or(0);
            let lost = st.per_cell_lost.get(&c).copied().unwrap_or(0);
            let dup = st.per_cell_duplicated.get(&c).copied().unwrap_or(0);
            assert_eq!(
                got,
                per_cell_offered - lost + dup,
                "cell {c}: delivery must reconcile exactly"
            );
            assert_eq!(
                st.per_cell_delivered.get(&c).copied().unwrap_or(0),
                got,
                "cell {c}: injector's delivered ledger"
            );
            // The (cell, frame) loss map refines the per-cell count.
            let by_frame: u64 = st
                .per_cell_frame_lost
                .iter()
                .filter(|((cc, _), _)| *cc == c)
                .map(|(_, &n)| n as u64)
                .sum();
            assert_eq!(by_frame, lost, "cell {c}: per-frame refinement");
        }
    }

    #[test]
    fn mismatched_schedules_are_rejected() {
        let a = RruEmulator::new(CellConfig::tiny_test(2), RruConfig::default());
        let mut cfg = CellConfig::tiny_test(2);
        cfg.schedule = agora_phy::FrameSchedule::uplink(1, 3);
        let b = RruEmulator::new(cfg, RruConfig::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MultiCellGenerator::new(vec![a, b])
        }));
        assert!(result.is_err(), "schedule-length mismatch must be rejected");
    }
}
