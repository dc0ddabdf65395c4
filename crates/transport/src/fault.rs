//! Fronthaul fault injection: deterministic loss, reordering,
//! duplication and arrival jitter.
//!
//! The paper's fronthaul is a dedicated 40 GbE link, but §6 still
//! observes occasional packet loss ("Agora drops the frame and
//! continues") — the baseband must degrade gracefully, never hang or
//! touch freed frame buffers. This module makes that failure mode a
//! first-class, *reproducible* experiment axis: [`FaultInjector`]
//! transforms a packet stream under a seeded RNG, so a given
//! `(FaultConfig, packet stream)` pair always produces the same losses,
//! duplicates and arrival order.
//!
//! Loss models:
//! * **i.i.d.** — every packet dropped independently with probability
//!   `p` (random congestion drops).
//! * **Gilbert–Elliott** — a two-state Markov chain (good/bad) with
//!   per-state loss probabilities, reproducing the *bursty* loss of a
//!   congested or interfered link: losses cluster, which stresses frame
//!   abandonment much harder than the same average rate spread evenly.
//!
//! Reordering/jitter uses slot displacement: packet `i` is released at
//! slot `i + d` with `d` drawn from `1..=max_delay` (probability
//! `reorder_prob`), then the stream is stably sorted by slot. This
//! models NIC/switch queue jitter: packets leave late but the stream
//! stays causally plausible.

use crate::packet::decode_ref;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Packet-loss process applied to the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LossModel {
    /// No loss (the default).
    #[default]
    None,
    /// Independent loss with probability `p` per packet.
    Iid {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) bursty loss.
    GilbertElliott {
        /// Probability of moving good -> bad at each packet.
        p_enter_burst: f64,
        /// Probability of moving bad -> good at each packet.
        p_exit_burst: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Samples whether the next packet is lost, advancing the burst
    /// state for the Markov model. Exactly one state transition and one
    /// loss draw are consumed per call, so the RNG stream is stable.
    pub fn sample<R: Rng>(&self, rng: &mut R, in_burst: &mut bool) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Iid { p } => p > 0.0 && rng.gen_bool(p),
            LossModel::GilbertElliott { p_enter_burst, p_exit_burst, loss_good, loss_bad } => {
                let flip = if *in_burst { p_exit_burst } else { p_enter_burst };
                if flip > 0.0 && rng.gen_bool(flip) {
                    *in_burst = !*in_burst;
                }
                let p = if *in_burst { loss_bad } else { loss_good };
                p > 0.0 && rng.gen_bool(p)
            }
        }
    }

    /// The stationary mean loss rate of the model (for labelling sweeps).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { p } => p,
            LossModel::GilbertElliott { p_enter_burst, p_exit_burst, loss_good, loss_bad } => {
                let denom = p_enter_burst + p_exit_burst;
                if denom == 0.0 {
                    return loss_good;
                }
                let frac_bad = p_enter_burst / denom;
                loss_good * (1.0 - frac_bad) + loss_bad * frac_bad
            }
        }
    }
}

/// Full fault-injection configuration. The default injects nothing, so
/// wiring the injector in unconditionally costs only a per-packet branch.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Loss process.
    pub loss: LossModel,
    /// Probability a delivered packet is delayed (slot-displaced).
    pub reorder_prob: f64,
    /// Maximum displacement in slots (packets) for a delayed packet.
    pub max_delay: usize,
    /// Probability a delivered packet is also duplicated; the copy gets
    /// its own displacement, so duplicates may arrive arbitrarily late.
    pub duplicate_prob: f64,
    /// RNG seed. Same seed + same stream -> same faults, always.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            loss: LossModel::None,
            reorder_prob: 0.0,
            max_delay: 8,
            duplicate_prob: 0.0,
            seed: 1,
        }
    }
}

/// Counts of what the injector actually did.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Packets offered to the injector.
    pub offered: u64,
    /// Packets emitted (delivered originals + duplicates).
    pub delivered: u64,
    /// Packets dropped by the loss model.
    pub lost: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Packets emitted after a packet that was originally behind them.
    pub reordered: u64,
    /// Losses per frame id (decoded from the packet header; packets with
    /// undecodable headers are counted in `lost` only).
    pub per_frame_lost: BTreeMap<u32, u32>,
    /// Losses per originating cell (multi-cell streams share one link).
    pub per_cell_lost: BTreeMap<u8, u64>,
    /// Injected duplicates per cell.
    pub per_cell_duplicated: BTreeMap<u8, u64>,
    /// Emitted packets per cell (originals + duplicates).
    pub per_cell_delivered: BTreeMap<u8, u64>,
    /// Losses per (cell, frame) — the per-cell refinement of
    /// `per_frame_lost`, for reconciling demuxed engines exactly.
    pub per_cell_frame_lost: BTreeMap<(u8, u32), u32>,
}

impl FaultStats {
    fn note_lost(&mut self, pkt: &[u8]) {
        self.lost += 1;
        if let Ok((hdr, _)) = decode_ref(pkt) {
            *self.per_frame_lost.entry(hdr.frame).or_insert(0) += 1;
            *self.per_cell_lost.entry(hdr.cell).or_insert(0) += 1;
            *self.per_cell_frame_lost.entry((hdr.cell, hdr.frame)).or_insert(0) += 1;
        }
    }

    fn note_duplicated(&mut self, pkt: &[u8]) {
        self.duplicated += 1;
        if let Ok((hdr, _)) = decode_ref(pkt) {
            *self.per_cell_duplicated.entry(hdr.cell).or_insert(0) += 1;
        }
    }

    fn note_delivered(&mut self, pkt: &[u8]) {
        self.delivered += 1;
        if let Ok((hdr, _)) = decode_ref(pkt) {
            *self.per_cell_delivered.entry(hdr.cell).or_insert(0) += 1;
        }
    }
}

/// Offline fault injector: transforms a complete packet stream.
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    in_burst: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector with its RNG seeded from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            in_burst: false,
            stats: FaultStats::default(),
        }
    }

    /// Cumulative statistics across all `apply` calls.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    fn record_loss(stats: &mut FaultStats, pkt: &[u8]) {
        stats.note_lost(pkt);
    }

    /// Samples a slot displacement for a delivered packet: `0` (on time)
    /// or `1..=max_delay`. Consumes a fixed number of RNG draws per
    /// outcome so fault streams stay reproducible.
    fn sample_delay(&mut self) -> usize {
        if self.cfg.reorder_prob > 0.0
            && self.cfg.max_delay > 0
            && self.rng.gen_bool(self.cfg.reorder_prob)
        {
            self.rng.gen_range(0..self.cfg.max_delay) + 1
        } else {
            0
        }
    }

    /// Applies the configured faults to a packet stream and returns the
    /// faulted stream (possibly shorter through loss, longer through
    /// duplication, and re-ordered through jitter).
    pub fn apply(&mut self, packets: Vec<Bytes>) -> Vec<Bytes> {
        // (release slot, emission seq, original index, packet)
        let mut staged: Vec<(usize, usize, usize, Bytes)> = Vec::with_capacity(packets.len());
        let mut seq = 0usize;
        for (i, pkt) in packets.into_iter().enumerate() {
            self.stats.offered += 1;
            if self.cfg.loss.sample(&mut self.rng, &mut self.in_burst) {
                Self::record_loss(&mut self.stats, &pkt);
                continue;
            }
            let delay = self.sample_delay();
            let duplicate =
                self.cfg.duplicate_prob > 0.0 && self.rng.gen_bool(self.cfg.duplicate_prob);
            if duplicate {
                self.stats.note_duplicated(&pkt);
                let dup_delay = self.sample_delay();
                staged.push((i + 1 + dup_delay, seq + 1, i, pkt.clone()));
            }
            staged.push((i + delay, seq, i, pkt));
            seq += 2;
        }
        // Stable release order: by slot, ties by emission sequence.
        staged.sort_by_key(|&(slot, s, _, _)| (slot, s));
        let mut max_orig = 0usize;
        let mut first = true;
        let mut out = Vec::with_capacity(staged.len());
        for (_, _, orig, pkt) in staged {
            if !first && orig < max_orig {
                self.stats.reordered += 1;
            }
            max_orig = max_orig.max(orig);
            first = false;
            self.stats.note_delivered(&pkt);
            out.push(pkt);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode, PacketDir, PacketHeader};

    fn stream(frames: u32, per_frame: u16) -> Vec<Bytes> {
        let mut out = Vec::new();
        for f in 0..frames {
            for a in 0..per_frame {
                out.push(encode(
                    &PacketHeader {
                        frame: f,
                        symbol: 0,
                        antenna: a,
                        dir: PacketDir::Uplink,
                        cell: 0,
                        payload_len: 3,
                    },
                    &[f as u8, a as u8, 0],
                ));
            }
        }
        out
    }

    fn order_key(pkt: &[u8]) -> (u32, u16) {
        let (h, _) = decode_ref(pkt).unwrap();
        (h.frame, h.antenna)
    }

    #[test]
    fn default_config_is_transparent() {
        let pkts = stream(4, 8);
        let mut inj = FaultInjector::new(FaultConfig::default());
        let out = inj.apply(pkts.clone());
        assert_eq!(out, pkts);
        let st = inj.stats();
        assert_eq!(st.offered, 32);
        assert_eq!(st.delivered, 32);
        assert_eq!((st.lost, st.duplicated, st.reordered), (0, 0, 0));
    }

    #[test]
    fn iid_loss_is_counted_and_deterministic() {
        let cfg = FaultConfig { loss: LossModel::Iid { p: 0.2 }, seed: 42, ..Default::default() };
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        let out_a = a.apply(stream(10, 16));
        let out_b = b.apply(stream(10, 16));
        assert_eq!(out_a, out_b, "same seed must fault identically");
        let st = a.stats();
        assert!(st.lost > 0, "20% loss over 160 packets must drop some");
        assert_eq!(st.delivered + st.lost, st.offered);
        assert_eq!(st.per_frame_lost.values().map(|&n| n as u64).sum::<u64>(), st.lost);
    }

    #[test]
    fn different_seeds_fault_differently() {
        let mk = |seed| {
            let mut inj = FaultInjector::new(FaultConfig {
                loss: LossModel::Iid { p: 0.3 },
                seed,
                ..Default::default()
            });
            inj.apply(stream(10, 16))
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare the longest loss run of a bursty model against an
        // i.i.d. model with the same mean rate: bursts must cluster.
        let ge = LossModel::GilbertElliott {
            p_enter_burst: 0.02,
            p_exit_burst: 0.25,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let rate = ge.mean_rate();
        assert!(rate > 0.0 && rate < 0.2, "mean rate {rate}");
        let longest_run = |model: LossModel| -> usize {
            let mut rng = StdRng::seed_from_u64(9);
            let mut burst = false;
            let (mut cur, mut best) = (0usize, 0usize);
            for _ in 0..20_000 {
                if model.sample(&mut rng, &mut burst) {
                    cur += 1;
                    best = best.max(cur);
                } else {
                    cur = 0;
                }
            }
            best
        };
        assert!(
            longest_run(ge) >= 2 * longest_run(LossModel::Iid { p: rate }).max(1),
            "Gilbert-Elliott must produce longer loss runs than i.i.d."
        );
    }

    #[test]
    fn reordering_preserves_the_multiset() {
        let pkts = stream(6, 16);
        let mut inj = FaultInjector::new(FaultConfig {
            reorder_prob: 0.3,
            max_delay: 5,
            seed: 11,
            ..Default::default()
        });
        let out = inj.apply(pkts.clone());
        assert_eq!(out.len(), pkts.len(), "reordering must not lose packets");
        let mut a: Vec<_> = pkts.iter().map(|p| order_key(p)).collect();
        let mut b: Vec<_> = out.iter().map(|p| order_key(p)).collect();
        assert_ne!(a, b, "30% displacement over 96 packets must reorder");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(inj.stats().reordered > 0);
    }

    #[test]
    fn bounded_displacement_limits_reordering_depth() {
        let pkts = stream(4, 32);
        let mut inj = FaultInjector::new(FaultConfig {
            reorder_prob: 1.0,
            max_delay: 3,
            seed: 5,
            ..Default::default()
        });
        let out = inj.apply(pkts.clone());
        // Packet originally at index i can appear at most max_delay slots
        // late, and can slip earlier only as far as displaced peers allow.
        for (pos, pkt) in out.iter().enumerate() {
            let orig = pkts.iter().position(|p| p == pkt).unwrap();
            assert!(pos.abs_diff(orig) <= 3, "packet moved {} -> {} (beyond max_delay)", orig, pos);
        }
    }

    #[test]
    fn duplicates_are_injected_and_counted() {
        let pkts = stream(6, 16);
        let mut inj =
            FaultInjector::new(FaultConfig { duplicate_prob: 0.25, seed: 3, ..Default::default() });
        let out = inj.apply(pkts.clone());
        let st = inj.stats();
        assert!(st.duplicated > 0);
        assert_eq!(out.len() as u64, pkts.len() as u64 + st.duplicated);
        assert_eq!(st.delivered, out.len() as u64);
    }

    #[test]
    fn combined_fault_counters_are_consistent() {
        let pkts = stream(12, 24);
        let offered = pkts.len() as u64;
        let mut inj = FaultInjector::new(FaultConfig {
            loss: LossModel::Iid { p: 0.05 },
            reorder_prob: 0.1,
            max_delay: 8,
            duplicate_prob: 0.05,
            seed: 77,
        });
        let out = inj.apply(pkts);
        let st = inj.stats();
        assert_eq!(st.offered, offered);
        assert_eq!(st.delivered, offered - st.lost + st.duplicated);
        assert_eq!(out.len() as u64, st.delivered);
    }

    #[test]
    fn mean_rate_matches_empirical_rate() {
        let model = LossModel::GilbertElliott {
            p_enter_burst: 0.01,
            p_exit_burst: 0.2,
            loss_good: 0.001,
            loss_bad: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut burst = false;
        let n = 200_000;
        let lost = (0..n).filter(|_| model.sample(&mut rng, &mut burst)).count();
        let empirical = lost as f64 / n as f64;
        let analytic = model.mean_rate();
        assert!(
            (empirical - analytic).abs() < 0.2 * analytic,
            "empirical {empirical} vs analytic {analytic}"
        );
    }
}
