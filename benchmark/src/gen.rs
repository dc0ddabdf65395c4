//! Corpus and replay: a ring of distinct generated frames per cell,
//! replayed under fresh frame ids.
//!
//! Generating a 64×16 frame costs far more than processing it should,
//! so the generator runs once, at set-up, and the phases replay its
//! frames. A packet's payload does not depend on its frame id, so
//! replayed frame `n` must decode to ring truth `n mod ring` — which is
//! what every phase checks.

use crate::api::{restamp, Cell, CellSetup, Link, Packet, Rru, SplitMix, Truth};
use std::time::{Duration, Instant};

/// Packets the pre-filled link and the pre-stamped paced bursts may
/// hold: keeps the corpus of any phase under 192 MB.
pub const CORPUS_BYTES_CAP: usize = 192 << 20;

/// One generated frame: packets in (symbol, antenna) order.
pub struct RingFrame {
    pub packets: Vec<Packet>,
    pub truth: Truth,
}

/// One cell's ring and what its receiver needs to know.
pub struct CellCorpus {
    pub setup: CellSetup,
    pub ring: Vec<RingFrame>,
}

/// Every cell of a workload. Cell `i` stamps `cell_id = i`.
pub struct Corpus {
    pub cells: Vec<CellCorpus>,
}

/// The generator seed of cell `index`: distinct streams per cell, and
/// nothing else in the benchmark depends on `--seed`.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    SplitMix(seed ^ (index as u64).wrapping_mul(0xA5A5_5A5A_1234_5678)).next_u64()
}

impl Corpus {
    /// Generates `ring` frames for each cell.
    pub fn generate(cells: &[Cell], ring: usize, seed: u64) -> Corpus {
        let cells = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let id = u8::try_from(i).expect("at most 256 cells");
                let mut rru = Rru::new(cell, cell_seed(seed, i), id);
                let ring = (0..ring as u32)
                    .map(|f| {
                        let (packets, truth) = rru.frame(f);
                        RingFrame { packets, truth }
                    })
                    .collect();
                CellCorpus { setup: rru.setup(), ring }
            })
            .collect();
        Corpus { cells }
    }

    pub fn setups(&self) -> Vec<CellSetup> {
        self.cells.iter().map(|c| c.setup.clone()).collect()
    }

    /// Ring truth of `cell`'s replayed frame `frame`.
    pub fn truth(&self, cell: usize, frame: u32) -> &Truth {
        let ring = &self.cells[cell].ring;
        &ring[frame as usize % ring.len()].truth
    }

    /// One cell's frame `frame`: its ring frame re-stamped.
    pub fn cell_frame(&self, cell: usize, frame: u32) -> Vec<Packet> {
        let ring = &self.cells[cell].ring;
        ring[frame as usize % ring.len()].packets.iter().map(|p| restamp(p, frame)).collect()
    }

    /// Frame `frame` of every cell as it travels on the shared link:
    /// interleaved symbol by symbol, each cell's antennas together.
    pub fn link_frame(&self, frame: u32) -> Vec<Packet> {
        let per_cell: Vec<Vec<Packet>> =
            (0..self.cells.len()).map(|c| self.cell_frame(c, frame)).collect();
        let mut symbols: Vec<_> = per_cell
            .iter()
            .zip(&self.cells)
            .map(|(packets, c)| packets.chunks(c.setup.cell.antennas()))
            .collect();
        let total = self.packets_per_frame();
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            for cell_symbols in &mut symbols {
                out.extend_from_slice(cell_symbols.next().unwrap_or_default());
            }
        }
        out
    }

    /// Packets of one link frame (all cells).
    pub fn packets_per_frame(&self) -> usize {
        self.cells.iter().map(|c| c.setup.cell.packets_per_frame()).sum()
    }

    /// The most frames per cell whose packets stay under the corpus cap.
    pub fn frames_under_cap(&self, wanted: u32) -> u32 {
        let bytes: usize = self
            .cells
            .iter()
            .map(|c| c.setup.cell.packets_per_frame() * c.setup.cell.packet_len())
            .sum();
        wanted.min((CORPUS_BYTES_CAP / bytes.max(1)) as u32)
    }

    /// A link that can hold `frames` whole link frames.
    pub fn link_for(&self, frames: u32) -> Link {
        Link::new(frames as usize * self.packets_per_frame() + 64)
    }

    /// Puts frames `0..frames` on the link before the engine starts.
    /// `false` if the link overflowed.
    pub fn prefill(&self, link: &Link, frames: u32) -> bool {
        (0..frames).all(|f| link.send_burst(self.link_frame(f)))
    }
}

/// What the open-loop generator did.
pub struct PacedLog {
    /// When each frame's burst began, from the schedule's epoch.
    pub sent_at: Vec<Duration>,
    /// How long after its due time each burst began.
    pub late: Vec<Duration>,
    /// Bursts the link refused (it is sized to refuse none).
    pub refused: u32,
}

/// An open-loop schedule: frame `f` is due at `lead + f × period` after
/// `epoch`, whatever the engine is doing.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub epoch: Instant,
    pub lead: Duration,
    pub period: Duration,
}

impl Schedule {
    pub fn due(&self, frame: u32) -> Duration {
        self.lead + self.period * frame
    }

    /// Sends each pre-stamped burst at its due time. Sleeps until then
    /// and never spins: on a two-core box a spinning generator would
    /// take a core from the system it is loading.
    pub fn drive(&self, link: &Link, bursts: Vec<Vec<Packet>>) -> PacedLog {
        let mut log = PacedLog {
            sent_at: Vec::with_capacity(bursts.len()),
            late: Vec::with_capacity(bursts.len()),
            refused: 0,
        };
        for (f, burst) in bursts.into_iter().enumerate() {
            let due = self.due(f as u32);
            let now = self.epoch.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = self.epoch.elapsed();
            log.sent_at.push(start);
            log.late.push(start.saturating_sub(due));
            if !link.send_burst(burst) {
                log.refused += 1;
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{header, Inline};

    fn tiny(seed: u64) -> Corpus {
        Corpus::generate(&[Cell::tiny_uplink()], 3, seed)
    }

    /// Replayed frame n decodes to ring truth n mod ring.
    #[test]
    fn replayed_frames_decode_to_their_ring_truth() {
        let corpus = tiny(11);
        let cell = &corpus.cells[0].setup.cell;
        let mut inline = Inline::new(&corpus.cells[0].setup);
        for frame in [0u32, 1, 2, 3, 7, 1000] {
            let packets = corpus.cell_frame(0, frame);
            assert!(packets.iter().all(|p| header(p).frame == frame));
            let out = inline.process(frame, &packets);
            let (blocks, wrong) = out.uplink_blocks(cell, corpus.truth(0, frame));
            assert_eq!((blocks, wrong), (26, 0), "frame {frame}");
        }
        // ... and to no other ring frame's truth.
        let out = inline.process(4, &corpus.cell_frame(0, 4));
        assert!(out.uplink_blocks(cell, corpus.truth(0, 5)).1 > 0);
    }

    /// `--seed` changes the packets and nothing else.
    #[test]
    fn seed_changes_payloads_only() {
        let (a, b, again) = (tiny(1), tiny(2), tiny(1));
        let shape = |c: &Corpus| -> Vec<Vec<(crate::api::Header, usize)>> {
            c.cells[0]
                .ring
                .iter()
                .map(|f| f.packets.iter().map(|p| (header(p), p.len())).collect())
                .collect()
        };
        assert_eq!(shape(&a), shape(&b), "same headers, sizes and order");
        let bytes = |c: &Corpus| -> Vec<Vec<u8>> {
            c.cells[0].ring.iter().flat_map(|f| f.packets.iter().map(|p| p.to_vec())).collect()
        };
        assert_ne!(bytes(&a), bytes(&b), "different seed, different payloads");
        assert_eq!(bytes(&a), bytes(&again), "same seed, same packets");
        assert_eq!(a.cells[0].setup.noise_power, b.cells[0].setup.noise_power);
    }

    #[test]
    fn two_cells_interleave_symbol_by_symbol_with_their_own_ids() {
        let corpus = Corpus::generate(&[Cell::tiny_uplink(), Cell::tiny_uplink()], 2, 5);
        let frame = corpus.link_frame(9);
        assert_eq!(frame.len(), 2 * 14 * 8);
        for (i, p) in frame.iter().enumerate() {
            let h = header(p);
            let (slot, within) = (i / 16, i % 16);
            assert_eq!(h.frame, 9);
            assert_eq!(h.symbol as usize, slot);
            assert_eq!(h.cell as usize, within / 8);
            assert_eq!(h.antenna as usize, within % 8);
        }
        assert_ne!(corpus.cells[0].ring[0].packets[0], corpus.cells[1].ring[0].packets[0]);
    }

    #[test]
    fn prefill_puts_every_packet_on_the_link_and_respects_the_cap() {
        let corpus = tiny(3);
        let link = corpus.link_for(5);
        assert!(corpus.prefill(&link, 5));
        assert_eq!(link.pending(), 5 * 14 * 8);
        assert!(!corpus.prefill(&Link::new(100), 5), "a short link refuses");
        let per_frame = 14 * 8 * (64 + 256 * 3);
        assert_eq!(corpus.frames_under_cap(u32::MAX) as usize, CORPUS_BYTES_CAP / per_frame);
        assert_eq!(corpus.frames_under_cap(10), 10);
    }

    #[test]
    fn the_generator_sleeps_to_each_due_time_and_accounts_lateness() {
        let corpus = tiny(4);
        let link = corpus.link_for(4);
        let schedule = Schedule {
            epoch: Instant::now(),
            lead: Duration::from_millis(5),
            period: Duration::from_millis(10),
        };
        let bursts = (0..4).map(|f| corpus.link_frame(f)).collect();
        let log = schedule.drive(&link, bursts);
        assert_eq!(log.refused, 0);
        assert_eq!(link.pending(), 4 * 14 * 8);
        for (f, (&sent, &late)) in log.sent_at.iter().zip(&log.late).enumerate() {
            let due = schedule.due(f as u32);
            assert!(sent >= due, "frame {f} left before it was due");
            assert_eq!(late, sent - due);
        }
        assert!(schedule.epoch.elapsed() >= Duration::from_millis(35));
    }
}
