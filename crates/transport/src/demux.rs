//! Cell-aware fronthaul demultiplexing.
//!
//! A multi-cell deployment shares one socket (one `recv_batch` drain)
//! across C cells; every packet carries its originating cell in the
//! header's cell byte. [`CellDemux`] classifies each received buffer by
//! that byte so the network thread can hand it to the right cell's
//! intake. Packets addressed to a cell outside the deployment are
//! *dropped and counted* — never delivered to cell 0, which would
//! corrupt that cell's frame state with foreign geometry.

use crate::packet::decode_ref;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where one received buffer should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to this cell's intake.
    Cell(usize),
    /// Valid header, but the cell id is outside the deployment — drop.
    Misrouted,
    /// Header failed to decode — drop (the per-cell intake would reject
    /// it anyway, but it has no cell to charge the error to).
    Undecodable,
}

/// Lock-free demux counters, shared between the network thread and
/// whoever reads stats.
#[derive(Debug)]
pub struct DemuxStats {
    routed: Vec<AtomicU64>,
    misrouted: AtomicU64,
    undecodable: AtomicU64,
}

impl DemuxStats {
    fn new(num_cells: usize) -> Self {
        Self {
            routed: (0..num_cells).map(|_| AtomicU64::new(0)).collect(),
            misrouted: AtomicU64::new(0),
            undecodable: AtomicU64::new(0),
        }
    }

    /// Packets delivered to one cell's intake.
    pub fn routed(&self, cell: usize) -> u64 {
        self.routed.get(cell).map_or(0, |a| a.load(Ordering::Relaxed))
    }

    /// Packets dropped because their cell id is outside the deployment.
    pub fn misrouted(&self) -> u64 {
        self.misrouted.load(Ordering::Relaxed)
    }
}

/// Routes one socket's receive stream to per-cell intakes by the
/// header's cell byte.
#[derive(Debug)]
pub struct CellDemux {
    num_cells: usize,
    stats: DemuxStats,
}

impl CellDemux {
    /// A demux for `num_cells` deployed cells (ids `0..num_cells`).
    pub fn new(num_cells: usize) -> Self {
        assert!(num_cells > 0, "a deployment has at least one cell");
        Self { num_cells, stats: DemuxStats::new(num_cells) }
    }

    /// Classifies one received buffer and records it in the counters.
    pub fn classify(&self, pkt: &[u8]) -> Route {
        match decode_ref(pkt) {
            Ok((hdr, _)) => {
                let cell = hdr.cell as usize;
                if cell < self.num_cells {
                    self.stats.routed[cell].fetch_add(1, Ordering::Relaxed);
                    Route::Cell(cell)
                } else {
                    self.stats.misrouted.fetch_add(1, Ordering::Relaxed);
                    Route::Misrouted
                }
            }
            Err(_) => {
                self.stats.undecodable.fetch_add(1, Ordering::Relaxed);
                Route::Undecodable
            }
        }
    }

    /// The demux counters.
    pub fn stats(&self) -> &DemuxStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode, PacketDir, PacketHeader};
    use crate::pool::PacketBuf;

    impl DemuxStats {
        /// Packets dropped because the header failed to decode.
        fn undecodable(&self) -> u64 {
            self.undecodable.load(Ordering::Relaxed)
        }
    }

    fn pkt(cell: u8) -> PacketBuf {
        let hdr = PacketHeader {
            frame: 1,
            symbol: 2,
            antenna: 3,
            dir: PacketDir::Uplink,
            cell,
            payload_len: 6,
        };
        PacketBuf::Heap(encode(&hdr, &[0u8; 6]))
    }

    #[test]
    fn routes_by_cell_byte() {
        let d = CellDemux::new(4);
        assert_eq!(d.classify(&pkt(0)), Route::Cell(0));
        assert_eq!(d.classify(&pkt(3)), Route::Cell(3));
        assert_eq!(d.stats().routed(0), 1);
        assert_eq!(d.stats().routed(3), 1);
    }

    #[test]
    fn unknown_cell_is_counted_and_dropped_not_sent_to_cell_zero() {
        let d = CellDemux::new(2);
        assert_eq!(d.classify(&pkt(2)), Route::Misrouted);
        assert_eq!(d.classify(&pkt(255)), Route::Misrouted);
        assert_eq!(d.stats().misrouted(), 2);
        assert_eq!(d.stats().routed(0), 0, "misrouted packets never reach cell 0");
    }

    #[test]
    fn undecodable_buffers_are_counted() {
        let d = CellDemux::new(1);
        assert_eq!(d.classify(&[0xFFu8; 16]), Route::Undecodable);
        assert_eq!(d.stats().undecodable(), 1);
    }
}
