//! Transport-block segmentation and reassembly.
//!
//! The engine's unit of decoding is one code block per (symbol, user)
//! ("our current implementation supports only up to one code block per
//! symbol", §4). A MAC transport block — an IP packet, say — is usually
//! larger than one code block, so it must be segmented across the
//! frame's data symbols and reassembled at the far end:
//!
//! ```text
//! TB bytes -> [CRC-24A] -> bits -> [seg 0 | seg 1 | ... | seg n-1]
//!                                    |        |             |
//!                                 symbol0  symbol1  ...  symbol n-1
//! ```
//!
//! Each segment is padded to the code block's information length; a
//! 16-bit length prefix lets the receiver strip the padding.

use agora_ldpc::crc::CRC_BITS;
use agora_ldpc::{attach_crc, check_crc};
use agora_phy::frame::CellConfig;

/// A MAC transport block: an opaque byte payload for one user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportBlock {
    /// Payload bytes.
    pub data: Vec<u8>,
}

impl TransportBlock {
    /// Wraps bytes in a transport block.
    pub fn new(data: Vec<u8>) -> Self {
        Self { data }
    }
}

/// Expands bytes to LSB-first bits (one bit per output byte).
pub fn unpack_bits(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            out.push((b >> i) & 1);
        }
    }
    out
}

/// Packs LSB-first bits (one per byte) back into bytes; the bit count
/// must be a multiple of 8.
pub fn pack_bits(bits: &[u8]) -> Vec<u8> {
    assert_eq!(bits.len() % 8, 0, "bit count must be a multiple of 8");
    bits.chunks_exact(8)
        .map(|c| c.iter().enumerate().fold(0u8, |acc, (i, &b)| acc | ((b & 1) << i)))
        .collect()
}

/// Reassembly failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassembleError {
    /// A segment whose decode failed (engine flag) was encountered.
    SegmentLost {
        /// Index of the first missing/bad segment.
        segment: usize,
    },
    /// The length prefix is inconsistent with the segment budget.
    BadLength,
    /// The end-to-end CRC-24A failed.
    CrcMismatch,
}

impl core::fmt::Display for ReassembleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReassembleError::SegmentLost { segment } => write!(f, "segment {segment} lost"),
            ReassembleError::BadLength => write!(f, "length prefix out of range"),
            ReassembleError::CrcMismatch => write!(f, "transport block CRC mismatch"),
        }
    }
}

impl std::error::Error for ReassembleError {}

/// Bits of the length prefix (transport blocks up to 8 KiB).
const LEN_BITS: usize = 16;

/// Segmentation planner for one cell configuration and one user.
#[derive(Debug, Clone)]
pub struct Segmenter {
    /// Information bits per code block (one per data symbol).
    info_bits: usize,
    /// Data symbols per frame.
    segments: usize,
}

impl Segmenter {
    /// Builds a segmenter for a cell (uplink symbols carry the TB).
    pub fn for_cell(cell: &CellConfig) -> Self {
        Self {
            info_bits: cell.info_bits_per_symbol(),
            segments: cell.schedule.uplink_indices().len(),
        }
    }

    /// Builds a segmenter from raw parameters.
    pub fn new(info_bits_per_segment: usize, segments: usize) -> Self {
        assert!(info_bits_per_segment > LEN_BITS);
        assert!(segments > 0);
        Self { info_bits: info_bits_per_segment, segments }
    }

    /// Maximum transport-block payload size in bytes that fits one frame
    /// (after the length prefix and CRC).
    pub fn max_payload_bytes(&self) -> usize {
        (self.info_bits * self.segments - LEN_BITS - CRC_BITS) / 8
    }

    /// Segments a transport block into per-symbol code-block payloads
    /// (each `info_bits` long, bit-per-byte), ready for LDPC encoding.
    ///
    /// Layout: `[len:16][payload bits][CRC:24][zero padding]` spread
    /// across `segments` blocks in order.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`Self::max_payload_bytes`].
    pub fn segment(&self, tb: &TransportBlock) -> Vec<Vec<u8>> {
        assert!(
            tb.data.len() <= self.max_payload_bytes(),
            "transport block {} B exceeds frame capacity {} B",
            tb.data.len(),
            self.max_payload_bytes()
        );
        let mut bits = Vec::with_capacity(self.info_bits * self.segments);
        // 16-bit LSB-first length prefix (in bytes).
        let len = tb.data.len() as u16;
        for i in 0..LEN_BITS {
            bits.push(((len >> i) & 1) as u8);
        }
        bits.extend(unpack_bits(&tb.data));
        // End-to-end CRC over prefix + payload.
        let crc_input = bits.clone();
        bits = attach_crc(&crc_input);
        bits.resize(self.info_bits * self.segments, 0);
        bits.chunks(self.info_bits).map(|c| c.to_vec()).collect()
    }

    /// Reassembles decoded code blocks into the transport block,
    /// verifying per-segment decode flags and the end-to-end CRC.
    pub fn reassemble(
        &self,
        segments: &[(Vec<u8>, bool)],
    ) -> Result<TransportBlock, ReassembleError> {
        assert_eq!(segments.len(), self.segments, "segment count mismatch");
        let mut bits = Vec::with_capacity(self.info_bits * self.segments);
        for (i, (seg, ok)) in segments.iter().enumerate() {
            if !ok {
                return Err(ReassembleError::SegmentLost { segment: i });
            }
            assert_eq!(seg.len(), self.info_bits, "segment {i} length mismatch");
            bits.extend_from_slice(seg);
        }
        // Length prefix.
        let mut len = 0u16;
        for (i, &b) in bits[..LEN_BITS].iter().enumerate() {
            len |= ((b & 1) as u16) << i;
        }
        let payload_bits = len as usize * 8;
        let framed_end = LEN_BITS + payload_bits + CRC_BITS;
        if framed_end > bits.len() {
            return Err(ReassembleError::BadLength);
        }
        if !check_crc(&bits[..framed_end]) {
            return Err(ReassembleError::CrcMismatch);
        }
        Ok(TransportBlock::new(pack_bits(&bits[LEN_BITS..LEN_BITS + payload_bits])))
    }
}

/// One-shot convenience: segment a transport block for a cell.
pub fn segment(cell: &CellConfig, tb: &TransportBlock) -> Vec<Vec<u8>> {
    Segmenter::for_cell(cell).segment(tb)
}

/// One-shot convenience: reassemble decoded blocks for a cell.
pub fn reassemble(
    cell: &CellConfig,
    segments: &[(Vec<u8>, bool)],
) -> Result<TransportBlock, ReassembleError> {
    Segmenter::for_cell(cell).reassemble(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Segmenter {
        Segmenter::new(120, 4)
    }

    #[test]
    fn bits_roundtrip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C];
        assert_eq!(pack_bits(&unpack_bits(&bytes)), bytes);
    }

    #[test]
    fn capacity_accounts_for_overhead() {
        let s = seg();
        // 480 bits - 16 len - 24 crc = 440 -> 55 bytes.
        assert_eq!(s.max_payload_bytes(), 55);
    }

    #[test]
    fn segment_reassemble_roundtrip() {
        let s = seg();
        let tb = TransportBlock::new((0..50u8).collect());
        let parts = s.segment(&tb);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.len() == 120));
        let rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
        assert_eq!(s.reassemble(&rx).unwrap(), tb);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let s = seg();
        let tb = TransportBlock::new(Vec::new());
        let parts = s.segment(&tb);
        let rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
        assert_eq!(s.reassemble(&rx).unwrap(), tb);
    }

    #[test]
    fn max_sized_payload_roundtrips() {
        let s = seg();
        let tb = TransportBlock::new(vec![0x5A; s.max_payload_bytes()]);
        let parts = s.segment(&tb);
        let rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
        assert_eq!(s.reassemble(&rx).unwrap(), tb);
    }

    #[test]
    #[should_panic(expected = "exceeds frame capacity")]
    fn oversized_payload_rejected() {
        let s = seg();
        let _ = s.segment(&TransportBlock::new(vec![0; 56]));
    }

    #[test]
    fn lost_segment_reported() {
        let s = seg();
        let parts = s.segment(&TransportBlock::new(vec![1, 2, 3]));
        let mut rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
        rx[2].1 = false;
        assert_eq!(s.reassemble(&rx), Err(ReassembleError::SegmentLost { segment: 2 }));
    }

    #[test]
    fn bit_corruption_caught_by_crc() {
        let s = seg();
        let parts = s.segment(&TransportBlock::new(vec![9; 20]));
        let mut rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
        rx[1].0[7] ^= 1; // flip a payload bit but keep decode_ok = true
        assert_eq!(s.reassemble(&rx), Err(ReassembleError::CrcMismatch));
    }

    #[test]
    fn corrupted_length_prefix_rejected() {
        let s = seg();
        let parts = s.segment(&TransportBlock::new(vec![9; 20]));
        let mut rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
        // Force the length prefix to an impossible value.
        for b in rx[0].0[..16].iter_mut() {
            *b = 1;
        }
        let err = s.reassemble(&rx).unwrap_err();
        assert!(matches!(err, ReassembleError::BadLength | ReassembleError::CrcMismatch));
    }

    #[test]
    fn for_cell_matches_cell_numbers() {
        let cell = agora_phy::CellConfig::tiny_test(4);
        let s = Segmenter::for_cell(&cell);
        assert_eq!(s.segments, 4);
        assert_eq!(s.info_bits, cell.info_bits_per_symbol());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_payload_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..55)) {
            let s = Segmenter::new(120, 4);
            let tb = TransportBlock::new(data);
            let parts = s.segment(&tb);
            let rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
            prop_assert_eq!(s.reassemble(&rx).unwrap(), tb);
        }

        #[test]
        fn single_bit_flip_never_passes(
            data in proptest::collection::vec(any::<u8>(), 1..50),
            flip in 0usize..400,
        ) {
            let s = Segmenter::new(120, 4);
            let tb = TransportBlock::new(data);
            let parts = s.segment(&tb);
            let mut rx: Vec<(Vec<u8>, bool)> = parts.into_iter().map(|p| (p, true)).collect();
            let seg = flip / 120;
            let bit = flip % 120;
            rx[seg].0[bit] ^= 1;
            // Either an error, or (if the flip landed in dead padding
            // beyond the CRC) the same payload back.
            if let Ok(out) = s.reassemble(&rx) {
                prop_assert_eq!(out, tb);
            }
        }
    }
}
