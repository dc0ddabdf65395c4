//! Linear-time QC-LDPC encoder.
//!
//! Exploits the double-diagonal core of the 5G base graphs: the four core
//! parity blocks are solved with cyclic rotations and XORs (no matrix
//! inversion), then each extension parity block is a plain accumulation of
//! its row. Complexity is `O(E * Z)` bit operations where `E` is the base
//! graph edge count — this is the `O(L)`-per-user "Encoding" block of
//! Table 1 in the paper.

use crate::base_graph::{BaseGraph, BaseGraphId, CORE_ROWS};

/// QC-LDPC encoder for one `(base graph, Z)` pair.
///
/// Bits are represented as one byte each (`0`/`1`), which keeps the code
/// transparent; the cost is irrelevant next to decoding.
#[derive(Debug, Clone, Copy)]
pub struct Encoder {
    bg: &'static BaseGraph,
    z: usize,
}

impl Encoder {
    /// Creates an encoder. `z` must be a valid lifting size (callers
    /// normally obtain it from [`crate::lifting`]).
    pub fn new(id: BaseGraphId, z: usize) -> Self {
        assert!(z >= 2, "lifting size must be at least 2");
        Self { bg: BaseGraph::get(id), z }
    }

    /// Payload size in bits (`kb * Z`).
    pub fn info_len(&self) -> usize {
        self.bg.info_cols() * self.z
    }

    /// Full codeword size in bits (`cols * Z`), before puncturing.
    pub fn codeword_len(&self) -> usize {
        self.bg.cols() * self.z
    }

    /// The lifting size.
    pub fn z(&self) -> usize {
        self.z
    }

    /// The base graph in use.
    pub fn base_graph(&self) -> &'static BaseGraph {
        self.bg
    }

    /// Encodes `info` (one bit per byte, length [`Self::info_len`]) into a
    /// full codeword (length [`Self::codeword_len`]). The codeword starts
    /// with the systematic bits.
    ///
    /// # Panics
    /// Panics if `info.len() != self.info_len()`.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        assert_eq!(info.len(), self.info_len(), "payload length mismatch");
        let z = self.z;
        let kb = self.bg.info_cols();
        let cols = self.bg.cols();
        let rows = self.bg.rows();
        let mut cw = vec![0u8; cols * z];
        cw[..kb * z].copy_from_slice(info);

        // lambda_r = XOR over info blocks of P(shift) * c_block, core rows.
        let mut lambda = vec![vec![0u8; z]; CORE_ROWS];
        for (r, l) in lambda.iter_mut().enumerate() {
            for e in self.bg.row_entries(r) {
                let c = e.col as usize;
                if c >= kb {
                    continue;
                }
                accumulate_rotated(l, &cw[c * z..(c + 1) * z], e.shift as usize % z);
            }
        }

        // Core parity: with the fixed B structure
        //   row0: P(1) p1 + p2           = lambda0
        //   row1: P(0) p1 + p2 + p3      = lambda1
        //   row2:             p3 + p4    = lambda2
        //   row3: P(0) p1 +         p4   = lambda3
        // summing all four rows cancels p2..p4 and leaves P(1) p1 = sum.
        let mut s = vec![0u8; z];
        for l in &lambda {
            xor_into(&mut s, l);
        }
        // p1 = P(1)^{-1} s = P(z-1) s.
        let mut p1 = vec![0u8; z];
        accumulate_rotated(&mut p1, &s, z - 1);
        // p2 = lambda0 ^ P(1) p1
        let mut p2 = lambda[0].clone();
        accumulate_rotated(&mut p2, &p1, 1 % z);
        // p3 = lambda1 ^ p1 ^ p2
        let mut p3 = lambda[1].clone();
        xor_into(&mut p3, &p1);
        xor_into(&mut p3, &p2);
        // p4 = lambda2 ^ p3
        let mut p4 = lambda[2].clone();
        xor_into(&mut p4, &p3);

        cw[kb * z..(kb + 1) * z].copy_from_slice(&p1);
        cw[(kb + 1) * z..(kb + 2) * z].copy_from_slice(&p2);
        cw[(kb + 2) * z..(kb + 3) * z].copy_from_slice(&p3);
        cw[(kb + 3) * z..(kb + 4) * z].copy_from_slice(&p4);

        // Extension parity: p_r = XOR of every other block in row r.
        for r in CORE_ROWS..rows {
            let own_col = kb + r;
            let mut p = vec![0u8; z];
            for e in self.bg.row_entries(r) {
                let c = e.col as usize;
                if c == own_col {
                    continue;
                }
                accumulate_rotated(&mut p, &cw[c * z..(c + 1) * z], e.shift as usize % z);
            }
            cw[own_col * z..(own_col + 1) * z].copy_from_slice(&p);
        }
        cw
    }

    /// Verifies `H c = 0` for a full-length codeword; the encoder's
    /// invariant and the decoders' success test.
    pub fn check(&self, cw: &[u8]) -> bool {
        assert_eq!(cw.len(), self.codeword_len());
        let z = self.z;
        for r in 0..self.bg.rows() {
            for i in 0..z {
                let mut parity = 0u8;
                for e in self.bg.row_entries(r) {
                    let c = e.col as usize;
                    let shift = e.shift as usize % z;
                    parity ^= cw[c * z + (i + shift) % z];
                }
                if parity != 0 {
                    return false;
                }
            }
        }
        true
    }
}

/// `dst ^= P(shift) * src`, i.e. `dst[i] ^= src[(i + shift) mod z]`.
fn accumulate_rotated(dst: &mut [u8], src: &[u8], shift: usize) {
    let z = dst.len();
    debug_assert_eq!(src.len(), z);
    let (tail, head) = src.split_at(shift);
    for (d, s) in dst[..z - shift].iter_mut().zip(head.iter()) {
        *d ^= s;
    }
    for (d, s) in dst[z - shift..].iter_mut().zip(tail.iter()) {
        *d ^= s;
    }
}

fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 1) as u8
            })
            .collect()
    }

    #[test]
    fn rotation_helper_matches_definition() {
        let src = [1u8, 0, 1, 1, 0];
        let mut dst = [0u8; 5];
        accumulate_rotated(&mut dst, &src, 2);
        // dst[i] = src[(i+2) % 5]
        assert_eq!(dst, [1, 1, 0, 1, 0]);
    }

    #[test]
    fn zero_payload_encodes_to_zero_codeword() {
        let enc = Encoder::new(BaseGraphId::Bg1, 8);
        let cw = enc.encode(&vec![0u8; enc.info_len()]);
        assert!(cw.iter().all(|&b| b == 0));
        assert!(enc.check(&cw));
    }

    #[test]
    fn encoded_words_satisfy_all_checks_bg1() {
        for z in [4usize, 8, 13, 104] {
            let enc = Encoder::new(BaseGraphId::Bg1, z);
            let info = random_bits(enc.info_len(), z as u64);
            let cw = enc.encode(&info);
            assert!(enc.check(&cw), "H c != 0 for Z={z}");
            // Systematic prefix preserved.
            assert_eq!(&cw[..enc.info_len()], &info[..]);
        }
    }

    #[test]
    fn encoded_words_satisfy_all_checks_bg2() {
        for z in [6usize, 10, 52] {
            let enc = Encoder::new(BaseGraphId::Bg2, z);
            let info = random_bits(enc.info_len(), 1000 + z as u64);
            let cw = enc.encode(&info);
            assert!(enc.check(&cw), "H c != 0 for Z={z}");
        }
    }

    #[test]
    fn encoding_is_linear() {
        // encode(a ^ b) == encode(a) ^ encode(b) for a linear code.
        let enc = Encoder::new(BaseGraphId::Bg2, 8);
        let a = random_bits(enc.info_len(), 5);
        let b = random_bits(enc.info_len(), 6);
        let ab: Vec<u8> = a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect();
        let ca = enc.encode(&a);
        let cb = enc.encode(&b);
        let cab = enc.encode(&ab);
        let cxor: Vec<u8> = ca.iter().zip(cb.iter()).map(|(x, y)| x ^ y).collect();
        assert_eq!(cab, cxor);
    }

    #[test]
    fn single_bit_error_detected_by_check() {
        let enc = Encoder::new(BaseGraphId::Bg1, 8);
        let info = random_bits(enc.info_len(), 77);
        let mut cw = enc.encode(&info);
        cw[100] ^= 1;
        assert!(!enc.check(&cw));
    }

    #[test]
    fn paper_code_block_size() {
        // The paper's emulated-RRU config: Z=104 BG1 -> 6864-bit codeword
        // after puncturing 2Z: (68-2)*104 = 6864 (§5.2).
        let enc = Encoder::new(BaseGraphId::Bg1, 104);
        assert_eq!(enc.codeword_len() - 2 * 104, 6864);
        assert_eq!(enc.info_len(), 22 * 104); // 2288 info bits
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_payload_length_panics() {
        let enc = Encoder::new(BaseGraphId::Bg1, 8);
        let _ = enc.encode(&[0u8; 10]);
    }
}
