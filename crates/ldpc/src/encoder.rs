//! Linear-time QC-LDPC encoders.
//!
//! Exploits the double-diagonal core of the 5G base graphs: the four core
//! parity blocks are solved with cyclic rotations and XORs (no matrix
//! inversion), then each extension parity block is a plain accumulation of
//! its row. Complexity is `O(E * Z)` bit operations where `E` is the base
//! graph edge count — this is the `O(L)`-per-user "Encoding" block of
//! Table 1 in the paper.
//!
//! Two encoders share that schedule. [`Encoder`] holds a bit per byte and
//! returns the whole mother codeword: the readable oracle, and the
//! benchmark's `ldpc.encode_us` leaf. [`WordEncoder`] is what the engine's
//! encode task runs: Z-bit blocks as machine words on the stack, where a
//! circulant edge is a word rotate and an XOR, only the rows whose parity
//! is transmitted, and the transmitted bits written straight out packed.

use crate::base_graph::{BaseGraph, BaseGraphId, CORE_ROWS};
use crate::lifting::MAX_Z;
use crate::rate_match::RateMatch;

/// QC-LDPC encoder for one `(base graph, Z)` pair.
///
/// Bits are represented as one byte each (`0`/`1`), which keeps the code
/// transparent — and costs: at BG1, Z = 104 it is several microseconds a
/// block, so the engine's encode task runs the [`WordEncoder`] instead and
/// this one is its oracle.
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

/// The widest base graph's information columns plus the core parity
/// columns: every block an edge of the [`WordEncoder`] reads.
const MAX_READ_COLS: usize = 22 + CORE_ROWS;

/// The QC-LDPC encoder on Z-bit words, planned for one rate: it encodes a
/// packed payload straight into the packed bits rate matching sends —
/// [`RateMatch::extract`] of [`Encoder::encode`], bit `j` in bit `j % 8`
/// of byte `j / 8`, and nothing else.
///
/// A Z-bit block is `ceil(Z / 64)` words (two at BG1, Z = 104). Every
/// block an edge reads — the information blocks and the four core parity
/// blocks; an extension row reads no other extension block — is kept
/// *doubled*, `b | b << Z`, so its rotation `P(s) b` is the Z-bit window
/// from bit `s`: one funnel shift per word, then an XOR into the row's
/// sum. Rows whose parity column is not transmitted are not computed, the
/// encoder's twin of the decoder's `active_rows`. The codeword lives on
/// the stack (≈ 0.8 KB at Z = 104), so encoding allocates nothing.
#[derive(Debug, Clone)]
pub struct WordEncoder {
    z: usize,
    kb: usize,
    /// Base rows computed: those whose parity column is transmitted.
    rows: usize,
    /// `(column, shift mod Z)` of every block a row's sum takes: a core
    /// row's information blocks (its parity blocks are solved in closed
    /// form), an extension row's every block but its own parity.
    edges: Vec<(u16, u16)>,
    /// `row_start[r]..row_start[r + 1]` indexes `edges` for row `r`.
    row_start: Vec<usize>,
}

impl WordEncoder {
    /// Words of the longest payload: the widest graph at the largest
    /// lifting size.
    pub const MAX_INFO_WORDS: usize = 22 * MAX_Z / 64;

    /// Plans the encoder for `(base graph, Z)` at the rate
    /// [`RateMatch::for_rate`] picks for `rate`.
    pub fn new(id: BaseGraphId, z: usize, rate: f32) -> Self {
        assert!((2..=MAX_Z).contains(&z), "lifting size must be in 2..={MAX_Z}");
        let bg = BaseGraph::get(id);
        let kb = bg.info_cols();
        let rows = RateMatch::for_rate(id, z, rate).active_rows();
        let mut edges = Vec::new();
        let mut row_start = vec![0];
        for r in 0..rows {
            for e in bg.row_entries(r) {
                let c = e.col as usize;
                if (r < CORE_ROWS && c < kb) || (r >= CORE_ROWS && c != kb + r) {
                    assert!(c < kb + CORE_ROWS, "row {r} reads extension column {c}");
                    edges.push((e.col, (e.shift as usize % z) as u16));
                }
            }
            row_start.push(edges.len());
        }
        Self { z, kb, rows, edges, row_start }
    }

    /// Payload size in bits.
    pub fn info_len(&self) -> usize {
        self.kb * self.z
    }

    /// Encodes `info` — [`Self::info_len`] bits packed LSB-first into
    /// words, bits past it zero — into `out`: the transmitted bits packed
    /// LSB-first (bit `j` is bit `j % 8` of `out[j / 8]`), then zeros to
    /// the end of `out`.
    ///
    /// # Panics
    /// Panics unless `info` is `ceil(info_len / 64)` words and `out` holds
    /// the transmitted bits.
    pub fn encode_into(&self, info: &[u64], out: &mut [u8]) {
        assert_eq!(info.len(), self.info_len().div_ceil(64), "payload length mismatch");
        let tx_len = (self.kb + self.rows - 2) * self.z;
        assert!(out.len() * 8 >= tx_len, "output shorter than the transmitted bits");
        match self.z.div_ceil(64) {
            1 => self.encode::<1, 2>(info, out),
            2 => self.encode::<2, 4>(info, out),
            3 => self.encode::<3, 6>(info, out),
            4 => self.encode::<4, 8>(info, out),
            5 => self.encode::<5, 10>(info, out),
            _ => self.encode::<6, 12>(info, out),
        }
    }

    /// [`Self::encode_into`] for blocks of `W` words, doubled into `D =
    /// 2W`.
    fn encode<const W: usize, const D: usize>(&self, info: &[u64], out: &mut [u8]) {
        let (z, kb) = (self.z, self.kb);
        // The bits of a block's last word, and their mask.
        let top_bits = z - 64 * (W - 1);
        let top = u64::MAX >> (64 - top_bits);
        let double = |b: [u64; W]| doubled::<W, D>(b, z);
        let mut cols = [[0u64; D]; MAX_READ_COLS];
        for (c, col) in cols[..kb].iter_mut().enumerate() {
            *col = double(bit_range::<W>(info, c * z, top));
        }
        let lambda: [[u64; W]; CORE_ROWS] =
            core::array::from_fn(|r| self.row_sum::<W, D>(r, &cols, top));
        // Core parity, as `Encoder::encode` solves it: summing the four
        // core rows leaves P(1) p1 = sum, so p1 = P(z - 1) sum.
        let sum = lambda.iter().fold([0; W], |s, l| xor(s, *l));
        let p1 = masked(rotated::<W, D>(&double(sum), z - 1), top);
        let p1_doubled = double(p1);
        let p2 = xor(lambda[0], masked(rotated::<W, D>(&p1_doubled, 1), top));
        let p3 = xor(xor(lambda[1], p1), p2);
        let p4 = xor(lambda[2], p3);
        cols[kb] = p1_doubled;
        for (col, p) in cols[kb + 1..kb + CORE_ROWS].iter_mut().zip([p2, p3, p4]) {
            *col = double(p);
        }
        // Transmitted: columns 2.. of the codeword, through the last
        // computed row's parity. A doubled block's first `W` words are
        // the block below bit Z.
        let mut w = BitWriter { out, at: 0, acc: 0, fill: 0 };
        for col in &cols[2..kb + CORE_ROWS] {
            w.block(&col[..W], top_bits);
        }
        for r in CORE_ROWS..self.rows {
            w.block(&self.row_sum::<W, D>(r, &cols, top), top_bits);
        }
        w.finish();
    }

    /// The XOR of row `r`'s rotated blocks, masked to Z bits.
    #[inline(always)]
    fn row_sum<const W: usize, const D: usize>(
        &self,
        r: usize,
        cols: &[[u64; D]; MAX_READ_COLS],
        top: u64,
    ) -> [u64; W] {
        let edges = &self.edges[self.row_start[r]..self.row_start[r + 1]];
        let sum = edges.iter().fold([0; W], |s, &(c, shift)| {
            xor(s, rotated::<W, D>(&cols[c as usize], shift as usize))
        });
        masked(sum, top)
    }
}

/// Bits `r..r + 64` of the 128-bit `hi:lo`, for `r < 64`.
#[inline(always)]
fn funnel(lo: u64, hi: u64, r: usize) -> u64 {
    // `(hi << 1) << (63 - r)` is `hi << (64 - r)`, and 0 at `r = 0`.
    (lo >> r) | ((hi << 1) << (63 - r))
}

fn xor<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    core::array::from_fn(|j| a[j] ^ b[j])
}

fn masked<const W: usize>(mut b: [u64; W], top: u64) -> [u64; W] {
    b[W - 1] &= top;
    b
}

/// The Z-bit block at bit `start` of the packed `words` (zero past their
/// end), masked to Z bits by `top`.
fn bit_range<const W: usize>(words: &[u64], start: usize, top: u64) -> [u64; W] {
    let (q, r) = (start / 64, start % 64);
    let word = |i: usize| words.get(i).copied().unwrap_or(0);
    masked(core::array::from_fn(|j| funnel(word(q + j), word(q + j + 1), r)), top)
}

/// `b | b << z` for a Z-bit block `b` of `W` words.
fn doubled<const W: usize, const D: usize>(b: [u64; W], z: usize) -> [u64; D] {
    let mut d = [0; D];
    d[..W].copy_from_slice(&b);
    let (q, r) = (z / 64, z % 64);
    for (j, &w) in b.iter().enumerate() {
        d[q + j] |= w << r;
        if r != 0 {
            d[q + j + 1] |= w >> (64 - r);
        }
    }
    d
}

/// `P(shift) b` from the doubled block `d`: bit `i` is `b[(i + shift) mod
/// Z]`, as [`accumulate_rotated`] takes it; the last word's bits above Z
/// are the next copy's, for the caller to mask.
#[inline(always)]
fn rotated<const W: usize, const D: usize>(d: &[u64; D], shift: usize) -> [u64; W] {
    let (q, r) = (shift / 64, shift % 64);
    core::array::from_fn(|j| funnel(d[q + j], d[q + j + 1], r))
}

/// Appends bit blocks LSB-first to a byte row, a 64-bit word at a time.
struct BitWriter<'a> {
    out: &'a mut [u8],
    /// Bytes written.
    at: usize,
    /// Bits not written yet, `fill` of them.
    acc: u64,
    fill: usize,
}

impl BitWriter<'_> {
    /// Appends the low `bits` bits of `word`, which has no others.
    #[inline(always)]
    fn push(&mut self, word: u64, bits: usize) {
        self.acc |= word << self.fill;
        if self.fill + bits < 64 {
            self.fill += bits;
            return;
        }
        self.out[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
        self.at += 8;
        // `(word >> 1) >> (63 - fill)` is `word >> (64 - fill)`, and 0 at
        // `fill = 0`.
        self.acc = (word >> 1) >> (63 - self.fill);
        self.fill = self.fill + bits - 64;
    }

    /// Appends a block: `W - 1` whole words, then `top_bits` of the last.
    #[inline(always)]
    fn block(&mut self, b: &[u64], top_bits: usize) {
        let (last, whole) = b.split_last().expect("a block has a word");
        for &word in whole {
            self.push(word, 64);
        }
        self.push(last & (u64::MAX >> (64 - top_bits)), top_bits);
    }

    /// Writes the bits still held, then zeros to the end of the row.
    fn finish(self) {
        let tail = self.fill.div_ceil(8);
        self.out[self.at..self.at + tail].copy_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.out[self.at + tail..].fill(0);
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

    /// The rates the tree encodes at: the cells' 1/3, and the tests' 2/3
    /// and 8/9.
    const RATES: [f32; 3] = [1.0 / 3.0, 2.0 / 3.0, 8.0 / 9.0];

    /// Every 5G NR lifting size, in order.
    fn lifting_sizes() -> Vec<usize> {
        (2..=MAX_Z).filter(|&z| crate::lifting::is_valid_lifting(z)).collect()
    }

    /// The word encoder against its oracle: `extract(encode(info))` of the
    /// byte encoder, packed LSB-first and zero-padded to `pad` spare bytes
    /// of a row that starts out poisoned.
    fn check_word_encoder(id: BaseGraphId, z: usize, rate: f32, seed: u64, pad: usize) {
        let (enc, rm) = (Encoder::new(id, z), RateMatch::for_rate(id, z, rate));
        let words = WordEncoder::new(id, z, rate);
        assert_eq!(words.info_len(), enc.info_len());
        let info = random_bits(enc.info_len(), seed);
        let mut packed = vec![0u64; info.len().div_ceil(64)];
        for (i, &b) in info.iter().enumerate() {
            packed[i / 64] |= (b as u64) << (i % 64);
        }
        let mut want = vec![0u8; rm.tx_len().div_ceil(8) + pad];
        for (i, &b) in rm.extract(&enc.encode(&info)).iter().enumerate() {
            want[i / 8] |= b << (i % 8);
        }
        let mut got = vec![0xA5u8; want.len()];
        words.encode_into(&packed, &mut got);
        assert!(got == want, "{id:?} Z={z} rate {rate} seed {seed} pad {pad}");
    }

    /// Both graphs, every lifting size, every rate the tree uses.
    #[test]
    fn word_encoder_matches_the_byte_encoder_everywhere() {
        for id in [BaseGraphId::Bg1, BaseGraphId::Bg2] {
            for z in lifting_sizes() {
                for (i, rate) in RATES.into_iter().enumerate() {
                    check_word_encoder(id, z, rate, z as u64 * 3 + i as u64, i);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "output shorter")]
    fn word_encoder_refuses_a_short_row() {
        let words = WordEncoder::new(BaseGraphId::Bg2, 12, 1.0 / 3.0);
        let info = vec![0u64; words.info_len().div_ceil(64)];
        words.encode_into(&info, &mut [0u8; 10]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random payloads at a random (graph, lifting size, rate).
            #[test]
            fn word_encoder_matches_the_byte_encoder(
                bg1 in any::<bool>(),
                which in 0usize..51,
                rate in 0usize..RATES.len(),
                seed in any::<u64>(),
                pad in 0usize..9,
            ) {
                let id = if bg1 { BaseGraphId::Bg1 } else { BaseGraphId::Bg2 };
                check_word_encoder(id, lifting_sizes()[which], RATES[rate], seed, pad);
            }
        }
    }
}
