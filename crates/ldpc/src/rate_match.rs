//! Rate matching: mapping a mother-code codeword onto the transmitted
//! bit budget.
//!
//! The 5G NR LDPC mother code has a fixed rate (`22/66` for BG1 after
//! puncturing); higher rates transmit fewer extension-parity bits. The
//! first `2Z` systematic bits are *always* punctured. We implement the
//! zero-redundancy-version slice of the 5G circular buffer: transmit bits
//! `2Z .. 2Z + N` of the codeword where `N = used_cols * Z - 2Z` is set by
//! the target rate. The receiver re-inflates to mother-code length with
//! LLR 0 in the punctured/untransmitted positions and restricts the
//! decoder to the rows whose parity bits were sent.

use crate::base_graph::{BaseGraph, BaseGraphId, CORE_ROWS};

/// Rate-matching plan for one `(base graph, Z, rate)` triple.
#[derive(Debug, Clone, Copy)]
pub struct RateMatch {
    bg: &'static BaseGraph,
    z: usize,
    /// Base columns actually transmitted (includes the 2 punctured ones in
    /// the count, i.e. bits sent = `(used_cols - 2) * z`).
    used_cols: usize,
}

impl RateMatch {
    /// Plans rate matching for a target code rate `R = K / N_tx`.
    ///
    /// The achievable rate set is quantised by whole base columns: with
    /// `used_cols` base columns in play the achieved rate is
    /// `kb / (used_cols - 2)` (the 2 punctured systematic columns count
    /// toward `used_cols` but not toward transmitted bits). The plan
    /// scans the valid range `kb + CORE_ROWS ..= bg.cols()` and picks the
    /// column count whose achieved rate is *nearest* the target —
    /// rounding `kb / rate` in the column domain instead (as this used
    /// to) is biased because the achieved rate is a reciprocal of the
    /// column count, so a column count rounded to nearest is not always
    /// the rate rounded to nearest. The paper's three evaluation rates
    /// 1/3, 2/3 and 8/9 all land within 2% on BG1.
    ///
    /// # Panics
    /// Panics unless `0 < rate < 1`.
    pub fn for_rate(id: BaseGraphId, z: usize, rate: f32) -> Self {
        assert!(rate > 0.0 && rate < 1.0, "rate must be in (0, 1)");
        let bg = BaseGraph::get(id);
        let kb = bg.info_cols();
        let used_cols = (kb + CORE_ROWS..=bg.cols())
            .min_by(|&a, &b| {
                let ra = kb as f32 / (a - 2) as f32;
                let rb = kb as f32 / (b - 2) as f32;
                (ra - rate).abs().total_cmp(&(rb - rate).abs())
            })
            .expect("base graph has at least kb + CORE_ROWS columns");
        Self { bg, z, used_cols }
    }

    /// Number of transmitted bits per code block.
    pub fn tx_len(&self) -> usize {
        (self.used_cols - 2) * self.z
    }

    /// Information bits per code block.
    pub fn info_len(&self) -> usize {
        self.bg.info_cols() * self.z
    }

    /// Mother-code codeword length.
    pub fn codeword_len(&self) -> usize {
        self.bg.cols() * self.z
    }

    /// Base rows the decoder should activate (rows whose parity columns
    /// were transmitted).
    pub fn active_rows(&self) -> usize {
        self.used_cols - self.bg.info_cols()
    }

    /// Extracts the transmitted bits from a full codeword.
    pub fn extract(&self, codeword: &[u8]) -> Vec<u8> {
        assert_eq!(codeword.len(), self.codeword_len());
        codeword[2 * self.z..self.used_cols * self.z].to_vec()
    }

    /// Re-inflates received LLRs (length [`Self::tx_len`]) to mother-code
    /// length, zero-filling punctured and untransmitted positions.
    pub fn fill_llrs(&self, rx_llrs: &[f32]) -> Vec<f32> {
        let mut full = vec![0.0f32; self.codeword_len()];
        self.fill_llrs_into(rx_llrs, &mut full);
        full
    }

    /// Allocation-free [`Self::fill_llrs`] into a caller-owned buffer of
    /// length [`Self::codeword_len`]. Generic over the LLR sample type so
    /// the same plan serves the `f32` and quantised `i8` planes.
    pub fn fill_llrs_into<T: Copy + Default>(&self, rx_llrs: &[T], full: &mut [T]) {
        assert_eq!(rx_llrs.len(), self.tx_len(), "received LLR length mismatch");
        assert_eq!(full.len(), self.codeword_len(), "full LLR length mismatch");
        full[..2 * self.z].fill(T::default());
        full[2 * self.z..self.used_cols * self.z].copy_from_slice(rx_llrs);
        full[self.used_cols * self.z..].fill(T::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{DecodeConfig, Decoder};
    use crate::encoder::Encoder;

    impl RateMatch {
        /// The effective (achieved) code rate.
        fn effective_rate(&self) -> f32 {
            self.info_len() as f32 / self.tx_len() as f32
        }
    }

    #[test]
    fn rate_one_third_uses_whole_bg1() {
        let rm = RateMatch::for_rate(BaseGraphId::Bg1, 104, 1.0 / 3.0);
        assert_eq!(rm.used_cols, 68);
        assert_eq!(rm.tx_len(), 6864); // the paper's code block size
        assert!((rm.effective_rate() - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn higher_rates_send_fewer_bits() {
        let r13 = RateMatch::for_rate(BaseGraphId::Bg1, 104, 1.0 / 3.0);
        let r23 = RateMatch::for_rate(BaseGraphId::Bg1, 104, 2.0 / 3.0);
        let r89 = RateMatch::for_rate(BaseGraphId::Bg1, 104, 8.0 / 9.0);
        assert!(r13.tx_len() > r23.tx_len());
        assert!(r23.tx_len() > r89.tx_len());
        assert!((r23.effective_rate() - 2.0 / 3.0).abs() < 0.03);
        assert!((r89.effective_rate() - 8.0 / 9.0).abs() < 0.05);
    }

    #[test]
    fn paper_rates_achieved_within_two_percent() {
        // The documented contract: the paper's three evaluation rates are
        // achievable on BG1 within 2% relative error.
        for target in [1.0f32 / 3.0, 2.0 / 3.0, 8.0 / 9.0] {
            let rm = RateMatch::for_rate(BaseGraphId::Bg1, 104, target);
            let rel = (rm.effective_rate() - target).abs() / target;
            assert!(
                rel < 0.02,
                "target {target}: achieved {} ({}% off)",
                rm.effective_rate(),
                rel * 100.0
            );
        }
    }

    #[test]
    fn picks_nearest_achievable_rate() {
        // No neighbouring column count may achieve a rate closer to the
        // target than the chosen one, across a dense sweep of targets.
        let kb = 22.0f32;
        let mut r = 0.20f32;
        while r < 0.92 {
            let rm = RateMatch::for_rate(BaseGraphId::Bg1, 8, r);
            let chosen = (rm.effective_rate() - r).abs();
            for alt in [rm.used_cols.saturating_sub(1), rm.used_cols + 1] {
                if (26..=68).contains(&alt) {
                    let alt_rate = kb / (alt - 2) as f32;
                    assert!(
                        chosen <= (alt_rate - r).abs() + 1e-6,
                        "target {r}: used_cols {} (rate {}) beaten by {alt} (rate {alt_rate})",
                        rm.used_cols,
                        rm.effective_rate()
                    );
                }
            }
            r += 0.013;
        }
    }

    #[test]
    fn active_rows_match_transmitted_parity() {
        let rm = RateMatch::for_rate(BaseGraphId::Bg1, 8, 8.0 / 9.0);
        // used_cols - kb parity columns transmitted -> that many rows.
        assert_eq!(rm.active_rows(), rm.used_cols - 22);
        assert!(rm.active_rows() >= CORE_ROWS);
    }

    #[test]
    fn extract_fill_roundtrip_positions() {
        let z = 8;
        let rm = RateMatch::for_rate(BaseGraphId::Bg1, z, 2.0 / 3.0);
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let info: Vec<u8> = (0..enc.info_len()).map(|i| (i % 2) as u8).collect();
        let cw = enc.encode(&info);
        let tx = rm.extract(&cw);
        assert_eq!(tx.len(), rm.tx_len());
        // Clean BPSK LLRs for the transmitted bits.
        let llrs: Vec<f32> = tx.iter().map(|&b| if b == 0 { 6.0 } else { -6.0 }).collect();
        let full = rm.fill_llrs(&llrs);
        assert_eq!(full.len(), rm.codeword_len());
        // Punctured head is zero.
        assert!(full[..2 * z].iter().all(|&l| l == 0.0));
        // Tail beyond used columns is zero.
        assert!(full[rm.used_cols * z..].iter().all(|&l| l == 0.0));
    }

    #[test]
    fn fill_llrs_into_matches_allocating_version_and_clears_stale_state() {
        let z = 8;
        let rm = RateMatch::for_rate(BaseGraphId::Bg1, z, 2.0 / 3.0);
        let rx: Vec<f32> = (0..rm.tx_len()).map(|i| i as f32 - 100.0).collect();
        let expect = rm.fill_llrs(&rx);
        // Poison the destination: every position must be overwritten.
        let mut full = vec![55.0f32; rm.codeword_len()];
        rm.fill_llrs_into(&rx, &mut full);
        assert_eq!(full, expect);
        // Same plan drives the i8 plane.
        let rx_q: Vec<i8> = (0..rm.tx_len()).map(|i| (i % 251) as i8).collect();
        let mut full_q = vec![99i8; rm.codeword_len()];
        rm.fill_llrs_into(&rx_q, &mut full_q);
        assert!(full_q[..2 * z].iter().all(|&l| l == 0));
        assert_eq!(&full_q[2 * z..rm.used_cols * z], &rx_q[..]);
        assert!(full_q[rm.used_cols * z..].iter().all(|&l| l == 0));
    }

    #[test]
    fn end_to_end_decode_at_high_rate() {
        let z = 16;
        let rm = RateMatch::for_rate(BaseGraphId::Bg1, z, 2.0 / 3.0);
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info: Vec<u8> = (0..enc.info_len()).map(|i| ((i * 7) % 2) as u8).collect();
        let cw = enc.encode(&info);
        let tx = rm.extract(&cw);
        let llrs: Vec<f32> = tx.iter().map(|&b| if b == 0 { 6.0 } else { -6.0 }).collect();
        let full = rm.fill_llrs(&llrs);
        let res = dec.decode(
            &full,
            &DecodeConfig {
                active_rows: Some(rm.active_rows()),
                max_iters: 20,
                ..Default::default()
            },
        );
        assert!(res.success);
        assert_eq!(res.info_bits, info);
    }
}
