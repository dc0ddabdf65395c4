//! OFDM (de)modulation on top of the FFT: cyclic prefix handling and the
//! guard-band subcarrier layout used by the paper's 5G NR configuration
//! (2048-point FFT, 1200 active subcarriers, the rest guards).

use crate::plan::{Direction, FftPlan};
use agora_math::Cf32;
use std::sync::Arc;

/// Subcarrier layout of one OFDM symbol: `fft_size` total bins of which
/// `num_data` centred bins are active, the rest guard bands (and DC
/// nulled), matching standard OFDM numerology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubcarrierMap {
    /// Total FFT bins (power of two).
    pub fft_size: usize,
    /// Number of active data/pilot subcarriers.
    pub num_data: usize,
}

impl SubcarrierMap {
    /// Creates a layout; panics if `num_data >= fft_size` or fft_size is
    /// not a power of two.
    pub fn new(fft_size: usize, num_data: usize) -> Self {
        assert!(fft_size.is_power_of_two(), "FFT size must be a power of two");
        assert!(num_data < fft_size, "data subcarriers must leave room for guards");
        Self { fft_size, num_data }
    }

    /// Iterator over the FFT bin index of each active subcarrier, in
    /// logical (lowest-frequency-first) order. Active subcarriers straddle
    /// DC: negative frequencies map to the top half of the FFT.
    pub fn active_bins(&self) -> impl Iterator<Item = usize> + '_ {
        let half = self.num_data / 2;
        let n = self.fft_size;
        (0..self.num_data).map(move |i| {
            if i < half {
                // Negative frequencies: bins N-half .. N-1
                n - half + i
            } else {
                // Positive frequencies: bins 1 ..= num_data-half (skip DC)
                i - half + 1
            }
        })
    }

    /// The layout as runs of consecutive bins: `(first logical
    /// subcarrier, its FFT bins)` for the negative- and the positive-
    /// frequency half, in logical order. Callers that move whole runs
    /// (or cache lines of them) use this in place of the per-bin
    /// [`Self::active_bins`].
    pub fn active_runs(&self) -> [(usize, core::ops::Range<usize>); 2] {
        let half = self.num_data / 2;
        [(0, self.fft_size - half..self.fft_size), (half, 1..self.num_data - half + 1)]
    }

    /// Scatters `num_data` frequency-domain samples into a zero-padded
    /// FFT-size buffer according to the layout.
    pub fn map_symbols(&self, data: &[Cf32], grid: &mut [Cf32]) {
        assert_eq!(data.len(), self.num_data);
        assert_eq!(grid.len(), self.fft_size);
        grid.fill(Cf32::ZERO);
        for (i, bin) in self.active_bins().enumerate() {
            grid[bin] = data[i];
        }
    }

    /// Gathers the active bins out of a full FFT-size grid.
    pub fn demap_symbols(&self, grid: &[Cf32], data: &mut [Cf32]) {
        assert_eq!(data.len(), self.num_data);
        assert_eq!(grid.len(), self.fft_size);
        for (i, bin) in self.active_bins().enumerate() {
            data[i] = grid[bin];
        }
    }
}

/// OFDM modulator/demodulator: FFT plan + subcarrier map + cyclic prefix.
#[derive(Debug, Clone)]
pub struct Ofdm {
    plan: Arc<FftPlan>,
    map: SubcarrierMap,
    cp_len: usize,
}

impl Ofdm {
    /// Builds an OFDM processor. `cp_len` is the cyclic prefix length in
    /// samples (may be zero for the emulated-RRU configuration, which
    /// sends symbol-aligned sample blocks).
    pub fn new(map: SubcarrierMap, cp_len: usize) -> Self {
        assert!(cp_len < map.fft_size, "CP cannot exceed the symbol");
        Self { plan: Arc::new(FftPlan::new(map.fft_size)), map, cp_len }
    }

    /// Samples per transmitted OFDM symbol including CP.
    pub fn symbol_len(&self) -> usize {
        self.map.fft_size + self.cp_len
    }

    /// The subcarrier layout.
    pub fn map(&self) -> SubcarrierMap {
        self.map
    }

    /// The underlying FFT plan (shared with the engine's FFT tasks).
    pub fn plan(&self) -> &Arc<FftPlan> {
        &self.plan
    }

    /// Modulates `num_data` frequency-domain symbols into `symbol_len()`
    /// time-domain samples (IFFT + cyclic prefix).
    pub fn modulate(&self, freq_data: &[Cf32], time_out: &mut [Cf32]) {
        assert_eq!(time_out.len(), self.symbol_len());
        let n = self.map.fft_size;
        let (_cp, body) = time_out.split_at_mut(self.cp_len);
        self.map.map_symbols(freq_data, body);
        self.plan.execute(body, Direction::Inverse);
        // Copy tail as cyclic prefix.
        let tail_start = n - self.cp_len;
        let tail: Vec<Cf32> = body[tail_start..].to_vec();
        time_out[..self.cp_len].copy_from_slice(&tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ofdm {
        /// Demodulates `symbol_len()` time-domain samples into the active
        /// subcarriers (CP removal + FFT + demap): the inverse the
        /// round-trip tests check `modulate` against.
        fn demodulate(&self, time_in: &[Cf32], freq_out: &mut [Cf32]) {
            assert_eq!(time_in.len(), self.symbol_len());
            assert_eq!(freq_out.len(), self.map.num_data);
            let mut grid: Vec<Cf32> = time_in[self.cp_len..].to_vec();
            self.plan.execute(&mut grid, Direction::Forward);
            self.map.demap_symbols(&grid, freq_out);
        }
    }

    #[test]
    fn active_bins_avoid_dc_and_are_unique() {
        let map = SubcarrierMap::new(64, 48);
        let bins: Vec<usize> = map.active_bins().collect();
        assert_eq!(bins.len(), 48);
        assert!(!bins.contains(&0), "DC must stay unused");
        let mut sorted = bins.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 48, "bins must be unique");
    }

    #[test]
    fn paper_numerology_bins() {
        // 2048-point FFT with 1200 active subcarriers (paper §5.2).
        let map = SubcarrierMap::new(2048, 1200);
        let bins: Vec<usize> = map.active_bins().collect();
        assert_eq!(bins.len(), 1200);
        assert_eq!(bins[0], 2048 - 600); // lowest negative frequency
        assert_eq!(bins[599], 2047); // highest negative frequency
        assert_eq!(bins[600], 1); // first positive frequency (skips DC)
        assert_eq!(bins[1199], 600);
    }

    #[test]
    fn active_runs_cover_active_bins_in_order() {
        for (n, q) in [(64, 48), (256, 240), (2048, 1200), (64, 7), (8, 1)] {
            let map = SubcarrierMap::new(n, q);
            let from_runs: Vec<(usize, usize)> = map
                .active_runs()
                .into_iter()
                .flat_map(|(sc, bins)| bins.enumerate().map(move |(i, bin)| (sc + i, bin)))
                .collect();
            let per_bin: Vec<(usize, usize)> = map.active_bins().enumerate().collect();
            assert_eq!(from_runs, per_bin, "n={n} q={q}");
        }
    }

    #[test]
    fn map_demap_roundtrip() {
        let map = SubcarrierMap::new(128, 96);
        let data: Vec<Cf32> = (0..96).map(|i| Cf32::new(i as f32, -(i as f32))).collect();
        let mut grid = vec![Cf32::ZERO; 128];
        map.map_symbols(&data, &mut grid);
        let mut back = vec![Cf32::ZERO; 96];
        map.demap_symbols(&grid, &mut back);
        assert_eq!(data, back);
    }

    #[test]
    fn ofdm_modulate_demodulate_roundtrip() {
        let ofdm = Ofdm::new(SubcarrierMap::new(256, 180), 32);
        let data: Vec<Cf32> = (0..180).map(|i| Cf32::cis(0.13 * i as f32).scale(0.7)).collect();
        let mut time = vec![Cf32::ZERO; ofdm.symbol_len()];
        ofdm.modulate(&data, &mut time);
        let mut back = vec![Cf32::ZERO; 180];
        ofdm.demodulate(&time, &mut back);
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((*a - *b).abs() < 1e-3);
        }
    }

    #[test]
    fn cyclic_prefix_is_symbol_tail() {
        let cp = 16;
        let ofdm = Ofdm::new(SubcarrierMap::new(64, 48), cp);
        let data: Vec<Cf32> = (0..48).map(|i| Cf32::new(1.0, i as f32 * 0.1)).collect();
        let mut time = vec![Cf32::ZERO; ofdm.symbol_len()];
        ofdm.modulate(&data, &mut time);
        let body = &time[cp..];
        assert_eq!(&time[..cp], &body[body.len() - cp..]);
    }

    #[test]
    fn zero_cp_roundtrip() {
        let ofdm = Ofdm::new(SubcarrierMap::new(64, 48), 0);
        assert_eq!(ofdm.symbol_len(), 64);
        let data: Vec<Cf32> = (0..48).map(|i| Cf32::real(i as f32)).collect();
        let mut time = vec![Cf32::ZERO; 64];
        ofdm.modulate(&data, &mut time);
        let mut back = vec![Cf32::ZERO; 48];
        ofdm.demodulate(&time, &mut back);
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((*a - *b).abs() < 1e-3);
        }
    }
}
