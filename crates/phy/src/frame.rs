//! Cell and frame configuration.
//!
//! One [`CellConfig`] describes everything the baseband needs to know
//! about the air interface: MIMO dimensions, OFDM numerology, the
//! symbol-level TDD schedule (Figure 1a), modulation, and LDPC
//! parameters. The paper's two evaluation setups are provided as
//! constructors: [`CellConfig::emulated_rru`] (§5.2) and
//! [`CellConfig::over_the_air`] (§5.3).

use crate::modulation::ModScheme;
use crate::pilots::PilotScheme;
use agora_ldpc::{BaseGraphId, RateMatch};

/// What a symbol slot in the frame carries (Figure 1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolType {
    /// Uplink pilots for channel estimation.
    Pilot,
    /// Uplink data from the users.
    Uplink,
    /// Downlink data to the users.
    Downlink,
    /// Guard/unused.
    Empty,
}

impl SymbolType {
    /// True for the slots a TDD RRU sends the baseband packets for
    /// (pilot and uplink); in a downlink or guard slot it sends nothing.
    pub fn carries_packets(self) -> bool {
        matches!(self, SymbolType::Pilot | SymbolType::Uplink)
    }
}

/// The symbol-level frame schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSchedule {
    symbols: Vec<SymbolType>,
}

impl FrameSchedule {
    /// Parses a compact schedule string: `P` pilot, `U` uplink,
    /// `D` downlink, `E`/`G` empty. E.g. `"PUUUUUUUUUUUUU"` is the 1 ms,
    /// 14-symbol all-uplink frame of §6.1.1.
    pub fn parse(s: &str) -> Option<FrameSchedule> {
        let symbols = s
            .chars()
            .map(|c| match c.to_ascii_uppercase() {
                'P' => Some(SymbolType::Pilot),
                'U' => Some(SymbolType::Uplink),
                'D' => Some(SymbolType::Downlink),
                'E' | 'G' => Some(SymbolType::Empty),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        if symbols.is_empty() {
            None
        } else {
            Some(FrameSchedule { symbols })
        }
    }

    /// `num_pilots` pilot symbols followed by `num_data` uplink symbols.
    pub fn uplink(num_pilots: usize, num_data: usize) -> FrameSchedule {
        let mut symbols = vec![SymbolType::Pilot; num_pilots];
        symbols.extend(std::iter::repeat_n(SymbolType::Uplink, num_data));
        FrameSchedule { symbols }
    }

    /// `num_pilots` pilot symbols followed by `num_data` downlink symbols.
    pub fn downlink(num_pilots: usize, num_data: usize) -> FrameSchedule {
        let mut symbols = vec![SymbolType::Pilot; num_pilots];
        symbols.extend(std::iter::repeat_n(SymbolType::Downlink, num_data));
        FrameSchedule { symbols }
    }

    /// Total symbols per frame.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if the schedule is empty (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Type of symbol `i`.
    pub fn symbol(&self, i: usize) -> SymbolType {
        self.symbols[i]
    }

    /// Indices of pilot symbols.
    pub fn pilot_indices(&self) -> Vec<usize> {
        self.indices_of(SymbolType::Pilot)
    }

    /// Indices of uplink data symbols.
    pub fn uplink_indices(&self) -> Vec<usize> {
        self.indices_of(SymbolType::Uplink)
    }

    /// Indices of downlink data symbols.
    pub fn downlink_indices(&self) -> Vec<usize> {
        self.indices_of(SymbolType::Downlink)
    }

    fn indices_of(&self, t: SymbolType) -> Vec<usize> {
        self.symbols.iter().enumerate().filter(|(_, &s)| s == t).map(|(i, _)| i).collect()
    }
}

/// LDPC code parameters for the cell.
#[derive(Debug, Clone, Copy)]
pub struct LdpcParams {
    /// Which base graph.
    pub base_graph: BaseGraphId,
    /// Lifting size.
    pub z: usize,
    /// Target code rate.
    pub rate: f32,
    /// Maximum decoder iterations.
    pub max_iters: usize,
}

impl LdpcParams {
    /// The rate-matching plan implied by these parameters.
    pub fn rate_match(&self) -> RateMatch {
        RateMatch::for_rate(self.base_graph, self.z, self.rate)
    }
}

/// Full cell configuration.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// RRU antennas `M`.
    pub num_antennas: usize,
    /// Served users / layers `K`.
    pub num_users: usize,
    /// OFDM FFT size (power of two).
    pub fft_size: usize,
    /// Active data subcarriers `Q` (rest are guards).
    pub num_data_sc: usize,
    /// Cyclic prefix samples per symbol.
    pub cp_len: usize,
    /// Data modulation.
    pub modulation: ModScheme,
    /// Pilot multiplexing scheme.
    pub pilot_scheme: PilotScheme,
    /// Subcarriers per zero-forcing group (paper: 16).
    pub zf_group: usize,
    /// LDPC parameters.
    pub ldpc: LdpcParams,
    /// Symbol schedule.
    pub schedule: FrameSchedule,
    /// OFDM symbol duration in nanoseconds (71 us in the paper).
    pub symbol_duration_ns: u64,
}

impl CellConfig {
    /// The paper's emulated-RRU configuration (§5.2): 2048-point FFT,
    /// 1200 data subcarriers, 64-QAM, frequency-orthogonal pilots, BG1
    /// LDPC with Z=104 and rate 1/3, one pilot symbol plus
    /// `data_symbols` uplink symbols of 71 us each.
    pub fn emulated_rru(m: usize, k: usize, data_symbols: usize) -> CellConfig {
        CellConfig {
            num_antennas: m,
            num_users: k,
            fft_size: 2048,
            num_data_sc: 1200,
            cp_len: 0,
            modulation: ModScheme::Qam64,
            pilot_scheme: PilotScheme::FrequencyOrthogonal,
            zf_group: 16,
            ldpc: LdpcParams {
                base_graph: BaseGraphId::Bg1,
                z: 104,
                rate: 1.0 / 3.0,
                max_iters: 5,
            },
            schedule: FrameSchedule::uplink(1, data_symbols),
            symbol_duration_ns: 71_000,
        }
    }

    /// The paper's over-the-air configuration (§5.3/§6.1.3): 64 antennas,
    /// up to 8 users, 512-point FFT with 300 data subcarriers, 64-QAM,
    /// time-orthogonal Zadoff-Chu pilots, rate-1/3 LDPC, 4 ms frames.
    pub fn over_the_air(num_users: usize, data_symbols: usize) -> CellConfig {
        CellConfig {
            num_antennas: 64,
            num_users,
            fft_size: 512,
            num_data_sc: 300,
            cp_len: 0,
            modulation: ModScheme::Qam64,
            pilot_scheme: PilotScheme::TimeOrthogonal,
            zf_group: 16,
            ldpc: LdpcParams { base_graph: BaseGraphId::Bg2, z: 56, rate: 1.0 / 3.0, max_iters: 5 },
            schedule: FrameSchedule::uplink(num_users, data_symbols),
            symbol_duration_ns: 71_000,
        }
    }

    /// A small configuration for fast tests: 8x2 MIMO
    /// (256-point FFT, 240 data subcarriers), QPSK, BG2 with Z=12.
    pub fn tiny_test(data_symbols: usize) -> CellConfig {
        CellConfig {
            num_antennas: 8,
            num_users: 2,
            fft_size: 256,
            num_data_sc: 240,
            cp_len: 0,
            modulation: ModScheme::Qpsk,
            pilot_scheme: PilotScheme::FrequencyOrthogonal,
            zf_group: 16,
            ldpc: LdpcParams { base_graph: BaseGraphId::Bg2, z: 12, rate: 1.0 / 3.0, max_iters: 8 },
            schedule: FrameSchedule::uplink(1, data_symbols),
            symbol_duration_ns: 71_000,
        }
    }

    /// Symbols per frame.
    pub fn symbols_per_frame(&self) -> usize {
        self.schedule.len()
    }

    /// Frame duration in nanoseconds.
    pub fn frame_duration_ns(&self) -> u64 {
        self.symbol_duration_ns * self.schedule.len() as u64
    }

    /// Time-domain samples per symbol (FFT + CP).
    pub fn samples_per_symbol(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Modulated-bit capacity of one symbol for one user.
    pub fn bits_per_symbol_per_user(&self) -> usize {
        self.num_data_sc * self.modulation.bits_per_symbol()
    }

    /// Information bits per (symbol, user).
    pub fn info_bits_per_symbol(&self) -> usize {
        self.ldpc.rate_match().info_len()
    }

    /// Number of ZF groups.
    pub fn num_zf_groups(&self) -> usize {
        self.num_data_sc.div_ceil(self.zf_group)
    }

    /// Uplink information bits per frame (all users, all UL symbols).
    pub fn uplink_bits_per_frame(&self) -> usize {
        self.schedule.uplink_indices().len() * self.num_users * self.info_bits_per_symbol()
    }

    /// Uplink MAC-layer data rate in bits/second at this frame length.
    pub fn uplink_data_rate_bps(&self) -> f64 {
        self.uplink_bits_per_frame() as f64 / (self.frame_duration_ns() as f64 * 1e-9)
    }

    /// Sanity-checks the configuration, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fft_size.is_power_of_two() {
            return Err(format!("fft_size {} is not a power of two", self.fft_size));
        }
        if self.num_data_sc >= self.fft_size {
            return Err("data subcarriers must leave guard bands".into());
        }
        if self.num_users > self.num_antennas {
            return Err(format!("K={} exceeds M={}", self.num_users, self.num_antennas));
        }
        if !self.num_data_sc.is_multiple_of(self.num_users)
            && self.pilot_scheme == PilotScheme::FrequencyOrthogonal
        {
            return Err("frequency-orthogonal pilots need K | num_data_sc".into());
        }
        let needed = self.pilot_scheme.pilot_symbols(self.num_users);
        if self.schedule.pilot_indices().len() < needed {
            return Err(format!(
                "schedule has {} pilot symbols, scheme needs {}",
                self.schedule.pilot_indices().len(),
                needed
            ));
        }
        if !agora_ldpc::lifting::is_valid_lifting(self.ldpc.z) {
            return Err(format!("invalid lifting size {}", self.ldpc.z));
        }
        if self.ldpc.rate_match().tx_len() > self.bits_per_symbol_per_user() {
            return Err(format!(
                "code block ({} bits) exceeds symbol capacity ({} bits)",
                self.ldpc.rate_match().tx_len(),
                self.bits_per_symbol_per_user()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parse_roundtrip() {
        let s = FrameSchedule::parse("PUUDDE").unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.symbol(0), SymbolType::Pilot);
        assert_eq!(s.uplink_indices(), vec![1, 2]);
        assert_eq!(s.downlink_indices(), vec![3, 4]);
        assert!(FrameSchedule::parse("PUX").is_none());
        assert!(FrameSchedule::parse("").is_none());
    }

    #[test]
    fn paper_emulated_config_is_valid() {
        // 1 ms frame: 14 symbols (1 pilot + 13 uplink).
        let cfg = CellConfig::emulated_rru(64, 16, 13);
        cfg.validate().expect("paper config must validate");
        assert_eq!(cfg.symbols_per_frame(), 14);
        assert!((cfg.frame_duration_ns() as f64 - 1e6).abs() < 1e5);
        // Code block 6864 bits fits 1200 * 6 = 7200-bit symbols.
        assert_eq!(cfg.ldpc.rate_match().tx_len(), 6864);
        assert_eq!(cfg.bits_per_symbol_per_user(), 7200);
    }

    #[test]
    fn paper_data_rate_ballpark() {
        // §6.1.1: ~454 Mbps at 1/3 rate, 1 ms frames, 64x16. Our info
        // bits: 13 symbols * 16 users * 2288 bits = 475 kb per ms.
        let cfg = CellConfig::emulated_rru(64, 16, 13);
        let rate = cfg.uplink_data_rate_bps();
        assert!((4.0e8..6.0e8).contains(&rate), "uplink rate {rate} outside the paper's ballpark");
    }

    #[test]
    fn five_ms_frame_has_70_symbols() {
        let cfg = CellConfig::emulated_rru(64, 16, 69);
        assert_eq!(cfg.symbols_per_frame(), 70);
        assert!((cfg.frame_duration_ns() as f64 - 5e6).abs() < 1e5);
    }

    #[test]
    fn ota_config_is_valid() {
        let cfg = CellConfig::over_the_air(8, 10);
        cfg.validate().expect("OTA config must validate");
        // Time-orthogonal: 8 pilot symbols for 8 users.
        assert_eq!(cfg.schedule.pilot_indices().len(), 8);
        // §6.1.3: 300 data subcarriers * 6 bits = 1800 bits per symbol.
        assert_eq!(cfg.bits_per_symbol_per_user(), 1800);
    }

    #[test]
    fn tiny_config_is_valid() {
        CellConfig::tiny_test(4).validate().expect("tiny config must validate");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = CellConfig::tiny_test(4);
        cfg.num_users = 16; // K > M
        assert!(cfg.validate().is_err());

        let mut cfg = CellConfig::tiny_test(4);
        cfg.fft_size = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = CellConfig::tiny_test(4);
        cfg.ldpc.z = 17;
        assert!(cfg.validate().is_err());

        let mut cfg = CellConfig::tiny_test(4);
        cfg.schedule = FrameSchedule::parse("UUUU").unwrap(); // no pilots
        assert!(cfg.validate().is_err());

        let mut cfg = CellConfig::tiny_test(4);
        cfg.ldpc.z = 384; // code block far larger than symbol capacity
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn derived_quantities() {
        let cfg = CellConfig::emulated_rru(64, 16, 13);
        assert_eq!(cfg.num_zf_groups(), 75);
        assert_eq!(cfg.samples_per_symbol(), 2048);
        assert_eq!(cfg.info_bits_per_symbol(), 2288);
        assert_eq!(cfg.uplink_bits_per_frame(), 13 * 16 * 2288);
    }
}
