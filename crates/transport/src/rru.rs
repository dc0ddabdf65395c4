//! The emulated RRU: a software IQ sample generator.
//!
//! Reproduces the paper's "high performance IQ sample generator" (§5.2):
//! for every pilot and uplink slot of every frame it synthesises what
//! each RRU antenna would receive over the air — pilots and modulated
//! user data pushed through a fading channel plus AWGN — converts to time
//! domain, packs 24-bit IQ samples, and emits one packet per antenna with
//! the standard 64-byte header. Downlink and guard slots get no packets,
//! as a TDD RRU sends the baseband nothing then. Ground truth (channel,
//! transmitted bits) is returned alongside so experiments can measure
//! BER/BLER.

use crate::packet::{encode, PacketDir, PacketHeader};
use agora_channel::{AwgnSource, ChannelModel, FadingModel};
use agora_fft::{Ofdm, SubcarrierMap};
use agora_ldpc::Encoder;
use agora_math::{CMat, Cf32};
use agora_phy::frame::{CellConfig, SymbolType};
use agora_phy::iq::pack_samples;
use agora_phy::modulation::modulate;
use agora_phy::pilots::PilotPlan;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything an experiment needs to score one generated frame.
#[derive(Debug, Clone)]
pub struct FrameGroundTruth {
    /// Frame id.
    pub frame: u32,
    /// The channel used for this frame (tap-0 / flat component).
    pub h: CMat,
    /// Per-subcarrier channel when the frame used a frequency-selective
    /// profile (`delay_spread_taps > 0`); one `M x K` matrix per active
    /// subcarrier.
    pub h_freq: Option<Vec<CMat>>,
    /// `info_bits[symbol][user]` — information bits of the code block
    /// carried by each uplink data symbol (empty for non-data symbols).
    pub info_bits: Vec<Vec<Vec<u8>>>,
    /// Noise power added per active subcarrier (for LLR scaling checks).
    pub noise_power: f32,
    /// Per-user linear amplitude gains.
    pub user_gains: Vec<f32>,
}

/// Configuration knobs of the generator beyond the cell config.
#[derive(Debug, Clone)]
pub struct RruConfig {
    /// Fading model for drawing per-frame channels.
    pub fading: FadingModel,
    /// SNR in dB (per active subcarrier, relative to the mean received
    /// signal power). The paper's emulated setup uses 25 dB.
    pub snr_db: f32,
    /// Optional per-user SNR offsets in dB (length `K`); models the OTA
    /// spread of 17–26 dB. Zeros when absent.
    pub user_snr_offsets_db: Option<Vec<f32>>,
    /// RNG seed for payloads, channels and noise.
    pub seed: u64,
    /// Multipath taps for a frequency-selective channel; 0 (default) is
    /// the paper's frequency-flat emulation. With `L > 0` each
    /// antenna-user link becomes an `L`-tap exponential power-delay
    /// profile, so the per-subcarrier channel varies across the band and
    /// exercises the estimator's interpolation and the per-group ZF
    /// approximation.
    pub delay_spread_taps: usize,
    /// Cell id stamped into every packet header; multi-cell generators
    /// share one fronthaul socket and demux on this byte.
    pub cell_id: u8,
}

impl Default for RruConfig {
    fn default() -> Self {
        Self {
            fading: FadingModel::Awgn,
            snr_db: 25.0,
            user_snr_offsets_db: None,
            seed: 1,
            delay_spread_taps: 0,
            cell_id: 0,
        }
    }
}

/// The emulated RRU / IQ sample generator.
pub struct RruEmulator {
    cell: CellConfig,
    cfg: RruConfig,
    ofdm: Ofdm,
    pilots: PilotPlan,
    encoder: Encoder,
    channel: ChannelModel,
    noise: AwgnSource,
    payload_rng: StdRng,
    user_gains: Vec<f32>,
    /// Scratch: per-user frequency-domain symbols.
    user_freq: Vec<Vec<Cf32>>,
    /// RNG for multipath tap gains.
    tap_rng: StdRng,
}

impl RruEmulator {
    /// Builds a generator for a validated cell configuration.
    pub fn new(cell: CellConfig, cfg: RruConfig) -> Self {
        cell.validate().expect("invalid cell configuration");
        let map = SubcarrierMap::new(cell.fft_size, cell.num_data_sc);
        let ofdm = Ofdm::new(map, cell.cp_len);
        let pilots = PilotPlan::new(cell.pilot_scheme, cell.num_users, cell.num_data_sc);
        let encoder = Encoder::new(cell.ldpc.base_graph, cell.ldpc.z);
        let channel =
            ChannelModel::new(cell.num_antennas, cell.num_users, cfg.fading, cfg.seed ^ 0xC0FFEE);
        // Mean received power per active subcarrier per antenna is ~K for
        // unit-power user symbols and unit-power channel entries.
        let mean_signal = cell.num_users as f32;
        let noise_power = mean_signal * 10.0f32.powf(-cfg.snr_db / 10.0);
        let noise = AwgnSource::new(noise_power, cfg.seed ^ 0x5015E);
        let user_gains = match &cfg.user_snr_offsets_db {
            Some(offsets) => {
                assert_eq!(offsets.len(), cell.num_users, "need one offset per user");
                offsets.iter().map(|db| 10.0f32.powf(db / 20.0)).collect()
            }
            None => vec![1.0; cell.num_users],
        };
        let payload_rng = StdRng::seed_from_u64(cfg.seed ^ 0xB17);
        let user_freq = vec![vec![Cf32::ZERO; cell.num_data_sc]; cell.num_users];
        let tap_seed = cfg.seed ^ 0x7A95;
        Self {
            cell,
            cfg,
            ofdm,
            pilots,
            encoder,
            channel,
            noise,
            payload_rng,
            user_gains,
            user_freq,
            tap_rng: StdRng::seed_from_u64(tap_seed),
        }
    }

    /// The cell configuration this generator serves.
    pub fn cell(&self) -> &CellConfig {
        &self.cell
    }

    /// Per-subcarrier noise power the generator injects.
    pub fn noise_power(&self) -> f32 {
        self.noise.noise_power()
    }

    /// Generates the packets of one frame, with random user payloads:
    /// one per antenna of every slot that [`SymbolType::carries_packets`],
    /// in (symbol, antenna) order.
    pub fn generate_frame(&mut self, frame: u32) -> (Vec<Bytes>, FrameGroundTruth) {
        let m = self.cell.num_antennas;
        let q = self.cell.num_data_sc;
        let h = self.channel.draw();
        // Optional frequency selectivity: per-link multipath taps turn the
        // flat draw into a per-subcarrier response
        // H[sc] = h * sum_t g_t e^{-j 2 pi sc t / N} (tap 0 dominant).
        let h_freq: Option<Vec<CMat>> = if self.cfg.delay_spread_taps > 0 {
            let taps = self.cfg.delay_spread_taps;
            let n = self.cell.fft_size as f32;
            // One tap-gain set per (antenna, user): exponential profile.
            let mut gains = vec![vec![Vec::with_capacity(taps); self.cell.num_users]; m];
            let mut norm = 0.0f32;
            let profile: Vec<f32> =
                (0..taps).map(|t| (-0.7 * t as f32).exp()).inspect(|p| norm += p * p).collect();
            let norm = norm.sqrt();
            for row in gains.iter_mut() {
                for cell_gains in row.iter_mut() {
                    for &p in &profile {
                        let phase = self.tap_rng.gen::<f32>() * core::f32::consts::TAU;
                        cell_gains.push(Cf32::cis(phase).scale(p / norm));
                    }
                }
            }
            let mut per_sc = Vec::with_capacity(q);
            for sc in 0..q {
                let mut hm = CMat::zeros(m, self.cell.num_users);
                for a in 0..m {
                    for u in 0..self.cell.num_users {
                        let mut resp = Cf32::ZERO;
                        for (t, &g) in gains[a][u].iter().enumerate() {
                            let ang = -core::f32::consts::TAU * sc as f32 * t as f32 / n;
                            resp = g * Cf32::cis(ang) + resp;
                        }
                        hm[(a, u)] = h[(a, u)] * resp;
                    }
                }
                per_sc.push(hm);
            }
            Some(per_sc)
        } else {
            None
        };
        let schedule = &self.cell.schedule;
        let slots = (0..schedule.len()).filter(|&s| schedule.symbol(s).carries_packets()).count();
        let mut packets = Vec::with_capacity(slots * m);
        let mut info_bits: Vec<Vec<Vec<u8>>> = vec![Vec::new(); self.cell.symbols_per_frame()];
        // Per-symbol scratch, hoisted out of the hot loop.
        let mut time_buf = vec![Cf32::ZERO; self.ofdm.symbol_len()];
        let mut freq_rx = vec![Cf32::ZERO; q];
        let mut bytes_buf = Vec::new();

        let mut pilot_counter = 0usize;
        // Indexed access (`schedule.symbol` returns by value) instead of
        // iterating `symbols()` or `info_bits`: the loop body mutably
        // borrows `self` and writes `info_bits` only on uplink symbols.
        #[allow(clippy::needless_range_loop)]
        for sym_idx in 0..self.cell.symbols_per_frame() {
            // 1. Build each user's frequency-domain symbol.
            match self.cell.schedule.symbol(sym_idx) {
                SymbolType::Pilot => {
                    for u in 0..self.cell.num_users {
                        let tx = self.pilots.tx_pilot(pilot_counter, u);
                        for (dst, src) in self.user_freq[u].iter_mut().zip(tx.iter()) {
                            *dst = src.scale(self.user_gains[u]);
                        }
                    }
                    pilot_counter += 1;
                }
                SymbolType::Uplink => {
                    let coded_capacity = self.cell.bits_per_symbol_per_user();
                    let rm = self.cell.ldpc.rate_match();
                    let mut sym_bits = Vec::with_capacity(self.cell.num_users);
                    for u in 0..self.cell.num_users {
                        let info: Vec<u8> = (0..self.encoder.info_len())
                            .map(|_| self.payload_rng.gen::<bool>() as u8)
                            .collect();
                        let cw = self.encoder.encode(&info);
                        // Fill the symbol's bit capacity by repeating the
                        // transmitted bits cyclically, as NR's circular
                        // buffer does: a constant pad would put one
                        // constellation point on every pad subcarrier, and
                        // their coherent time-domain peak clips in 12 bits.
                        let tx_bits: Vec<u8> =
                            rm.extract(&cw).into_iter().cycle().take(coded_capacity).collect();
                        let mut syms = Vec::new();
                        modulate(self.cell.modulation, &tx_bits, &mut syms);
                        debug_assert_eq!(syms.len(), q);
                        for (dst, s) in self.user_freq[u].iter_mut().zip(syms.iter()) {
                            *dst = s.scale(self.user_gains[u]);
                        }
                        sym_bits.push(info);
                    }
                    info_bits[sym_idx] = sym_bits;
                }
                SymbolType::Downlink | SymbolType::Empty => continue,
            }

            // 2. Mix through the channel per antenna, add noise, IFFT,
            // quantise, packetise.
            let gain = self.tx_gain();
            for ant in 0..m {
                for sc in 0..q {
                    let mut acc = Cf32::ZERO;
                    for u in 0..self.cell.num_users {
                        let link = match &h_freq {
                            Some(per_sc) => per_sc[sc][(ant, u)],
                            None => h[(ant, u)],
                        };
                        // Unfused, unlike `Cf32::mul_add`: the channel mix
                        // does not follow the receiver kernels' arithmetic.
                        acc = link * self.user_freq[u][sc] + acc;
                    }
                    freq_rx[sc] = acc;
                }
                self.noise.corrupt(&mut freq_rx);
                self.ofdm.modulate(&freq_rx, &mut time_buf);
                // Headroom scaling: OFDM time samples are small after the
                // 1/N IFFT; scale into the 12-bit range without clipping.
                // In place — `modulate` fully rewrites `time_buf` for the
                // next antenna.
                for z in time_buf.iter_mut() {
                    *z = z.scale(gain);
                }
                pack_samples(&time_buf, &mut bytes_buf);
                let header = PacketHeader {
                    frame,
                    symbol: sym_idx as u16,
                    antenna: ant as u16,
                    dir: PacketDir::Uplink,
                    cell: self.cfg.cell_id,
                    payload_len: bytes_buf.len() as u32,
                };
                packets.push(encode(&header, &bytes_buf));
            }
        }

        let gt = FrameGroundTruth {
            frame,
            h,
            h_freq,
            info_bits,
            noise_power: self.noise.noise_power(),
            user_gains: self.user_gains.clone(),
        };
        (packets, gt)
    }

    /// Digital gain applied before 12-bit quantisation, chosen so the RMS
    /// time-domain amplitude lands near 1/8 full scale (OFDM PAPR head-
    /// room). The receiver divides it back out.
    pub fn tx_gain(&self) -> f32 {
        // RMS time amplitude ~= sqrt(K * Q) / N for unit-power subcarriers.
        let rms = (self.cell.num_users as f32 * self.cell.num_data_sc as f32).sqrt()
            / self.cell.fft_size as f32;
        0.125 / rms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::decode;
    use agora_fft::Direction;
    use agora_phy::iq::unpack_samples;

    fn tiny() -> (CellConfig, RruConfig) {
        (CellConfig::tiny_test(2), RruConfig { snr_db: 30.0, ..Default::default() })
    }

    #[test]
    fn frame_has_one_packet_per_symbol_per_antenna() {
        let (cell, rc) = tiny();
        let mut rru = RruEmulator::new(cell.clone(), rc);
        let (packets, gt) = rru.generate_frame(5);
        assert_eq!(packets.len(), cell.symbols_per_frame() * cell.num_antennas);
        assert_eq!(gt.frame, 5);
        // Packet headers enumerate (symbol, antenna) in order.
        let (h0, _) = decode(&packets[0]).unwrap();
        assert_eq!((h0.frame, h0.symbol, h0.antenna), (5, 0, 0));
        let (h1, _) = decode(&packets[1]).unwrap();
        assert_eq!(h1.antenna, 1);
        let (hlast, _) = decode(packets.last().unwrap()).unwrap();
        assert_eq!(hlast.symbol as usize, cell.symbols_per_frame() - 1);
        assert_eq!(hlast.antenna as usize, cell.num_antennas - 1);
    }

    /// Downlink and guard slots get no packets and draw nothing: a
    /// `PUUDDE` frame is a `PUU` frame's packets, byte for byte.
    #[test]
    fn downlink_and_guard_slots_send_nothing() {
        let (mut cell, rc) = tiny();
        cell.schedule = agora_phy::frame::FrameSchedule::parse("PUU").unwrap();
        let mut short = RruEmulator::new(cell.clone(), rc.clone());
        cell.schedule = agora_phy::frame::FrameSchedule::parse("PUUDDE").unwrap();
        let mut tdd = RruEmulator::new(cell.clone(), rc);
        for frame in 0..2 {
            let (want, _) = short.generate_frame(frame);
            let (got, _) = tdd.generate_frame(frame);
            assert_eq!(got.len(), 3 * cell.num_antennas);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn payload_sizes_match_numerology() {
        let (cell, rc) = tiny();
        let mut rru = RruEmulator::new(cell.clone(), rc);
        let (packets, _) = rru.generate_frame(0);
        for p in &packets {
            let (h, payload) = decode(p).unwrap();
            assert_eq!(h.payload_len as usize, cell.samples_per_symbol() * 3);
            assert_eq!(payload.len(), cell.samples_per_symbol() * 3);
        }
    }

    #[test]
    fn ground_truth_covers_uplink_symbols() {
        let (cell, rc) = tiny();
        let mut rru = RruEmulator::new(cell.clone(), rc);
        let (_, gt) = rru.generate_frame(0);
        for (i, slot) in gt.info_bits.iter().enumerate() {
            match cell.schedule.symbol(i) {
                SymbolType::Uplink => {
                    assert_eq!(slot.len(), cell.num_users);
                    for bits in slot {
                        assert_eq!(bits.len(), cell.info_bits_per_symbol());
                    }
                }
                _ => assert!(slot.is_empty()),
            }
        }
    }

    #[test]
    fn channels_are_redrawn_per_frame() {
        let (cell, rc) = tiny();
        let mut rru = RruEmulator::new(cell, RruConfig { fading: FadingModel::Rayleigh, ..rc });
        let (_, gt0) = rru.generate_frame(0);
        let (_, gt1) = rru.generate_frame(1);
        assert!(gt0.h.max_abs_diff(&gt1.h) > 1e-3);
    }

    /// FFT of the received pilot symbol should approximately recover
    /// `H * pilot` at the pilot's subcarriers: an end-to-end check of
    /// the generator's signal chain.
    #[test]
    fn pilot_symbol_survives_fft_roundtrip() {
        let (cell, mut rc) = tiny();
        rc.snr_db = 60.0; // effectively noiseless
        let mut rru = RruEmulator::new(cell.clone(), rc);
        let gain = rru.tx_gain();
        let (packets, gt) = rru.generate_frame(0);
        // Packet 0: symbol 0 (pilot), antenna 0.
        let (h, payload) = decode(&packets[0]).unwrap();
        assert_eq!(h.symbol, 0);
        let mut time = Vec::new();
        unpack_samples(&payload, &mut time);
        // Undo the TX gain, FFT, demap.
        let map = SubcarrierMap::new(cell.fft_size, cell.num_data_sc);
        let plan = agora_fft::FftPlan::new(cell.fft_size);
        let mut grid: Vec<Cf32> = time.iter().map(|z| z.scale(1.0 / gain)).collect();
        plan.execute(&mut grid, Direction::Forward);
        let mut active = vec![Cf32::ZERO; cell.num_data_sc];
        map.demap_symbols(&grid, &mut active);
        // Compare against H * pilot on a few subcarriers.
        let pilots = PilotPlan::new(cell.pilot_scheme, cell.num_users, cell.num_data_sc);
        for sc in [0usize, 7, 100, 239] {
            let (user, p) = pilots.owner(0, sc).unwrap();
            let expect = gt.h[(0, user)] * p;
            let got = active[sc];
            assert!(
                (expect - got).abs() < 0.05 * expect.abs().max(0.1),
                "sc {sc}: expected {expect:?}, got {got:?}"
            );
        }
    }

    #[test]
    fn per_user_snr_offsets_scale_gains() {
        let cell = CellConfig::tiny_test(1);
        let rc = RruConfig { user_snr_offsets_db: Some(vec![0.0, -6.0]), ..Default::default() };
        let rru = RruEmulator::new(cell, rc);
        assert!((rru.user_gains[0] - 1.0).abs() < 1e-6);
        assert!((rru.user_gains[1] - 0.501).abs() < 0.01); // -6 dB ~ 1/2
    }

    #[test]
    fn deterministic_given_seed() {
        let (cell, rc) = tiny();
        let mut a = RruEmulator::new(cell.clone(), rc.clone());
        let mut b = RruEmulator::new(cell, rc);
        let (pa, _) = a.generate_frame(3);
        let (pb, _) = b.generate_frame(3);
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!(x, y);
        }
    }
}
