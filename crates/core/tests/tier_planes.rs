//! Kernels pinned to each SIMD tier narrower than the detected one
//! rewrite every plane of an 8x2 and a 64x16 frame byte for byte (how far
//! the planes are from the equations is `ul_reference` and `dl_reference`).

use agora_core::{EngineConfig, InlineProcessor, Kernels};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_math::{Cf32, SimdTier};
use agora_phy::{CellConfig, FrameSchedule};

fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// One pilot + uplink + downlink frame through the inline processor on
/// the detected tier; then kernels pinned to each narrower tier redo its
/// FFTs (pilot and uplink), ZF, demodulation, decoding, precoding and
/// every antenna's IFFT on the same slot. The IQ unpack, the demapper and its fused quantiser,
/// the noise scales, the decoder and the modulator's bit-pack must leave
/// the planes byte for byte.
#[test]
fn narrower_tiers_write_the_detected_tiers_planes() {
    for (mut cell, what) in
        [(CellConfig::tiny_test(1), "8x2"), (CellConfig::emulated_rru(64, 16, 1), "64x16")]
    {
        cell.schedule = FrameSchedule::parse("PUD").expect("valid schedule");
        let (pilot, uplink, downlink) = (0, 1, 2);
        let rc = RruConfig { snr_db: 25.0, seed: 77, ..Default::default() };
        let mut rru = RruEmulator::new(cell.clone(), rc);
        let (packets, noise) = (rru.generate_frame(0).0, rru.noise_power());
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = noise;
        let mut proc = InlineProcessor::new(cfg.clone());
        proc.process_frame(0, &packets);
        let (fb, g) = (proc.buffers(0), proc.kernels().geom);
        // SAFETY (here and below): single-threaded; every task has run,
        // and no view is alive across a `fill`.
        let planes = || unsafe {
            let cf32 =
                [&fb.csi, &fb.freq, &fb.dl_mod, &fb.dl_time].map(|plane| bits(plane.view(None)));
            let inv_noise: Vec<u32> = fb.inv_noise.view(None).iter().map(|x| x.to_bits()).collect();
            let bytes = [fb.decoded.view(None), fb.decode_ok.view(None)].map(<[u8]>::to_vec);
            (cf32, inv_noise, fb.llr.view(None).to_vec(), bytes)
        };
        let detected = planes();
        let filled = detected.0.iter().all(|plane| plane.iter().any(|&b| b != (0, 0)))
            && detected.1.iter().any(|&b| b != 0)
            && detected.2.iter().any(|&l| l != 0)
            && detected.3[1].contains(&1);
        assert!(filled, "{what}: the detected tier filled the planes");
        for tier in SimdTier::supported().filter(|&t| t < SimdTier::detect()) {
            unsafe {
                for plane in [&fb.csi, &fb.freq, &fb.dl_mod, &fb.dl_time] {
                    plane.fill(Cf32::ZERO);
                }
                fb.inv_noise.fill(0.0);
                fb.llr.fill(0);
                fb.decoded.fill(0);
                fb.decode_ok.fill(0);
            }
            let pinned = Kernels::with_tier(cfg.clone(), tier);
            let mut s = pinned.scratch();
            for symbol in [pilot, uplink] {
                (0..g.m).for_each(|ant| pinned.fft_task(fb, &mut s, symbol, ant));
            }
            (0..pinned.shape.zf_groups).for_each(|group| pinned.zf_task(fb, &mut s, group));
            pinned.demod_task(fb, &mut s, 0, uplink, 0, g.q);
            (0..g.k).for_each(|user| pinned.decode_task(fb, &mut s, uplink, user));
            pinned.precode_task(fb, &mut s, downlink, 0, g.q);
            (0..g.m).for_each(|ant| pinned.ifft_task(fb, &mut s, downlink, ant));
            let (cf32, inv_noise, llr, bytes) = planes();
            for (plane, same) in [
                ("csi", cf32[0] == detected.0[0]),
                ("freq", cf32[1] == detected.0[1]),
                ("inv_noise", inv_noise == detected.1),
                ("llr", llr == detected.2),
                ("decoded", bytes[0] == detected.3[0]),
                ("decode_ok", bytes[1] == detected.3[1]),
                ("dl_mod", cf32[2] == detected.0[2]),
                ("dl_time", cf32[3] == detected.0[3]),
            ] {
                assert!(same, "{what}: {plane} plane, {tier:?} tier ≡ detected");
            }
        }
    }
}
