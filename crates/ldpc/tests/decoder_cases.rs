//! The benchmarks' (base graph, Z) points through both decoders on every
//! tier.

use agora_ldpc::{
    quantize_llrs, BaseGraphId, DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, Encoder,
    RateMatch, DEFAULT_LLR_SCALE,
};
use agora_math::SimdTier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn awgn_llrs(tx: &[u8], snr_db: f32, rng: &mut StdRng) -> Vec<f32> {
    let sigma2 = 10.0f32.powf(-snr_db / 10.0);
    let sigma = sigma2.sqrt();
    tx.iter()
        .map(|&b| {
            let x = if b == 0 { 1.0f32 } else { -1.0 };
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let n = ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
            2.0 * (x + sigma * n) / sigma2
        })
        .collect()
}

/// The (base graph, Z) points the benches sweep, plus shapes that are not
/// a whole number of vectors in either plane (padded lanes). Per case: one
/// noiseless word, then seven at operating SNR where both planes must
/// still land on the transmitted bits; then the eight as four pairs
/// through `decode_pair_into` on every tier.
#[test]
fn every_case_decodes_alike_on_every_tier_and_lands() {
    const CASES: &[(BaseGraphId, usize)] = &[
        (BaseGraphId::Bg1, 384),
        (BaseGraphId::Bg1, 104),
        (BaseGraphId::Bg1, 64),
        (BaseGraphId::Bg2, 56),
        (BaseGraphId::Bg2, 36),
        (BaseGraphId::Bg1, 30),
        (BaseGraphId::Bg2, 12),
    ];
    for &(bg, z) in CASES {
        let enc = Encoder::new(bg, z);
        let rm = RateMatch::for_rate(bg, z, 1.0 / 3.0);
        let mut dec_f32 = Decoder::new(bg, z);
        let mut dec_f32_scalar = Decoder::with_tier(bg, z, SimdTier::Scalar);
        let mut dec_i8 = DecoderI8::new(bg, z);
        let mut dec_i8_scalar = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
        // Every vector tier below the detected one, which `dec_i8` runs.
        let mut dec_i8_narrower: Vec<DecoderI8> = SimdTier::supported()
            .filter(|&t| t != SimdTier::Scalar && t != dec_i8.tier())
            .map(|t| DecoderI8::with_tier(bg, z, t))
            .collect();
        let mut rng = StdRng::seed_from_u64(0xA60A + z as u64);
        let mut full_f32 = vec![0.0f32; dec_f32.codeword_len()];
        let mut full_i8 = vec![0i8; dec_i8.codeword_len()];
        let (mut f32_tiers_agree, mut tiers_agree) = (true, true);
        let (mut f32_lands, mut i8_lands) = (true, true);
        let mut words = Vec::new();
        for word in 0..8 {
            let info: Vec<u8> = (0..enc.info_len()).map(|_| rng.gen::<bool>() as u8).collect();
            let tx = rm.extract(&enc.encode(&info));
            let llrs = if word == 0 {
                tx.iter().map(|&b| if b == 0 { 12.0f32 } else { -12.0 }).collect()
            } else {
                awgn_llrs(&tx, 5.0, &mut rng)
            };
            rm.fill_llrs_into(&llrs, &mut full_f32);
            let mut tx_i8 = vec![0i8; llrs.len()];
            quantize_llrs(&llrs, &mut tx_i8, DEFAULT_LLR_SCALE);
            rm.fill_llrs_into(&tx_i8, &mut full_i8);

            let active_rows = Some(rm.active_rows());
            let cfg_f32 = DecodeConfig { max_iters: 8, active_rows, ..Default::default() };
            let cfg_i8 = DecodeConfigI8 { max_iters: 8, active_rows, ..Default::default() };
            let rf = dec_f32.decode(&full_f32, &cfg_f32);
            let rfs = dec_f32_scalar.decode(&full_f32, &cfg_f32);
            f32_tiers_agree &= rf.info_bits == rfs.info_bits
                && rf.success == rfs.success
                && rf.iterations == rfs.iterations;
            let ri = dec_i8.decode(&full_i8, &cfg_i8);
            let rs = dec_i8_scalar.decode(&full_i8, &cfg_i8);
            let narrower: Vec<_> =
                dec_i8_narrower.iter_mut().map(|d| d.decode(&full_i8, &cfg_i8)).collect();
            for r in [&ri].into_iter().chain(&narrower) {
                tiers_agree &= r.info_bits == rs.info_bits
                    && r.success == rs.success
                    && r.iterations == rs.iterations;
            }
            f32_lands &= rf.success && rf.info_bits == info;
            i8_lands &= ri.success && ri.info_bits == info;
            words.push((full_i8.clone(), rs));
        }
        let cfg_i8 = DecodeConfigI8 {
            max_iters: 8,
            active_rows: Some(rm.active_rows()),
            ..Default::default()
        };
        let mut pairs_agree = true;
        for tier in SimdTier::supported() {
            let mut dec = DecoderI8::with_tier(bg, z, tier);
            for pair in words.chunks_exact(2) {
                let mut out = [vec![0u8; dec.info_len()], vec![0u8; dec.info_len()]];
                let [a, b] = &mut out;
                let got = dec.decode_pair_into([&pair[0].0, &pair[1].0], &cfg_i8, [a, b]);
                let want = [&pair[0].1, &pair[1].1];
                pairs_agree &= got == want.map(|r| (r.success, r.iterations))
                    && out == want.map(|r| r.info_bits.clone());
            }
        }
        assert!(f32_tiers_agree, "{bg:?} Z={z}: f32 decoder bit-exact, detected vs scalar tier");
        assert!(tiers_agree, "{bg:?} Z={z}: i8 decoder bit-exact, every tier vs scalar");
        assert!(pairs_agree, "{bg:?} Z={z}: i8 pairs (decode_pair_into) == two scalar decodes");
        assert!(f32_lands, "{bg:?} Z={z}: f32 plane decodes clean + 5 dB words");
        assert!(i8_lands, "{bg:?} Z={z}: i8 plane decodes clean + 5 dB words");
    }
}
