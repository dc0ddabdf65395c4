//! Offset min-sum LDPC decoders.
//!
//! The paper uses Intel FlexRAN's decoder, "an offset min-sum belief
//! propagation (BP) based decoding algorithm" [Chen & Fossorier 2002].
//! [`Decoder::decode`] runs the **layered** (row-serial) schedule: each
//! base-row layer immediately updates the posterior LLRs, roughly halving
//! the iterations needed versus two-phase flooding (measured once, see
//! EXPERIMENTS.md "Extensions"). It is vectorised across the lifting
//! dimension (the f32 plane of [`crate::zlane`]).
//!
//! Cost scales as `O(E * Z * iterations)` — linear in both `Z` and the
//! iteration count, which is exactly the trend Figure 12(a) reports.

use crate::base_graph::BaseGraphId;
use crate::zlane::{decode_layered, Lifted, Plane, Schedule, State};
use agora_math::simd::SimdTier;

/// Decoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct DecodeConfig {
    /// Maximum BP iterations (the paper sweeps 5 and 10).
    pub max_iters: usize,
    /// Min-sum correction offset beta (0.5 is the classic choice).
    pub offset: f32,
    /// Stop as soon as the hard decision satisfies every parity check.
    pub early_termination: bool,
    /// Number of active base rows; `None` uses the full graph. Rate
    /// matching shrinks this when high-rate transmissions omit extension
    /// parity bits entirely.
    pub active_rows: Option<usize>,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        Self { max_iters: 5, offset: 0.5, early_termination: true, active_rows: None }
    }
}

/// Outcome of a decode attempt.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// Hard-decision information bits (one byte each, length `kb * Z`).
    pub info_bits: Vec<u8>,
    /// True iff the final hard decision satisfies all active checks.
    pub success: bool,
    /// BP iterations actually executed.
    pub iterations: usize,
}

/// Offset min-sum decoder for one `(base graph, Z)` pair: the f32 plane
/// of the Z-lane skeleton in [`crate::zlane`].
///
/// Every operation of offset min-sum on an extrinsic — subtract, abs,
/// strict compare, select, sign flip, one add — is exact per lane, so the
/// AVX2 tier (8 lanes per op) and the scalar tier produce the same bits.
///
/// Holds scratch buffers so repeated decodes do not allocate; create one
/// per worker thread.
#[derive(Debug, Clone)]
pub struct Decoder {
    g: Lifted,
    /// Per-edge check-to-variable messages, `[entry][stride]`.
    msgs: Vec<f32>,
    /// Posterior LLRs, `[col][stride]`.
    post: Vec<f32>,
    /// Row scratch, `[row slot][stride]`.
    t: Vec<f32>,
    /// Hard decisions of the last syndrome pass.
    hard: Vec<u8>,
}

/// The f32 decoding plane.
struct F32Plane;

impl Plane for F32Plane {
    type Llr = f32;
    const LANES: usize = 8;

    #[inline]
    fn is_neg(v: f32) -> bool {
        // The IEEE compare, not the sign bit: -0.0 is a "bit 0".
        v < 0.0
    }

    #[inline]
    fn prior(v: f32) -> f32 {
        v
    }

    fn row_update(tier: SimdTier, t: &mut [f32], msgs: &mut [f32], stride: usize, offset: f32) {
        assert!(
            t.len() == msgs.len()
                && stride.is_multiple_of(Self::LANES)
                && t.len().is_multiple_of(stride)
        );
        #[cfg(target_arch = "x86_64")]
        if tier >= SimdTier::Avx2 {
            // SAFETY: `Lifted::new` admits a tier only on a CPU that has
            // it, and every tier from AVX2 up includes AVX2; the lengths
            // the kernel relies on were asserted above.
            unsafe { row_update_avx2(t, msgs, stride, offset) };
            return;
        }
        let _ = tier;
        row_update_scalar(t, msgs, stride, offset);
    }
}

/// Scalar tier of [`F32Plane::row_update`]: the AVX2 kernel's structure —
/// one vector's worth of lanes at a time, their two minima, position of
/// the smallest and sign parity carried across the row's entries — with
/// plain lane loops. Selects rather than branches, so the compiler may
/// vectorise it with whatever the target has.
fn row_update_scalar(t: &mut [f32], msgs: &mut [f32], stride: usize, offset: f32) {
    const LANES: usize = F32Plane::LANES;
    for lane in (0..stride).step_by(LANES) {
        let mut min1 = [f32::INFINITY; LANES];
        let mut min2 = [f32::INFINITY; LANES];
        let mut min_pos = [usize::MAX; LANES];
        let mut negative = [false; LANES];
        for i in (lane..t.len()).step_by(stride) {
            let (tv, mv) = (&mut t[i..i + LANES], &msgs[i..i + LANES]);
            for l in 0..LANES {
                let v = tv[l] - mv[l];
                tv[l] = v;
                let a = v.abs();
                let lt1 = a < min1[l];
                let runner_up = if lt1 { min1[l] } else { a };
                min2[l] = if runner_up < min2[l] { runner_up } else { min2[l] };
                min1[l] = if lt1 { a } else { min1[l] };
                min_pos[l] = if lt1 { i } else { min_pos[l] };
                negative[l] ^= v < 0.0;
            }
        }
        // `x > 0 ? x : 0` — what `vmaxps(x, 0)` computes, NaN included.
        let floor = |x: f32| if x > 0.0 { x } else { 0.0 };
        let m1 = min1.map(|m| floor(m - offset));
        let m2 = min2.map(|m| floor(m - offset));
        for i in (lane..t.len()).step_by(stride) {
            let (tv, mv) = (&mut t[i..i + LANES], &mut msgs[i..i + LANES]);
            for l in 0..LANES {
                let v = tv[l];
                let mag = if min_pos[l] == i { m2[l] } else { m1[l] };
                // Sign product excluding self = total product XOR own sign.
                let msg = if negative[l] ^ (v < 0.0) { -mag } else { mag };
                mv[l] = msg;
                tv[l] = v + msg;
            }
        }
    }
}

/// AVX2 tier of [`F32Plane::row_update`]: eight lanes per vector, the
/// two minima, their position and the sign mask of a vector held in
/// registers across the row's entries. Compares are ordered and strict
/// (`_CMP_LT_OQ`) and selects are blends, so each lane computes exactly
/// what [`row_update_scalar`] does.
///
/// # Safety
/// Caller must ensure AVX2 support, `t.len() == msgs.len()`, `stride` a
/// multiple of 8 and `t.len()` a multiple of `stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_update_avx2(t: &mut [f32], msgs: &mut [f32], stride: usize, offset: f32) {
    use core::arch::x86_64::*;
    let len = t.len();
    let (t, msgs) = (t.as_mut_ptr(), msgs.as_mut_ptr());
    let zero = _mm256_setzero_ps();
    let sign_bit = _mm256_set1_ps(-0.0);
    let off = _mm256_set1_ps(offset);
    for lane in (0..stride).step_by(8) {
        let mut min1 = _mm256_set1_ps(f32::INFINITY);
        let mut min2 = min1;
        let mut min_pos = _mm256_set1_epi32(-1);
        // All-ones in lanes with an odd number of negative extrinsics.
        let mut negative = zero;
        for i in (lane..len).step_by(stride) {
            let v = _mm256_sub_ps(_mm256_loadu_ps(t.add(i)), _mm256_loadu_ps(msgs.add(i)));
            _mm256_storeu_ps(t.add(i), v);
            let a = _mm256_andnot_ps(sign_bit, v);
            // `vminps(x, y)` is `x < y ? x : y`: the reference's strict
            // compare and select in one op, NaN included.
            let lt1 = _mm256_cmp_ps::<_CMP_LT_OQ>(a, min1);
            min2 = _mm256_min_ps(_mm256_blendv_ps(a, min1, lt1), min2);
            min1 = _mm256_min_ps(a, min1);
            min_pos =
                _mm256_blendv_epi8(min_pos, _mm256_set1_epi32(i as i32), _mm256_castps_si256(lt1));
            negative = _mm256_xor_ps(negative, _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero));
        }
        let m1 = _mm256_max_ps(_mm256_sub_ps(min1, off), zero);
        let m2 = _mm256_max_ps(_mm256_sub_ps(min2, off), zero);
        for i in (lane..len).step_by(stride) {
            let v = _mm256_loadu_ps(t.add(i));
            let is_min = _mm256_cmpeq_epi32(min_pos, _mm256_set1_epi32(i as i32));
            let mag = _mm256_blendv_ps(m1, m2, _mm256_castsi256_ps(is_min));
            let flip = _mm256_xor_ps(negative, _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero));
            let msg = _mm256_xor_ps(mag, _mm256_and_ps(flip, sign_bit));
            _mm256_storeu_ps(msgs.add(i), msg);
            _mm256_storeu_ps(t.add(i), _mm256_add_ps(v, msg));
        }
    }
}

impl Decoder {
    /// Creates a decoder with preallocated scratch space on the detected
    /// SIMD tier.
    pub fn new(id: BaseGraphId, z: usize) -> Self {
        Self::with_tier(id, z, SimdTier::cached())
    }

    /// Creates a decoder pinned to a specific SIMD tier (parity tests and
    /// Table 5-style ablations).
    pub fn with_tier(id: BaseGraphId, z: usize, tier: SimdTier) -> Self {
        let g = Lifted::new(id, z, F32Plane::LANES, tier);
        Self {
            msgs: vec![0.0; g.msgs_len()],
            post: vec![0.0; g.post_len()],
            t: vec![0.0; g.row_scratch_len()],
            hard: vec![0; g.hard_len()],
            g,
        }
    }

    /// Codeword length in bits.
    pub fn codeword_len(&self) -> usize {
        self.g.codeword_len()
    }

    /// Information length in bits.
    pub fn info_len(&self) -> usize {
        self.g.info_len()
    }

    /// The SIMD tier this decoder dispatches to.
    pub fn tier(&self) -> SimdTier {
        self.g.tier()
    }

    /// Decodes from channel LLRs (positive = bit 0 more likely), length
    /// [`Self::codeword_len`]. Punctured/untransmitted bits must carry LLR
    /// 0. Layered schedule.
    ///
    /// # Panics
    /// Panics if `llr.len() != self.codeword_len()`.
    pub fn decode(&mut self, llr: &[f32], cfg: &DecodeConfig) -> DecodeResult {
        let mut info_bits = vec![0; self.info_len()];
        let mut st = State {
            post: &mut self.post,
            msgs: &mut self.msgs,
            t: &mut self.t,
            hard: &mut self.hard,
        };
        let sched = Schedule {
            max_iters: cfg.max_iters,
            early_termination: cfg.early_termination,
            active_rows: cfg.active_rows,
        };
        let (success, iterations) =
            decode_layered::<F32Plane>(&self.g, &mut st, llr, cfg.offset, sched, &mut info_bits);
        DecodeResult { info_bits, success, iterations }
    }
}

/// The element-at-a-time layered decoder and syndrome scan: the oracle
/// the Z-lane planes must reproduce bit for bit.
#[cfg(test)]
mod reference {
    use super::DecodeConfig;
    use crate::base_graph::BaseGraph;

    pub struct Outcome {
        pub info_bits: Vec<u8>,
        pub success: bool,
        pub iterations: usize,
        /// Final posteriors, `[col][z]`.
        pub post: Vec<f32>,
        /// Final messages, `[entry][z]`.
        pub msgs: Vec<f32>,
    }

    pub fn decode(bg: &BaseGraph, z: usize, llr: &[f32], cfg: &DecodeConfig) -> Outcome {
        let rows = cfg.active_rows.unwrap_or(bg.rows()).min(bg.rows());
        let mut post = llr.to_vec();
        let mut msgs = vec![0.0f32; bg.entries().len() * z];
        let mut iterations = 0;
        for _iter in 0..cfg.max_iters {
            iterations += 1;
            let mut entry_base = 0;
            for r in 0..rows {
                let row = bg.row_entries(r);
                for i in 0..z {
                    let mut min1 = f32::INFINITY;
                    let mut min2 = f32::INFINITY;
                    let mut min_pos = usize::MAX;
                    let mut sign_prod = 1.0f32;
                    for (k, e) in row.iter().enumerate() {
                        let shift = e.shift as usize % z;
                        let bit = e.col as usize * z + (i + shift) % z;
                        let t = post[bit] - msgs[(entry_base + k) * z + i];
                        let a = t.abs();
                        if a < min1 {
                            min2 = min1;
                            min1 = a;
                            min_pos = k;
                        } else if a < min2 {
                            min2 = a;
                        }
                        if t < 0.0 {
                            sign_prod = -sign_prod;
                        }
                    }
                    let m1 = (min1 - cfg.offset).max(0.0);
                    let m2 = (min2 - cfg.offset).max(0.0);
                    for (k, e) in row.iter().enumerate() {
                        let shift = e.shift as usize % z;
                        let bit = e.col as usize * z + (i + shift) % z;
                        let midx = (entry_base + k) * z + i;
                        let t = post[bit] - msgs[midx];
                        let mag = if k == min_pos { m2 } else { m1 };
                        let s = if t < 0.0 { -sign_prod } else { sign_prod };
                        let new_msg = s * mag;
                        post[bit] = t + new_msg;
                        msgs[midx] = new_msg;
                    }
                }
                entry_base += row.len();
            }
            if cfg.early_termination && parity_ok(bg, z, &post, rows) {
                break;
            }
        }
        let success = parity_ok(bg, z, &post, rows);
        let info_bits = post[..bg.info_cols() * z].iter().map(|&l| (l < 0.0) as u8).collect();
        Outcome { info_bits, success, iterations, post, msgs }
    }

    pub fn parity_ok(bg: &BaseGraph, z: usize, post: &[f32], rows: usize) -> bool {
        for r in 0..rows {
            for i in 0..z {
                let mut parity = 0u8;
                for e in bg.row_entries(r) {
                    let shift = e.shift as usize % z;
                    let bit = e.col as usize * z + (i + shift) % z;
                    parity ^= (post[bit] < 0.0) as u8;
                }
                if parity != 0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;

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

    /// Maps a codeword to noiseless BPSK LLRs, with the first 2Z bits
    /// punctured (LLR 0) as the standard requires.
    fn clean_llrs(cw: &[u8], z: usize, amp: f32) -> Vec<f32> {
        cw.iter()
            .enumerate()
            .map(|(i, &b)| {
                if i < 2 * z {
                    0.0
                } else if b == 0 {
                    amp
                } else {
                    -amp
                }
            })
            .collect()
    }

    fn noisy_llrs(cw: &[u8], z: usize, snr_db: f32, seed: u64) -> Vec<f32> {
        // BPSK over AWGN: y = x + n, LLR = 2y/sigma^2.
        let sigma2 = 10.0f32.powf(-snr_db / 10.0);
        let sigma = sigma2.sqrt();
        let mut state = seed | 1;
        let mut gauss = move || {
            // Box-Muller from two xorshift uniforms.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u1 = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u2 = (state >> 11) as f64 / (1u64 << 53) as f64;
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
        };
        cw.iter()
            .enumerate()
            .map(|(i, &b)| {
                if i < 2 * z {
                    return 0.0;
                }
                let x = if b == 0 { 1.0f32 } else { -1.0 };
                let y = x + sigma * gauss();
                2.0 * y / sigma2
            })
            .collect()
    }

    #[test]
    fn decodes_clean_codeword() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 3);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 8.0);
        let res = dec.decode(&llr, &DecodeConfig::default());
        assert!(res.success);
        assert_eq!(res.info_bits, info);
        // Early termination should kick in quickly on clean input.
        assert!(res.iterations <= 3, "took {} iterations", res.iterations);
    }

    #[test]
    fn decodes_noisy_codeword_at_moderate_snr() {
        let z = 16;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 11);
        let cw = enc.encode(&info);
        // Rate ~1/3 code: 4 dB BPSK is comfortably above the waterfall.
        let llr = noisy_llrs(&cw, z, 4.0, 12345);
        let res = dec.decode(&llr, &DecodeConfig { max_iters: 20, ..Default::default() });
        assert!(res.success, "decode failed at 4 dB");
        assert_eq!(res.info_bits, info);
    }

    #[test]
    fn fails_gracefully_at_very_low_snr() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 31);
        let cw = enc.encode(&info);
        let llr = noisy_llrs(&cw, z, -15.0, 999);
        let res = dec.decode(&llr, &DecodeConfig::default());
        // At -15 dB the decode must not succeed-and-be-wrong silently:
        // either success with correct bits (vanishingly unlikely) or
        // reported failure.
        if res.success {
            assert_eq!(res.info_bits, info);
        }
        assert_eq!(res.iterations, 5);
    }

    #[test]
    fn early_termination_counts_iterations() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 41);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 10.0);
        let with_et = dec.decode(&llr, &DecodeConfig::default());
        let without = dec.decode(
            &llr,
            &DecodeConfig { early_termination: false, max_iters: 5, ..Default::default() },
        );
        assert!(with_et.iterations < without.iterations);
        assert_eq!(without.iterations, 5);
        assert!(without.success);
    }

    #[test]
    fn active_rows_restricts_graph() {
        // With only the core rows active, a clean codeword still passes
        // (its checks are a subset).
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 51);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 8.0);
        let res = dec.decode(&llr, &DecodeConfig { active_rows: Some(10), ..Default::default() });
        assert!(res.success);
    }

    #[test]
    fn repeated_decodes_are_independent() {
        // Scratch state must not leak between calls.
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info_a = random_bits(enc.info_len(), 61);
        let info_b = random_bits(enc.info_len(), 62);
        let llr_a = clean_llrs(&enc.encode(&info_a), z, 8.0);
        let llr_b = clean_llrs(&enc.encode(&info_b), z, 8.0);
        let ra1 = dec.decode(&llr_a, &DecodeConfig::default());
        let rb = dec.decode(&llr_b, &DecodeConfig::default());
        let ra2 = dec.decode(&llr_a, &DecodeConfig::default());
        assert_eq!(ra1.info_bits, ra2.info_bits);
        assert_eq!(rb.info_bits, info_b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::base_graph::{BaseGraph, CORE_ROWS};
    use crate::encoder::Encoder;
    use crate::zlane::syndrome_ok;
    use proptest::prelude::*;

    const LANE_ZS: [usize; 10] = [2, 3, 7, 8, 9, 12, 16, 56, 104, 384];

    /// Finite LLRs with the cases where a sign-bit test or a non-strict
    /// minimum would diverge from the reference: punctured zeros up
    /// front, scattered `+0.0` / `-0.0`, and (with `grid`) values on a
    /// coarse grid so magnitudes tie.
    fn awkward_llrs(n: usize, z: usize, seed: u64, scale: f32, grid: bool) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if i < 2 * z {
                    return 0.0;
                }
                match state & 0x1F {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let v = (((state >> 11) as f32 / (1u64 << 53) as f32) - 0.4) * scale;
                        if grid {
                            (v * 2.0).round() / 2.0
                        } else {
                            v
                        }
                    }
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// AVX2 tier == scalar tier == the element-wise reference: hard
        /// decisions, success, iteration count and every bit of the final
        /// posterior and message planes.
        #[test]
        fn lane_tiers_match_reference_bitwise(
            seed in any::<u64>(),
            bg1 in any::<bool>(),
            z_idx in 0usize..LANE_ZS.len(),
            rows_idx in 0usize..3,
            early_termination in any::<bool>(),
            grid in any::<bool>(),
            scale in 0.1f32..20.0,
            max_iters in 1usize..6,
        ) {
            let id = if bg1 { BaseGraphId::Bg1 } else { BaseGraphId::Bg2 };
            let bg = BaseGraph::get(id);
            let z = LANE_ZS[z_idx];
            let active_rows = [Some(CORE_ROWS), Some(bg.rows() / 2), None][rows_idx];
            let cfg = DecodeConfig { max_iters, early_termination, active_rows, ..Default::default() };
            let llr = awkward_llrs(bg.cols() * z, z, seed, scale, grid);
            let want = reference::decode(bg, z, &llr, &cfg);
            for tier in SimdTier::supported() {
                let mut dec = Decoder::with_tier(id, z, tier);
                // Twice: the second decode starts from the first's scratch.
                for _ in 0..2 {
                    let got = dec.decode(&llr, &cfg);
                    prop_assert_eq!(&got.info_bits, &want.info_bits, "{:?}", tier);
                    prop_assert_eq!(got.success, want.success, "{:?}", tier);
                    prop_assert_eq!(got.iterations, want.iterations, "{:?}", tier);
                    // `[col][stride]`: each column's Z posteriors, then zeros.
                    for (c, lanes) in dec.post.chunks_exact(dec.g.stride()).enumerate() {
                        prop_assert_eq!(
                            bits(&lanes[..z]),
                            bits(&want.post[c * z..(c + 1) * z]),
                            "{:?} posteriors of column {}", tier, c
                        );
                        prop_assert!(lanes[z..].iter().all(|&l| l.to_bits() == 0));
                    }
                    for (e, lanes) in dec.msgs.chunks_exact(dec.g.stride()).enumerate() {
                        prop_assert_eq!(
                            bits(&lanes[..z]),
                            bits(&want.msgs[e * z..(e + 1) * z]),
                            "{:?} messages of entry {}", tier, e
                        );
                    }
                }
            }
        }

        /// The lane-parallel syndrome check agrees with the element-wise
        /// scan on random posteriors — valid codewords, single flipped
        /// bits and noise; Z below one vector and shifts that are 0 mod Z
        /// (an empty second segment) included.
        #[test]
        fn syndrome_matches_reference(
            seed in any::<u64>(),
            bg1 in any::<bool>(),
            z_idx in 0usize..LANE_ZS.len(),
            rows_idx in 0usize..3,
            flip_at in any::<u32>(),
            flip in any::<bool>(),
            noise in any::<bool>(),
        ) {
            let id = if bg1 { BaseGraphId::Bg1 } else { BaseGraphId::Bg2 };
            let bg = BaseGraph::get(id);
            let z = LANE_ZS[z_idx];
            prop_assert!(bg.entries().iter().any(|e| (e.shift as usize).is_multiple_of(z)));
            let rows = [CORE_ROWS, bg.rows() / 2, bg.rows()][rows_idx];
            let mut post = if noise {
                awkward_llrs(bg.cols() * z, 0, seed, 4.0, false)
            } else {
                let enc = Encoder::new(id, z);
                let mut state = seed | 1;
                let info: Vec<u8> = (0..enc.info_len()).map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 1) as u8
                }).collect();
                // +-0.0 are both "bit 0": only an IEEE compare reads them so.
                enc.encode(&info).iter().enumerate().map(|(i, &b)| match (b, i % 3) {
                    (0, 0) => 0.0,
                    (0, 1) => -0.0,
                    (0, _) => 1.5,
                    _ => -1.5,
                }).collect()
            };
            if flip {
                let at = flip_at as usize % post.len();
                post[at] = if post[at] < 0.0 { 1.0 } else { -1.0 };
            }
            let g = Lifted::new(id, z, F32Plane::LANES, SimdTier::Scalar);
            let mut hard = vec![0u8; g.hard_len()];
            let mut padded = vec![0.0; g.post_len()];
            for (p, c) in padded.chunks_exact_mut(g.stride()).zip(post.chunks_exact(z)) {
                p[..z].copy_from_slice(c);
            }
            let got = syndrome_ok::<F32Plane>(&g, &padded, &mut hard, rows);
            prop_assert_eq!(got, reference::parity_ok(bg, z, &post, rows));
            if !noise && !flip {
                prop_assert!(got, "a codeword satisfies every check");
            }
            let want: Vec<u8> = post.iter().map(|&l| (l < 0.0) as u8).collect();
            prop_assert_eq!(&hard[..post.len()], &want[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any payload encodes to a valid codeword and decodes back
        /// through a clean channel — for arbitrary payload content and a
        /// spread of lifting sizes.
        #[test]
        fn encode_decode_roundtrip(
            seed in any::<u64>(),
            z_idx in 0usize..4,
        ) {
            let z = [4usize, 8, 12, 16][z_idx];
            let enc = Encoder::new(BaseGraphId::Bg2, z);
            let mut dec = Decoder::new(BaseGraphId::Bg2, z);
            let mut state = seed | 1;
            let info: Vec<u8> = (0..enc.info_len()).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 1) as u8
            }).collect();
            let cw = enc.encode(&info);
            prop_assert!(enc.check(&cw));
            let llr: Vec<f32> = cw.iter().enumerate().map(|(i, &b)| {
                if i < 2 * z { 0.0 } else if b == 0 { 6.0 } else { -6.0 }
            }).collect();
            let res = dec.decode(&llr, &DecodeConfig::default());
            prop_assert!(res.success);
            prop_assert_eq!(res.info_bits, info);
        }

        /// The decoder must never panic and never report success with
        /// wrong syndrome, for arbitrary LLR input.
        #[test]
        fn decoder_robust_to_arbitrary_llrs(
            llr_seed in any::<u64>(),
            scale in 0.1f32..20.0,
        ) {
            let z = 8;
            let mut dec = Decoder::new(BaseGraphId::Bg2, z);
            let mut state = llr_seed | 1;
            let llr: Vec<f32> = (0..dec.codeword_len()).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25) * scale
            }).collect();
            let res = dec.decode(&llr, &DecodeConfig::default());
            // If the decoder claims success, its output must genuinely be
            // a codeword.
            if res.success {
                let enc = Encoder::new(BaseGraphId::Bg2, z);
                let recoded = enc.encode(&res.info_bits);
                prop_assert!(enc.check(&recoded));
            }
        }
    }
}
