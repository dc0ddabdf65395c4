//! Fixed-point (i8) layered offset min-sum decoder, vectorised across the
//! QC lifting dimension `Z`.
//!
//! The paper offloads LDPC decoding to Intel FlexRAN's *fixed-point SIMD*
//! offset min-sum decoder rather than running it in float — Figure 13
//! shows decoding is the single largest compute block of the uplink, so
//! this is where quantised, lane-parallel processing pays the most. This
//! module is the Rust analogue: channel LLRs are quantised to saturating
//! `i8` (see [`quantize_llrs`]) and decoded by the i8 plane of the
//! Z-lane skeleton in [`crate::zlane`], the same layered schedule as the
//! f32 [`crate::decoder::Decoder::decode`].
//!
//! After the skeleton's rotated gather every per-lane operation
//! (extrinsic subtract, abs, two-minimum tracking, sign accumulation,
//! offset, saturating posterior update) is a pure element-wise pass over
//! contiguous `i8` arrays — exactly the shape AVX2 byte ops want
//! (`vpsubsb`/`vpabsb`/`vpminsb`/`vpaddsb`, 32 lanes per instruction).
//! The lane kernel has a scalar tier and an AVX2 tier behind
//! [`SimdTier`] runtime dispatch.
//!
//! They are **bit-exact** against each other by construction: every AVX2
//! instruction used has an exact scalar counterpart (saturating i8
//! add/sub, `max`, `abs`, compare/blend), and the proptests assert
//! equality across base graphs and lifting sizes. LLR values are confined
//! to `[-127, 127]`: -128 is clamped away after every saturating op so
//! `abs` and negation can never overflow.

use crate::base_graph::BaseGraphId;
use crate::decoder::DecodeResult;
use crate::zlane::{decode_layered, Lifted, Plane, Schedule, State};
use agora_math::simd::SimdTier;

/// Largest representable quantised LLR magnitude. The domain is the
/// symmetric `[-127, 127]`; -128 is never produced.
pub const I8_LLR_MAX: i8 = 127;

/// `f32 -> i8` quantisation scale for synthetic LLRs (integer steps per
/// LLR unit: `llr_i8 = round(llr_f32 * scale)`): what the decoder's own
/// tests, the `parity` and figure bins and the benchmark's decoder leaf
/// quantise BPSK-over-AWGN LLRs `2y / sigma^2` with. 4.0 gives a +-31.75
/// LLR dynamic range at 0.25-LLR resolution, and the default offset of 2
/// steps is then the float decoder's beta = 0.5.
///
/// The engine does not use it. Its demapper's LLRs grow with SNR, so a
/// fixed scale saturates every prior at high SNR; demodulation instead
/// quantises each user row at a scale that puts a nominal constellation
/// point at the same step count at any SNR (`agora_core::kernels`).
pub const DEFAULT_LLR_SCALE: f32 = 4.0;

/// Largest check-to-variable message magnitude. Clipping messages well
/// below [`I8_LLR_MAX`] is what keeps *layered* fixed-point decoding
/// stable: the posterior saturates at 127 while the true sum of incoming
/// messages keeps growing, so a stored message comparable to the clipped
/// posterior would wipe it out (or flip its sign) when subtracted back
/// out on the next iteration. Bounding messages to 31 bounds that
/// extrinsic collapse to a quarter of the posterior range — a saturated
/// posterior can never change sign from a single message replacement —
/// which matches the precision split used by hardware min-sum decoders
/// (narrow messages, wide accumulator).
pub const I8_MSG_MAX: i8 = 31;

/// Largest channel-prior magnitude admitted into the decoder, strictly
/// below [`I8_MSG_MAX`]. The base graphs' extension parity columns have
/// degree one, so a wrong-sign channel value there can only ever be
/// overturned by its single check message: if the prior could reach the
/// message clip, a deep-faded parity bit would be stuck forever, and the
/// resulting block-error floor *grows* with SNR (larger scale x LLR
/// magnitudes make clamped wrong-sign priors more common). Keeping the
/// prior one step under the clip guarantees a full-strength message
/// outweighs it — the 6-bit channel / 6-bit message split hardware
/// decoders use, with the tie broken toward correction.
pub const I8_CHAN_MAX: i8 = I8_MSG_MAX - 1;

/// Quantises `f32` LLRs to saturating `i8` with the given scale.
/// Values round to nearest, ties away from zero, and clamp to
/// `[-127, 127]`; non-finite inputs saturate in their sign's direction
/// (NaN maps to 0).
///
/// Bit-identical to `round` then clamp, without `round` or a float-to-int
/// conversion: baseline x86-64 has no SSE4.1 `roundps`, so `round` is a
/// libm call per value, and Rust's saturating `as i32` is a scalar
/// convert with two fix-ups per lane. Instead the magnitude, clamped
/// (NaN to 0), is added to 2^23, where a float's ulp is 1: the sum's
/// mantissa holds it rounded to nearest, ties to even, and a tie that
/// went down to even goes up. Every step is a lane-wise float or integer
/// operation, so the loop vectorises.
pub fn quantize_llrs(src: &[f32], dst: &mut [i8], scale: f32) {
    assert_eq!(src.len(), dst.len(), "quantise length mismatch");
    const MAX: f32 = I8_LLR_MAX as f32;
    const SHIFTER: f32 = 8_388_608.0;
    for (d, &s) in dst.iter_mut().zip(src) {
        let v = s * scale;
        let a = if v.is_nan() { 0.0 } else { v.abs().min(MAX) };
        let even = (a + SHIFTER).to_bits() as i32 - SHIFTER.to_bits() as i32;
        let q = (even + (a - even as f32 == 0.5) as i32) as i8;
        *d = if v < 0.0 { -q } else { q };
    }
}

/// Configuration for the fixed-point decoder. Mirrors
/// [`crate::decoder::DecodeConfig`] with the offset in quantisation steps:
/// the default 2 is the float decoder's beta = 0.5 at
/// [`DEFAULT_LLR_SCALE`], and an eighth of a nominal point's weakest bit
/// on the engine's plane, where that bit is 16 steps.
#[derive(Debug, Clone, Copy)]
pub struct DecodeConfigI8 {
    /// Maximum BP iterations.
    pub max_iters: usize,
    /// Min-sum correction offset in quantised LLR units.
    pub offset: i8,
    /// Stop as soon as the hard decision satisfies every parity check.
    pub early_termination: bool,
    /// Number of active base rows; `None` uses the full graph.
    pub active_rows: Option<usize>,
}

impl Default for DecodeConfigI8 {
    fn default() -> Self {
        Self { max_iters: 5, offset: 2, early_termination: true, active_rows: None }
    }
}

/// Fixed-point layered offset min-sum decoder for one `(base graph, Z)`
/// pair: the i8 plane of the Z-lane skeleton in [`crate::zlane`]. Holds
/// all scratch so repeated decodes never allocate; create one per worker
/// thread.
#[derive(Debug, Clone)]
pub struct DecoderI8 {
    g: Lifted,
    /// Per-edge check-to-variable messages, `[entry][stride]`.
    msgs: Vec<i8>,
    /// Posterior LLRs, `[col][z]`.
    post: Vec<i8>,
    /// Row scratch, `[row slot][stride]`.
    t: Vec<i8>,
    /// Hard decisions of the last syndrome pass.
    hard: Vec<u8>,
}

/// The i8 decoding plane.
struct I8Plane;

impl Plane for I8Plane {
    type Llr = i8;
    const LANES: usize = 32;

    #[inline]
    fn is_neg(v: i8) -> bool {
        v < 0
    }

    /// Confines priors to `[-I8_CHAN_MAX, I8_CHAN_MAX]`: keeps -128 out of
    /// the abs/negate domain and, critically, keeps every channel value
    /// weaker than a full-strength check message (see [`I8_CHAN_MAX`]).
    #[inline]
    fn prior(v: i8) -> i8 {
        v.clamp(-I8_CHAN_MAX, I8_CHAN_MAX)
    }

    fn row_update(tier: SimdTier, t: &mut [i8], msgs: &mut [i8], stride: usize, offset: i8) {
        assert!(
            t.len() == msgs.len()
                && stride.is_multiple_of(Self::LANES)
                && t.len().is_multiple_of(stride)
        );
        #[cfg(target_arch = "x86_64")]
        if tier == SimdTier::Avx2 {
            // SAFETY: `Lifted::new` admits the AVX2 tier only on a CPU that
            // has it; the lengths the kernel relies on were asserted above.
            unsafe { row_update_avx2(t, msgs, stride, offset) };
            return;
        }
        let _ = tier;
        row_update_scalar(t, msgs, stride, offset);
    }
}

/// Scalar tier of [`I8Plane::row_update`]: the AVX2 kernel's structure —
/// one vector's worth of lanes at a time, their two minima, position of
/// the smallest and sign parity carried across the row's entries — with
/// plain lane loops. Selects rather than branches, so the compiler may
/// vectorise it with whatever the target has.
fn row_update_scalar(t: &mut [i8], msgs: &mut [i8], stride: usize, offset: i8) {
    const LANES: usize = I8Plane::LANES;
    for lane in (0..stride).step_by(LANES) {
        let mut min1 = [I8_LLR_MAX; LANES];
        let mut min2 = [I8_LLR_MAX; LANES];
        let mut min_pos = [u8::MAX; LANES];
        let mut negative = [false; LANES];
        // Pass 1: t = max(sat_sub(t, msg), -127), two minima of |t|, signs.
        for (k, i) in (lane..t.len()).step_by(stride).enumerate() {
            let (tv, mv) = (&mut t[i..i + LANES], &msgs[i..i + LANES]);
            for l in 0..LANES {
                let v = tv[l].saturating_sub(mv[l]).max(-I8_LLR_MAX);
                tv[l] = v;
                let a = v.abs();
                let lt1 = a < min1[l];
                min2[l] = if lt1 { min1[l] } else { min2[l].min(a) };
                min1[l] = min1[l].min(a);
                min_pos[l] = if lt1 { k as u8 } else { min_pos[l] };
                negative[l] ^= v < 0;
            }
        }
        // Pass 2: magnitudes from the offset two minima, sign from the
        // row sign product excluding self, saturating posterior update.
        let m1 = min1.map(|m| m.saturating_sub(offset).clamp(0, I8_MSG_MAX));
        let m2 = min2.map(|m| m.saturating_sub(offset).clamp(0, I8_MSG_MAX));
        for (k, i) in (lane..t.len()).step_by(stride).enumerate() {
            let (tv, mv) = (&mut t[i..i + LANES], &mut msgs[i..i + LANES]);
            for l in 0..LANES {
                let v = tv[l];
                let mag = if min_pos[l] == k as u8 { m2[l] } else { m1[l] };
                let msg = if negative[l] ^ (v < 0) { -mag } else { mag };
                mv[l] = msg;
                tv[l] = v.saturating_add(msg).max(-I8_LLR_MAX);
            }
        }
    }
}

/// AVX2 tier of [`I8Plane::row_update`]: 32 lanes per vector, the two
/// minima, their position and the sign mask of a vector held in
/// registers across the row's entries. Every instruction is the exact
/// vector counterpart of a scalar op in [`row_update_scalar`] (`vpsubsb`,
/// clamp via `vpmaxsb`, `vpabsb`, strict-compare blends, conditional
/// negate via XOR/SUB against the 0xFF sign mask, `vpaddsb`), so outputs
/// are bit-identical.
///
/// # Safety
/// Caller must ensure AVX2 support, `t.len() == msgs.len()`, `stride` a
/// multiple of 32 and `t.len()` a multiple of `stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_update_avx2(t: &mut [i8], msgs: &mut [i8], stride: usize, offset: i8) {
    use core::arch::x86_64::*;
    let deg = t.len() / stride;
    let (t, msgs) = (t.as_mut_ptr(), msgs.as_mut_ptr());
    let floor = _mm256_set1_epi8(-I8_LLR_MAX);
    let zero = _mm256_setzero_si256();
    let off = _mm256_set1_epi8(offset);
    let msg_max = _mm256_set1_epi8(I8_MSG_MAX);
    for lane in (0..stride).step_by(32) {
        let mut min1 = _mm256_set1_epi8(I8_LLR_MAX);
        let mut min2 = min1;
        let mut min_pos = _mm256_set1_epi8(-1);
        // 0xFF in lanes with an odd number of negative extrinsics.
        let mut negative = zero;
        for k in 0..deg {
            let tp = t.add(k * stride + lane) as *mut __m256i;
            let mp = msgs.add(k * stride + lane) as *const __m256i;
            let v = _mm256_max_epi8(
                _mm256_subs_epi8(_mm256_loadu_si256(tp), _mm256_loadu_si256(mp)),
                floor,
            );
            _mm256_storeu_si256(tp, v);
            let a = _mm256_abs_epi8(v);
            // a < min1 (strict), matching the scalar branch order.
            let lt1 = _mm256_cmpgt_epi8(min1, a);
            min2 = _mm256_blendv_epi8(_mm256_min_epi8(min2, a), min1, lt1);
            min1 = _mm256_min_epi8(min1, a);
            min_pos = _mm256_blendv_epi8(min_pos, _mm256_set1_epi8(k as i8), lt1);
            negative = _mm256_xor_si256(negative, _mm256_cmpgt_epi8(zero, v));
        }
        let m1 = _mm256_min_epi8(_mm256_max_epi8(_mm256_subs_epi8(min1, off), zero), msg_max);
        let m2 = _mm256_min_epi8(_mm256_max_epi8(_mm256_subs_epi8(min2, off), zero), msg_max);
        for k in 0..deg {
            let tp = t.add(k * stride + lane) as *mut __m256i;
            let mp = msgs.add(k * stride + lane) as *mut __m256i;
            let v = _mm256_loadu_si256(tp);
            let is_min = _mm256_cmpeq_epi8(min_pos, _mm256_set1_epi8(k as i8));
            let mag = _mm256_blendv_epi8(m1, m2, is_min);
            let flip = _mm256_xor_si256(negative, _mm256_cmpgt_epi8(zero, v));
            // Conditional two's-complement negate: (mag ^ m) - m for m in
            // {0x00, 0xFF}; mag <= 127 so no overflow.
            let msg = _mm256_sub_epi8(_mm256_xor_si256(mag, flip), flip);
            _mm256_storeu_si256(mp, msg);
            _mm256_storeu_si256(tp, _mm256_max_epi8(_mm256_adds_epi8(v, msg), floor));
        }
    }
}

impl DecoderI8 {
    /// Creates a decoder with preallocated scratch on the detected SIMD
    /// tier.
    pub fn new(id: BaseGraphId, z: usize) -> Self {
        Self::with_tier(id, z, SimdTier::cached())
    }

    /// Creates a decoder pinned to a specific SIMD tier (parity tests and
    /// Table 5-style ablations).
    pub fn with_tier(id: BaseGraphId, z: usize, tier: SimdTier) -> Self {
        let g = Lifted::new(id, z, I8Plane::LANES, tier);
        Self {
            msgs: vec![0; g.msgs_len()],
            post: vec![0; g.codeword_len()],
            t: vec![0; g.row_scratch_len()],
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

    /// Decodes from quantised channel LLRs (positive = bit 0 more likely),
    /// length [`Self::codeword_len`]. Punctured/untransmitted bits must
    /// carry LLR 0. Layered schedule, identical message flow to the f32
    /// [`crate::decoder::Decoder::decode`].
    ///
    /// # Panics
    /// Panics if `llr.len() != self.codeword_len()`.
    pub fn decode(&mut self, llr: &[i8], cfg: &DecodeConfigI8) -> DecodeResult {
        let mut info_bits = vec![0; self.info_len()];
        let (success, iterations) = self.decode_into(llr, cfg, &mut info_bits);
        DecodeResult { info_bits, success, iterations }
    }

    /// [`Self::decode`] writing the hard-decision information bits into
    /// `info_bits` (length [`Self::info_len`]) instead of allocating.
    /// Returns `(success, iterations)`.
    ///
    /// # Panics
    /// Panics if `llr` or `info_bits` has the wrong length.
    pub fn decode_into(
        &mut self,
        llr: &[i8],
        cfg: &DecodeConfigI8,
        info_bits: &mut [u8],
    ) -> (bool, usize) {
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
        decode_layered::<I8Plane>(&self.g, &mut st, llr, cfg.offset, sched, info_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{DecodeConfig, Decoder};
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

    fn clean_llrs_i8(cw: &[u8], z: usize, amp: i8) -> Vec<i8> {
        cw.iter()
            .enumerate()
            .map(|(i, &b)| {
                if i < 2 * z {
                    0
                } else if b == 0 {
                    amp
                } else {
                    -amp
                }
            })
            .collect()
    }

    fn noisy_llrs_f32(cw: &[u8], z: usize, snr_db: f32, seed: u64) -> Vec<f32> {
        let sigma2 = 10.0f32.powf(-snr_db / 10.0);
        let sigma = sigma2.sqrt();
        let mut state = seed | 1;
        let mut gauss = move || {
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
                2.0 * (x + sigma * gauss()) / sigma2
            })
            .collect()
    }

    /// The edges of the branch-free rounding against `round` then clamp:
    /// every tie `±k.5` across the range and past the clamp, signed zeros,
    /// NaN, infinities, the float just below a half and values just inside
    /// the clamp.
    #[test]
    fn quantize_rounds_and_saturates() {
        let src = [0.0f32, 0.1, -0.1, 1.0, -1.0, 100.0, -100.0, f32::INFINITY, f32::NEG_INFINITY];
        let mut dst = vec![0i8; src.len()];
        quantize_llrs(&src, &mut dst, 4.0);
        assert_eq!(dst, [0, 0, 0, 4, -4, 127, -127, 127, -127]);

        let mut src: Vec<f32> =
            (0..=130).flat_map(|k| [k as f32 + 0.5, -(k as f32) - 0.5]).collect();
        src.extend([0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        src.extend([0.499_999_97, -0.499_999_97, 127.49, -127.49, 126.5, 127.5, f32::MAX]);
        src.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, 2.5, -2.5, 3.5, -3.5]);
        let mut dst = vec![0i8; src.len()];
        quantize_llrs(&src, &mut dst, 1.0);
        assert_eq!(dst, quantize_reference(&src, 1.0));
        assert_eq!(dst[src.len() - 4..], [3, -3, 4, -4], "ties round away from zero");
    }

    /// `round` then clamp: the oracle [`quantize_llrs`] is held to.
    pub(super) fn quantize_reference(src: &[f32], scale: f32) -> Vec<i8> {
        let max = I8_LLR_MAX as f32;
        src.iter().map(|&s| (s * scale).round().clamp(-max, max) as i8).collect()
    }

    #[test]
    fn decodes_clean_codeword_bg1() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = DecoderI8::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 3);
        let cw = enc.encode(&info);
        let llr = clean_llrs_i8(&cw, z, 32);
        let res = dec.decode(&llr, &DecodeConfigI8::default());
        assert!(res.success);
        assert_eq!(res.info_bits, info);
        assert!(res.iterations <= 3, "took {} iterations", res.iterations);
    }

    #[test]
    fn decodes_noisy_codeword_at_moderate_snr() {
        let z = 16;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = DecoderI8::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 11);
        let cw = enc.encode(&info);
        let f = noisy_llrs_f32(&cw, z, 4.0, 12345);
        let mut q = vec![0i8; f.len()];
        quantize_llrs(&f, &mut q, DEFAULT_LLR_SCALE);
        let res = dec.decode(&q, &DecodeConfigI8 { max_iters: 20, ..Default::default() });
        assert!(res.success, "i8 decode failed at 4 dB");
        assert_eq!(res.info_bits, info);
    }

    #[test]
    fn matches_f32_hard_decisions_on_noisy_input() {
        // At a workable SNR both decoders must land on the same (correct)
        // codeword — the quantisation must not change the outcome.
        let z = 24;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec_f = Decoder::new(BaseGraphId::Bg1, z);
        let mut dec_q = DecoderI8::new(BaseGraphId::Bg1, z);
        for seed in 0..8u64 {
            let info = random_bits(enc.info_len(), 100 + seed);
            let cw = enc.encode(&info);
            let f = noisy_llrs_f32(&cw, z, 5.0, 900 + seed);
            let mut q = vec![0i8; f.len()];
            quantize_llrs(&f, &mut q, DEFAULT_LLR_SCALE);
            let rf = dec_f.decode(&f, &DecodeConfig { max_iters: 10, ..Default::default() });
            let rq = dec_q.decode(&q, &DecodeConfigI8 { max_iters: 10, ..Default::default() });
            assert!(rf.success && rq.success, "seed {seed}: f32 {} i8 {}", rf.success, rq.success);
            assert_eq!(rf.info_bits, rq.info_bits, "seed {seed}: hard decisions differ");
        }
    }

    #[test]
    fn saturated_input_is_handled() {
        // All-saturated LLRs (including the forbidden -128) must not
        // overflow abs/negate and must decode the implied codeword.
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg2, z);
        let mut dec = DecoderI8::new(BaseGraphId::Bg2, z);
        let info = random_bits(enc.info_len(), 77);
        let cw = enc.encode(&info);
        let llr: Vec<i8> = cw
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if i < 2 * z {
                    0
                } else if b == 0 {
                    127
                } else {
                    -128
                }
            })
            .collect();
        let res = dec.decode(&llr, &DecodeConfigI8::default());
        assert!(res.success);
        assert_eq!(res.info_bits, info);
    }

    #[test]
    fn early_termination_counts_iterations() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = DecoderI8::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 41);
        let cw = enc.encode(&info);
        let llr = clean_llrs_i8(&cw, z, 40);
        let with_et = dec.decode(&llr, &DecodeConfigI8::default());
        let without = dec.decode(
            &llr,
            &DecodeConfigI8 { early_termination: false, max_iters: 5, ..Default::default() },
        );
        assert!(with_et.iterations < without.iterations);
        assert_eq!(without.iterations, 5);
        assert!(without.success);
    }

    #[test]
    fn repeated_decodes_are_independent() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = DecoderI8::new(BaseGraphId::Bg1, z);
        let info_a = random_bits(enc.info_len(), 61);
        let info_b = random_bits(enc.info_len(), 62);
        let llr_a = clean_llrs_i8(&enc.encode(&info_a), z, 32);
        let llr_b = clean_llrs_i8(&enc.encode(&info_b), z, 32);
        let ra1 = dec.decode(&llr_a, &DecodeConfigI8::default());
        let rb = dec.decode(&llr_b, &DecodeConfigI8::default());
        let ra2 = dec.decode(&llr_a, &DecodeConfigI8::default());
        assert_eq!(ra1.info_bits, ra2.info_bits);
        assert_eq!(rb.info_bits, info_b);
    }

    #[test]
    fn active_rows_restricts_graph() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = DecoderI8::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 51);
        let cw = enc.encode(&info);
        let llr = clean_llrs_i8(&cw, z, 32);
        let res = dec.decode(&llr, &DecodeConfigI8 { active_rows: Some(10), ..Default::default() });
        assert!(res.success);
    }

    #[test]
    fn scalar_tier_decodes_identically_to_detected() {
        let z = 40; // exercises both the 32-lane SIMD body and the tail
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec_a = DecoderI8::with_tier(BaseGraphId::Bg1, z, SimdTier::Scalar);
        let mut dec_b = DecoderI8::with_tier(BaseGraphId::Bg1, z, SimdTier::detect());
        let info = random_bits(enc.info_len(), 5);
        let cw = enc.encode(&info);
        let f = noisy_llrs_f32(&cw, z, 3.0, 31337);
        let mut q = vec![0i8; f.len()];
        quantize_llrs(&f, &mut q, DEFAULT_LLR_SCALE);
        let cfg = DecodeConfigI8 { max_iters: 10, early_termination: false, ..Default::default() };
        let ra = dec_a.decode(&q, &cfg);
        let rb = dec_b.decode(&q, &cfg);
        assert_eq!(ra.info_bits, rb.info_bits);
        assert_eq!(ra.success, rb.success);
        // Bit-exact internal state, not just matching hard decisions.
        assert_eq!(dec_a.post, dec_b.post);
        assert_eq!(dec_a.msgs, dec_b.msgs);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Lifting sizes the benches exercise: the paper's Z = 104/384 (BG1
    /// Figure 12 points), the OTA Z = 56 (BG2), the tiny-test Z = 12, and
    /// boundary shapes around the 32-lane vector width.
    const BENCH_ZS: [(BaseGraphId, usize); 8] = [
        (BaseGraphId::Bg1, 104),
        (BaseGraphId::Bg1, 384),
        (BaseGraphId::Bg1, 64),
        (BaseGraphId::Bg2, 56),
        (BaseGraphId::Bg2, 12),
        (BaseGraphId::Bg2, 32),
        (BaseGraphId::Bg2, 36),
        (BaseGraphId::Bg1, 30),
    ];

    proptest! {
        /// Random floats, any bit pattern or a uniform draw, at scales from
        /// the sub-step to the saturating: bit-identical to the oracle.
        #[test]
        fn quantize_matches_round_then_clamp(
            draws in proptest::collection::vec((any::<u32>(), -200.0f32..200.0), 0..67),
            scale in (0u32..5, 1e-3f32..64.0),
        ) {
            let scale = match scale.0 {
                0 => 1.0,
                1 => DEFAULT_LLR_SCALE,
                2 => 1e6,
                _ => scale.1,
            };
            let src: Vec<f32> = draws
                .iter()
                .map(|&(bits, v)| if bits % 4 == 0 { f32::from_bits(bits) } else { v })
                .collect();
            let mut dst = vec![0i8; src.len()];
            quantize_llrs(&src, &mut dst, scale);
            prop_assert_eq!(dst, tests::quantize_reference(&src, scale));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The AVX2 and scalar-i8 paths are bit-exact over random LLRs,
        /// for every (base graph, Z) pair used by the benches: identical
        /// hard decisions, syndrome outcomes, and full posterior/message
        /// state.
        #[test]
        fn avx2_and_scalar_paths_are_bit_exact(
            seed in any::<u64>(),
            which in 0usize..BENCH_ZS.len(),
            iters in 1usize..6,
        ) {
            let (bg, z) = BENCH_ZS[which];
            let mut dec_s = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
            let mut dec_v = DecoderI8::with_tier(bg, z, SimdTier::detect());
            let mut state = seed | 1;
            let llr: Vec<i8> = (0..dec_s.codeword_len()).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFF) as u8 as i8
            }).collect();
            let cfg = DecodeConfigI8 {
                max_iters: iters,
                early_termination: false,
                ..Default::default()
            };
            let rs = dec_s.decode(&llr, &cfg);
            let rv = dec_v.decode(&llr, &cfg);
            prop_assert_eq!(rs.info_bits, rv.info_bits);
            prop_assert_eq!(rs.success, rv.success);
            prop_assert_eq!(&dec_s.post, &dec_v.post);
            prop_assert_eq!(&dec_s.msgs, &dec_v.msgs);
        }

        /// Round-trip through quantisation: any payload encodes and
        /// decodes back through a clean channel at bench lifting sizes.
        #[test]
        fn encode_quantize_decode_roundtrip(
            seed in any::<u64>(),
            which in 0usize..BENCH_ZS.len(),
        ) {
            let (bg, z) = BENCH_ZS[which];
            let enc = crate::encoder::Encoder::new(bg, z);
            let mut dec = DecoderI8::new(bg, z);
            let mut state = seed | 1;
            let info: Vec<u8> = (0..enc.info_len()).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 1) as u8
            }).collect();
            let cw = enc.encode(&info);
            let f: Vec<f32> = cw.iter().enumerate().map(|(i, &b)| {
                if i < 2 * z { 0.0 } else if b == 0 { 6.0 } else { -6.0 }
            }).collect();
            let mut q = vec![0i8; f.len()];
            quantize_llrs(&f, &mut q, DEFAULT_LLR_SCALE);
            let res = dec.decode(&q, &DecodeConfigI8 { max_iters: 10, ..Default::default() });
            prop_assert!(res.success);
            prop_assert_eq!(res.info_bits, info);
        }
    }
}
