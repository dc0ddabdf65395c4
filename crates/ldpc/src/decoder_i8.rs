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
//! [`SimdTier`] runtime dispatch. The AVX-512 tier goes further where a
//! column is one zmm register or two: it never gathers. Each entry's
//! rotated slice is a byte permute (`vpermb`, or `vpermi2b` over a
//! register pair) of the column's posterior block, taken in pass 1 of
//! the lane passes and kept for pass 2, and the updated slice goes back
//! through the inverse permute, padding lanes zeroed, so no row scratch
//! is copied in or out. The early-termination syndrome rotates the same
//! way and reads the sign bits with `vpmovb2m`. At `Z <= 32` a column's
//! zmm register holds two code blocks, lanes 0–31 and 32–63 (`zlane`'s
//! slots): [`DecoderI8::decode_pair_into`] decodes two blocks in the
//! passes one would take, each leaving at its own iteration, and a lone
//! block runs with the second slot all zero.
//!
//! They are **bit-exact** against each other by construction: every
//! vector instruction used has an exact scalar counterpart (saturating i8
//! add/sub, `max`, `abs`, compare/blend), and the proptests assert
//! equality across base graphs and lifting sizes. LLR values are confined
//! to `[-127, 127]`: -128 is clamped away after every saturating op so
//! `abs` and negation can never overflow.

use crate::base_graph::BaseGraphId;
use crate::decoder::DecodeResult;
use crate::zlane::{decode_layered, Edge, Lifted, Plane, Schedule, State};
use agora_math::simd::SimdTier;

/// Largest representable quantised LLR magnitude. The domain is the
/// symmetric `[-127, 127]`; -128 is never produced.
pub const I8_LLR_MAX: i8 = 127;

/// `f32 -> i8` quantisation scale for synthetic LLRs (integer steps per
/// LLR unit: `llr_i8 = round(llr_f32 * scale)`): what the decoder's own
/// tests, `tests/decoder_cases.rs`, the figure bins and the benchmark's decoder leaf
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
    /// Posterior LLRs, `[col][stride]`.
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
    /// The clamp is two saturating round trips, each saturating exactly
    /// past one bound: baseline x86-64 (SSE2) has saturating byte adds,
    /// not signed byte `min`/`max`.
    #[inline]
    fn prior(v: i8) -> i8 {
        const UP: i8 = I8_LLR_MAX - I8_CHAN_MAX;
        const DOWN: i8 = UP + 1;
        v.saturating_add(UP).saturating_sub(UP).saturating_sub(DOWN).saturating_add(DOWN)
    }

    /// On x86-64: 16 lanes at a time from the start of each column's
    /// slot, clamped by SSE2 saturating adds ([`Self::prior`]'s); the
    /// last chunk of a column reads on into the next column's lanes and
    /// masks them to the padding's zero. Columns whose last chunk would
    /// read past the end of `llr` go lane by lane.
    fn priors(g: &Lifted, llr: &[i8], post: &mut [i8], slot: usize) {
        let (z, stride, lane0) = (g.z(), g.stride(), slot * g.slot_stride());
        let (chunks, cols) = (z.div_ceil(16), llr.len() / z);
        assert!(
            llr.len() == g.codeword_len()
                && post.len() == cols * stride
                && slot < g.slots()
                && chunks * 16 <= g.slot_stride()
        );
        // Columns `c` with `c * z + chunks * 16 <= llr.len()`.
        let fast = match cfg!(target_arch = "x86_64") {
            true => ((llr.len() + z).saturating_sub(chunks * 16) / z).min(cols),
            false => 0,
        };
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::*;
            let last = (chunks - 1) * 16;
            let keep: [i8; 16] = core::array::from_fn(|l| -((last + l < z) as i8));
            const UP: i8 = I8_LLR_MAX - I8_CHAN_MAX;
            // SAFETY: SSE2 is part of the x86-64 baseline. Column `c <
            // fast` reads `llr[c * z..c * z + chunks * 16]` and writes
            // `chunks * 16` bytes of `post` from `c * stride + lane0`, both
            // in bounds by the definition of `fast` and the assertion.
            unsafe {
                let keep = _mm_loadu_si128(keep.as_ptr().cast());
                let (up, down) = (_mm_set1_epi8(UP), _mm_set1_epi8(UP + 1));
                for c in 0..fast {
                    let src = llr.as_ptr().add(c * z);
                    let dst = post.as_mut_ptr().add(c * stride + lane0);
                    let clamped = |k: usize| {
                        let v = _mm_loadu_si128(src.add(16 * k).cast());
                        let v = _mm_subs_epi8(_mm_adds_epi8(v, up), up);
                        _mm_adds_epi8(_mm_subs_epi8(v, down), down)
                    };
                    for k in 0..chunks - 1 {
                        _mm_storeu_si128(dst.add(16 * k).cast(), clamped(k));
                    }
                    _mm_storeu_si128(
                        dst.add(last).cast(),
                        _mm_and_si128(clamped(chunks - 1), keep),
                    );
                }
            }
        }
        for (p, l) in post.chunks_exact_mut(stride).zip(llr.chunks_exact(z)).skip(fast) {
            for (p, &l) in p[lane0..].iter_mut().zip(l) {
                *p = Self::prior(l);
            }
        }
    }

    fn row_update(tier: SimdTier, t: &mut [i8], msgs: &mut [i8], stride: usize, offset: i8) {
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

    fn fused_row(g: &Lifted, post: &mut [i8], msgs: &mut [i8], edges: &[Edge], offset: i8) -> bool {
        #[cfg(target_arch = "x86_64")]
        if zmm_body(g) {
            assert!(
                post.len() == g.post_len()
                    && msgs.len() == edges.len() * g.stride()
                    && edges.len() <= MAX_DEGREE
            );
            let (post, msgs) = (post.as_mut_ptr(), msgs.as_mut_ptr());
            let (z, slot) = (g.z(), g.slot_stride());
            // SAFETY: `Lifted::new` admits the tier only on a CPU that has
            // it; the lifted graph's columns are the posterior plane's, so
            // every entry's block lies in `post`, and `msgs` holds the
            // row's entries, as asserted. Posterior padding is zero
            // (`zlane`'s padding rule).
            unsafe {
                match g.stride() {
                    64 => fused_row_zmm_avx512::<1>(post, msgs, edges, z, slot, offset),
                    _ => fused_row_zmm_avx512::<2>(post, msgs, edges, z, slot, offset),
                }
            }
            return true;
        }
        let _ = (g, post, msgs, edges, offset);
        false
    }

    /// On the AVX-512 tier at strides 64 and 128, the entries' rotated
    /// sign bits straight from the blocks ([`syndrome_zmm_avx512`]), both
    /// slots of a pair at once. Otherwise, for `Z <= 128` on every tier:
    /// a column's hard decisions are the sign bits of its posterior
    /// block, one SSE2 `pmovmskb` per 16 lanes into a `u128`, packed when
    /// a row first reads the column, and an entry's rotated slice is that
    /// word rotated right by the shift within `Z` bits — no byte plane,
    /// no slice copies.
    fn packed_syndrome(g: &Lifted, post: &[i8], rows: usize, pending: u8) -> Option<u8> {
        #[cfg(target_arch = "x86_64")]
        if zmm_body(g) {
            assert!(post.len() == g.post_len() && rows <= g.active_rows(None));
            // SAFETY: as in `fused_row`: the tier is the CPU's, every
            // entry's block lies in `post`, and its padding is zero.
            return Some(unsafe {
                match g.stride() {
                    64 => syndrome_zmm_avx512::<1>(g, post.as_ptr(), rows, pending),
                    _ => syndrome_zmm_avx512::<2>(g, post.as_ptr(), rows, pending),
                }
            });
        }
        #[cfg(target_arch = "x86_64")]
        if g.stride() <= 128 {
            use core::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_movemask_epi8};
            let (z, stride) = (g.z(), g.stride());
            // BG1's column count, the larger graph's; bit `c` of `packed`
            // is set once `signs[c]` holds column `c`.
            let (mut signs, mut packed) = ([0u128; 68], 0u128);
            let mut word = |c: usize| {
                if packed >> c & 1 == 0 {
                    let block = &post[c * stride..][..z.div_ceil(16) * 16];
                    signs[c] = block.chunks_exact(16).rev().fold(0, |word, lanes| {
                        // SAFETY: SSE2 is part of the x86-64 baseline, and
                        // the load reads the 16 bytes of `lanes`.
                        let m = unsafe {
                            _mm_movemask_epi8(_mm_loadu_si128(lanes.as_ptr().cast::<__m128i>()))
                        };
                        word << 16 | m as u16 as u128
                    });
                    packed |= 1 << c;
                }
                signs[c]
            };
            let z = z as u32;
            // Padding lanes are zero, so only the rotation brings in bits
            // past `z`.
            let lanes = u128::MAX >> (128 - z);
            let ok = (0..rows).all(|r| {
                let parity = g.row_edges(r).iter().fold(0, |parity, e| {
                    let (word, shift) = (word(e.col as usize), e.shift as u32);
                    parity ^ ((word >> shift) | word.wrapping_shl(z - shift))
                });
                parity & lanes == 0
            });
            return Some(pending & !ok as u8);
        }
        let _ = (g, post, rows, pending);
        None
    }
}

impl I8Plane {
    /// Code blocks a column holds: two on the AVX-512 tier at `Z <= 32`,
    /// where a pair fills the zmm register one block would leave 32 or
    /// more lanes of; one otherwise.
    fn slots(z: usize, tier: SimdTier) -> usize {
        match cfg!(target_arch = "x86_64") && tier >= SimdTier::Avx512 && z <= 32 {
            true => 2,
            false => 1,
        }
    }
}

/// Does `g` run the AVX-512 bodies: its tier, and a stride of one zmm
/// register (a pair of `Z <= 32` blocks, or one block of `Z <= 64`) or
/// two?
#[cfg(target_arch = "x86_64")]
fn zmm_body(g: &Lifted) -> bool {
    g.tier() >= SimdTier::Avx512 && matches!(g.stride(), 64 | 128)
}

/// The widest base row of either graph, which the AVX-512 body keeps a
/// row's extrinsics for; [`DecoderI8::with_tier`] asserts it.
const MAX_DEGREE: usize = 20;

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

/// Byte `i` is `i`: the lane numbers of a two-register block.
#[cfg(target_arch = "x86_64")]
static LANE_IDS: [u8; 128] = {
    let mut ids = [0; 128];
    let mut i = 0;
    while i < 128 {
        ids[i] = i as u8;
        i += 1;
    }
    ids
};

/// The AVX-512 instructions of the zmm bodies, under short names.
#[cfg(target_arch = "x86_64")]
mod zmm {
    pub(super) use core::arch::x86_64::{
        __m512i as Reg, _mm512_abs_epi8 as abs, _mm512_add_epi8 as add, _mm512_adds_epi8 as adds,
        _mm512_and_si512 as and, _mm512_cmpeq_epi8_mask as eq, _mm512_cmplt_epi8_mask as lt,
        _mm512_cmplt_epu8_mask as lt_u, _mm512_loadu_epi8 as load, _mm512_mask_blend_epi8 as blend,
        _mm512_mask_sub_epi8 as mask_sub, _mm512_max_epi8 as max, _mm512_min_epi8 as min,
        _mm512_min_epu8 as min_u, _mm512_movepi8_mask as sign,
        _mm512_permutex2var_epi8 as permute2, _mm512_permutexvar_epi8 as permute,
        _mm512_set1_epi8 as splat, _mm512_setzero_si512 as zero, _mm512_storeu_epi8 as store,
        _mm512_sub_epi8 as sub, _mm512_subs_epi8 as subs,
    };
    pub(super) const WIDTH: usize = 64;
}

/// The rotations of a column block of `N` zmm registers whose slots,
/// `slot` lanes each, hold one `Z`-lane block apiece: lane `j < z` of a
/// slot, at `base + j`, reads lane `base + (j + shift) % z` of the block,
/// and the slots' padding lanes read themselves. One index vector serves
/// every slot, since they share `(BG, Z)`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Rotations<const N: usize> {
    /// Lane `i` is `i`.
    ids: [zmm::Reg; N],
    /// A lane's place in its slot.
    within: [zmm::Reg; N],
    /// The first lane of a lane's slot.
    base: [zmm::Reg; N],
    /// The lanes below `z` of every slot; the rest are padding.
    real: [u64; N],
    z: zmm::Reg,
}

#[cfg(target_arch = "x86_64")]
impl<const N: usize> Rotations<N> {
    /// # Safety
    /// The CPU must support AVX-512 F and BW; `slot` is a power of two
    /// from 32 to `64 * N`, and `z <= slot`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn new(z: usize, slot: usize) -> Self {
        use zmm::*;
        let (vz, keep) = (splat(z as u8 as i8), splat((slot - 1) as u8 as i8));
        let (mut ids, mut within, mut base, mut real) =
            ([zero(); N], [zero(); N], [zero(); N], [0; N]);
        for h in 0..N {
            ids[h] = load(LANE_IDS.as_ptr().add(WIDTH * h).cast());
            within[h] = and(ids[h], keep);
            base[h] = sub(ids[h], within[h]);
            real[h] = lt_u(within[h], vz);
        }
        Self { ids, within, base, real, z: vz }
    }

    /// The index vectors of a rotation by `shift <= z`. `within + shift <
    /// 2 * z <= 256`, so no byte sum wraps, and `sum - z` wraps to above
    /// `sum` exactly when `sum < z`.
    ///
    /// # Safety
    /// As [`Self::new`].
    #[allow(clippy::needless_range_loop)]
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn index(&self, shift: usize) -> [zmm::Reg; N] {
        use zmm::*;
        let mut idx = [zero(); N];
        for h in 0..N {
            let sum = add(self.within[h], splat(shift as u8 as i8));
            let wrapped = add(self.base[h], min_u(sum, sub(sum, self.z)));
            idx[h] = blend(self.real[h], self.ids[h], wrapped);
        }
        idx
    }

    /// One register of the block `v` rotated by `idx`: `vpermb`, or
    /// `vpermi2b` over a register pair.
    ///
    /// # Safety
    /// The CPU must support AVX-512 F, BW and VBMI.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn apply(idx: zmm::Reg, v: &[zmm::Reg; N]) -> zmm::Reg {
        use zmm::*;
        if N == 1 {
            permute(idx, v[0])
        } else {
            permute2(v[0], idx, v[N - 1])
        }
    }
}

/// The AVX-512 tier's fused row for a stride of `64 * N` lanes, `N` zmm
/// registers to a column block, whose slots of `slot` lanes hold one code
/// block each: [`I8Plane::row_update`] between the gather and scatter of
/// `zlane`'s layered row, with both rotations done in registers
/// ([`Rotations`]). Pass 1 reads blocks and messages, keeps the lane state
/// in registers — the two minima and the position of the smallest in
/// vectors, the sign parity in a mask register — and keeps each entry's
/// extrinsics; pass 2 stores the new message from them and writes the
/// updated slice back through the inverse rotation, padding zeroed. The
/// lane arithmetic is [`row_update_avx2`]'s, instruction for instruction,
/// with mask-register compares and blends, so the bits are the scalar
/// tier's. Every load and store is a whole, unmasked register, so a block
/// one row stores is forwarded to the next row's load.
///
/// # Safety
/// The CPU must support AVX-512 F, BW, VL and VBMI; `slot` is a power of
/// two from 32 to `64 * N` and `z <= slot`; `post` holds every entry's
/// column block, `col * 64 * N` on, its padding lanes zero, and `msgs` one
/// `64 * N`-byte run per entry, of at most [`MAX_DEGREE`] entries. The
/// entries have distinct columns.
#[allow(clippy::needless_range_loop)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
unsafe fn fused_row_zmm_avx512<const N: usize>(
    post: *mut i8,
    msgs: *mut i8,
    edges: &[Edge],
    z: usize,
    slot: usize,
    offset: i8,
) {
    use core::mem::MaybeUninit;
    use zmm::*;
    let stride = N * WIDTH;
    let rot = Rotations::<N>::new(z, slot);
    let floor = splat(-I8_LLR_MAX);
    // Each entry's extrinsics `max(rotated - msgs, -127)`, written in
    // pass 1 before pass 2 reads them.
    let mut ext = [const { MaybeUninit::<[Reg; N]>::uninit() }; MAX_DEGREE];
    let mut min1 = [splat(I8_LLR_MAX); N];
    let mut min2 = min1;
    let mut min_pos = [splat(-1); N];
    // Bit set in lanes with an odd number of negative extrinsics.
    let mut negative = [0; N];
    for (k, e) in edges.iter().enumerate() {
        let block = post.add(e.col as usize * stride);
        let mut b = [zero(); N];
        for h in 0..N {
            b[h] = load(block.add(WIDTH * h));
        }
        let idx = rot.index(e.shift as usize);
        let mut v = [zero(); N];
        for h in 0..N {
            let m = load(msgs.add(k * stride + WIDTH * h));
            v[h] = max(subs(Rotations::apply(idx[h], &b), m), floor);
            let a = abs(v[h]);
            let lt1 = lt(a, min1[h]);
            min2[h] = blend(lt1, min(min2[h], a), min1[h]);
            min1[h] = min(min1[h], a);
            min_pos[h] = blend(lt1, min_pos[h], splat(k as i8));
            negative[h] ^= sign(v[h]);
        }
        ext[k].write(v);
    }
    let (off, msg_max) = (splat(offset), splat(I8_MSG_MAX));
    let clip = |m| min(max(subs(m, off), zero()), msg_max);
    let (m1, m2) = (min1.map(clip), min2.map(clip));
    for (k, e) in edges.iter().enumerate() {
        let v = ext[k].assume_init();
        let mut t = [zero(); N];
        for h in 0..N {
            let mag = blend(eq(min_pos[h], splat(k as i8)), m1[h], m2[h]);
            let msg = mask_sub(mag, negative[h] ^ sign(v[h]), zero(), mag);
            store(msgs.add(k * stride + WIDTH * h), msg);
            t[h] = max(adds(v[h], msg), floor);
        }
        let block = post.add(e.col as usize * stride);
        let back = rot.index(z - e.shift as usize);
        for h in 0..N {
            store(block.add(WIDTH * h), blend(rot.real[h], zero(), Rotations::apply(back[h], &t)));
        }
    }
}

/// The AVX-512 tier's syndrome, for the layouts [`fused_row_zmm_avx512`]
/// runs: per active row, each entry's column block rotated by its shift
/// ([`Rotations`]) and its sign bits (`vpmovb2m`) XORed into one `u64` per
/// register. A slot fails on the first row whose XOR has a bit in one of
/// its real lanes; the pass stops once every slot of `pending` has failed,
/// and returns the failing ones among them.
///
/// # Safety
/// As [`fused_row_zmm_avx512`], for `g`'s layout, with `post` the whole
/// posterior plane and `rows` at most `g`'s base rows.
#[allow(clippy::needless_range_loop)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
unsafe fn syndrome_zmm_avx512<const N: usize>(
    g: &Lifted,
    post: *const i8,
    rows: usize,
    pending: u8,
) -> u8 {
    use zmm::*;
    let (stride, slot) = (N * WIDTH, g.slot_stride());
    let rot = Rotations::<N>::new(g.z(), slot);
    let lanes = u128::MAX >> (128 - slot);
    let mut failing = 0;
    for r in 0..rows {
        let mut parity = [0u64; N];
        for e in g.row_edges(r) {
            let block = post.add(e.col as usize * stride);
            let mut b = [zero(); N];
            for h in 0..N {
                b[h] = load(block.add(WIDTH * h));
            }
            let idx = rot.index(e.shift as usize);
            for h in 0..N {
                parity[h] ^= sign(Rotations::apply(idx[h], &b));
            }
        }
        let set =
            (0..N).fold(0u128, |set, h| set | ((parity[h] & rot.real[h]) as u128) << (64 * h));
        if set != 0 {
            for s in 0..g.slots() {
                if set >> (s * slot) & lanes != 0 {
                    failing |= 1 << s;
                }
            }
            if failing & pending == pending {
                break;
            }
        }
    }
    failing & pending
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
        let g = Lifted::new(id, z, I8Plane::LANES, I8Plane::slots(z, tier), tier);
        assert!(g.max_degree() <= MAX_DEGREE, "a base row is wider than MAX_DEGREE");
        Self {
            msgs: vec![0; g.msgs_len()],
            post: vec![0; g.post_len()],
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

    /// Does a decoder of lifting size `z` on `tier` decode two blocks in
    /// one pass ([`Self::decode_pair_into`])? On the AVX-512 tier at `Z
    /// <= 32` it does; elsewhere a pair is two decodes.
    pub fn packs_pairs(z: usize, tier: SimdTier) -> bool {
        I8Plane::slots(z, tier) == 2
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
        let [result] = self.decode_blocks([llr], cfg, [info_bits]);
        result
    }

    /// Two [`Self::decode_into`] calls, of block `llr[b]` into `out[b]`,
    /// with the same results bit for bit. Where the decoder packs pairs
    /// ([`Self::packs_pairs`]) both blocks share one pass over the rows,
    /// each leaving it when its own syndrome passes.
    ///
    /// # Panics
    /// Panics if a block or output has the wrong length.
    pub fn decode_pair_into(
        &mut self,
        llr: [&[i8]; 2],
        cfg: &DecodeConfigI8,
        out: [&mut [u8]; 2],
    ) -> [(bool, usize); 2] {
        if self.g.slots() == 2 {
            return self.decode_blocks(llr, cfg, out);
        }
        let [a, b] = out;
        [self.decode_into(llr[0], cfg, a), self.decode_into(llr[1], cfg, b)]
    }

    /// The layered decode of `B` blocks, block `b` in slot `b`.
    fn decode_blocks<const B: usize>(
        &mut self,
        llr: [&[i8]; B],
        cfg: &DecodeConfigI8,
        out: [&mut [u8]; B],
    ) -> [(bool, usize); B] {
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
        decode_layered::<I8Plane, B>(&self.g, &mut st, llr, cfg.offset, sched, out)
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

    /// The saturating prior is `clamp` on every byte.
    #[test]
    fn prior_clamps_every_value() {
        for v in i8::MIN..=i8::MAX {
            assert_eq!(I8Plane::prior(v), v.clamp(-I8_CHAN_MAX, I8_CHAN_MAX), "{v}");
        }
    }

    /// The vector priors put each column's clamped LLRs at the start of
    /// its block and leave the padding zero, for lifting sizes below,
    /// at and past one and two 16-lane chunks and at a stride's end.
    #[test]
    fn priors_fill_the_blocks() {
        for bg in [BaseGraphId::Bg1, BaseGraphId::Bg2] {
            for z in [2, 7, 12, 15, 16, 17, 32, 33, 104, 128, 200, 384] {
                for (slots, slot) in [(1, 0), (2, 0), (2, 1)] {
                    let g = Lifted::new(bg, z, I8Plane::LANES, slots, SimdTier::Scalar);
                    let llr: Vec<i8> =
                        (0..g.codeword_len()).map(|i| (i * 89 % 256) as u8 as i8).collect();
                    let mut post = vec![0i8; g.post_len()];
                    I8Plane::priors(&g, &llr, &mut post, slot);
                    let (lane0, what) =
                        (slot * g.slot_stride(), format!("{bg:?} z={z} slot {slot}"));
                    for (c, column) in post.chunks_exact(g.stride()).enumerate() {
                        let want = llr[c * z..(c + 1) * z].iter().map(|&v| I8Plane::prior(v));
                        let (before, block) = column.split_at(lane0);
                        assert!(block[..z].iter().copied().eq(want), "{what} column {c}");
                        let rest = before.iter().chain(&block[z..]);
                        assert!(rest.copied().all(|p| p == 0), "{what} padding of {c}");
                    }
                }
            }
        }
    }

    /// Slot 0 of one of `dec`'s `[col][stride]` planes, its other slots
    /// asserted zero: a lone block's state, comparable across layouts.
    pub(super) fn lone_block(dec: &DecoderI8, plane: &[i8]) -> Vec<i8> {
        let slot = dec.g.slot_stride();
        let columns = plane.chunks_exact(dec.g.stride());
        columns
            .flat_map(|c| {
                assert!(c[slot..].iter().all(|&v| v == 0), "a slot past the block is not zero");
                c[..slot].to_vec()
            })
            .collect()
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Lifting sizes the benches exercise: the paper's Z = 104/384 (BG1
    /// Figure 12 points), the OTA Z = 56 (BG2), the tiny-test Z = 12, and
    /// boundary shapes around the 32-lane vector width. On both base
    /// graphs they cover every stride the AVX-512 body takes — 32, 64 and
    /// 128 (one register or two) — and strides 96 and above 128, which
    /// run the AVX2 body on that tier.
    const BENCH_ZS: [(BaseGraphId, usize); 12] = [
        (BaseGraphId::Bg1, 104),
        (BaseGraphId::Bg1, 384),
        (BaseGraphId::Bg1, 64),
        (BaseGraphId::Bg1, 96),
        (BaseGraphId::Bg2, 56),
        (BaseGraphId::Bg2, 12),
        (BaseGraphId::Bg2, 32),
        (BaseGraphId::Bg2, 36),
        (BaseGraphId::Bg2, 72),
        (BaseGraphId::Bg2, 104),
        (BaseGraphId::Bg2, 208),
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
        /// The syndrome bodies without the byte plane — the packed signs
        /// (`Z <= 128`) of every tier, and on AVX-512 the zmm body in the
        /// layout that tier decodes `Z` in, a pair of blocks at `Z <= 32`
        /// — against the parity checks evaluated lane by lane, on valid
        /// codewords, single flipped bits and noise, with a full word (Z =
        /// 128) and shifts of 0.
        #[test]
        fn packed_syndrome_matches_the_parity_checks(
            seed in any::<u64>(),
            which in 0usize..8,
            rows_idx in 0usize..3,
            flip_at in any::<u32>(),
            flip in 0u8..4,
            noise in 0u8..4,
        ) {
            let (bg, z) = [
                (BaseGraphId::Bg1, 104), (BaseGraphId::Bg1, 128), (BaseGraphId::Bg1, 64),
                (BaseGraphId::Bg1, 2), (BaseGraphId::Bg2, 12), (BaseGraphId::Bg2, 96),
                (BaseGraphId::Bg2, 33), (BaseGraphId::Bg2, 7),
            ][which];
            let graph = crate::base_graph::BaseGraph::get(bg);
            let rows = [4, graph.rows() / 2, graph.rows()][rows_idx];
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let enc = crate::encoder::Encoder::new(bg, z);
            // Two blocks: the first checked alone, both in a pair.
            let blocks: Vec<Vec<u8>> = (0..2).map(|b| {
                let mut bits = if noise >> b & 1 == 1 {
                    (0..graph.cols() * z).map(|_| (next() & 1) as u8).collect()
                } else {
                    enc.encode(&(0..enc.info_len()).map(|_| (next() & 1) as u8).collect::<Vec<_>>())
                };
                if flip >> b & 1 == 1 {
                    let at = (flip_at as usize >> (8 * b)) % bits.len();
                    bits[at] ^= 1;
                }
                bits
            }).collect();
            let fails: Vec<u8> = blocks.iter().map(|bits| {
                let ok = (0..rows).all(|r| {
                    (0..z).all(|i| {
                        graph.row_entries(r).iter().fold(0, |p, e| {
                            p ^ bits[e.col as usize * z + (i + e.shift as usize % z) % z]
                        }) == 0
                    })
                });
                !ok as u8
            }).collect();
            let mut layouts = vec![SimdTier::Scalar];
            layouts.extend(SimdTier::supported().filter(|&t| t >= SimdTier::Avx512));
            for tier in layouts {
                let g = Lifted::new(bg, z, I8Plane::LANES, I8Plane::slots(z, tier), tier);
                let mut post = vec![0i8; g.post_len()];
                for (slot, bits) in blocks.iter().enumerate().take(g.slots()) {
                    for (i, &b) in bits.iter().enumerate() {
                        let v = if b == 1 { -(1 + (next() % 127) as i8) } else { (next() % 128) as i8 };
                        post[i / z * g.stride() + slot * g.slot_stride() + i % z] = v;
                    }
                }
                let both = (0..g.slots()).fold(0, |m, s| m | fails[s] << s);
                let all = (1u8 << g.slots()) - 1;
                prop_assert_eq!(I8Plane::packed_syndrome(&g, &post, rows, all), Some(both), "{:?}", tier);
                prop_assert_eq!(I8Plane::packed_syndrome(&g, &post, rows, 1), Some(fails[0]), "{:?}", tier);
            }
            for (b, &fail) in fails.iter().enumerate() {
                if (noise | flip) >> b & 1 == 0 {
                    prop_assert!(fail == 0, "a codeword satisfies every check");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every vector tier is bit-exact with the scalar one over random
        /// LLRs, for every (base graph, Z) pair used by the benches:
        /// identical hard decisions, syndrome outcomes, and full
        /// posterior/message state.
        #[test]
        fn vector_and_scalar_paths_are_bit_exact(
            seed in any::<u64>(),
            which in 0usize..BENCH_ZS.len(),
            iters in 1usize..6,
        ) {
            let (bg, z) = BENCH_ZS[which];
            let mut dec_s = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
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
            for tier in SimdTier::supported().skip(1) {
                let mut dec_v = DecoderI8::with_tier(bg, z, tier);
                let rv = dec_v.decode(&llr, &cfg);
                prop_assert_eq!(&rs.info_bits, &rv.info_bits, "{:?}", tier);
                prop_assert_eq!(rs.success, rv.success, "{:?}", tier);
                prop_assert_eq!(&dec_s.post, &tests::lone_block(&dec_v, &dec_v.post), "{:?}", tier);
                prop_assert_eq!(&dec_s.msgs, &tests::lone_block(&dec_v, &dec_v.msgs), "{:?}", tier);
            }
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

    /// A block of `(bg, z)`'s code: a random codeword's LLRs, magnitudes
    /// 1 to 24 and the punctured columns zero, with `flips` signs turned
    /// wrong — or, with `random`, arbitrary bytes.
    fn block(bg: BaseGraphId, z: usize, seed: u64, flips: usize, random: bool) -> Vec<i8> {
        let enc = crate::encoder::Encoder::new(bg, z);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let info: Vec<u8> = (0..enc.info_len()).map(|_| (next() & 1) as u8).collect();
        let mut llr: Vec<i8> = enc
            .encode(&info)
            .iter()
            .enumerate()
            .map(|(i, &b)| match (random, i < 2 * z) {
                (true, _) => next() as u8 as i8,
                (false, true) => 0,
                (false, false) => (1 + next() % 24) as i8 * if b == 0 { 1 } else { -1 },
            })
            .collect();
        for _ in 0..flips {
            let at = 2 * z + next() as usize % (llr.len() - 2 * z);
            llr[at] = llr[at].saturating_neg();
        }
        llr
    }

    /// `decode_pair_into` on every tier against two `decode_into` calls
    /// on the scalar tier: bits, success and iterations of each block.
    fn assert_pair_is_two_singles(
        bg: BaseGraphId,
        z: usize,
        pair: [&[i8]; 2],
        cfg: &DecodeConfigI8,
    ) -> Result<[(bool, usize); 2], TestCaseError> {
        let mut single = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
        let n = single.info_len();
        let mut want = [vec![0u8; n], vec![0u8; n]];
        let [wa, wb] = &mut want;
        let results = [single.decode_into(pair[0], cfg, wa), single.decode_into(pair[1], cfg, wb)];
        for tier in SimdTier::supported() {
            let mut dec = DecoderI8::with_tier(bg, z, tier);
            let mut got = [vec![0xAAu8; n], vec![0x55u8; n]];
            let [ga, gb] = &mut got;
            let pair_results = dec.decode_pair_into(pair, cfg, [ga, gb]);
            prop_assert_eq!(pair_results, results, "{:?} {:?} z={}", tier, bg, z);
            prop_assert_eq!(&got, &want, "{:?} {:?} z={}", tier, bg, z);
        }
        Ok(results)
    }

    /// A pair whose blocks leave the loop at different iterations — a
    /// clean codeword after one, a noisy one later or never — decodes
    /// each as alone, with early exit on and off.
    #[test]
    fn pair_blocks_leave_on_their_own_iteration() {
        for (bg, z) in [(BaseGraphId::Bg2, 12), (BaseGraphId::Bg1, 30), (BaseGraphId::Bg2, 2)] {
            let (clean, noisy) = (block(bg, z, 7, 0, false), block(bg, z, 8, 3 * z, false));
            for early_termination in [true, false] {
                let cfg = DecodeConfigI8 { max_iters: 8, early_termination, ..Default::default() };
                for pair in [[&clean[..], &noisy[..]], [&noisy[..], &clean[..]]] {
                    let [a, b] = assert_pair_is_two_singles(bg, z, pair, &cfg).unwrap();
                    if early_termination {
                        assert_ne!(a.1, b.1, "{bg:?} z={z}: the blocks exit apart");
                    }
                }
            }
        }
    }

    /// One decoder per tier, reused through pairs and lone blocks over
    /// all rows and a few: every decode equals a fresh scalar decoder's.
    /// A lone block runs beside what the last pair's second block left in
    /// the other slot — posteriors, and messages past the lone block's
    /// rows — and must read none of it.
    #[test]
    fn lone_blocks_after_pairs_decode_as_on_a_fresh_decoder() {
        let few = DecodeConfigI8 { max_iters: 3, active_rows: Some(5), ..Default::default() };
        let all = DecodeConfigI8 { max_iters: 3, ..Default::default() };
        for (bg, z) in [(BaseGraphId::Bg2, 12), (BaseGraphId::Bg1, 30), (BaseGraphId::Bg2, 2)] {
            let (a, b) = (block(bg, z, 3, 2 * z, false), block(bg, z, 4, z, true));
            let steps: [(&[&[i8]], &DecodeConfigI8); 6] = [
                (&[&a, &b], &all),
                (&[&a], &few),
                (&[&b], &all),
                (&[&b, &a], &few),
                (&[&a], &all),
                (&[&b], &all),
            ];
            let mut fresh = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
            let n = fresh.info_len();
            for tier in SimdTier::supported() {
                let mut dec = DecoderI8::with_tier(bg, z, tier);
                for (i, &(blocks, cfg)) in steps.iter().enumerate() {
                    let want: Vec<_> = blocks
                        .iter()
                        .map(|llr| {
                            let mut bits = vec![0u8; n];
                            (fresh.decode_into(llr, cfg, &mut bits), bits)
                        })
                        .collect();
                    let mut got = [vec![0xAAu8; n], vec![0x55u8; n]];
                    let [ga, gb] = &mut got;
                    let results = match blocks {
                        &[x, y] => dec.decode_pair_into([x, y], cfg, [ga, gb]).to_vec(),
                        _ => vec![dec.decode_into(blocks[0], cfg, ga)],
                    };
                    for (b, (result, bits)) in want.iter().enumerate() {
                        assert_eq!(results[b], *result, "{tier:?} {bg:?} z={z} step {i} block {b}");
                        assert!(got[b] == *bits, "{tier:?} {bg:?} z={z} step {i} block {b}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `decode_pair_into` equals two `decode_into` calls on every
        /// tier, for both graphs, Z from 2 to 32, `max_iters` 0 to 8,
        /// early exit on and off, all rows or a few, and blocks from clean
        /// codewords through noisy ones to random bytes, so the two
        /// blocks of a pair mostly exit at different iterations.
        #[test]
        fn pairs_decode_as_two_single_decodes(
            seed in any::<u64>(),
            bg1 in any::<bool>(),
            z in 2usize..33,
            max_iters in 0usize..9,
            early_termination in any::<bool>(),
            rows_kind in 0usize..3,
            flips in (0usize..64, 0usize..64),
            random in 0u8..4,
        ) {
            let bg = if bg1 { BaseGraphId::Bg1 } else { BaseGraphId::Bg2 };
            let rows = crate::base_graph::BaseGraph::get(bg).rows();
            let active_rows = [None, Some(4 + seed as usize % 8), Some(rows)][rows_kind];
            let cfg = DecodeConfigI8 { max_iters, early_termination, active_rows, ..Default::default() };
            let a = block(bg, z, seed, flips.0 * z / 16, random & 1 == 1);
            let b = block(bg, z, seed ^ 0x9E37, flips.1 * z / 16, random & 2 == 2);
            assert_pair_is_two_singles(bg, z, [&a, &b], &cfg)?;
        }
    }
}
