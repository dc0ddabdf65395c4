//! AVX2 butterfly kernels for [`crate::FftPlan`].
//!
//! One `__m256` holds four interleaved `Cf32` values (the same layout
//! trick `agora_math`'s transpose microkernels use), so every butterfly
//! stage with half-width `w >= 4` processes four butterflies per
//! load/store pair. Three structural optimisations on top of that:
//!
//! * the first two stages need no complex multiplies at all — their
//!   twiddles are `1` and `-i` — and are fused into a single in-register
//!   radix-4 kernel;
//! * subsequent stages run in *pairs*: a 4-vector working set carries the
//!   data of stage `s` straight into stage `s+1`, so the buffer is
//!   traversed once per two stages instead of once per stage (the
//!   traversal count, not the multiply count, is what bounds a radix-2
//!   FFT once it is vectorised);
//! * batched execution tiles the transforms into L1-sized groups and
//!   hoists each twiddle load over the whole tile, so independent
//!   per-antenna transforms share twiddle traffic without blowing the
//!   working set past the cache.
//!
//! Later stages read twiddles from the plan's pre-splatted layout
//! (`[re re ...]` / `[-im +im ...]`), so a complex multiply is two
//! multiplies, one in-lane swap, and one add with no broadcasts in the
//! inner loop.
//!
//! All entry points here are `unsafe` and require AVX2; the plan clamps
//! its dispatch tier to `SimdTier::detect()` so they are only reached on
//! capable hosts. The scalar path in `plan.rs` is the reference; the
//! tier-parity proptests there pin these kernels to it.

#![cfg(target_arch = "x86_64")]

use agora_math::Cf32;
use core::arch::x86_64::*;

/// Bytes of transform data a batch tile may occupy: small enough that a
/// tile plus its twiddles stays L1-resident, since every fused stage pair
/// traverses the whole tile.
const TILE_BYTES: usize = 16 * 1024;

/// Transforms per L1 tile for size-`n` transforms (at least one).
pub(crate) fn tile_transforms(n: usize) -> usize {
    (TILE_BYTES / (n * core::mem::size_of::<Cf32>()).max(1)).max(1)
}

/// Runs all butterfly stages over `data`, which holds `data.len() / n`
/// independent bit-reversed transforms of size `n` laid out back to back
/// — all but the first two, fused into [`radix4`], when `radix4_done`.
///
/// # Safety
/// Requires AVX2. `n` must be a power of two with `n >= 4`, `data.len()`
/// a multiple of `n`, and the twiddle arrays must come from the matching
/// [`crate::FftPlan`] (length `2 * (n - 4)` each).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn butterflies_avx2(
    data: &mut [Cf32],
    n: usize,
    tw_re_dup: &[f32],
    tw_im_alt: &[f32],
    radix4_done: bool,
) {
    debug_assert!(n >= 4 && n.is_power_of_two());
    debug_assert_eq!(data.len() % n, 0);
    let batch = data.len() / n;
    let tile = (TILE_BYTES / (n * core::mem::size_of::<Cf32>())).clamp(1, batch);
    let p = data.as_mut_ptr() as *mut f32;
    let mut t0 = 0usize;
    while t0 < batch {
        let tb = tile.min(batch - t0);
        butterflies_tile(p.add(t0 * 2 * n), n, tb, tw_re_dup, tw_im_alt, radix4_done);
        t0 += tb;
    }
}

/// All stages over one L1-resident tile of `tb` transforms.
///
/// # Safety
/// Requires AVX2; `p` must point at `tb * 2 * n` writable `f32`s.
#[target_feature(enable = "avx2")]
unsafe fn butterflies_tile(
    p: *mut f32,
    n: usize,
    tb: usize,
    tw_re: &[f32],
    tw_im: &[f32],
    radix4_done: bool,
) {
    // Stages 0+1 fused: radix-4 on each aligned group of four samples.
    for t in 0..tb * !radix4_done as usize {
        let base = t * 2 * n;
        for g4 in 0..n / 4 {
            let q = p.add(base + 8 * g4);
            _mm256_storeu_ps(q, radix4(_mm256_loadu_ps(q)));
        }
    }
    // Stages with half-widths 4, 8, ..., n/2, fused three (then two) at a
    // time so the tile is traversed once per fused group instead of once
    // per stage. The splatted arrays store stage `w` at float offset
    // `2 * (w - 4)`.
    let mut w = 4usize;
    while 4 * w <= n / 2 {
        stage_triple(p, n, tb, w, tw_re, tw_im);
        w *= 8;
    }
    if 2 * w <= n / 2 {
        stage_pair(p, n, tb, w, tw_re, tw_im);
        w *= 4;
    }
    if w <= n / 2 {
        stage_single(p, n, tb, w, tw_re, tw_im);
    }
}

/// Complex multiply of four interleaved values by four pre-splatted
/// twiddles: `[re*wr - im*wi, im*wr + re*wi]`.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn cmul(b: __m256, wr: __m256, wi: __m256) -> __m256 {
    let bs = _mm256_permute_ps(b, 0b1011_0001);
    _mm256_add_ps(_mm256_mul_ps(b, wr), _mm256_mul_ps(bs, wi))
}

/// One butterfly stage of half-width `w >= 4` over `tb` transforms, each
/// twiddle vector loaded once per butterfly block and reused across the
/// tile.
///
/// # Safety
/// Requires AVX2; `w` must satisfy `4 <= w <= n / 2`.
#[target_feature(enable = "avx2")]
unsafe fn stage_single(p: *mut f32, n: usize, tb: usize, w: usize, tw_re: &[f32], tw_im: &[f32]) {
    let off = 2 * (w - 4);
    let stride = 2 * w;
    let mut base = 0usize;
    while base < n {
        for jb in (0..w).step_by(4) {
            let wr = _mm256_loadu_ps(tw_re.as_ptr().add(off + 2 * jb));
            let wi = _mm256_loadu_ps(tw_im.as_ptr().add(off + 2 * jb));
            for t in 0..tb {
                let q = p.add(t * 2 * n + 2 * (base + jb));
                let a = _mm256_loadu_ps(q);
                let b = _mm256_loadu_ps(q.add(2 * w));
                let tv = cmul(b, wr, wi);
                _mm256_storeu_ps(q, _mm256_add_ps(a, tv));
                _mm256_storeu_ps(q.add(2 * w), _mm256_sub_ps(a, tv));
            }
        }
        base += stride;
    }
}

/// Two consecutive butterfly stages (`w`, then `2w`) fused into one
/// traversal: a block of four vectors is carried from stage `w`'s
/// butterflies straight into stage `2w`'s without touching memory in
/// between.
///
/// # Safety
/// Requires AVX2; requires `4 <= w` and `2 * w <= n / 2`.
#[target_feature(enable = "avx2")]
unsafe fn stage_pair(p: *mut f32, n: usize, tb: usize, w: usize, tw_re: &[f32], tw_im: &[f32]) {
    let off_s = 2 * (w - 4);
    let off_s1 = 2 * (2 * w - 4);
    let mut base = 0usize;
    while base < n {
        for jb in (0..w).step_by(4) {
            // Stage w twiddle j = jb; stage 2w twiddles j = jb and jb + w.
            let wsr = _mm256_loadu_ps(tw_re.as_ptr().add(off_s + 2 * jb));
            let wsi = _mm256_loadu_ps(tw_im.as_ptr().add(off_s + 2 * jb));
            let wt0r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s1 + 2 * jb));
            let wt0i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s1 + 2 * jb));
            let wt1r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s1 + 2 * (jb + w)));
            let wt1i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s1 + 2 * (jb + w)));
            for t in 0..tb {
                let q = p.add(t * 2 * n + 2 * (base + jb));
                let t0 = _mm256_loadu_ps(q);
                let t1 = _mm256_loadu_ps(q.add(2 * w));
                let t2 = _mm256_loadu_ps(q.add(4 * w));
                let t3 = _mm256_loadu_ps(q.add(6 * w));
                // Stage w: butterflies (t0, t1) and (t2, t3).
                let b1 = cmul(t1, wsr, wsi);
                let u0 = _mm256_add_ps(t0, b1);
                let u1 = _mm256_sub_ps(t0, b1);
                let b3 = cmul(t3, wsr, wsi);
                let u2 = _mm256_add_ps(t2, b3);
                let u3 = _mm256_sub_ps(t2, b3);
                // Stage 2w: butterflies (u0, u2) and (u1, u3).
                let c2 = cmul(u2, wt0r, wt0i);
                _mm256_storeu_ps(q, _mm256_add_ps(u0, c2));
                _mm256_storeu_ps(q.add(4 * w), _mm256_sub_ps(u0, c2));
                let c3 = cmul(u3, wt1r, wt1i);
                _mm256_storeu_ps(q.add(2 * w), _mm256_add_ps(u1, c3));
                _mm256_storeu_ps(q.add(6 * w), _mm256_sub_ps(u1, c3));
            }
        }
        base += 4 * w;
    }
}

/// Three consecutive butterfly stages (`w`, `2w`, `4w`) fused into one
/// traversal of each `8w`-sample block: eight vectors are carried through
/// all three stages in registers (the stage-`4w` twiddles spill, but those
/// reloads hit L1, unlike the tile re-traversals they replace).
///
/// # Safety
/// Requires AVX2; requires `4 <= w` and `4 * w <= n / 2`.
#[target_feature(enable = "avx2")]
unsafe fn stage_triple(p: *mut f32, n: usize, tb: usize, w: usize, tw_re: &[f32], tw_im: &[f32]) {
    let off_s = 2 * (w - 4);
    let off_s1 = 2 * (2 * w - 4);
    let off_s2 = 2 * (4 * w - 4);
    let mut base = 0usize;
    while base < n {
        for jb in (0..w).step_by(4) {
            // Stage w twiddle j = jb; stage 2w twiddles j = jb, jb + w;
            // stage 4w twiddles j = jb, jb + w, jb + 2w, jb + 3w.
            let wsr = _mm256_loadu_ps(tw_re.as_ptr().add(off_s + 2 * jb));
            let wsi = _mm256_loadu_ps(tw_im.as_ptr().add(off_s + 2 * jb));
            let wt0r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s1 + 2 * jb));
            let wt0i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s1 + 2 * jb));
            let wt1r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s1 + 2 * (jb + w)));
            let wt1i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s1 + 2 * (jb + w)));
            let wu0r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s2 + 2 * jb));
            let wu0i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s2 + 2 * jb));
            let wu1r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s2 + 2 * (jb + w)));
            let wu1i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s2 + 2 * (jb + w)));
            let wu2r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s2 + 2 * (jb + 2 * w)));
            let wu2i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s2 + 2 * (jb + 2 * w)));
            let wu3r = _mm256_loadu_ps(tw_re.as_ptr().add(off_s2 + 2 * (jb + 3 * w)));
            let wu3i = _mm256_loadu_ps(tw_im.as_ptr().add(off_s2 + 2 * (jb + 3 * w)));
            for t in 0..tb {
                let q = p.add(t * 2 * n + 2 * (base + jb));
                let t0 = _mm256_loadu_ps(q);
                let t1 = _mm256_loadu_ps(q.add(2 * w));
                let t2 = _mm256_loadu_ps(q.add(4 * w));
                let t3 = _mm256_loadu_ps(q.add(6 * w));
                let t4 = _mm256_loadu_ps(q.add(8 * w));
                let t5 = _mm256_loadu_ps(q.add(10 * w));
                let t6 = _mm256_loadu_ps(q.add(12 * w));
                let t7 = _mm256_loadu_ps(q.add(14 * w));
                // Stage w: (t0,t1) (t2,t3) (t4,t5) (t6,t7), all twiddle jb.
                let b1 = cmul(t1, wsr, wsi);
                let u0 = _mm256_add_ps(t0, b1);
                let u1 = _mm256_sub_ps(t0, b1);
                let b3 = cmul(t3, wsr, wsi);
                let u2 = _mm256_add_ps(t2, b3);
                let u3 = _mm256_sub_ps(t2, b3);
                let b5 = cmul(t5, wsr, wsi);
                let u4 = _mm256_add_ps(t4, b5);
                let u5 = _mm256_sub_ps(t4, b5);
                let b7 = cmul(t7, wsr, wsi);
                let u6 = _mm256_add_ps(t6, b7);
                let u7 = _mm256_sub_ps(t6, b7);
                // Stage 2w: (u0,u2) (u1,u3) and (u4,u6) (u5,u7).
                let c2 = cmul(u2, wt0r, wt0i);
                let v0 = _mm256_add_ps(u0, c2);
                let v2 = _mm256_sub_ps(u0, c2);
                let c3 = cmul(u3, wt1r, wt1i);
                let v1 = _mm256_add_ps(u1, c3);
                let v3 = _mm256_sub_ps(u1, c3);
                let c6 = cmul(u6, wt0r, wt0i);
                let v4 = _mm256_add_ps(u4, c6);
                let v6 = _mm256_sub_ps(u4, c6);
                let c7 = cmul(u7, wt1r, wt1i);
                let v5 = _mm256_add_ps(u5, c7);
                let v7 = _mm256_sub_ps(u5, c7);
                // Stage 4w: (v0,v4) (v1,v5) (v2,v6) (v3,v7).
                let d4 = cmul(v4, wu0r, wu0i);
                _mm256_storeu_ps(q, _mm256_add_ps(v0, d4));
                _mm256_storeu_ps(q.add(8 * w), _mm256_sub_ps(v0, d4));
                let d5 = cmul(v5, wu1r, wu1i);
                _mm256_storeu_ps(q.add(2 * w), _mm256_add_ps(v1, d5));
                _mm256_storeu_ps(q.add(10 * w), _mm256_sub_ps(v1, d5));
                let d6 = cmul(v6, wu2r, wu2i);
                _mm256_storeu_ps(q.add(4 * w), _mm256_add_ps(v2, d6));
                _mm256_storeu_ps(q.add(12 * w), _mm256_sub_ps(v2, d6));
                let d7 = cmul(v7, wu3r, wu3i);
                _mm256_storeu_ps(q.add(6 * w), _mm256_add_ps(v3, d7));
                _mm256_storeu_ps(q.add(14 * w), _mm256_sub_ps(v3, d7));
            }
        }
        base += 8 * w;
    }
}

/// Four-point DFT of four consecutive bit-reversed samples `v = [x0 x1
/// x2 x3]`, entirely in registers: stage 0 (twiddle `1`) then stage 1
/// (twiddles `1`, `-i`).
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn radix4(v: __m256) -> __m256 {
    // Stage 0: s = [x0+x1, x0-x1, x2+x3, x2-x3]. Complex values are f64
    // lanes, so pd-shuffles move whole (re, im) pairs.
    let vd = _mm256_castps_pd(v);
    let ve = _mm256_castpd_ps(_mm256_movedup_pd(vd)); // [x0 x0 x2 x2]
    let vo = _mm256_castpd_ps(_mm256_permute_pd(vd, 0b1111)); // [x1 x1 x3 x3]
    let neg_odd = _mm256_set_ps(-0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0);
    let s = _mm256_add_ps(ve, _mm256_xor_ps(vo, neg_odd));
    // Stage 1: out = [s0+s2, s1+t3, s0-s2, s1-t3] with t3 = s3 * -i =
    // (s3.im, -s3.re) — a swap and a sign flip, no multiply.
    let lo = _mm256_permute2f128_ps(s, s, 0x00); // [s0 s1 s0 s1]
    let hi = _mm256_permute2f128_ps(s, s, 0x11); // [s2 s3 s2 s3]
    let rot = _mm256_permute_ps(hi, 0b1011_0001); // (im, re) per value
    let neg_im13 = _mm256_set_ps(-0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0);
    let rot = _mm256_xor_ps(rot, neg_im13); // (im, -re) in slots 1 and 3
    let tv = _mm256_blend_ps(hi, rot, 0b1100_1100);
    let neg_hi = _mm256_set_ps(-0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0);
    _mm256_add_ps(lo, _mm256_xor_ps(tv, neg_hi))
}

/// The vector scatter of [`crate::FftPlan::forward_of_conj`], for
/// transforms of 32 points or more. With `r = n / 32`, natural-order
/// steps `s`, `s + 2r`, `s + r` and `s + 3r` (`s < r`) differ only in the
/// two top bits of their sample indices, which the bit reversal sends to
/// the two lowest: sample `k` of the four lands on four consecutive slots
/// from `bitrev[8s + k]`, a multiple of 4. A 4 x 4 transpose of the
/// eight-byte samples turns the four steps into eight such runs; each run
/// is one sign flip of the imaginary parts, then — it is exactly one
/// radix-4 group of the bit-reversed grid — the transform's first two
/// butterfly stages ([`radix4`]) in the same register, and one 32-byte
/// store through a checked slice of `out`.
///
/// # Safety
/// Requires AVX2; `bitrev` must be the bit-reversal permutation of
/// `out.len()` points, a power of two of at least 32.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scatter_conj_radix4_avx2<'a>(
    bitrev: &[u32],
    out: &mut [Cf32],
    step: impl Fn(usize) -> Option<&'a [Cf32; 8]>,
) {
    let r = out.len() / 32;
    let neg_im = _mm256_castps_pd(_mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0));
    for s in 0..r {
        // Row `j` of `rows[h]` holds samples 4h..4h + 4 of the j-th step.
        let mut rows = [[_mm256_setzero_pd(); 4]; 2];
        for (j, t) in [s, s + 2 * r, s + r, s + 3 * r].into_iter().enumerate() {
            if let Some(x) = step(t) {
                let p = x.as_ptr() as *const f64;
                (rows[0][j], rows[1][j]) = (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)));
            }
        }
        for (h, rows) in rows.iter().enumerate() {
            let t0 = _mm256_unpacklo_pd(rows[0], rows[1]);
            let t1 = _mm256_unpackhi_pd(rows[0], rows[1]);
            let t2 = _mm256_unpacklo_pd(rows[2], rows[3]);
            let t3 = _mm256_unpackhi_pd(rows[2], rows[3]);
            let columns = [
                _mm256_permute2f128_pd::<0x20>(t0, t2),
                _mm256_permute2f128_pd::<0x20>(t1, t3),
                _mm256_permute2f128_pd::<0x31>(t0, t2),
                _mm256_permute2f128_pd::<0x31>(t1, t3),
            ];
            for (k, column) in (4 * h..).zip(columns) {
                let at = bitrev[8 * s + k] as usize;
                let run = &mut out[at..at + 4];
                let v = radix4(_mm256_castpd_ps(_mm256_xor_pd(column, neg_im)));
                // SAFETY: `run` is four `Cf32`, thirty-two bytes.
                _mm256_storeu_ps(run.as_mut_ptr() as *mut f32, v);
            }
        }
    }
}

/// In-place conjugation (the inverse transform's pre-pass).
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn conj_avx2(data: &mut [Cf32]) {
    let neg_im = _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
    let p = data.as_mut_ptr() as *mut f32;
    let quads = data.len() / 4;
    for i in 0..quads {
        let q = p.add(8 * i);
        _mm256_storeu_ps(q, _mm256_xor_ps(_mm256_loadu_ps(q), neg_im));
    }
    for z in &mut data[quads * 4..] {
        *z = z.conj();
    }
}

/// In-place conjugate-and-scale (the inverse transform's post-pass:
/// `z -> conj(z) / n`).
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn conj_scale_avx2(data: &mut [Cf32], scale: f32) {
    let neg_im = _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
    let vs = _mm256_set1_ps(scale);
    let p = data.as_mut_ptr() as *mut f32;
    let quads = data.len() / 4;
    for i in 0..quads {
        let q = p.add(8 * i);
        let v = _mm256_xor_ps(_mm256_loadu_ps(q), neg_im);
        _mm256_storeu_ps(q, _mm256_mul_ps(v, vs));
    }
    for z in &mut data[quads * 4..] {
        *z = z.conj().scale(scale);
    }
}
