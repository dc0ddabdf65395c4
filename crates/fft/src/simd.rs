//! AVX2 and AVX-512 butterfly kernels for [`crate::FftPlan`].
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
//! The AVX-512 body ([`butterflies_avx512`], [`gather_avx512`]) runs the
//! same butterflies eight complex values per zmm register, with the AVX2
//! body's operations in the same order, so its bits are the AVX2 body's:
//! the first three stages between eight rows of steps as a gather places
//! them (or in one ymm pass, [`radix8`], on placed input), every later
//! stage in zmm.
//!
//! All entry points here are `unsafe` and require AVX2 (or AVX-512); the
//! plan clamps its dispatch tier to `SimdTier::detect()` so they are only
//! reached on capable hosts. The scalar path in `plan.rs` is the
//! reference; the tier-parity proptests there pin these kernels to it, and
//! every vector tier to the AVX2 body's bits.

#![cfg(target_arch = "x86_64")]

use crate::Steps;
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

/// Runs the butterfly stages over `data`, as [`butterflies_avx2`] does and
/// with its operations, eight complex values per zmm register: the first
/// three stages in one ymm pass ([`radix8`]) — unless `first_done`, when a
/// gather already ran them between rows ([`gather_avx512`]) — then every
/// stage from `w = 8` on in zmm, three at a time, with a pair or a single
/// for the tail. The zmm stages read the AVX2 twiddle arrays: at float
/// offset `2 * (w - 4) + 2 * jb`, sixteen floats are the eight splatted
/// twiddles `jb..jb + 8` of stage `w`.
///
/// # Safety
/// Requires AVX-512 (F, BW, VL, VBMI). `n` must be a power of two with
/// `n >= 64`, `data.len()` a multiple of `n`, and the twiddle arrays must
/// come from the matching [`crate::FftPlan`].
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
pub(crate) unsafe fn butterflies_avx512(
    data: &mut [Cf32],
    n: usize,
    tw_re: &[f32],
    tw_im: &[f32],
    first_done: bool,
) {
    debug_assert!(n >= 64 && n.is_power_of_two());
    debug_assert_eq!(data.len() % n, 0);
    let batch = data.len() / n;
    let tile = tile_transforms(n).min(batch);
    let p = data.as_mut_ptr() as *mut f32;
    let mut t0 = 0usize;
    while t0 < batch {
        let tb = tile.min(batch - t0);
        let q = p.add(t0 * 2 * n);
        if !first_done {
            radix8(q, n * tb, tw_re, tw_im);
        }
        let mut w = 8usize;
        while 4 * w <= n / 2 {
            stage_triple512(q, n, tb, w, tw_re, tw_im);
            w *= 8;
        }
        if 2 * w <= n / 2 {
            stage_pair512(q, n, tb, w, tw_re, tw_im);
            w *= 4;
        }
        if w <= n / 2 {
            stage_single512(q, n, tb, w, tw_re, tw_im);
        }
        t0 += tb;
    }
}

/// The first three stages over `len` bit-reversed samples, one group of
/// eight at a time in two ymm registers: [`radix4`] on each half, then
/// the `w = 4` butterflies as [`stage_triple`] runs them.
///
/// # Safety
/// Requires AVX2; `p` must point at `2 * len` writable `f32`s, `len` a
/// multiple of 8, and the twiddle arrays hold stage 4's.
#[target_feature(enable = "avx2")]
unsafe fn radix8(p: *mut f32, len: usize, tw_re: &[f32], tw_im: &[f32]) {
    let wr = _mm256_loadu_ps(tw_re.as_ptr());
    let wi = _mm256_loadu_ps(tw_im.as_ptr());
    for g in 0..len / 8 {
        let q = p.add(16 * g);
        let a = radix4(_mm256_loadu_ps(q));
        let b = cmul(radix4(_mm256_loadu_ps(q.add(8))), wr, wi);
        _mm256_storeu_ps(q, _mm256_add_ps(a, b));
        _mm256_storeu_ps(q.add(8), _mm256_sub_ps(a, b));
    }
}

/// [`cmul`] on eight interleaved values.
///
/// # Safety
/// Requires AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn cmul512(b: __m512, wr: __m512, wi: __m512) -> __m512 {
    let bs = _mm512_permute_ps::<0b1011_0001>(b);
    _mm512_add_ps(_mm512_mul_ps(b, wr), _mm512_mul_ps(bs, wi))
}

/// One radix-2 butterfly in place: `(a, b) -> (a + b w, a - b w)`.
///
/// # Safety
/// Requires AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn bfly512(a: &mut __m512, b: &mut __m512, wr: __m512, wi: __m512) {
    let t = cmul512(*b, wr, wi);
    (*a, *b) = (_mm512_add_ps(*a, t), _mm512_sub_ps(*a, t));
}

/// Loads stage `w`'s eight splatted twiddles from `j`.
///
/// # Safety
/// Requires AVX-512F; `w >= 8` and `j + 8 <= w` for a stage `w` of the
/// plan the arrays come from.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tw512(tw_re: &[f32], tw_im: &[f32], w: usize, j: usize) -> (__m512, __m512) {
    let at = 2 * (w - 4) + 2 * j;
    (_mm512_loadu_ps(tw_re.as_ptr().add(at)), _mm512_loadu_ps(tw_im.as_ptr().add(at)))
}

/// [`stage_single`] in zmm.
///
/// # Safety
/// Requires AVX-512F; `8 <= w <= n / 2`.
#[target_feature(enable = "avx512f")]
unsafe fn stage_single512(
    p: *mut f32,
    n: usize,
    tb: usize,
    w: usize,
    tw_re: &[f32],
    tw_im: &[f32],
) {
    for base in (0..n).step_by(2 * w) {
        for jb in (0..w).step_by(8) {
            let (wr, wi) = tw512(tw_re, tw_im, w, jb);
            for t in 0..tb {
                let q = p.add(t * 2 * n + 2 * (base + jb));
                let mut a = _mm512_loadu_ps(q);
                let mut b = _mm512_loadu_ps(q.add(2 * w));
                bfly512(&mut a, &mut b, wr, wi);
                _mm512_storeu_ps(q, a);
                _mm512_storeu_ps(q.add(2 * w), b);
            }
        }
    }
}

/// [`stage_pair`] in zmm.
///
/// # Safety
/// Requires AVX-512F; `8 <= w` and `2 * w <= n / 2`.
#[target_feature(enable = "avx512f")]
unsafe fn stage_pair512(p: *mut f32, n: usize, tb: usize, w: usize, tw_re: &[f32], tw_im: &[f32]) {
    for base in (0..n).step_by(4 * w) {
        for jb in (0..w).step_by(8) {
            let (wsr, wsi) = tw512(tw_re, tw_im, w, jb);
            let (wt0r, wt0i) = tw512(tw_re, tw_im, 2 * w, jb);
            let (wt1r, wt1i) = tw512(tw_re, tw_im, 2 * w, jb + w);
            for t in 0..tb {
                let q = p.add(t * 2 * n + 2 * (base + jb));
                let mut v0 = _mm512_loadu_ps(q);
                let mut v1 = _mm512_loadu_ps(q.add(2 * w));
                let mut v2 = _mm512_loadu_ps(q.add(4 * w));
                let mut v3 = _mm512_loadu_ps(q.add(6 * w));
                bfly512(&mut v0, &mut v1, wsr, wsi);
                bfly512(&mut v2, &mut v3, wsr, wsi);
                bfly512(&mut v0, &mut v2, wt0r, wt0i);
                bfly512(&mut v1, &mut v3, wt1r, wt1i);
                _mm512_storeu_ps(q, v0);
                _mm512_storeu_ps(q.add(2 * w), v1);
                _mm512_storeu_ps(q.add(4 * w), v2);
                _mm512_storeu_ps(q.add(6 * w), v3);
            }
        }
    }
}

/// [`stage_triple`] in zmm: eight vectors and all fourteen twiddle
/// vectors stay in the 32 registers.
///
/// # Safety
/// Requires AVX-512F; `8 <= w` and `4 * w <= n / 2`.
#[target_feature(enable = "avx512f")]
unsafe fn stage_triple512(
    p: *mut f32,
    n: usize,
    tb: usize,
    w: usize,
    tw_re: &[f32],
    tw_im: &[f32],
) {
    for base in (0..n).step_by(8 * w) {
        for jb in (0..w).step_by(8) {
            let (wsr, wsi) = tw512(tw_re, tw_im, w, jb);
            let (wt0r, wt0i) = tw512(tw_re, tw_im, 2 * w, jb);
            let (wt1r, wt1i) = tw512(tw_re, tw_im, 2 * w, jb + w);
            let (wu0r, wu0i) = tw512(tw_re, tw_im, 4 * w, jb);
            let (wu1r, wu1i) = tw512(tw_re, tw_im, 4 * w, jb + w);
            let (wu2r, wu2i) = tw512(tw_re, tw_im, 4 * w, jb + 2 * w);
            let (wu3r, wu3i) = tw512(tw_re, tw_im, 4 * w, jb + 3 * w);
            for t in 0..tb {
                let q = p.add(t * 2 * n + 2 * (base + jb));
                let mut v0 = _mm512_loadu_ps(q);
                let mut v1 = _mm512_loadu_ps(q.add(2 * w));
                let mut v2 = _mm512_loadu_ps(q.add(4 * w));
                let mut v3 = _mm512_loadu_ps(q.add(6 * w));
                let mut v4 = _mm512_loadu_ps(q.add(8 * w));
                let mut v5 = _mm512_loadu_ps(q.add(10 * w));
                let mut v6 = _mm512_loadu_ps(q.add(12 * w));
                let mut v7 = _mm512_loadu_ps(q.add(14 * w));
                // Stage w, then 2w, then 4w, in stage_triple's order.
                bfly512(&mut v0, &mut v1, wsr, wsi);
                bfly512(&mut v2, &mut v3, wsr, wsi);
                bfly512(&mut v4, &mut v5, wsr, wsi);
                bfly512(&mut v6, &mut v7, wsr, wsi);
                bfly512(&mut v0, &mut v2, wt0r, wt0i);
                bfly512(&mut v1, &mut v3, wt1r, wt1i);
                bfly512(&mut v4, &mut v6, wt0r, wt0i);
                bfly512(&mut v5, &mut v7, wt1r, wt1i);
                bfly512(&mut v0, &mut v4, wu0r, wu0i);
                bfly512(&mut v1, &mut v5, wu1r, wu1i);
                bfly512(&mut v2, &mut v6, wu2r, wu2i);
                bfly512(&mut v3, &mut v7, wu3r, wu3i);
                _mm512_storeu_ps(q, v0);
                _mm512_storeu_ps(q.add(2 * w), v1);
                _mm512_storeu_ps(q.add(4 * w), v2);
                _mm512_storeu_ps(q.add(6 * w), v3);
                _mm512_storeu_ps(q.add(8 * w), v4);
                _mm512_storeu_ps(q.add(10 * w), v5);
                _mm512_storeu_ps(q.add(12 * w), v6);
                _mm512_storeu_ps(q.add(14 * w), v7);
            }
        }
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

/// The AVX2 front of [`crate::FftPlan::forward_of`], for transforms of 32
/// points or more. With `r = n / 32`, natural-order steps `s`, `s + 2r`, `s + r` and
/// `s + 3r` (`s < r`) differ only in the two top bits of their sample
/// indices, which the bit reversal sends to the two lowest: sample `k` of
/// the four lands on four consecutive slots from `bitrev[8s + k]`, a
/// multiple of 4. A 4 x 4 transpose of the eight-byte samples turns the
/// four steps into eight such runs, each one 32-byte store; each run —
/// exactly one radix-4 group of the bit-reversed grid — first takes the
/// transform's first two butterfly stages ([`radix4`]) in the same
/// register.
///
/// With `IN_PLACE` the steps may read `out` itself (the natural-order
/// `execute*` entries): blocks `s` and `s + r/2` together read the slots
/// blocks `u` and `u + r/2` write, `u = bitrev[8s] / 8` (the zmm body's
/// pairing, [`gather_avx512`]), so the four blocks of a pair are all read
/// into registers before any of them is stored.
///
/// # Safety
/// Requires AVX2; `bitrev` must be the bit-reversal permutation of `n`
/// points, a power of two of at least 32 (64 with `IN_PLACE`), and `out`
/// must be valid for `n` writes, with no reference to them alive.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gather_avx2<S: Steps, const IN_PLACE: bool>(
    bitrev: &[u32],
    out: *mut Cf32,
    steps: &S,
) {
    let (r, half) = (bitrev.len() / 32, bitrev.len() / 64);
    for s in 0..if IN_PLACE { half } else { r } {
        let u = if IN_PLACE { bitrev[8 * s] as usize / 8 } else { s };
        if u < s {
            continue;
        }
        // Block `s` alone, or in place blocks `s` and `s + r/2`, and their
        // partners when they are others.
        let blocks = [s, s + half, u, u + half];
        let count = if !IN_PLACE {
            1
        } else if u == s {
            2
        } else {
            4
        };
        let mut runs = [[_mm256_setzero_pd(); 8]; 4];
        for (runs, &b) in runs.iter_mut().zip(&blocks).take(count) {
            let mut rows = [[_mm256_setzero_pd(); 4]; 2];
            for (j, t) in [b, b + 2 * r, b + r, b + 3 * r].into_iter().enumerate() {
                [rows[0][j], rows[1][j]] = steps.ymm(t);
            }
            // Row `j` of `rows[h]` holds samples [0 1 | 4 5] (h = 0) or
            // [2 3 | 6 7] (h = 1) of the j-th step; transposed, column
            // `c` holds one sample of all four steps.
            for (h, rows) in rows.iter().enumerate() {
                let t0 = _mm256_unpacklo_pd(rows[0], rows[1]);
                let t1 = _mm256_unpackhi_pd(rows[0], rows[1]);
                let t2 = _mm256_unpacklo_pd(rows[2], rows[3]);
                let t3 = _mm256_unpackhi_pd(rows[2], rows[3]);
                runs[2 * h] = _mm256_permute2f128_pd::<0x20>(t0, t2);
                runs[2 * h + 1] = _mm256_permute2f128_pd::<0x20>(t1, t3);
                runs[2 * h + 4] = _mm256_permute2f128_pd::<0x31>(t0, t2);
                runs[2 * h + 5] = _mm256_permute2f128_pd::<0x31>(t1, t3);
            }
            for run in runs.iter_mut() {
                *run = _mm256_castps_pd(radix4(_mm256_castpd_ps(*run)));
            }
        }
        for (runs, &b) in runs.into_iter().zip(&blocks).take(count) {
            store_runs(out, bitrev, b, runs);
        }
    }
}

/// Stores block `s`'s runs (a ymm or zmm register of samples each), run
/// `k` at `bitrev[8s + k]`.
///
/// # Safety
/// `bitrev` must be the plan's permutation of `n` points with `8s + 8 <=
/// n`, and `out` valid for `n` writes.
#[inline(always)]
unsafe fn store_runs<R>(out: *mut Cf32, bitrev: &[u32], s: usize, runs: [R; 8]) {
    for (k, run) in runs.into_iter().enumerate() {
        let at = bitrev[8 * s + k] as usize;
        debug_assert!(at * 8 + core::mem::size_of::<R>() <= bitrev.len() * 8);
        (out.add(at) as *mut R).write_unaligned(run);
    }
}

/// The AVX-512 front of [`crate::FftPlan::forward_of`], for transforms
/// of 64 points or more. With `r = n / 64`, the eight steps `s + j r`
/// (`s < r`, `j` in three-bit-reversed order) differ only in the three
/// top bits of their sample indices, so sample `k` of the eight lands on
/// the eight consecutive slots from `bitrev[8s + k]`: one radix-8 group
/// of the bit-reversed grid per lane. Each step is one zmm row
/// ([`Steps::zmm`]); the transform's first three butterfly stages run
/// *between* the rows, lane by lane, with the AVX2 body's operations —
/// stages 1 and 2 as [`radix4`] does them, stage 4 as [`stage_triple`]'s
/// `cmul` with the stored twiddles, `j = 0` included — so the bits are
/// its. An 8 x 8 transpose of the eight-byte samples then turns the rows
/// into eight 64-byte runs, one store each. Doing the stages inside each
/// run instead would cost a shuffle network per run; between rows they
/// are plain vertical arithmetic.
///
/// Block `s` writes exactly the slots block `u = bitrev[8s] / 8` reads
/// (the middle index bits reversed), and `u`'s partner is `s`. With
/// `IN_PLACE` the steps may read `out` itself (the natural-order
/// `execute*` entries): each pair of blocks is read into registers before
/// either is stored.
///
/// # Safety
/// Requires AVX-512 (F, BW, VL, VBMI); `bitrev` must be the bit-reversal
/// permutation of `n` points, a power of two of at least 64, the twiddle
/// arrays the matching plan's, and `out` valid for `n` writes, with no
/// reference to them alive.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
pub(crate) unsafe fn gather_avx512<S: Steps, const IN_PLACE: bool>(
    bitrev: &[u32],
    out: *mut Cf32,
    steps: &S,
    tw_re: &[f32],
    tw_im: &[f32],
) {
    let r = bitrev.len() / 64;
    // Stage 4's twiddles j = 0..4, each splatted over all eight lanes.
    let (wr, wi) = (tw_re.as_ptr() as *const f64, tw_im.as_ptr() as *const f64);
    let w4 = [
        _mm512_set1_pd(wr.read_unaligned()),
        _mm512_set1_pd(wi.read_unaligned()),
        _mm512_set1_pd(wr.add(1).read_unaligned()),
        _mm512_set1_pd(wi.add(1).read_unaligned()),
        _mm512_set1_pd(wr.add(2).read_unaligned()),
        _mm512_set1_pd(wi.add(2).read_unaligned()),
        _mm512_set1_pd(wr.add(3).read_unaligned()),
        _mm512_set1_pd(wi.add(3).read_unaligned()),
    ];
    for s in 0..r {
        let u = if IN_PLACE { bitrev[8 * s] as usize / 8 } else { s };
        if u < s {
            continue;
        }
        let blocks = [s, u];
        let count = if u == s { 1 } else { 2 };
        let mut runs = [[_mm512_setzero_pd(); 8]; 2];
        for (runs, &b) in runs.iter_mut().zip(&blocks).take(count) {
            let mut x = [
                steps.zmm(b),
                steps.zmm(b + 4 * r),
                steps.zmm(b + 2 * r),
                steps.zmm(b + 6 * r),
                steps.zmm(b + r),
                steps.zmm(b + 5 * r),
                steps.zmm(b + 3 * r),
                steps.zmm(b + 7 * r),
            ];
            radix8_rows(&mut x, &w4);
            *runs = transpose8(&x);
        }
        for (runs, &b) in runs.into_iter().zip(&blocks).take(count) {
            store_runs(out, bitrev, b, runs);
        }
    }
}

/// Flips the sign of every float of `v` where `mask` has `-0.0`.
///
/// # Safety
/// Requires AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn flip(v: __m512, mask: __m512) -> __m512 {
    _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), _mm512_castps_si512(mask)))
}

/// Stages 1, 2 and 4 between eight rows `x[m]`, slot `m` of a radix-8
/// group in each lane: stage 1 as `x0 + x1` and `x0 + (x1 ^ sign)`, stage
/// 2's `-i` as a swap and a sign flip, stage 4 as `cmul` with the stored
/// twiddles `w4 = [re0, im0, re1, im1, ...]` — [`radix4`]'s and
/// [`stage_triple`]'s operations, lane by lane.
///
/// # Safety
/// Requires AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn radix8_rows(x: &mut [__m512d; 8], w4: &[__m512d; 8]) {
    let sign = _mm512_set1_ps(-0.0);
    // `(re, im) -> (re, -im)` after a swap: the imaginary slot is odd.
    let neg_odd = _mm512_castpd_ps(_mm512_set1_pd(f64::from_bits(1 << 63)));
    let [x0, x1, x2, x3, x4, x5, x6, x7] = *x;
    let (x0, x1, x2, x3) =
        (_mm512_castpd_ps(x0), _mm512_castpd_ps(x1), _mm512_castpd_ps(x2), _mm512_castpd_ps(x3));
    let (x4, x5, x6, x7) =
        (_mm512_castpd_ps(x4), _mm512_castpd_ps(x5), _mm512_castpd_ps(x6), _mm512_castpd_ps(x7));
    // Stage 1: (x0, x1), (x2, x3), (x4, x5), (x6, x7).
    let s0 = _mm512_add_ps(x0, x1);
    let s1 = _mm512_add_ps(x0, flip(x1, sign));
    let s2 = _mm512_add_ps(x2, x3);
    let s3 = _mm512_add_ps(x2, flip(x3, sign));
    let s4 = _mm512_add_ps(x4, x5);
    let s5 = _mm512_add_ps(x4, flip(x5, sign));
    let s6 = _mm512_add_ps(x6, x7);
    let s7 = _mm512_add_ps(x6, flip(x7, sign));
    // Stage 2: twiddles 1 and -i; `s * -i = (s.im, -s.re)`.
    let t3 = flip(_mm512_permute_ps::<0b1011_0001>(s3), neg_odd);
    let t7 = flip(_mm512_permute_ps::<0b1011_0001>(s7), neg_odd);
    let o0 = _mm512_add_ps(s0, s2);
    let o1 = _mm512_add_ps(s1, t3);
    let o2 = _mm512_add_ps(s0, flip(s2, sign));
    let o3 = _mm512_add_ps(s1, flip(t3, sign));
    let o4 = _mm512_add_ps(s4, s6);
    let o5 = _mm512_add_ps(s5, t7);
    let o6 = _mm512_add_ps(s4, flip(s6, sign));
    let o7 = _mm512_add_ps(s5, flip(t7, sign));
    // Stage 4: (o_j, o_{j+4}) with twiddle j.
    let d4 = cmul512(o4, _mm512_castpd_ps(w4[0]), _mm512_castpd_ps(w4[1]));
    let d5 = cmul512(o5, _mm512_castpd_ps(w4[2]), _mm512_castpd_ps(w4[3]));
    let d6 = cmul512(o6, _mm512_castpd_ps(w4[4]), _mm512_castpd_ps(w4[5]));
    let d7 = cmul512(o7, _mm512_castpd_ps(w4[6]), _mm512_castpd_ps(w4[7]));
    *x = [
        _mm512_castps_pd(_mm512_add_ps(o0, d4)),
        _mm512_castps_pd(_mm512_add_ps(o1, d5)),
        _mm512_castps_pd(_mm512_add_ps(o2, d6)),
        _mm512_castps_pd(_mm512_add_ps(o3, d7)),
        _mm512_castps_pd(_mm512_sub_ps(o0, d4)),
        _mm512_castps_pd(_mm512_sub_ps(o1, d5)),
        _mm512_castps_pd(_mm512_sub_ps(o2, d6)),
        _mm512_castps_pd(_mm512_sub_ps(o3, d7)),
    ];
}

/// 8 x 8 transpose of eight-byte elements: column `k` of the result holds
/// element `k` of every row, in row order.
///
/// # Safety
/// Requires AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn transpose8(r: &[__m512d; 8]) -> [__m512d; 8] {
    // Pairs of rows interleaved: t0 = [r0_0 r1_0 | r0_2 r1_2 | r0_4 r1_4 | r0_6 r1_6].
    let t0 = _mm512_unpacklo_pd(r[0], r[1]);
    let t1 = _mm512_unpackhi_pd(r[0], r[1]);
    let t2 = _mm512_unpacklo_pd(r[2], r[3]);
    let t3 = _mm512_unpackhi_pd(r[2], r[3]);
    let t4 = _mm512_unpacklo_pd(r[4], r[5]);
    let t5 = _mm512_unpackhi_pd(r[4], r[5]);
    let t6 = _mm512_unpacklo_pd(r[6], r[7]);
    let t7 = _mm512_unpackhi_pd(r[6], r[7]);
    // 128-bit lanes 0, 2 (0x88) or 1, 3 (0xdd) of each source: u0 holds
    // elements 0 and 4 of rows 0-3.
    let u0 = _mm512_shuffle_f64x2::<0x88>(t0, t2);
    let u1 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
    let u2 = _mm512_shuffle_f64x2::<0xdd>(t0, t2);
    let u3 = _mm512_shuffle_f64x2::<0xdd>(t1, t3);
    let u4 = _mm512_shuffle_f64x2::<0x88>(t4, t6);
    let u5 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
    let u6 = _mm512_shuffle_f64x2::<0xdd>(t4, t6);
    let u7 = _mm512_shuffle_f64x2::<0xdd>(t5, t7);
    [
        _mm512_shuffle_f64x2::<0x88>(u0, u4),
        _mm512_shuffle_f64x2::<0x88>(u1, u5),
        _mm512_shuffle_f64x2::<0x88>(u2, u6),
        _mm512_shuffle_f64x2::<0x88>(u3, u7),
        _mm512_shuffle_f64x2::<0xdd>(u0, u4),
        _mm512_shuffle_f64x2::<0xdd>(u1, u5),
        _mm512_shuffle_f64x2::<0xdd>(u2, u6),
        _mm512_shuffle_f64x2::<0xdd>(u3, u7),
    ]
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
