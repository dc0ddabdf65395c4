//! Runtime-dispatched SIMD kernels for data-movement-heavy primitives.
//!
//! The paper uses AVX-512 intrinsics for three things outside the matrix
//! library: converting integer IQ samples to floats, demodulation, and
//! matrix transposes; and non-temporal (streaming) stores to skip the
//! cache-coherence traffic when a block's output is consumed by cores
//! other than the producer (§4.1). The IQ conversion is fused into the
//! FFT task's unpack (`agora_core::kernels::unpack_bitrev`) and the
//! demodulation SIMD lives in `agora-phy` next to its tables; this module
//! provides the shared data-plane kernels, transposes and streaming
//! stores, with scalar fallbacks and `std::arch` AVX2 fast paths selected
//! at runtime, so the same binary runs on any x86-64 (and the scalar paths
//! on any architecture).

use crate::complex::Cf32;
#[cfg(target_arch = "x86_64")]
use core::ops::Range;

/// SIMD instruction-set tier available/selected at runtime. Table 5 of the
/// paper compares AVX2 and AVX-512 servers; we reproduce it by pinning the
/// dispatch tier. The tiers are ordered: a kernel with no body of its own
/// for a tier runs the widest one below it, so dispatch tests `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Pure scalar loops (portable baseline).
    Scalar,
    /// 256-bit AVX2 kernels.
    Avx2,
    /// AVX-512 (`f`, `bw`, `vl`, `vbmi`): byte permutes and mask
    /// registers. Only the i8 decoder has a body of its own; every other
    /// kernel runs its AVX2 body.
    Avx512,
}

impl SimdTier {
    /// The best tier the current CPU supports.
    pub fn detect() -> SimdTier {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                if has!("avx512f") && has!("avx512bw") && has!("avx512vl") && has!("avx512vbmi") {
                    return SimdTier::Avx512;
                }
                return SimdTier::Avx2;
            }
        }
        SimdTier::Scalar
    }

    /// [`Self::detect`] computed once per process. Plan constructors and
    /// auto-dispatching kernels use this so hot loops never repeat the
    /// feature probe.
    pub fn cached() -> SimdTier {
        use std::sync::OnceLock;
        static CACHE: OnceLock<SimdTier> = OnceLock::new();
        *CACHE.get_or_init(SimdTier::detect)
    }

    /// Every tier this CPU runs, scalar first: what the tier-parity
    /// checks loop over.
    pub fn supported() -> impl Iterator<Item = SimdTier> {
        [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
            .into_iter()
            .filter(|&t| t <= SimdTier::cached())
    }
}

/// Bytes in one cache line: the unit of a streaming store, and the
/// alignment every frame plane and transform buffer is allocated to.
pub const CACHE_LINE: usize = 64;

/// Copies complex samples, writing every *whole* cache line of `dst` with
/// streaming (non-temporal) stores when the tier allows, bypassing the
/// cache. Producers whose output is consumed by other cores use this to
/// avoid coherence traffic — the paper's §4.1 "non-temporal stores"
/// optimisation (Table 4 row 3 toggles it off).
///
/// A line `dst` covers only partly is written with ordinary stores: a
/// streaming store to part of a line another core is writing with cached
/// stores would evict that core's half-written line mid-update. A span
/// that holds no whole line is therefore a plain copy.
///
/// Streaming stores are weakly ordered: call [`stream_fence`] once, after
/// the last copy, before publishing `dst` to another thread.
pub fn stream_copy(src: &[Cf32], dst: &mut [Cf32], tier: SimdTier) {
    assert_eq!(src.len(), dst.len());
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => unsafe { stream_copy_avx(src, dst, None) },
        _ => dst.copy_from_slice(src),
    }
}

/// [`stream_copy`] of `z.conj().scale(scale)` for every `z` of `src`: the
/// closing `conj(·) / n` of an inverse transform run as a conjugated
/// forward one, fused into its store. Every tier does what `conj` and
/// `scale` do — a sign flip, then one multiply per component — so the
/// bits are theirs.
pub fn stream_conj_scale(src: &[Cf32], dst: &mut [Cf32], scale: f32, tier: SimdTier) {
    assert_eq!(src.len(), dst.len());
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => unsafe { stream_copy_avx(src, dst, Some(scale)) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.conj().scale(scale);
            }
        }
    }
}

/// Orders every [`stream_copy`] this thread has issued before its later
/// stores. A release store (the completion message of a task) does *not*
/// do this on x86: non-temporal stores sit in write-combining buffers
/// outside the total store order, so without the fence a consumer that
/// acquires the message can still read the old plane. One call per task,
/// after its last streaming copy — not one per copy: the fence drains
/// the write-combining buffers, which is the cost the streaming stores
/// were meant to avoid.
pub fn stream_fence() {
    // SAFETY: SSE is part of the x86-64 baseline, and the instruction
    // touches no memory of its own.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_sfence()
    };
}

/// Streaming copy with `movntps`: cached stores up to the first line
/// boundary of `dst`, two 32-byte streaming stores per whole line, cached
/// stores for what is left. With `conj_scale`, every sample is stored as
/// `conj(z) * scale` instead ([`stream_conj_scale`]).
///
/// # Safety
/// Caller must ensure the CPU supports AVX (implied by AVX2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stream_copy_avx(src: &[Cf32], dst: &mut [Cf32], conj_scale: Option<f32>) {
    use core::arch::x86_64::*;
    const LINE_FLOATS: usize = CACHE_LINE / 4;
    // `Cf32` is `repr(C)` over two `f32`s, so both slices are `f32`
    // arrays of twice the length, 4-byte aligned: odd floats are
    // imaginary parts.
    let n = src.len() * 2;
    let sp = src.as_ptr() as *const f32;
    let dp = dst.as_mut_ptr() as *mut f32;
    let to_line = (CACHE_LINE - dp as usize % CACHE_LINE) % CACHE_LINE / 4;
    let head = to_line.min(n);
    let lines = (n - head) / LINE_FLOATS;
    let tail = head + lines * LINE_FLOATS;
    // SAFETY: `head <= tail <= n`, and the slices do not overlap (one is
    // borrowed mutably); `dp + head` is 64-byte aligned when `lines > 0`.
    // The common call is exactly one aligned line: skip the empty copies.
    if head != 0 {
        stream_edge(sp, dp, 0..head, conj_scale);
    }
    match conj_scale {
        None => {
            for i in (head..tail).step_by(LINE_FLOATS) {
                _mm256_stream_ps(dp.add(i), _mm256_loadu_ps(sp.add(i)));
                _mm256_stream_ps(dp.add(i + 8), _mm256_loadu_ps(sp.add(i + 8)));
            }
        }
        Some(scale) => {
            // The sign bit of every imaginary lane: the odd floats of the
            // slice, so the odd lanes when the lines start on an even one.
            let im = _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
            let neg = if head.is_multiple_of(2) { im } else { _mm256_permute_ps(im, 0b1011_0001) };
            let vs = _mm256_set1_ps(scale);
            for i in (head..tail).step_by(8) {
                let v = _mm256_xor_ps(_mm256_loadu_ps(sp.add(i)), neg);
                _mm256_stream_ps(dp.add(i), _mm256_mul_ps(v, vs));
            }
        }
    }
    if tail != n {
        stream_edge(sp, dp, tail..n, conj_scale);
    }
}

/// The cached part of [`stream_copy_avx`]: floats `span` copied, or
/// stored as `conj(z) * scale` a component at a time.
///
/// # Safety
/// Both pointers must be valid for `span.end` floats and not overlap.
#[cfg(target_arch = "x86_64")]
unsafe fn stream_edge(sp: *const f32, dp: *mut f32, span: Range<usize>, conj_scale: Option<f32>) {
    match conj_scale {
        None => core::ptr::copy_nonoverlapping(sp.add(span.start), dp.add(span.start), span.len()),
        Some(scale) => {
            for i in span {
                let x = *sp.add(i);
                *dp.add(i) = if i % 2 == 1 { -x } else { x } * scale;
            }
        }
    }
}

/// Out-of-place transpose of a row-major `rows x cols` matrix of complex
/// samples (`dst` becomes `cols x rows`). Blocked for cache friendliness;
/// this is the "matrix transpose" kernel the paper vectorises, used when
/// re-laying antenna-major FFT output into subcarrier-major blocks. The
/// AVX2 tier routes full 8x8 tiles through an in-register microkernel.
pub fn transpose(src: &[Cf32], rows: usize, cols: usize, dst: &mut [Cf32], tier: SimdTier) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => unsafe { transpose_avx2(src, rows, cols, dst) },
        _ => transpose_scalar(src, rows, cols, dst),
    }
}

/// Scalar reference transpose (cache-blocked).
pub fn transpose_scalar(src: &[Cf32], rows: usize, cols: usize, dst: &mut [Cf32]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    const B: usize = 8; // 8 complex = one cache line per row slice
    for rb in (0..rows).step_by(B) {
        for cb in (0..cols).step_by(B) {
            let rmax = (rb + B).min(rows);
            let cmax = (cb + B).min(cols);
            for r in rb..rmax {
                for c in cb..cmax {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// AVX2 transpose: interior 8x8 tiles go through the in-register
/// microkernel; the ragged right/bottom edges fall back to scalar moves.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that `src`/`dst` are
/// `rows * cols` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_avx2(src: &[Cf32], rows: usize, cols: usize, dst: &mut [Cf32]) {
    const B: usize = 8;
    let rfull = rows - rows % B;
    let cfull = cols - cols % B;
    for rb in (0..rfull).step_by(B) {
        for cb in (0..cfull).step_by(B) {
            transpose_8x8_avx2(
                src.as_ptr().add(rb * cols + cb),
                cols,
                dst.as_mut_ptr().add(cb * rows + rb),
                rows,
            );
        }
    }
    for r in 0..rfull {
        for c in cfull..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    for r in rfull..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// In-register 8x8 `Cf32` transpose. A complex sample is 8 bytes, so a
/// 4x4 sub-tile is exactly four `__m256d` registers and transposes with
/// `unpacklo/hi_pd` + `permute2f128_pd`; the 8x8 tile is four such 4x4
/// transposes with the off-diagonal sub-tiles swapped. No scalar
/// element moves — 16 loads, 32 shuffles, 16 stores per tile.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, `src` points at an 8x8 tile
/// of a matrix with row stride `src_stride`, and `dst` at an 8x8 tile
/// with row stride `dst_stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_8x8_avx2(
    src: *const Cf32,
    src_stride: usize,
    dst: *mut Cf32,
    dst_stride: usize,
) {
    // dst sub-tile (bc, br) receives the transpose of src sub-tile (br, bc).
    for (br, bc) in [(0usize, 0usize), (0, 4), (4, 0), (4, 4)] {
        transpose_4x4_avx2(
            src.add(br * src_stride + bc),
            src_stride,
            dst.add(bc * dst_stride + br),
            dst_stride,
        );
    }
}

/// 4x4 `Cf32` in-register transpose (each row one `__m256d`). Shared with
/// the GEMV panel-packing step in `gemm_simd`.
///
/// # Safety
/// Same contract as [`transpose_8x8_avx2`] with 4x4 tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn transpose_4x4_avx2(
    src: *const Cf32,
    src_stride: usize,
    dst: *mut Cf32,
    dst_stride: usize,
) {
    use core::arch::x86_64::*;
    // Treat each Cf32 as one f64 lane; we only move bits, never do math.
    let r0 = _mm256_loadu_pd(src as *const f64);
    let r1 = _mm256_loadu_pd(src.add(src_stride) as *const f64);
    let r2 = _mm256_loadu_pd(src.add(2 * src_stride) as *const f64);
    let r3 = _mm256_loadu_pd(src.add(3 * src_stride) as *const f64);
    let t0 = _mm256_unpacklo_pd(r0, r1); // [s00 s10 s02 s12]
    let t1 = _mm256_unpackhi_pd(r0, r1); // [s01 s11 s03 s13]
    let t2 = _mm256_unpacklo_pd(r2, r3); // [s20 s30 s22 s32]
    let t3 = _mm256_unpackhi_pd(r2, r3); // [s21 s31 s23 s33]
    let c0 = _mm256_permute2f128_pd(t0, t2, 0x20); // [s00 s10 s20 s30]
    let c1 = _mm256_permute2f128_pd(t1, t3, 0x20); // [s01 s11 s21 s31]
    let c2 = _mm256_permute2f128_pd(t0, t2, 0x31); // [s02 s12 s22 s32]
    let c3 = _mm256_permute2f128_pd(t1, t3, 0x31); // [s03 s13 s23 s33]
    _mm256_storeu_pd(dst as *mut f64, c0);
    _mm256_storeu_pd(dst.add(dst_stride) as *mut f64, c1);
    _mm256_storeu_pd(dst.add(2 * dst_stride) as *mut f64, c2);
    _mm256_storeu_pd(dst.add(3 * dst_stride) as *mut f64, c3);
}

/// Out-of-place conjugate transpose (`dst = src^H`, `cols x rows`). Same
/// tiling as [`transpose`]; conjugation is a sign-bit flip fused into the
/// tile stores, so the result is bit-exact on every tier (pure data
/// movement, no arithmetic). This is the Hermitian kernel behind the ZF
/// pseudo-inverse's `H^H` operand.
pub fn conj_transpose(src: &[Cf32], rows: usize, cols: usize, dst: &mut [Cf32], tier: SimdTier) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => unsafe { conj_transpose_avx2(src, rows, cols, dst) },
        _ => conj_transpose_scalar(src, rows, cols, dst),
    }
}

/// Scalar reference conjugate transpose (cache-blocked).
pub fn conj_transpose_scalar(src: &[Cf32], rows: usize, cols: usize, dst: &mut [Cf32]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    const B: usize = 8;
    for rb in (0..rows).step_by(B) {
        for cb in (0..cols).step_by(B) {
            let rmax = (rb + B).min(rows);
            let cmax = (cb + B).min(cols);
            for r in rb..rmax {
                for c in cb..cmax {
                    dst[c * rows + r] = src[r * cols + c].conj();
                }
            }
        }
    }
}

/// AVX2 conjugate transpose: full 8x8 tiles through the in-register
/// microkernel with the sign flip applied on the transposed columns;
/// ragged edges fall back to scalar conjugate moves.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that `src`/`dst` are
/// `rows * cols` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conj_transpose_avx2(src: &[Cf32], rows: usize, cols: usize, dst: &mut [Cf32]) {
    const B: usize = 8;
    let rfull = rows - rows % B;
    let cfull = cols - cols % B;
    for rb in (0..rfull).step_by(B) {
        for cb in (0..cfull).step_by(B) {
            for (br, bc) in [(0usize, 0usize), (0, 4), (4, 0), (4, 4)] {
                conj_transpose_4x4_avx2(
                    src.as_ptr().add((rb + br) * cols + cb + bc),
                    cols,
                    dst.as_mut_ptr().add((cb + bc) * rows + rb + br),
                    rows,
                );
            }
        }
    }
    for r in 0..rfull {
        for c in cfull..cols {
            dst[c * rows + r] = src[r * cols + c].conj();
        }
    }
    for r in rfull..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c].conj();
        }
    }
}

/// [`transpose_4x4_avx2`] with conjugation fused into the stores: a
/// `Cf32` viewed as one f64 lane has the imaginary part in the upper
/// 32 bits, so the f64 sign bit (bit 63) *is* the imaginary sign bit and
/// one XOR against `-0.0` per register conjugates four samples.
///
/// # Safety
/// Same contract as [`transpose_4x4_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conj_transpose_4x4_avx2(
    src: *const Cf32,
    src_stride: usize,
    dst: *mut Cf32,
    dst_stride: usize,
) {
    use core::arch::x86_64::*;
    let flip = _mm256_set1_pd(-0.0);
    let r0 = _mm256_loadu_pd(src as *const f64);
    let r1 = _mm256_loadu_pd(src.add(src_stride) as *const f64);
    let r2 = _mm256_loadu_pd(src.add(2 * src_stride) as *const f64);
    let r3 = _mm256_loadu_pd(src.add(3 * src_stride) as *const f64);
    let t0 = _mm256_unpacklo_pd(r0, r1);
    let t1 = _mm256_unpackhi_pd(r0, r1);
    let t2 = _mm256_unpacklo_pd(r2, r3);
    let t3 = _mm256_unpackhi_pd(r2, r3);
    let c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    let c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    let c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    let c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    _mm256_storeu_pd(dst as *mut f64, _mm256_xor_pd(c0, flip));
    _mm256_storeu_pd(dst.add(dst_stride) as *mut f64, _mm256_xor_pd(c1, flip));
    _mm256_storeu_pd(dst.add(2 * dst_stride) as *mut f64, _mm256_xor_pd(c2, flip));
    _mm256_storeu_pd(dst.add(3 * dst_stride) as *mut f64, _mm256_xor_pd(c3, flip));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_some_tier() {
        let t = SimdTier::detect();
        assert_eq!(SimdTier::supported().last(), Some(t));
    }

    /// Every destination offset within a line x every short length: the
    /// window equals the source — or, through `stream_conj_scale`, its
    /// `conj().scale()`, bit for bit on both tiers — and nothing outside
    /// it is written. A window starting on an odd `f32` exercises the
    /// 4-byte-aligned head.
    #[test]
    fn stream_copy_matches_memcpy() {
        const SENTINEL: f32 = -7.5;
        let src: Vec<Cf32> =
            (0..40).map(|i| Cf32::new(i as f32 - 3.3, -(i as f32) * 0.7 - 0.5)).collect();
        let mut backing = vec![SENTINEL; 16 + 16 + 2 * 40 + 16];
        let line = (CACHE_LINE - backing.as_ptr() as usize % CACHE_LINE) % CACHE_LINE / 4;
        let scale = 1.0 / 2048.0 * 3.0;
        for (tier, conj) in SimdTier::supported().flat_map(|t| [(t, false), (t, true)]) {
            for offset in 0..16 {
                for len in 0..=40 {
                    backing.fill(SENTINEL);
                    let start = line + offset;
                    // SAFETY: `Cf32` is two `f32`s with `f32` alignment, and
                    // the window lies inside `backing`.
                    let window = unsafe {
                        core::slice::from_raw_parts_mut(
                            backing.as_mut_ptr().add(start) as *mut Cf32,
                            len,
                        )
                    };
                    let want: Vec<Cf32> = match conj {
                        false => {
                            stream_copy(&src[..len], window, tier);
                            src[..len].to_vec()
                        }
                        true => {
                            stream_conj_scale(&src[..len], window, scale, tier);
                            src[..len].iter().map(|z| z.conj().scale(scale)).collect()
                        }
                    };
                    stream_fence();
                    let (before, rest) = backing.split_at(start);
                    let (copied, after) = rest.split_at(2 * len);
                    let want: Vec<u32> =
                        want.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect();
                    let got: Vec<u32> = copied.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "{tier:?} conj {conj} offset {offset} len {len}");
                    assert!(
                        before.iter().chain(after).all(|&x| x == SENTINEL),
                        "offset {offset} len {len}: wrote outside the window"
                    );
                }
            }
        }
        // Many whole lines with a ragged head and tail.
        let src: Vec<Cf32> = (0..333).map(|i| Cf32::new(i as f32, -(i as f32))).collect();
        let mut dst = vec![Cf32::ZERO; src.len() + 1];
        stream_copy(&src, &mut dst[1..], SimdTier::detect());
        stream_fence();
        assert_eq!(src, dst[1..]);
    }

    #[test]
    fn transpose_roundtrip() {
        let rows = 13;
        let cols = 22;
        let src: Vec<Cf32> =
            (0..rows * cols).map(|i| Cf32::new(i as f32, 2.0 * i as f32)).collect();
        let mut t = vec![Cf32::ZERO; src.len()];
        let mut back = vec![Cf32::ZERO; src.len()];
        transpose(&src, rows, cols, &mut t, SimdTier::detect());
        transpose(&t, cols, rows, &mut back, SimdTier::detect());
        assert_eq!(src, back);
    }

    #[test]
    fn transpose_full_tiles_match_scalar() {
        // 16x24 is entirely 8x8 tiles: every element goes through the
        // in-register microkernel on the AVX2 tier.
        let rows = 16;
        let cols = 24;
        let src: Vec<Cf32> =
            (0..rows * cols).map(|i| Cf32::new(i as f32, -0.5 * i as f32)).collect();
        let mut a = vec![Cf32::ZERO; src.len()];
        let mut b = vec![Cf32::ZERO; src.len()];
        transpose_scalar(&src, rows, cols, &mut a);
        transpose(&src, rows, cols, &mut b, SimdTier::detect());
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_element_mapping() {
        let src: Vec<Cf32> = (0..6).map(|i| Cf32::real(i as f32)).collect();
        let mut dst = vec![Cf32::ZERO; 6];
        transpose(&src, 2, 3, &mut dst, SimdTier::detect());
        // src is [[0,1,2],[3,4,5]]; dst should be [[0,3],[1,4],[2,5]].
        let expect = [0.0, 3.0, 1.0, 4.0, 2.0, 5.0];
        for (z, &e) in dst.iter().zip(expect.iter()) {
            assert_eq!(z.re, e);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn transpose_is_involutive(rows in 1usize..32, cols in 1usize..32) {
            let src: Vec<Cf32> = (0..rows * cols).map(|i| Cf32::new(i as f32, 0.5 * i as f32)).collect();
            let mut t = vec![Cf32::ZERO; src.len()];
            let mut back = vec![Cf32::ZERO; src.len()];
            transpose(&src, rows, cols, &mut t, SimdTier::detect());
            transpose(&t, cols, rows, &mut back, SimdTier::detect());
            prop_assert_eq!(src, back);
        }

        #[test]
        fn transpose_simd_equals_scalar(rows in 1usize..40, cols in 1usize..40) {
            // Shapes straddle the 8x8 tile boundary both ways, so the
            // microkernel interior and the ragged edge paths both run.
            let src: Vec<Cf32> = (0..rows * cols).map(|i| Cf32::new(i as f32, -(i as f32))).collect();
            let mut a = vec![Cf32::ZERO; src.len()];
            let mut b = vec![Cf32::ZERO; src.len()];
            transpose_scalar(&src, rows, cols, &mut a);
            transpose(&src, rows, cols, &mut b, SimdTier::detect());
            prop_assert_eq!(a, b);
        }

        #[test]
        fn conj_transpose_simd_equals_scalar(rows in 1usize..40, cols in 1usize..40) {
            let src: Vec<Cf32> = (0..rows * cols)
                .map(|i| Cf32::new(0.25 * i as f32 - 3.0, 7.0 - 0.5 * i as f32))
                .collect();
            let mut a = vec![Cf32::ZERO; src.len()];
            let mut b = vec![Cf32::ZERO; src.len()];
            conj_transpose_scalar(&src, rows, cols, &mut a);
            conj_transpose(&src, rows, cols, &mut b, SimdTier::detect());
            prop_assert_eq!(a, b);
        }

        #[test]
        fn conj_transpose_is_conj_of_transpose(rows in 1usize..24, cols in 1usize..24) {
            let src: Vec<Cf32> = (0..rows * cols).map(|i| Cf32::new(i as f32, 1.0 + i as f32)).collect();
            let mut t = vec![Cf32::ZERO; src.len()];
            let mut h = vec![Cf32::ZERO; src.len()];
            transpose(&src, rows, cols, &mut t, SimdTier::detect());
            conj_transpose(&src, rows, cols, &mut h, SimdTier::detect());
            let tc: Vec<Cf32> = t.iter().map(|z| z.conj()).collect();
            prop_assert_eq!(tc, h);
        }
    }
}
