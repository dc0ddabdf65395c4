//! AVX2 and AVX-512 complex-GEMM microkernels: the vectorized plane
//! behind [`crate::gemm`]'s tier dispatch.
//!
//! The paper serves the beamforming matrix work (ZF Gram products,
//! per-subcarrier equalization, downlink precoding) with MKL's JIT cgemm,
//! which emits AVX-512 code for the one shape a cell uses. The AVX2
//! kernels use interleaved `[re im re im ...]` `__m256` lanes (4 complex
//! samples per register), register-tiled over 4 rows x 8 columns, with
//! `vmaskmov` tails for non-multiple-of-4 column counts and the PR 3
//! in-register 4x4 transpose microkernel packing GEMV row panels. The
//! Avx512 tier's GEMM ([`gemm_avx512`]) holds one `__m512` (8 complex
//! samples, one cache line of output) per row for up to 16 rows, with
//! `__mmask16` column tails; its GEMV, AXPY, Gram and solve kernels are
//! the AVX2 ones.
//!
//! **Bit parity contract.** Every kernel reproduces its scalar reference
//! ([`crate::gemm::gemm_scalar`],
//! [`gram_accumulate_scalar`](crate::gemm::gram_accumulate_scalar),
//! [`caxpy_scalar`](crate::gemm::caxpy_scalar)) *bit for bit*, so results
//! do not depend on the machine's SIMD tier. That pins three choices:
//!
//! * the complex MAC is [`Cf32::mul_add`]'s two fused multiply-adds in
//!   its order: `fmadd(swap(b) * ±im(a), fmadd(b, re(a), acc))`, whose
//!   even lanes compute `fma(-a.im, b.im, fma(a.re, b.re, c.re))` and odd
//!   lanes `fma(a.im, b.re, fma(a.re, b.im, c.im))`. The sign of the even
//!   lanes' second product sits on one operand — the swapped B row
//!   ([`neg_re`]) or the broadcast `im(a)` — and `(-x) * y` is exactly
//!   `-(x * y)`, so every lane holds the scalar path's bits. The AVX2
//!   bodies that issue FMAs, and their callers, enable `fma` (the Avx2
//!   tier requires it; `avx512f` implies it);
//! * the fused order makes `conj(b) * conj(a)` differ from
//!   `conj(a * b)` in the last bit of the imaginary part, so a Gram
//!   product computes its lower triangle and mirrors the strictly upper
//!   one by conjugation, on every tier;
//! * accumulation over the inner dimension is strictly sequential — one
//!   accumulator per output element, never a lane reduction — matching the
//!   scalar loop's association.

#![cfg(target_arch = "x86_64")]
// The microkernels are written in the classic register-tile idiom:
// pointer-and-stride arguments and `0..R` index loops over const-generic
// accumulator arrays, which clippy's iterator/argument lints dislike but
// which keeps the code shaped like the registers it allocates.
#![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

use crate::complex::Cf32;
use core::arch::x86_64::*;

/// Rows per register tile.
const MR: usize = 4;
/// Complex columns per `__m256`.
const NR: usize = 4;
/// GEMV packing depth: the 4-row panel is transposed into an L1-resident
/// scratch this many columns at a time.
const TK: usize = 64;

/// `_mm256_permute_ps` immediate that swaps re/im within each pair.
const SWAP_RE_IM: i32 = 0b1011_0001;

/// Broadcasts one complex sample (8 bytes) to all four pairs of a
/// `__m256`. Goes through an integer load so no unaligned `f64` reference
/// is ever formed (`Cf32` is only 4-byte aligned).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bcast_pair(p: *const Cf32) -> __m256 {
    _mm256_castsi256_ps(_mm256_broadcastq_epi64(_mm_loadu_si64(p as *const u8)))
}

/// Lane mask selecting the first `t` complex samples (`2t` f32 lanes) of a
/// register; `t = 0` selects nothing.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(t: usize) -> __m256i {
    let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    _mm256_cmpgt_epi32(_mm256_set1_epi32((2 * t) as i32), idx)
}

/// `v` with the sign of every even (real) `f32` lane flipped.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn neg_re(v: __m256) -> __m256 {
    _mm256_xor_ps(v, _mm256_castsi256_ps(_mm256_set1_epi64x(0x8000_0000)))
}

/// One complex multiply-accumulate, [`Cf32::mul_add`] lane for lane:
/// `acc + broadcast(a) * bv` as two FMAs, where `bv` holds 4 complex
/// samples, `ar` the broadcast `re(a)`, and `bn * ai` the second
/// products — `bv` with re/im swapped times the broadcast `im(a)`, with
/// the even lanes of one of the two negated by [`neg_re`].
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn cmac(acc: __m256, bv: __m256, bn: __m256, ar: __m256, ai: __m256) -> __m256 {
    _mm256_fmadd_ps(bn, ai, _mm256_fmadd_ps(bv, ar, acc))
}

/// Register tile: `R` rows of A (row stride `lda`) times `4*C` columns of
/// B (row stride `ldb`), accumulated over `k` and stored to C (row stride
/// `ldc`). `R <= 4`, `C <= 2` keeps `R*C + 2*C` accumulator/operand
/// registers inside the 16-register budget.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile<const R: usize, const C: usize>(
    a: *const Cf32,
    lda: usize,
    b: *const Cf32,
    ldb: usize,
    k: usize,
    c: *mut Cf32,
    ldc: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); C]; R];
    for p in 0..k {
        let mut bv = [_mm256_setzero_ps(); C];
        let mut bs = [_mm256_setzero_ps(); C];
        for q in 0..C {
            bv[q] = _mm256_loadu_ps(b.add(p * ldb + NR * q) as *const f32);
            bs[q] = neg_re(_mm256_permute_ps(bv[q], SWAP_RE_IM));
        }
        for r in 0..R {
            let pair = bcast_pair(a.add(r * lda + p));
            let ar = _mm256_moveldup_ps(pair);
            let ai = _mm256_movehdup_ps(pair);
            for q in 0..C {
                acc[r][q] = cmac(acc[r][q], bv[q], bs[q], ar, ai);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (q, v) in row.iter().enumerate() {
            _mm256_storeu_ps(c.add(r * ldc + NR * q) as *mut f32, *v);
        }
    }
}

/// Masked column-tail tile: like [`tile`] with `C = 1`, but loads/stores
/// only the `n % 4` live columns through `vmaskmov`.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_masked<const R: usize>(
    a: *const Cf32,
    lda: usize,
    b: *const Cf32,
    ldb: usize,
    k: usize,
    c: *mut Cf32,
    ldc: usize,
    mask: __m256i,
) {
    let mut acc = [_mm256_setzero_ps(); R];
    for p in 0..k {
        let bv = _mm256_maskload_ps(b.add(p * ldb) as *const f32, mask);
        let bs = neg_re(_mm256_permute_ps(bv, SWAP_RE_IM));
        for r in 0..R {
            let pair = bcast_pair(a.add(r * lda + p));
            let ar = _mm256_moveldup_ps(pair);
            let ai = _mm256_movehdup_ps(pair);
            acc[r] = cmac(acc[r], bv, bs, ar, ai);
        }
    }
    for (r, v) in acc.iter().enumerate() {
        _mm256_maskstore_ps(c.add(r * ldc) as *mut f32, mask, *v);
    }
}

/// Accumulating register tile: like [`tile`], but the accumulators start
/// from the prior contents of C instead of zero, so the store performs
/// `C += A * B`. Because the accumulator is seeded *before* the `k` loop,
/// every output element sees `prior + p0 + p1 + ...` in strictly
/// sequential order — the exact association of a scalar loop that
/// continues accumulating into a live output.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_acc<const R: usize, const C: usize>(
    a: *const Cf32,
    lda: usize,
    b: *const Cf32,
    ldb: usize,
    k: usize,
    c: *mut Cf32,
    ldc: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); C]; R];
    for r in 0..R {
        for q in 0..C {
            acc[r][q] = _mm256_loadu_ps(c.add(r * ldc + NR * q) as *const f32);
        }
    }
    for p in 0..k {
        let mut bv = [_mm256_setzero_ps(); C];
        let mut bs = [_mm256_setzero_ps(); C];
        for q in 0..C {
            bv[q] = _mm256_loadu_ps(b.add(p * ldb + NR * q) as *const f32);
            bs[q] = neg_re(_mm256_permute_ps(bv[q], SWAP_RE_IM));
        }
        for r in 0..R {
            let pair = bcast_pair(a.add(r * lda + p));
            let ar = _mm256_moveldup_ps(pair);
            let ai = _mm256_movehdup_ps(pair);
            for q in 0..C {
                acc[r][q] = cmac(acc[r][q], bv[q], bs[q], ar, ai);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (q, v) in row.iter().enumerate() {
            _mm256_storeu_ps(c.add(r * ldc + NR * q) as *mut f32, *v);
        }
    }
}

/// Masked accumulating column-tail tile: [`tile_masked`] with the
/// accumulators seeded from the live columns of C through `vmaskmov`.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_acc_masked<const R: usize>(
    a: *const Cf32,
    lda: usize,
    b: *const Cf32,
    ldb: usize,
    k: usize,
    c: *mut Cf32,
    ldc: usize,
    mask: __m256i,
) {
    let mut acc = [_mm256_setzero_ps(); R];
    for r in 0..R {
        acc[r] = _mm256_maskload_ps(c.add(r * ldc) as *const f32, mask);
    }
    for p in 0..k {
        let bv = _mm256_maskload_ps(b.add(p * ldb) as *const f32, mask);
        let bs = neg_re(_mm256_permute_ps(bv, SWAP_RE_IM));
        for r in 0..R {
            let pair = bcast_pair(a.add(r * lda + p));
            let ar = _mm256_moveldup_ps(pair);
            let ai = _mm256_movehdup_ps(pair);
            acc[r] = cmac(acc[r], bv, bs, ar, ai);
        }
    }
    for (r, v) in acc.iter().enumerate() {
        _mm256_maskstore_ps(c.add(r * ldc) as *mut f32, mask, *v);
    }
}

/// AVX2 `C = A * B` for row-major complex operands, bit-identical to
/// [`crate::gemm::gemm_scalar`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that slice lengths match
/// the `m x k * k x n` shapes (checked by the public dispatch wrappers).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[Cf32],
    b: &[Cf32],
    c: &mut [Cf32],
) {
    if n == 1 {
        // Column vector: B is contiguous, so this is exactly a GEMV.
        gemv_avx2(m, k, a, b, c);
        return;
    }
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    let tail = n % NR;
    let n4 = n - tail;
    let mask = tail_mask(tail);
    let mut i = 0;
    while i + MR <= m {
        let arow = ap.add(i * k);
        let crow = cp.add(i * n);
        let mut j = 0;
        while j + 2 * NR <= n4 {
            tile::<MR, 2>(arow, k, bp.add(j), n, k, crow.add(j), n);
            j += 2 * NR;
        }
        while j + NR <= n4 {
            tile::<MR, 1>(arow, k, bp.add(j), n, k, crow.add(j), n);
            j += NR;
        }
        if tail != 0 {
            tile_masked::<MR>(arow, k, bp.add(j), n, k, crow.add(j), n, mask);
        }
        i += MR;
    }
    while i < m {
        let arow = ap.add(i * k);
        let crow = cp.add(i * n);
        let mut j = 0;
        while j + 2 * NR <= n4 {
            tile::<1, 2>(arow, k, bp.add(j), n, k, crow.add(j), n);
            j += 2 * NR;
        }
        while j + NR <= n4 {
            tile::<1, 1>(arow, k, bp.add(j), n, k, crow.add(j), n);
            j += NR;
        }
        if tail != 0 {
            tile_masked::<1>(arow, k, bp.add(j), n, k, crow.add(j), n, mask);
        }
        i += 1;
    }
}

/// Rows per `zmm` register tile: 16 accumulators plus the B row and its
/// signed swap stay well inside the 32-register budget.
const MZ: usize = 16;
/// Complex columns per `__m512`: one cache line of output per row.
const NZ: usize = 8;

/// One `zmm` complex multiply-accumulate, [`cmac`] in 16 lanes:
/// `fmadd(bn, ai, fmadd(bv, ar, acc))`, where `bn` is `bv` with re/im
/// swapped and its even (real) lanes negated.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn cmac_zmm(acc: __m512, bv: __m512, bn: __m512, ar: __m512, ai: __m512) -> __m512 {
    _mm512_fmadd_ps(bn, ai, _mm512_fmadd_ps(bv, ar, acc))
}

/// Register tile: `R` rows of A (row stride `lda`) times one 8-column
/// block of B (row stride `ldb`), accumulated over `k` and stored to C
/// (row stride `ldc`); with `TAIL`, only the columns `mask` selects are
/// loaded and stored. A whole block takes plain loads and stores: a
/// masked store is not forwarded to the loads that read C right after
/// (the demapper's, the plane store's). `re(a)` and `im(a)` are scalar
/// broadcasts the compiler folds into the multiplies; the signed swap of
/// the B row is built once per `p` and shared by every row.
#[target_feature(enable = "avx512f")]
unsafe fn tile_zmm<const R: usize, const TAIL: bool>(
    a: *const Cf32,
    lda: usize,
    b: *const Cf32,
    ldb: usize,
    k: usize,
    c: *mut Cf32,
    ldc: usize,
    mask: __mmask16,
) {
    // The sign bit of every even (real) f32 lane.
    let real_sign = _mm512_set1_epi64(0x8000_0000);
    let mut acc = [_mm512_setzero_ps(); R];
    for p in 0..k {
        let bp = b.add(p * ldb) as *const f32;
        let bv = if TAIL { _mm512_maskz_loadu_ps(mask, bp) } else { _mm512_loadu_ps(bp) };
        let swapped = _mm512_castps_si512(_mm512_permute_ps(bv, SWAP_RE_IM));
        let bn = _mm512_castsi512_ps(_mm512_xor_si512(swapped, real_sign));
        for r in 0..R {
            let ap = a.add(r * lda + p);
            let ar = _mm512_set1_ps((*ap).re);
            let ai = _mm512_set1_ps((*ap).im);
            acc[r] = cmac_zmm(acc[r], bv, bn, ar, ai);
        }
    }
    for (r, v) in acc.iter().enumerate() {
        let cp = c.add(r * ldc) as *mut f32;
        if TAIL {
            _mm512_mask_storeu_ps(cp, mask, *v);
        } else {
            _mm512_storeu_ps(cp, *v);
        }
    }
}

/// [`gemm_avx512`]'s pass over one 8-column block of C: 16-row tiles,
/// then the `m % 16` rows left in tiles of 8, 4, 2 and 1.
#[target_feature(enable = "avx512f")]
unsafe fn column_block<const TAIL: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: *const Cf32,
    b: *const Cf32,
    c: *mut Cf32,
    mask: __mmask16,
) {
    let mut i = 0;
    while i + MZ <= m {
        tile_zmm::<MZ, TAIL>(a.add(i * k), k, b, n, k, c.add(i * n), n, mask);
        i += MZ;
    }
    let rest = m - i;
    if rest & 8 != 0 {
        tile_zmm::<8, TAIL>(a.add(i * k), k, b, n, k, c.add(i * n), n, mask);
        i += 8;
    }
    if rest & 4 != 0 {
        tile_zmm::<4, TAIL>(a.add(i * k), k, b, n, k, c.add(i * n), n, mask);
        i += 4;
    }
    if rest & 2 != 0 {
        tile_zmm::<2, TAIL>(a.add(i * k), k, b, n, k, c.add(i * n), n, mask);
        i += 2;
    }
    if rest & 1 != 0 {
        tile_zmm::<1, TAIL>(a.add(i * k), k, b, n, k, c.add(i * n), n, mask);
    }
}

/// AVX-512 `C = A * B` for row-major complex operands, bit-identical to
/// [`crate::gemm::gemm_scalar`]: [`column_block`] over the 8-column
/// blocks of C, the last one masked when `n % 8 != 0`. A column vector
/// (`n = 1`) runs [`gemv_avx2`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F and that slice lengths
/// match the `m x k * k x n` shapes (checked by the public dispatch
/// wrappers).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn gemm_avx512(
    m: usize,
    k: usize,
    n: usize,
    a: &[Cf32],
    b: &[Cf32],
    c: &mut [Cf32],
) {
    if n == 1 {
        gemv_avx2(m, k, a, b, c);
        return;
    }
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut j = 0;
    while j + NZ <= n {
        column_block::<false>(m, k, n, ap, bp.add(j), cp.add(j), 0);
        j += NZ;
    }
    if j < n {
        let mask = ((1u32 << (2 * (n - j))) - 1) as __mmask16;
        column_block::<true>(m, k, n, ap, bp.add(j), cp.add(j), mask);
    }
}

/// Transposes an `MR x tk` panel of A (row stride `lda`) into `tk x MR`
/// column-interleaved scratch, via the 4x4 in-register transpose
/// microkernel for full blocks and scalar moves for the `tk % 4` edge.
#[target_feature(enable = "avx2")]
unsafe fn pack_panel(a: *const Cf32, lda: usize, tk: usize, dst: *mut Cf32) {
    let full = tk & !3;
    let mut p = 0;
    while p < full {
        crate::simd::transpose_4x4_avx2(a.add(p), lda, dst.add(p * MR), MR);
        p += 4;
    }
    while p < tk {
        for r in 0..MR {
            *dst.add(p * MR + r) = *a.add(r * lda + p);
        }
        p += 1;
    }
}

/// AVX2 `y = A x`: [`gemm_avx2`]'s body for a column vector (`n = 1`),
/// bit-identical to [`crate::gemm::gemm_scalar`] at that shape.
///
/// Vectorizes *across* four output rows (the sequential-accumulation
/// parity contract forbids splitting the dot product over lanes): each
/// 4-row panel of A is transposed into column-interleaved scratch, after
/// which every step of the dot product is one contiguous load + complex
/// MAC for all four rows at once. Leftover rows run the scalar loop.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that slice lengths match
/// (checked by [`gemm_avx2`]'s callers).
#[target_feature(enable = "avx2,fma")]
unsafe fn gemv_avx2(m: usize, k: usize, a: &[Cf32], x: &[Cf32], y: &mut [Cf32]) {
    let ap = a.as_ptr();
    let xp = x.as_ptr();
    let mut pack = [Cf32::ZERO; MR * TK];
    let mut i = 0;
    while i + MR <= m {
        let mut acc = _mm256_setzero_ps();
        let mut p0 = 0;
        while p0 < k {
            let tk = TK.min(k - p0);
            pack_panel(ap.add(i * k + p0), k, tk, pack.as_mut_ptr());
            for p in 0..tk {
                let av = _mm256_loadu_ps(pack.as_ptr().add(p * MR) as *const f32);
                // `x[p]` is the broadcast operand and A the per-lane one,
                // so `re(a)` and `im(a)` are A's duplicated parts: each
                // lane keeps `a.mul_add(x[p], acc)`'s product order.
                let xv = bcast_pair(xp.add(p0 + p));
                let xn = neg_re(_mm256_permute_ps(xv, SWAP_RE_IM));
                let (ar, ai) = (_mm256_moveldup_ps(av), _mm256_movehdup_ps(av));
                acc = cmac(acc, xv, xn, ar, ai);
            }
            p0 += tk;
        }
        _mm256_storeu_ps(y.as_mut_ptr().add(i) as *mut f32, acc);
        i += MR;
    }
    for r in i..m {
        let row = &a[r * k..(r + 1) * k];
        let mut s = Cf32::ZERO;
        for (&aij, &xj) in row.iter().zip(x.iter()) {
            s = aij.mul_add(xj, s);
        }
        y[r] = s;
    }
}

/// AVX2 complex AXPY `y += alpha * x` over contiguous slices,
/// bit-identical to the scalar `alpha.mul_add(x[i], y[i])` loop: each
/// element is [`cmac`]'s two FMAs, with no cross-element accumulation,
/// so vectorization cannot change results. This is the sweep primitive behind the Cholesky
/// factor/solve kernels: every column update and triangular-solve row
/// elimination is one contiguous AXPY.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and `x.len() == y.len()`
/// (checked by the public dispatch wrapper).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn caxpy_avx2(alpha: Cf32, x: &[Cf32], y: &mut [Cf32]) {
    let n = x.len();
    let pair = bcast_pair(&alpha as *const Cf32);
    let ar = _mm256_moveldup_ps(pair);
    let ai = neg_re(_mm256_movehdup_ps(pair));
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let n4 = n & !(NR - 1);
    let mut i = 0;
    while i < n4 {
        let xv = _mm256_loadu_ps(xp.add(i) as *const f32);
        let xs = _mm256_permute_ps(xv, SWAP_RE_IM);
        let yv = _mm256_loadu_ps(yp.add(i) as *const f32);
        _mm256_storeu_ps(yp.add(i) as *mut f32, cmac(yv, xv, xs, ar, ai));
        i += NR;
    }
    while i < n {
        y[i] = alpha.mul_add(x[i], y[i]);
        i += 1;
    }
}

/// AVX2 fused Cholesky triangular solve: given the lower factor `l`
/// (`n x n`, row-major) and `x` preloaded with the RHS (`n x nrhs`),
/// performs the forward (`L Y = B`) and backward (`L^H X = Y`) column
/// sweeps in place. Bit-identical to the scalar sweep in
/// `cholesky::solve_sweep_scalar`: the row scaling is an elementwise
/// multiply by the same `1/l[p][p]` f32 and each elimination is the
/// [`caxpy_avx2`] body (fused complex multiply-add, no cross-element
/// accumulation). Fusing the sweeps into one `target_feature` region
/// removes the per-AXPY dispatch and call overhead that dominates at
/// ZF sizes (`n = 16`, `nrhs = 64` means 240 eliminations of 64
/// elements each).
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, `l.len() == n * n`, and
/// `x.len() == n * nrhs`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn chol_solve_avx2(l: &[Cf32], n: usize, x: &mut [Cf32], nrhs: usize) {
    let lp = l.as_ptr();
    let base = x.as_mut_ptr();
    // Forward: L Y = B, swept two columns at a time. The pair is applied
    // to each target row in pivot order (`p` then `p+1`), so every
    // element sees the exact operation sequence of two single-column
    // sweeps — rank-2 only halves the target-row load/store traffic.
    let mut p = 0;
    while p + 1 < n {
        let src0 = base.add(p * nrhs);
        let src1 = base.add((p + 1) * nrhs);
        scale_row(1.0 / (*lp.add(p * n + p)).re, src0, nrhs);
        elim_row(-*lp.add((p + 1) * n + p), src0, src1, nrhs);
        scale_row(1.0 / (*lp.add((p + 1) * n + p + 1)).re, src1, nrhs);
        for i in p + 2..n {
            let a0 = -*lp.add(i * n + p);
            let a1 = -*lp.add(i * n + p + 1);
            elim_row2(a0, src0, a1, src1, base.add(i * nrhs), nrhs);
        }
        p += 2;
    }
    if p < n {
        let src = base.add(p * nrhs);
        scale_row(1.0 / (*lp.add(p * n + p)).re, src, nrhs);
        for i in p + 1..n {
            elim_row(-*lp.add(i * n + p), src, base.add(i * nrhs), nrhs);
        }
    }
    // Backward: L^H X = Y, bottom-up; L^H[i][p] = conj(L[p][i]).
    let mut p = n;
    while p >= 2 {
        p -= 2;
        // Pivot order is `p+1` then `p` (descending), as in the
        // single-column sweep.
        let src1 = base.add((p + 1) * nrhs);
        let src0 = base.add(p * nrhs);
        scale_row(1.0 / (*lp.add((p + 1) * n + p + 1)).re, src1, nrhs);
        elim_row(-(*lp.add((p + 1) * n + p)).conj(), src1, src0, nrhs);
        scale_row(1.0 / (*lp.add(p * n + p)).re, src0, nrhs);
        for i in 0..p {
            let a1 = -(*lp.add((p + 1) * n + i)).conj();
            let a0 = -(*lp.add(p * n + i)).conj();
            elim_row2(a1, src1, a0, src0, base.add(i * nrhs), nrhs);
        }
    }
    if p == 1 {
        // Only row 0 remains: scale it (no rows above to eliminate into).
        scale_row(1.0 / (*lp.add(0)).re, base, nrhs);
    }
}

/// Rank-2 sweep elimination `dst = (dst + a * srca) + b * srcb` — two
/// [`elim_row`] passes fused so the target row is loaded and stored once.
/// Per element the operation sequence is exactly the two sequential
/// single-column eliminations (first `a * srca`, then `b * srcb`), so the
/// result is bit-identical to calling [`elim_row`] twice.
///
/// # Safety
/// Must be inlined into an AVX2 `target_feature` caller; all three
/// pointers must cover `len` valid elements, `dst` disjoint from both
/// sources.
#[inline(always)]
unsafe fn elim_row2(
    a: Cf32,
    srca: *const Cf32,
    b: Cf32,
    srcb: *const Cf32,
    dst: *mut Cf32,
    len: usize,
) {
    let pa = bcast_pair(&a as *const Cf32);
    let ar = _mm256_moveldup_ps(pa);
    let ai = neg_re(_mm256_movehdup_ps(pa));
    let pb = bcast_pair(&b as *const Cf32);
    let br = _mm256_moveldup_ps(pb);
    let bi = neg_re(_mm256_movehdup_ps(pb));
    let len4 = len & !(NR - 1);
    let mut c = 0;
    while c < len4 {
        let xa = _mm256_loadu_ps(srca.add(c) as *const f32);
        let xb = _mm256_loadu_ps(srcb.add(c) as *const f32);
        let yv = _mm256_loadu_ps(dst.add(c) as *const f32);
        let t = cmac(yv, xa, _mm256_permute_ps(xa, SWAP_RE_IM), ar, ai);
        let u = cmac(t, xb, _mm256_permute_ps(xb, SWAP_RE_IM), br, bi);
        _mm256_storeu_ps(dst.add(c) as *mut f32, u);
        c += NR;
    }
    while c < len {
        let t = a.mul_add(*srca.add(c), *dst.add(c));
        *dst.add(c) = b.mul_add(*srcb.add(c), t);
        c += 1;
    }
}

/// One sweep elimination `dst += alpha * src` over `len` elements — the
/// [`caxpy_avx2`] body as an always-inlined helper so [`chol_solve_avx2`]
/// pays no per-row call or dispatch cost.
///
/// # Safety
/// Must be inlined into an AVX2 `target_feature` caller; `src` and `dst`
/// must point at `len` valid, non-overlapping elements.
#[inline(always)]
unsafe fn elim_row(alpha: Cf32, src: *const Cf32, dst: *mut Cf32, len: usize) {
    let pair = bcast_pair(&alpha as *const Cf32);
    let ar = _mm256_moveldup_ps(pair);
    let ai = neg_re(_mm256_movehdup_ps(pair));
    let len4 = len & !(NR - 1);
    let mut c = 0;
    while c < len4 {
        let xv = _mm256_loadu_ps(src.add(c) as *const f32);
        let xs = _mm256_permute_ps(xv, SWAP_RE_IM);
        let yv = _mm256_loadu_ps(dst.add(c) as *const f32);
        _mm256_storeu_ps(dst.add(c) as *mut f32, cmac(yv, xv, xs, ar, ai));
        c += NR;
    }
    while c < len {
        *dst.add(c) = alpha.mul_add(*src.add(c), *dst.add(c));
        c += 1;
    }
}

/// Elementwise scale of a `len`-element row by a real factor (both
/// components multiplied by the same f32 — identical to
/// `Cf32::scale`).
///
/// # Safety
/// Must be inlined into an AVX2 `target_feature` caller; `row` must point
/// at `len` valid elements.
#[inline(always)]
unsafe fn scale_row(inv_d: f32, row: *mut Cf32, len: usize) {
    let vd = _mm256_set1_ps(inv_d);
    let len4 = len & !(NR - 1);
    let mut c = 0;
    while c < len4 {
        let v = _mm256_loadu_ps(row.add(c) as *const f32);
        _mm256_storeu_ps(row.add(c) as *mut f32, _mm256_mul_ps(v, vd));
        c += NR;
    }
    while c < len {
        *row.add(c) = (*row.add(c)).scale(inv_d);
        c += 1;
    }
}

/// AVX2 accumulating Hermitian Gram product `g += hh * h` where
/// `hh = h^H` is supplied by the caller: `h` is `rows x cols`, `hh` is
/// `cols x rows`, `g` is `cols x cols`. This is the ZF Gram kernel, over
/// the whole array or one antenna cluster's rows: the accumulating tiles
/// ([`tile_acc`] / [`tile_acc_masked`]) seed their registers from the
/// prior contents of `g`, so every element sees `prior + p0 + p1 + ...`
/// — the scalar path's `conj(h[r][i]) * h[r][j]` products in the same
/// order — bit-identical to [`gram_accumulate_scalar`](crate::gemm::
/// gram_accumulate_scalar).
///
/// Both operands are walked contiguously — `hh` rows as the A operand,
/// `h` rows as the B operand — and only the lower-triangle tiles are
/// accumulated; every strictly-upper element is then rebuilt by
/// conjugate mirroring (also those the diagonal tiles computed), as the
/// scalar reference does. That is the upper triangle a Gram product
/// should hold **only when the prior contents of `g` are exactly
/// Hermitian bitwise** (zero, or the result of previous Gram
/// accumulations): the prior upper triangle is never read. The public
/// dispatch wrapper documents this precondition.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and slice lengths match
/// (checked by the public dispatch wrapper).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gram_accumulate_avx2(
    rows: usize,
    cols: usize,
    hh: &[Cf32],
    h: &[Cf32],
    g: &mut [Cf32],
) {
    let ap = hh.as_ptr();
    let bp = h.as_ptr();
    let gp = g.as_mut_ptr();
    let k = cols;
    // Lower-triangle tiles: row blocks of hh against column strips of h
    // with strip start <= block start (the block-diagonal strip included).
    let mut i0 = 0;
    while i0 + MR <= k {
        let arow = ap.add(i0 * rows);
        let crow = gp.add(i0 * k);
        // Pair adjacent strips into two-register tiles where possible —
        // same outputs, half the broadcast/load overhead per MAC.
        let mut j0 = 0;
        while j0 + 2 * NR <= i0 + NR {
            tile_acc::<MR, 2>(arow, rows, bp.add(j0), k, rows, crow.add(j0), k);
            j0 += 2 * NR;
        }
        while j0 <= i0 {
            let w = NR.min(k - j0);
            if w == NR {
                tile_acc::<MR, 1>(arow, rows, bp.add(j0), k, rows, crow.add(j0), k);
            } else {
                tile_acc_masked::<MR>(
                    arow,
                    rows,
                    bp.add(j0),
                    k,
                    rows,
                    crow.add(j0),
                    k,
                    tail_mask(w),
                );
            }
            j0 += NR;
        }
        i0 += MR;
    }
    for i in i0..k {
        let arow = ap.add(i * rows);
        let crow = gp.add(i * k);
        let mut j0 = 0;
        while j0 <= i {
            let w = NR.min(k - j0);
            if w == NR {
                tile_acc::<1, 1>(arow, rows, bp.add(j0), k, rows, crow.add(j0), k);
            } else {
                tile_acc_masked::<1>(
                    arow,
                    rows,
                    bp.add(j0),
                    k,
                    rows,
                    crow.add(j0),
                    k,
                    tail_mask(w),
                );
            }
            j0 += NR;
        }
    }
    // Mirror the strict upper triangle from the accumulated lower one.
    for i in 0..k {
        for j in i + 1..k {
            *gp.add(i * k + j) = (*gp.add(j * k + i)).conj();
        }
    }
}
