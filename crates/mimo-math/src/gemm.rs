//! Complex matrix multiplication kernels.
//!
//! Equalization and precoding multiply a fixed-size detector/precoder matrix
//! against every data subcarrier of every symbol, so GEMM dominates the
//! per-subcarrier cost after LDPC. The paper accelerates this with Intel
//! MKL's JIT GEMM, which emits vectorized code specialised for the one
//! `(M, K)` problem size the cell uses. This module reproduces both halves
//! of that trick:
//!
//! * **Shape specialisation** ("JIT" analogue): [`Gemm`] resolves the
//!   kernel at plan time, and on the scalar tier a shape in its table runs
//!   a const-generic kernel the compiler fully unrolls for that shape.
//!   The generic-vs-specialised gap is what Table 4's "JIT matrix
//!   multiplication" ablation row measures.
//! * **Vectorization**: on the AVX2 [`SimdTier`], [`gemm`] routes to the
//!   register-tiled `ymm` kernels in `gemm_simd` (a GEMV body for
//!   `n = 1`), and on the Avx512 tier to a `zmm` tile of up to 16 rows by
//!   one 8-column cache line; every body is bit-identical to the scalar
//!   reference [`gemm_scalar`] — the tier changes speed, never results.
//!
//! Beside the products sit the ZF pseudo-inverse's two primitives: the
//! accumulating Gram product [`gram_accumulate_with_tier`] and the AXPY
//! [`caxpy_with_tier`] its Cholesky sweeps are built from.
//!
//! [`gemm`] dispatches on [`SimdTier::cached`]; `_with_tier` variants pin
//! the tier for parity tests and ablations, clamped to what the CPU runs.

use crate::complex::Cf32;
use crate::simd::SimdTier;

/// Generic row-major complex GEMM: `C = A * B`, dispatched to the best
/// kernel for the detected SIMD tier.
///
/// `a` is `m x k`, `b` is `k x n`, `c` is `m x n`; all row-major.
///
/// # Panics
/// Panics if slice lengths do not match the shapes.
#[inline]
pub fn gemm(m: usize, k: usize, n: usize, a: &[Cf32], b: &[Cf32], c: &mut [Cf32]) {
    gemm_with_tier(m, k, n, a, b, c, SimdTier::cached());
}

/// [`gemm`] with the dispatch tier pinned by the caller (clamped to what
/// the CPU supports).
pub fn gemm_with_tier(
    m: usize,
    k: usize,
    n: usize,
    a: &[Cf32],
    b: &[Cf32],
    c: &mut [Cf32],
    tier: SimdTier,
) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    // SAFETY: the tier is clamped to the CPU's and the shapes are checked.
    match tier.min(SimdTier::cached()) {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { crate::gemm_simd::gemm_avx512(m, k, n, a, b, c) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { crate::gemm_simd::gemm_avx2(m, k, n, a, b, c) },
        _ => gemm_scalar(m, k, n, a, b, c),
    }
}

/// Scalar reference GEMM. The loop order (i, p, j) streams `b` and `c`
/// rows contiguously; the AVX2 and AVX-512 kernels reproduce its results
/// bit for bit.
///
/// # Panics
/// Panics if slice lengths do not match the shapes.
pub fn gemm_scalar(m: usize, k: usize, n: usize, a: &[Cf32], b: &[Cf32], c: &mut [Cf32]) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    c.fill(Cf32::ZERO);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &aip) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                *cj = aip.mul_add(bj, *cj);
            }
        }
    }
}

/// Shape-specialised GEMM, the body of a [`GemmKernel::Specialized`] plan.
/// The compiler monomorphises one copy per `(M, K, N)` triple in the
/// dispatch table and unrolls the inner loops — the moral equivalent of
/// MKL's JIT-generated kernel for a fixed problem size. Accumulation
/// order matches [`gemm_scalar`], so results are bit-equal.
///
/// # Panics
/// Panics if slice lengths do not match the const shapes.
#[inline]
fn gemm_fixed<const M: usize, const K: usize, const N: usize>(
    a: &[Cf32],
    b: &[Cf32],
    c: &mut [Cf32],
) {
    assert_eq!(a.len(), M * K, "A shape mismatch");
    assert_eq!(b.len(), K * N, "B shape mismatch");
    assert_eq!(c.len(), M * N, "C shape mismatch");
    for i in 0..M {
        let mut acc = [Cf32::ZERO; N];
        let arow = &a[i * K..(i + 1) * K];
        for p in 0..K {
            let aip = arow[p];
            let brow = &b[p * N..(p + 1) * N];
            for j in 0..N {
                acc[j] = aip.mul_add(brow[j], acc[j]);
            }
        }
        c[i * N..(i + 1) * N].copy_from_slice(&acc);
    }
}

/// Complex AXPY `y += alpha * x` over contiguous slices on the tier the
/// caller pinned (clamped to what the CPU supports); all tiers are
/// bit-identical because the update is purely elementwise (no
/// cross-element accumulation).
#[inline]
pub fn caxpy_with_tier(alpha: Cf32, x: &[Cf32], y: &mut [Cf32], tier: SimdTier) {
    assert_eq!(x.len(), y.len(), "caxpy length mismatch");
    // SAFETY: the tier is clamped to the CPU's, and the lengths the
    // vector body relies on are asserted above.
    match tier.min(SimdTier::cached()) {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => unsafe { crate::gemm_simd::caxpy_avx2(alpha, x, y) },
        _ => caxpy_scalar(alpha, x, y),
    }
}

/// Scalar reference AXPY.
pub fn caxpy_scalar(alpha: Cf32, x: &[Cf32], y: &mut [Cf32]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha.mul_add(xi, *yi);
    }
}

/// Accumulating Gram product `out += A^H A` when the caller already holds
/// the conjugate transpose: `a` is `rows x cols`, `ah` is `cols x rows`
/// and must equal `a^H` elementwise, `out` is `cols x cols`. This is the
/// ZF Gram kernel, run over the whole `M x K` channel on a zeroed `out`;
/// every tier reproduces the scalar reference's sequential order, so all
/// tiers are bit-identical. The AVX2 path walks both operands
/// contiguously and computes only the lower triangle (mirroring the rest
/// by conjugation); the ZF pseudo-inverse always has `a^H` on hand — it
/// is the right-hand side of the detector solve.
///
/// **Precondition**: the prior contents of `out` must be exactly
/// Hermitian bitwise — zero, or the result of previous Gram
/// accumulations. The AVX2 path accumulates only the lower triangle and
/// rebuilds the upper by conjugate mirroring, which matches direct upper
/// accumulation bit for bit only under that precondition (conjugation
/// distributes exactly over IEEE addition and the unfused products).
/// Runs on the tier the caller pinned, clamped to what the CPU supports.
pub fn gram_accumulate_with_tier(
    rows: usize,
    cols: usize,
    ah: &[Cf32],
    a: &[Cf32],
    out: &mut [Cf32],
    tier: SimdTier,
) {
    assert_eq!(a.len(), rows * cols, "A shape mismatch");
    assert_eq!(ah.len(), cols * rows, "A^H shape mismatch");
    assert_eq!(out.len(), cols * cols, "Gram output shape mismatch");
    // SAFETY: the tier is clamped to the CPU's, and the lengths the
    // vector body relies on are asserted above.
    match tier.min(SimdTier::cached()) {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => unsafe {
            crate::gemm_simd::gram_accumulate_avx2(rows, cols, ah, a, out)
        },
        _ => gram_accumulate_scalar(rows, cols, a, out),
    }
}

/// Scalar reference accumulating Gram product `out += A^H A`: row by row
/// of `a`, so the inner loops stream contiguously and the accumulation
/// continues from the prior contents of `out`.
pub fn gram_accumulate_scalar(rows: usize, cols: usize, a: &[Cf32], out: &mut [Cf32]) {
    assert_eq!(a.len(), rows * cols, "A shape mismatch");
    assert_eq!(out.len(), cols * cols, "Gram output shape mismatch");
    for r in 0..rows {
        let row = &a[r * cols..(r + 1) * cols];
        for i in 0..cols {
            let ai = row[i].conj();
            let grow = &mut out[i * cols..(i + 1) * cols];
            for (gj, &aj) in grow.iter_mut().zip(row.iter()) {
                *gj = ai.mul_add(aj, *gj);
            }
        }
    }
}

/// Which kernel a [`Gemm`] plan selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Generic three-loop scalar kernel, any shape.
    Generic,
    /// Monomorphised fixed-shape scalar kernel ("JIT" analogue).
    Specialized,
    /// Register-tiled AVX2 kernel (any shape, bit-equal to the others).
    Avx2,
    /// AVX-512 kernel: a `zmm` tile of up to 16 rows by 8 columns, the
    /// AVX2 GEMV at `n = 1` (any shape, bit-equal to the others).
    Avx512,
}

/// A small "planned GEMM" wrapper: resolves at construction which kernel
/// serves the problem shape — mirroring MKL's `mkl_jit_create_cgemm` +
/// `mkl_jit_get_cgemm_ptr` flow — *and* pins the SIMD tier, so the
/// equalize/precode inner loops pay no per-call feature detection or
/// shape-table probe.
#[derive(Debug, Clone, Copy)]
pub struct Gemm {
    m: usize,
    k: usize,
    n: usize,
    kernel: GemmKernel,
    /// Allows ablations to force the generic path even when a specialised
    /// kernel exists (Table 4, "JIT matmul disabled").
    force_generic: bool,
}

impl Gemm {
    /// Plans a GEMM for `m x k times k x n` on the detected tier.
    pub fn plan(m: usize, k: usize, n: usize) -> Self {
        Self::plan_with_tier(m, k, n, SimdTier::cached())
    }

    /// Plans a GEMM with the dispatch tier pinned by the caller, clamped
    /// to what the CPU supports: Avx512 and AVX2 take their vector
    /// kernels; the scalar tier picks the monomorphised kernel when the
    /// shape is in the table, the generic loop otherwise.
    pub fn plan_with_tier(m: usize, k: usize, n: usize, tier: SimdTier) -> Self {
        let kernel = match tier.min(SimdTier::cached()) {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => GemmKernel::Avx512,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => GemmKernel::Avx2,
            _ if dispatch_fixed(m, k, n, None, None, None).is_some() => GemmKernel::Specialized,
            _ => GemmKernel::Generic,
        };
        Self { m, k, n, kernel, force_generic: false }
    }

    /// Plans a GEMM but pins it to the generic scalar kernel (the Table 4
    /// "JIT matmul disabled" floor).
    pub fn plan_generic(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n, kernel: GemmKernel::Generic, force_generic: true }
    }

    /// The kernel this plan resolved to.
    pub fn kernel(&self) -> GemmKernel {
        if self.force_generic {
            GemmKernel::Generic
        } else {
            self.kernel
        }
    }

    /// Executes `C = A * B`.
    #[inline]
    pub fn run(&self, a: &[Cf32], b: &[Cf32], c: &mut [Cf32]) {
        #[cfg(target_arch = "x86_64")]
        if let kernel @ (GemmKernel::Avx2 | GemmKernel::Avx512) = self.kernel() {
            let (m, k, n) = (self.m, self.k, self.n);
            assert_eq!(a.len(), m * k, "A shape mismatch");
            assert_eq!(b.len(), k * n, "B shape mismatch");
            assert_eq!(c.len(), m * n, "C shape mismatch");
            // SAFETY: the plan's tier was clamped to the CPU's, and the
            // shapes are checked above.
            unsafe {
                if kernel == GemmKernel::Avx512 {
                    crate::gemm_simd::gemm_avx512(m, k, n, a, b, c)
                } else {
                    crate::gemm_simd::gemm_avx2(m, k, n, a, b, c)
                }
            };
            return;
        }
        if self.kernel() == GemmKernel::Specialized
            && dispatch_fixed(self.m, self.k, self.n, Some(a), Some(b), Some(c)).is_some()
        {
            return;
        }
        gemm_scalar(self.m, self.k, self.n, a, b, c);
    }
}

/// Dispatch table of monomorphised kernels for the MIMO shapes Agora's
/// evaluation uses: detector `K x M` against antenna blocks, precoder
/// `M x K` against user blocks, and the Gram/inverse products.
///
/// Called with `None` operands it only answers "is this shape specialised?".
fn dispatch_fixed(
    m: usize,
    k: usize,
    n: usize,
    a: Option<&[Cf32]>,
    b: Option<&[Cf32]>,
    c: Option<&mut [Cf32]>,
) -> Option<()> {
    macro_rules! table {
        ($(($mm:literal, $kk:literal, $nn:literal)),+ $(,)?) => {
            match (m, k, n) {
                $(
                    ($mm, $kk, $nn) => {
                        if let (Some(a), Some(b), Some(c)) = (a, b, c) {
                            gemm_fixed::<$mm, $kk, $nn>(a, b, c);
                        }
                        Some(())
                    }
                )+
                _ => None,
            }
        };
    }
    // Shapes: (users x antennas) * (antennas x batch) for equalization with
    // batch widths 1 and 8 (one cache line of subcarriers), Gram products,
    // and downlink precoding (antennas x users) * (users x batch).
    table!(
        // Equalization: detector (K x M) times received block (M x n).
        (16, 64, 1),
        (16, 64, 8),
        (8, 64, 1),
        (8, 64, 8),
        (16, 32, 1),
        (16, 32, 8),
        (4, 16, 1),
        (4, 16, 8),
        // Downlink precoding: precoder (M x K) times user block (K x n).
        (64, 16, 1),
        (64, 16, 8),
        (64, 8, 1),
        (64, 8, 8),
        (32, 16, 1),
        (32, 16, 8),
        (16, 4, 1),
        (16, 4, 8),
        // Detector assembly: (K x K) inverse times (K x M) Hermitian.
        (16, 16, 64),
        (8, 8, 64),
        (16, 16, 32),
        (4, 4, 16),
        // Gram: (K x M) times (M x K). ((8, 64, 8) is already covered by
        // the equalization section above.)
        (16, 64, 16),
        (16, 32, 16),
        (4, 16, 4),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CMat;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> CMat {
        // Deterministic pseudo-random fill without pulling in `rand` here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        CMat::from_fn(rows, cols, |_, _| {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 0.5
            };
            Cf32::new(next(), next())
        })
    }

    fn bits(c: &[Cf32]) -> Vec<(u32, u32)> {
        c.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn generic_matches_naive() {
        let a = rand_mat(5, 7, 1);
        let b = rand_mat(7, 3, 2);
        let mut c = vec![Cf32::ZERO; 15];
        gemm(5, 7, 3, a.as_slice(), b.as_slice(), &mut c);
        let c_ref = a.matmul(&b);
        let cm = CMat::from_fn(5, 3, |r, j| c[r * 3 + j]);
        assert!(cm.max_abs_diff(&c_ref) < 1e-4);
    }

    #[test]
    fn fixed_matches_generic() {
        let a = rand_mat(16, 64, 3);
        let b = rand_mat(64, 8, 4);
        let mut c1 = vec![Cf32::ZERO; 16 * 8];
        let mut c2 = vec![Cf32::ZERO; 16 * 8];
        gemm_scalar(16, 64, 8, a.as_slice(), b.as_slice(), &mut c1);
        gemm_fixed::<16, 64, 8>(a.as_slice(), b.as_slice(), &mut c2);
        // The monomorphised kernel shares the scalar association: bit-equal.
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn plan_selects_specialized_for_known_shapes() {
        let t = SimdTier::Scalar;
        assert_eq!(Gemm::plan_with_tier(16, 64, 8, t).kernel(), GemmKernel::Specialized);
        assert_eq!(Gemm::plan_with_tier(16, 64, 1, t).kernel(), GemmKernel::Specialized);
        assert_eq!(Gemm::plan_with_tier(17, 64, 8, t).kernel(), GemmKernel::Generic);
    }

    #[test]
    fn plan_resolves_the_kernel_from_the_tier_at_plan_time() {
        let g = Gemm::plan_with_tier(16, 64, 8, SimdTier::Scalar);
        assert_eq!(g.kernel(), GemmKernel::Specialized);
        let auto = Gemm::plan(16, 64, 8);
        let want = match SimdTier::cached() {
            SimdTier::Avx512 => GemmKernel::Avx512,
            SimdTier::Avx2 => GemmKernel::Avx2,
            SimdTier::Scalar => GemmKernel::Specialized,
        };
        assert_eq!(auto.kernel(), want);
    }

    /// A tier the caller asks for above the CPU's is clamped, so no plan
    /// holds a kernel the CPU cannot run.
    #[test]
    fn plan_clamps_the_tier_to_the_cpu() {
        let allowed = |kernel| match kernel {
            GemmKernel::Avx512 => SimdTier::Avx512,
            GemmKernel::Avx2 => SimdTier::Avx2,
            GemmKernel::Generic | GemmKernel::Specialized => SimdTier::Scalar,
        };
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            for (m, k, n) in [(16, 64, 8), (17, 5, 9), (4, 4, 1)] {
                let kernel = Gemm::plan_with_tier(m, k, n, tier).kernel();
                assert!(allowed(kernel) <= tier.min(SimdTier::cached()), "{tier:?}: {kernel:?}");
            }
        }
    }

    #[test]
    fn plan_generic_forces_generic() {
        let g = Gemm::plan_generic(16, 64, 8);
        assert_eq!(g.kernel(), GemmKernel::Generic);
    }

    #[test]
    fn planned_run_matches_matmul() {
        let a = rand_mat(16, 64, 5);
        let b = rand_mat(64, 8, 6);
        let plan = Gemm::plan(16, 64, 8);
        let mut c = CMat::zeros(16, 8);
        plan.run(a.as_slice(), b.as_slice(), c.as_mut_slice());
        assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-3);
    }

    #[test]
    fn all_plan_kernels_bit_agree() {
        let a = rand_mat(16, 64, 9);
        let b = rand_mat(64, 8, 10);
        let mut generic = vec![Cf32::ZERO; 16 * 8];
        let mut special = vec![Cf32::ZERO; 16 * 8];
        let mut tiered = vec![Cf32::ZERO; 16 * 8];
        Gemm::plan_generic(16, 64, 8).run(a.as_slice(), b.as_slice(), &mut generic);
        Gemm::plan_with_tier(16, 64, 8, SimdTier::Scalar).run(
            a.as_slice(),
            b.as_slice(),
            &mut special,
        );
        Gemm::plan(16, 64, 8).run(a.as_slice(), b.as_slice(), &mut tiered);
        assert_eq!(bits(&generic), bits(&special));
        assert_eq!(bits(&generic), bits(&tiered));
    }

    #[test]
    fn zero_inputs_give_zero_output() {
        let a = vec![Cf32::ZERO; 4 * 4];
        let b = vec![Cf32::ZERO; 4 * 4];
        let mut c = vec![Cf32::ONE; 16];
        gemm(4, 4, 4, &a, &b, &mut c);
        assert!(c.iter().all(|z| *z == Cf32::ZERO));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn fill(len: usize, seed: u64) -> Vec<Cf32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 1.0
                };
                Cf32::new(next(), next())
            })
            .collect()
    }

    fn bits(c: &[Cf32]) -> Vec<(u32, u32)> {
        c.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Every tier this CPU runs above scalar: what each parity check
    /// compares against the scalar reference.
    fn vector_tiers() -> impl Iterator<Item = SimdTier> {
        SimdTier::supported().filter(|&t| t > SimdTier::Scalar)
    }

    /// The products the engine issues, at its test (8x2) and paper
    /// (64x16) shapes with the 8-subcarrier block — pinned inputs, since
    /// the random sweeps below stop short of 64: planned equalize
    /// `(K, M, B)` and precode `(M, K, B)`, the strided-layout GEMV
    /// `(K, M)` and the ZF Gram `(M, K)`, on every vector tier.
    #[test]
    fn engine_shapes_tier_parity() {
        for (tier, (m, k)) in vector_tiers().flat_map(|t| [(t, (8usize, 2usize)), (t, (64, 16))]) {
            for (r, c) in [(k, m), (m, k)] {
                let a = fill(r * c, 7);
                let b = fill(c * 8, 11);
                let mut scalar = vec![Cf32::ZERO; r * 8];
                let mut simd = vec![Cf32::ONE; r * 8];
                Gemm::plan_with_tier(r, c, 8, SimdTier::Scalar).run(&a, &b, &mut scalar);
                Gemm::plan_with_tier(r, c, 8, tier).run(&a, &b, &mut simd);
                assert_eq!(bits(&scalar), bits(&simd), "{tier:?} plan ({r},{c},8)");
            }
            let w = fill(k * m, 13);
            let y = fill(m, 17);
            let mut scalar = vec![Cf32::ZERO; k];
            let mut simd = vec![Cf32::ONE; k];
            gemm_with_tier(k, m, 1, &w, &y, &mut scalar, SimdTier::Scalar);
            gemm_with_tier(k, m, 1, &w, &y, &mut simd, tier);
            assert_eq!(bits(&scalar), bits(&simd), "{tier:?} gemv ({k},{m})");
            let h = fill(m * k, 19);
            let hh: Vec<Cf32> = (0..k * m).map(|i| h[(i % m) * k + i / m].conj()).collect();
            let mut scalar = vec![Cf32::ZERO; k * k];
            let mut simd = vec![Cf32::ZERO; k * k];
            gram_accumulate_with_tier(m, k, &hh, &h, &mut scalar, SimdTier::Scalar);
            gram_accumulate_with_tier(m, k, &hh, &h, &mut simd, tier);
            assert_eq!(bits(&scalar), bits(&simd), "{tier:?} gram ({m},{k})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Scalar and every vector tier's GEMM agree to the bit over the
        /// engine's shape range: row counts off both row tiles, `k = 1`,
        /// and `n` up to 24 — two `zmm` column blocks and a masked tail,
        /// and the AVX2 tails of non-multiples of 4.
        #[test]
        fn gemm_tier_parity(m in 1usize..64, k in 1usize..64, n in 1usize..25, seed in 0u64..1024) {
            let a = fill(m * k, seed);
            let b = fill(k * n, seed ^ 0xABCD);
            let mut c_scalar = vec![Cf32::ZERO; m * n];
            gemm_with_tier(m, k, n, &a, &b, &mut c_scalar, SimdTier::Scalar);
            for tier in vector_tiers() {
                let mut c_simd = vec![Cf32::ONE; m * n]; // stale contents must be overwritten
                gemm_with_tier(m, k, n, &a, &b, &mut c_simd, tier);
                prop_assert_eq!(bits(&c_scalar), bits(&c_simd), "{:?}", tier);
            }
        }

        /// Scalar and every vector tier's GEMM agree to the bit on column
        /// vectors (`n = 1`, the GEMV body), including `m % 4` tail rows
        /// and packing-tile (`k > 64`) boundaries.
        #[test]
        fn gemv_tier_parity(m in 1usize..80, k in 1usize..80, seed in 0u64..1024) {
            let a = fill(m * k, seed);
            let x = fill(k, seed ^ 0x5u64);
            let mut y_scalar = vec![Cf32::ZERO; m];
            gemm_with_tier(m, k, 1, &a, &x, &mut y_scalar, SimdTier::Scalar);
            for tier in vector_tiers() {
                let mut y_simd = vec![Cf32::ONE; m];
                gemm_with_tier(m, k, 1, &a, &x, &mut y_simd, tier);
                prop_assert_eq!(bits(&y_scalar), bits(&y_simd), "{:?}", tier);
            }
        }

        /// Scalar and every vector tier's AXPY agree to the bit, including
        /// tails shorter than one vector.
        #[test]
        fn caxpy_tier_parity(n in 1usize..80, seed in 0u64..1024) {
            let alpha = fill(1, seed ^ 0xA1FA)[0];
            let x = fill(n, seed);
            let y = fill(n, seed ^ 0x77);
            let mut y_scalar = y.clone();
            caxpy_with_tier(alpha, &x, &mut y_scalar, SimdTier::Scalar);
            for tier in vector_tiers() {
                let mut y_simd = y.clone();
                caxpy_with_tier(alpha, &x, &mut y_simd, tier);
                prop_assert_eq!(bits(&y_scalar), bits(&y_simd), "{:?}", tier);
            }
        }

        /// Scalar and every vector tier's accumulating Gram products (lower
        /// triangle + conjugate mirror) agree to the bit on a zeroed output
        /// and when folding into a bitwise-Hermitian prior (the kernel's
        /// documented precondition), including `cols` that are not a
        /// multiple of the tile width and `cols = 1`.
        #[test]
        fn gram_accumulate_tier_parity(rows in 1usize..64, cols in 1usize..24, seed in 0u64..1024) {
            let a = fill(rows * cols, seed);
            let mut ah = vec![Cf32::ZERO; cols * rows];
            for r in 0..rows {
                for c in 0..cols {
                    ah[c * rows + r] = a[r * cols + c].conj();
                }
            }
            // Exactly Hermitian prior: random lower triangle mirrored by
            // conjugation, random diagonal.
            let lower = fill(cols * cols, seed ^ 0xBEEF);
            let mut hermitian = vec![Cf32::ZERO; cols * cols];
            for i in 0..cols {
                hermitian[i * cols + i] = lower[i * cols + i];
                for j in 0..i {
                    hermitian[i * cols + j] = lower[i * cols + j];
                    hermitian[j * cols + i] = lower[i * cols + j].conj();
                }
            }
            let zeroed = vec![Cf32::ZERO; cols * cols];
            for (tier, prior) in vector_tiers().flat_map(|t| [(t, &zeroed), (t, &hermitian)]) {
                let mut g_scalar = prior.clone();
                let mut g_simd = prior.clone();
                gram_accumulate_with_tier(rows, cols, &ah, &a, &mut g_scalar, SimdTier::Scalar);
                gram_accumulate_with_tier(rows, cols, &ah, &a, &mut g_simd, tier);
                prop_assert_eq!(bits(&g_scalar), bits(&g_simd), "{:?}", tier);
            }
        }

        /// Planned execution on every vector tier equals the scalar
        /// planned kernel bit for bit on arbitrary (unspecialised) shapes
        /// too, stale outputs overwritten.
        #[test]
        fn plan_tier_parity(m in 1usize..40, k in 1usize..40, n in 1usize..25, seed in 0u64..1024) {
            let a = fill(m * k, seed);
            let b = fill(k * n, seed ^ 0xF00D);
            let mut c_scalar = vec![Cf32::ZERO; m * n];
            Gemm::plan_with_tier(m, k, n, SimdTier::Scalar).run(&a, &b, &mut c_scalar);
            for tier in vector_tiers() {
                let mut c_simd = vec![Cf32::ONE; m * n];
                Gemm::plan_with_tier(m, k, n, tier).run(&a, &b, &mut c_simd);
                prop_assert_eq!(bits(&c_scalar), bits(&c_simd), "{:?}", tier);
            }
        }
    }
}
