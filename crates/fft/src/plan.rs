//! Precomputed FFT plans.
//!
//! Like MKL/FFTW, the transform is split into a *plan* (twiddle factors and
//! the bit-reversal permutation, computed once per size) and an *execute*
//! step that does no allocation. Every FFT task in the engine executes
//! against a shared, immutable [`FftPlan`], so plans are `Sync` and can be
//! stored in an `Arc` next to the cell configuration.
//!
//! Execution is [`SimdTier`]-dispatched: on AVX2 hosts the butterflies run
//! four complex values per 256-bit vector with the first two stages fused,
//! on AVX-512 hosts eight per 512-bit vector after the first three (see
//! [`crate::simd`]), bit for bit alike; everywhere else the scalar radix-2
//! loop is the reference. Callers that can produce their input in
//! bit-reversed order use [`FftPlan::execute_prereversed`] and skip the
//! permutation pass entirely; callers whose input comes a step of eight
//! samples at a time ([`Steps`]: the engine's IQ payloads, the IFFT's
//! frequency lines) use [`FftPlan::forward_of`], which places it and runs
//! the first stages in one pass; and [`FftPlan::execute_batch`] runs
//! several independent transforms through each stage together so twiddle
//! loads amortize across the batch.

use agora_math::simd::SimdTier;
use agora_math::Cf32;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time domain -> frequency domain (negative exponent).
    Forward,
    /// Frequency domain -> time domain (positive exponent, `1/N` scaling).
    Inverse,
}

/// Input a transform reads step by step: `n / 8` steps of eight samples,
/// step `t` being samples `8t..8t + 8` in natural order.
/// [`FftPlan::forward_of`] takes it, so a source that must be decoded or
/// assembled first is read one step at a time into registers and written
/// once, in bit-reversed order. Every method returns the same
/// samples, bit for bit; the vector ones are called only on a CPU with
/// their features and with `t < n / 8`.
pub trait Steps {
    /// Step `t`'s eight samples.
    fn step(&self, t: usize) -> [Cf32; 8];

    /// Step `t` as two AVX2 registers of four samples each, one `Cf32` per
    /// 64-bit lane: samples `[0 1 | 4 5]` and `[2 3 | 6 7]` (the order an
    /// in-lane byte shuffle decodes packed samples in).
    ///
    /// # Safety
    /// The CPU must support AVX2. Implementations should carry
    /// `#[target_feature(enable = "avx2")]` and `#[inline]`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn ymm(&self, t: usize) -> [core::arch::x86_64::__m256d; 2];

    /// Step `t` as one AVX-512 register, samples 0..8 in order.
    ///
    /// # Safety
    /// The CPU must support the [`SimdTier::Avx512`] features.
    /// Implementations should carry `#[target_feature(enable =
    /// "avx512f,avx512bw,avx512vl,avx512vbmi")]` (or a subset) and
    /// `#[inline]`, so they inline into the gather.
    #[cfg(target_arch = "x86_64")]
    unsafe fn zmm(&self, t: usize) -> core::arch::x86_64::__m512d;
}

/// The steps the closure returns, as [`Steps`] conjugated: `None` stands
/// for eight zeros, read as `conj(0) = (+0, -0)` — what
/// [`Direction::Inverse`]'s own conjugation makes of them. So
/// `forward_of(out, &Conj(x))` is `FFT(conj x)`, and `conj(out) / n` the
/// inverse transform of `x`, which a caller can fuse into its store
/// (`agora_math::simd::stream_conj_scale`): input that sits in several
/// places — the IFFT task's `dl_freq` lines, and guard bands it never
/// stores — is inverse-transformed without a natural-order copy, a cleared
/// grid or a conjugation pass.
pub struct Conj<F>(pub F);

impl<'a, F: Fn(usize) -> Option<&'a [Cf32; 8]>> Steps for Conj<F> {
    fn step(&self, t: usize) -> [Cf32; 8] {
        (self.0)(t).copied().unwrap_or([Cf32::ZERO; 8]).map(|z| z.conj())
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ymm(&self, t: usize) -> [core::arch::x86_64::__m256d; 2] {
        use core::arch::x86_64::*;
        let neg_im = _mm256_castps_pd(_mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0));
        let Some(x) = (self.0)(t) else { return [neg_im; 2] };
        let p = x.as_ptr() as *const f64;
        let lo = _mm256_loadu2_m128d(p.add(4), p);
        let hi = _mm256_loadu2_m128d(p.add(6), p.add(2));
        [_mm256_xor_pd(lo, neg_im), _mm256_xor_pd(hi, neg_im)]
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn zmm(&self, t: usize) -> core::arch::x86_64::__m512d {
        use core::arch::x86_64::*;
        let neg_im = _mm512_set1_epi64(1 << 63);
        let x = match (self.0)(t) {
            Some(x) => _mm512_loadu_si512(x.as_ptr() as *const _),
            None => _mm512_setzero_si512(),
        };
        _mm512_castsi512_pd(_mm512_xor_si512(x, neg_im))
    }
}

/// A transform's own natural-order samples as [`Steps`], read through
/// the raw pointer the in-place gather of `execute*` also writes through.
struct InPlace(*const Cf32);

impl Steps for InPlace {
    fn step(&self, t: usize) -> [Cf32; 8] {
        // SAFETY: `t < n / 8` for a pointer to the plan's `n` samples.
        unsafe { (self.0.add(8 * t) as *const [Cf32; 8]).read_unaligned() }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ymm(&self, t: usize) -> [core::arch::x86_64::__m256d; 2] {
        use core::arch::x86_64::*;
        let p = self.0.add(8 * t) as *const f64;
        [_mm256_loadu2_m128d(p.add(4), p), _mm256_loadu2_m128d(p.add(6), p.add(2))]
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn zmm(&self, t: usize) -> core::arch::x86_64::__m512d {
        core::arch::x86_64::_mm512_loadu_pd(self.0.add(8 * t) as *const f64)
    }
}

/// A radix-2 decimation-in-time FFT plan for one power-of-two size.
///
/// Twiddles are stored per stage in natural access order so the butterfly
/// inner loop streams them contiguously; the AVX2 path additionally keeps
/// a pre-splatted copy (see [`FftPlan::new`]).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    log2n: u32,
    /// Bit-reversal permutation of indices `0..n`.
    bitrev: Vec<u32>,
    /// Forward-direction twiddles, concatenated per stage: stage `s`
    /// (butterfly half-width `w = 2^s`) contributes the `w` twiddles
    /// `e^{-i pi j / w}` for `j` in `0..w` — exclusive of `w` itself
    /// (the half-turn `e^{-i pi}` is the negated `j = 0` twiddle and
    /// never stored).
    twiddles: Vec<Cf32>,
    /// Vector twiddle layout for the stages with `w >= 4`, concatenated
    /// per stage: each twiddle's real part duplicated per complex slot
    /// (`[re0 re0 re1 re1 ...]`) so a plain 256-bit (512-bit) load lines
    /// four (eight) twiddles up against as many interleaved `Cf32` — no
    /// broadcasts in the butterfly loop.
    tw_re_dup: Vec<f32>,
    /// Companion imaginary parts with alternating sign
    /// (`[-im0 +im0 -im1 +im1 ...]`), matching the swap-multiply-add
    /// complex product in `simd::butterflies_avx2`.
    tw_im_alt: Vec<f32>,
    /// Dispatch tier, clamped to what the host supports.
    tier: SimdTier,
}

impl FftPlan {
    /// Builds a plan for a power-of-two transform size, dispatching to the
    /// best SIMD tier the host supports.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        Self::with_tier(n, SimdTier::detect())
    }

    /// Builds a plan pinned to a specific SIMD tier (clamped to what the
    /// host actually supports, so forcing `Avx2` on a scalar-only machine
    /// degrades safely). Used by the tier-parity tests and benches.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn with_tier(n: usize, tier: SimdTier) -> Self {
        assert!(n.is_power_of_two() && n > 0, "FFT size must be a power of two, got {n}");
        let log2n = n.trailing_zeros();
        // Bit-reversal table.
        let mut bitrev = vec![0u32; n];
        for (i, b) in bitrev.iter_mut().enumerate() {
            *b = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        // Twiddles per stage, computed in f64 for accuracy.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut w = 1usize;
        while w < n {
            for j in 0..w {
                let ang = -core::f64::consts::PI * (j as f64) / (w as f64);
                twiddles.push(Cf32::new(ang.cos() as f32, ang.sin() as f32));
            }
            w *= 2;
        }
        // Pre-splatted AVX2 layout for the w >= 4 stages.
        let simd_len = 2 * n.saturating_sub(4);
        let mut tw_re_dup = Vec::with_capacity(simd_len);
        let mut tw_im_alt = Vec::with_capacity(simd_len);
        let mut w = 4usize;
        let mut off = 3usize; // stages 0 (1 twiddle) and 1 (2) are fused
        while w <= n / 2 {
            for j in 0..w {
                let tw = twiddles[off + j];
                tw_re_dup.push(tw.re);
                tw_re_dup.push(tw.re);
                tw_im_alt.push(-tw.im);
                tw_im_alt.push(tw.im);
            }
            off += w;
            w *= 2;
        }
        Self {
            n,
            log2n,
            bitrev,
            twiddles,
            tw_re_dup,
            tw_im_alt,
            tier: tier.min(SimdTier::detect()),
        }
    }

    /// Transform size.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: construction enforces `n >= 1`, so a plan never
    /// covers zero points. Kept for `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The SIMD tier this plan dispatches to.
    pub fn tier(&self) -> SimdTier {
        self.tier
    }

    /// The bit-reversal permutation table (`out[i] = in[bitrev[i]]` puts
    /// input in the order the butterfly stages expect). Callers that
    /// gather their input through this table can use
    /// [`Self::execute_prereversed`] and skip the in-place permutation pass.
    #[inline(always)]
    pub fn bitrev(&self) -> &[u32] {
        &self.bitrev
    }

    /// In-place transform of exactly `self.len()` samples.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn execute(&self, data: &mut [Cf32], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        self.run(data, dir, false);
    }

    /// In-place transform of input already in bit-reversed order (e.g.
    /// written through [`Self::bitrev`] by a fused gather). Identical
    /// output to [`Self::execute`] on naturally-ordered input, minus the
    /// permutation pass.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn execute_prereversed(&self, data: &mut [Cf32], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        self.run(data, dir, true);
    }

    /// In-place transform of `data.len() / self.len()` independent,
    /// back-to-back transforms. All transforms advance through each
    /// butterfly stage together, so per-stage twiddle loads are shared
    /// across the batch (the benchmark's `fft.fwd_us` / `fft.inv_us`
    /// leaf runs a batch).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan size.
    pub fn execute_batch(&self, data: &mut [Cf32], dir: Direction) {
        assert_eq!(data.len() % self.n, 0, "buffer length must be a multiple of plan size");
        self.run(data, dir, false);
    }

    /// The forward transform of `x`, given as [`Steps`], into `out`: `x`
    /// placed in bit-reversed order ([`Self::bitrev`]) and then
    /// [`Self::execute_prereversed`] with [`Direction::Forward`], so the
    /// bits are theirs. The vector bodies place four steps (AVX2) or eight
    /// (AVX-512, 64 points and up) at a time as whole 32- or 64-byte runs
    /// of `out` (DESIGN.md §4.1) and run the first butterfly stages on the
    /// runs before they are stored: the first two on the AVX2 tier (each
    /// 32-byte run is one radix-4 group), the first three on the AVX-512
    /// tier, between the eight rows of steps before their transpose. So
    /// the uplink's IQ payloads and the IFFT task's frequency lines
    /// ([`Conj`]) reach the remaining stages without a copy, a permutation
    /// pass or a pass of their own for the first stages.
    ///
    /// # Panics
    /// Panics unless `out.len()` is the plan size and at least 8.
    pub fn forward_of(&self, out: &mut [Cf32], steps: &impl Steps) {
        assert!(out.len() == self.n && self.n >= 8, "output must be one transform of 8+ points");
        #[cfg(target_arch = "x86_64")]
        // SAFETY (both arms): the tier is clamped to what the CPU supports,
        // `bitrev` is this plan's permutation of `out.len()` points and the
        // twiddles are this plan's.
        if self.tier >= SimdTier::Avx512 && self.n >= 64 {
            let (re, im) = (&self.tw_re_dup, &self.tw_im_alt);
            unsafe {
                let p = out.as_mut_ptr();
                crate::simd::gather_avx512::<_, false>(&self.bitrev, p, steps, re, im);
                crate::simd::butterflies_avx512(out, self.n, re, im, true);
            }
            return;
        } else if self.tier >= SimdTier::Avx2 && self.n >= 32 {
            unsafe {
                crate::simd::gather_avx2::<_, false>(&self.bitrev, out.as_mut_ptr(), steps);
                crate::simd::butterflies_avx2(out, self.n, &self.tw_re_dup, &self.tw_im_alt, true);
            }
            return;
        }
        self.gather_scalar(out, steps);
        self.butterflies(out, false);
    }

    /// The scalar placement of [`Self::forward_of`]: `x` into `out` in
    /// bit-reversed order.
    fn gather_scalar(&self, out: &mut [Cf32], steps: &impl Steps) {
        for (t, slots) in self.bitrev.chunks_exact(8).enumerate() {
            for (&j, x) in slots.iter().zip(steps.step(t)) {
                out[j as usize] = x;
            }
        }
    }

    /// Shared body for all execute variants; `data` holds one or more
    /// transforms.
    fn run(&self, data: &mut [Cf32], dir: Direction, prereversed: bool) {
        if self.n == 1 || data.is_empty() {
            return;
        }
        // Conjugate trick for the inverse: IFFT(x) = conj(FFT(conj(x)))/N.
        // Conjugation is elementwise, so it commutes with the bit-reversal
        // permutation: natural-order input is conjugated by the
        // permutation itself, pre-reversed input by a pass of its own.
        let inverse = dir == Direction::Inverse;
        let scale = 1.0 / self.n as f32;
        if prereversed {
            if inverse {
                self.conj_pass(data);
            }
            self.butterflies(data, false);
            if inverse {
                self.conj_scale_pass(data, scale);
            }
            return;
        }
        // Permute, butterfly and scale tile by tile, so a transform's data
        // is still cache-resident when its butterflies start. With large
        // batches a permute-everything-then-butterfly-everything order
        // would evict each transform between the two passes.
        let tile = self.tile_transforms() * self.n;
        for slice in data.chunks_mut(tile) {
            let mut first_done = false;
            for chunk in slice.chunks_exact_mut(self.n) {
                first_done = self.bit_reverse(chunk, inverse);
            }
            self.butterflies(slice, first_done);
            if inverse {
                self.conj_scale_pass(slice, scale);
            }
        }
    }

    /// Transforms the SIMD tier processes per cache tile (1 for scalar,
    /// which has no cross-transform twiddle sharing to exploit).
    fn tile_transforms(&self) -> usize {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            return crate::simd::tile_transforms(self.n);
        }
        1
    }

    /// In-place bit-reversal permutation of one natural-order transform,
    /// conjugating every sample on the way when `conj` is set. On the
    /// vector tiers (64 points and up) it is the step gather of
    /// [`Self::forward_of`] with the transform as its own [`Steps`]
    /// ([`Conj`] for the inverse), in place, so the first butterfly stages
    /// run in the same pass and it returns `true`; elsewhere it swaps
    /// slot by slot and returns `false`.
    fn bit_reverse(&self, data: &mut [Cf32], conj: bool) -> bool {
        debug_assert_eq!(data.len(), self.n);
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 && self.n >= 64 {
            let p = data.as_mut_ptr();
            // SAFETY: `p` covers the transform's `n` samples, read and
            // written only through `p` while the gather runs, in the
            // pairs that let it work in place.
            unsafe {
                if conj {
                    self.gather_in_place(p, &Conj(|t| Some(&*(p.add(8 * t) as *const [Cf32; 8]))));
                } else {
                    self.gather_in_place(p, &InPlace(p));
                }
            }
            return true;
        }
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                if conj {
                    (data[i], data[j]) = (data[j].conj(), data[i].conj());
                } else {
                    data.swap(i, j);
                }
            } else if i == j && conj {
                data[i] = data[i].conj();
            }
        }
        false
    }

    /// The vector gather with the first butterfly stages, from steps that
    /// may read `out` itself.
    ///
    /// # Safety
    /// The tier must be a vector one and `n >= 64`; `out` must be valid
    /// for the plan's `n` samples, with no reference to them alive.
    #[cfg(target_arch = "x86_64")]
    unsafe fn gather_in_place(&self, out: *mut Cf32, steps: &impl Steps) {
        let (re, im) = (&self.tw_re_dup, &self.tw_im_alt);
        if self.tier >= SimdTier::Avx512 {
            crate::simd::gather_avx512::<_, true>(&self.bitrev, out, steps, re, im);
        } else {
            crate::simd::gather_avx2::<_, true>(&self.bitrev, out, steps);
        }
    }

    /// All butterfly stages over one or more bit-reversed transforms, all
    /// but those [`Self::bit_reverse`] ran when `first_done`.
    fn butterflies(&self, data: &mut [Cf32], first_done: bool) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY (both arms): the tier is clamped to what the CPU supports,
        // and the twiddles are this plan's.
        if self.tier >= SimdTier::Avx512 && self.n >= 64 {
            let (re, im) = (&self.tw_re_dup, &self.tw_im_alt);
            unsafe { crate::simd::butterflies_avx512(data, self.n, re, im, first_done) };
            return;
        } else if self.tier >= SimdTier::Avx2 && self.n >= 4 {
            let (re, im) = (&self.tw_re_dup, &self.tw_im_alt);
            unsafe { crate::simd::butterflies_avx2(data, self.n, re, im, first_done) };
            return;
        }
        debug_assert!(!first_done);
        for chunk in data.chunks_exact_mut(self.n) {
            self.butterflies_scalar(chunk);
        }
    }

    fn conj_pass(&self, data: &mut [Cf32]) {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            unsafe { crate::simd::conj_avx2(data) };
            return;
        }
        for z in data.iter_mut() {
            *z = z.conj();
        }
    }

    fn conj_scale_pass(&self, data: &mut [Cf32], scale: f32) {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            unsafe { crate::simd::conj_scale_avx2(data, scale) };
            return;
        }
        for z in data.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }

    /// Scalar reference butterflies for one bit-reversed transform.
    fn butterflies_scalar(&self, data: &mut [Cf32]) {
        let n = self.n;
        // Iterative DIT butterflies.
        let mut w = 1usize; // half-width of the current butterfly
        let mut tw_off = 0usize;
        for _stage in 0..self.log2n {
            let stride = w * 2;
            let tws = &self.twiddles[tw_off..tw_off + w];
            let mut base = 0usize;
            while base < n {
                for j in 0..w {
                    let a = data[base + j];
                    let b = data[base + j + w] * tws[j];
                    data[base + j] = a + b;
                    data[base + j + w] = a - b;
                }
                base += stride;
            }
            tw_off += w;
            w = stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_ref::{dft, idft};

    fn signal(n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|i| {
                let t = i as f32;
                Cf32::new((0.3 * t).sin() + 0.2, (0.7 * t).cos() - 0.1)
            })
            .collect()
    }

    fn max_err(a: &[Cf32], b: &[Cf32]) -> f32 {
        a.iter().zip(b.iter()).map(|(x, y)| (*x - *y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn matches_reference_dft_all_small_sizes() {
        for log2 in 0..=10 {
            let n = 1usize << log2;
            let x = signal(n);
            let mut y = x.clone();
            FftPlan::new(n).execute(&mut y, Direction::Forward);
            let y_ref = dft(&x);
            let tol = 1e-3 * (n as f32).sqrt();
            assert!(max_err(&y, &y_ref) < tol, "size {n} error too large");
        }
    }

    #[test]
    fn scalar_tier_matches_reference_dft_all_small_sizes() {
        for log2 in 0..=10 {
            let n = 1usize << log2;
            let x = signal(n);
            let mut y = x.clone();
            FftPlan::with_tier(n, SimdTier::Scalar).execute(&mut y, Direction::Forward);
            let y_ref = dft(&x);
            let tol = 1e-3 * (n as f32).sqrt();
            assert!(max_err(&y, &y_ref) < tol, "size {n} error too large");
        }
    }

    #[test]
    fn inverse_matches_reference_idft() {
        let n = 64;
        let x = signal(n);
        let mut y = x.clone();
        FftPlan::new(n).execute(&mut y, Direction::Inverse);
        let y_ref = idft(&x);
        assert!(max_err(&y, &y_ref) < 1e-4);
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[8usize, 256, 2048] {
            let plan = FftPlan::new(n);
            let x = signal(n);
            let mut y = x.clone();
            plan.execute(&mut y, Direction::Forward);
            plan.execute(&mut y, Direction::Inverse);
            assert!(max_err(&x, &y) < 1e-3, "roundtrip failed for {n}");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 128;
        let mut x = vec![Cf32::ZERO; n];
        x[0] = Cf32::ONE;
        FftPlan::new(n).execute(&mut x, Direction::Forward);
        for v in x {
            assert!((v.re - 1.0).abs() < 1e-4 && v.im.abs() < 1e-4);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let k = 19usize;
        let x: Vec<Cf32> = (0..n)
            .map(|i| Cf32::cis(2.0 * core::f32::consts::PI * (k * i) as f32 / n as f32))
            .collect();
        let mut y = x.clone();
        FftPlan::new(n).execute(&mut y, Direction::Forward);
        for (bin, v) in y.iter().enumerate() {
            if bin == k {
                assert!((v.abs() - n as f32).abs() < 0.1 * n as f32);
            } else {
                assert!(v.abs() < 1e-2 * n as f32, "leakage in bin {bin}: {}", v.abs());
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = FftPlan::new(n);
        let a = signal(n);
        let b: Vec<Cf32> = signal(n).iter().map(|z| z.conj()).collect();
        let sum: Vec<Cf32> = a.iter().zip(b.iter()).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        plan.execute(&mut fa, Direction::Forward);
        plan.execute(&mut fb, Direction::Forward);
        plan.execute(&mut fsum, Direction::Forward);
        let combined: Vec<Cf32> = fa.iter().zip(fb.iter()).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &combined) < 1e-3);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 512;
        let x = signal(n);
        let time_energy: f32 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        FftPlan::new(n).execute(&mut y, Direction::Forward);
        let freq_energy: f32 = y.iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() < 1e-2 * time_energy);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1);
        let mut x = [Cf32::new(3.0, -2.0)];
        plan.execute(&mut x, Direction::Forward);
        assert_eq!(x[0], Cf32::new(3.0, -2.0));
    }

    #[test]
    fn plans_are_never_empty() {
        assert!(!FftPlan::new(1).is_empty());
        assert!(!FftPlan::new(2048).is_empty());
    }

    /// Natural-order input (permuted in place, by the step gather on the
    /// vector tiers) transforms to the bits of the same input gathered
    /// through the table and run pre-reversed: every size 1..=4096, every
    /// tier, both directions, one transform and a batch of three.
    #[test]
    fn prereversed_matches_two_pass_execute() {
        for log2 in 0..=12 {
            let n = 1usize << log2;
            let x = signal(3 * n);
            for tier in SimdTier::supported() {
                let plan = FftPlan::with_tier(n, tier);
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut two_pass = x.clone();
                    plan.execute_batch(&mut two_pass, dir);
                    let mut single = x[..n].to_vec();
                    plan.execute(&mut single, dir);
                    let mut gathered: Vec<Cf32> =
                        (0..3 * n).map(|i| x[i / n * n + plan.bitrev()[i % n] as usize]).collect();
                    for chunk in gathered.chunks_exact_mut(n) {
                        plan.execute_prereversed(chunk, dir);
                    }
                    let what = format!("n {n} {tier:?} {dir:?}");
                    assert!(bits(&two_pass) == bits(&gathered), "{what}: execute_batch");
                    assert!(bits(&single) == bits(&gathered[..n]), "{what}: execute");
                }
            }
        }
    }

    #[test]
    fn batch_matches_independent_transforms() {
        let n = 256;
        let batch = 5;
        for dir in [Direction::Forward, Direction::Inverse] {
            let plan = FftPlan::new(n);
            let mut data: Vec<Cf32> = Vec::new();
            for t in 0..batch {
                data.extend(signal(n).iter().map(|z| z.scale(1.0 + t as f32 * 0.3)));
            }
            let mut expect = data.clone();
            for chunk in expect.chunks_exact_mut(n) {
                plan.execute(chunk, dir);
            }
            plan.execute_batch(&mut data, dir);
            assert!(max_err(&expect, &data) < 1e-5, "batch diverged ({dir:?})");
        }
    }

    fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The inverse folds its first conjugation into the permutation (or
    /// its own pass, pre-reversed) and its `conj / n` into one closing
    /// pass; either way it is `conj(FFT(conj x)) / n` through the forward
    /// path, bit for bit — every size 1..=4096, every tier, one transform
    /// and a batch of three, natural and pre-reversed order.
    #[test]
    fn inverse_is_the_conjugated_forward_bit_for_bit() {
        for log2 in 0..=12 {
            let n = 1usize << log2;
            for tier in SimdTier::supported() {
                let plan = FftPlan::with_tier(n, tier);
                let x: Vec<Cf32> = signal(3 * n).iter().map(|z| z.scale(0.5)).collect();
                let mut want: Vec<Cf32> = x.iter().map(|z| z.conj()).collect();
                plan.execute_batch(&mut want, Direction::Forward);
                let want: Vec<Cf32> = want.iter().map(|z| z.conj().scale(1.0 / n as f32)).collect();
                let mut single = x[..n].to_vec();
                plan.execute(&mut single, Direction::Inverse);
                assert!(bits(&single) == bits(&want[..n]), "n {n} {tier:?}: execute");
                let mut batch = x.clone();
                plan.execute_batch(&mut batch, Direction::Inverse);
                assert!(bits(&batch) == bits(&want), "n {n} {tier:?}: execute_batch");
                let mut gathered: Vec<Cf32> =
                    (0..3 * n).map(|i| x[i / n * n + plan.bitrev()[i % n] as usize]).collect();
                for chunk in gathered.chunks_exact_mut(n) {
                    plan.execute_prereversed(chunk, Direction::Inverse);
                }
                assert!(bits(&gathered) == bits(&want), "n {n} {tier:?}: prereversed");
            }
        }
    }

    /// Every third step of `x` a guard band: zeros the caller never stores.
    fn guarded_steps(x: &[Cf32]) -> Vec<Option<&[Cf32; 8]>> {
        x.chunks_exact(8)
            .enumerate()
            .map(|(t, s)| (t % 3 != 1).then(|| s.try_into().unwrap()))
            .collect()
    }

    /// `forward_of(Conj)` is the conjugated input in bit-reversed order, a
    /// missing step as `(+0, -0)`, through `execute_prereversed(Forward)`,
    /// on every tier and size 8..=4096; behind `conj / n` that is the same
    /// tier's inverse transform, bit for bit.
    #[test]
    fn forward_of_conj_is_the_forward_transform_of_the_conjugate() {
        for log2 in 3..=12 {
            let n = 1usize << log2;
            let x = signal(n);
            let steps = guarded_steps(&x);
            let natural: Vec<Cf32> =
                steps.iter().flat_map(|s| s.map_or([Cf32::ZERO; 8], |s| *s)).collect();
            for tier in SimdTier::supported() {
                let plan = FftPlan::with_tier(n, tier);
                let mut inverse = natural.clone();
                plan.execute(&mut inverse, Direction::Inverse);
                let mut want: Vec<Cf32> =
                    plan.bitrev().iter().map(|&j| natural[j as usize].conj()).collect();
                let mut out = vec![Cf32::new(f32::NAN, 1.0); n];
                plan.forward_of(&mut out, &Conj(|t| steps[t]));
                plan.execute_prereversed(&mut want, Direction::Forward);
                assert!(bits(&out) == bits(&want), "n {n} {tier:?}");
                let out: Vec<Cf32> = out.iter().map(|z| z.conj().scale(1.0 / n as f32)).collect();
                assert!(bits(&out) == bits(&inverse), "n {n} {tier:?}: as an inverse");
            }
        }
    }

    /// Every vector tier writes the AVX2 tier's bits: every size 8..=4096,
    /// both directions, one transform and a batch of three in natural
    /// order, one pre-reversed, and one from steps.
    #[test]
    fn vector_tiers_are_bit_identical() {
        for log2 in 3..=12 {
            let n = 1usize << log2;
            let x: Vec<Cf32> = signal(3 * n).iter().map(|z| z.scale(0.7)).collect();
            let steps = guarded_steps(&x[..n]);
            let run = |tier| {
                let plan = FftPlan::with_tier(n, tier);
                let mut outs = Vec::new();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut single = x[..n].to_vec();
                    plan.execute(&mut single, dir);
                    let mut batch = x.clone();
                    plan.execute_batch(&mut batch, dir);
                    let mut pre = x[..n].to_vec();
                    plan.execute_prereversed(&mut pre, dir);
                    outs.extend([single, batch, pre]);
                }
                let mut forward = vec![Cf32::ZERO; n];
                plan.forward_of(&mut forward, &Conj(|t| steps[t]));
                outs.push(forward);
                outs.iter().map(|v| bits(v)).collect::<Vec<_>>()
            };
            let avx2 = run(SimdTier::Avx2);
            for tier in SimdTier::supported().filter(|&t| t > SimdTier::Avx2) {
                for (i, (got, want)) in run(tier).iter().zip(&avx2).enumerate() {
                    assert!(got == want, "n {n} {tier:?}: output {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FftPlan::new(48);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_rejected() {
        let plan = FftPlan::new(8);
        let mut x = vec![Cf32::ZERO; 4];
        plan.execute(&mut x, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "multiple of plan size")]
    fn batch_length_must_be_multiple() {
        let plan = FftPlan::new(8);
        let mut x = vec![Cf32::ZERO; 12];
        plan.execute_batch(&mut x, Direction::Forward);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn rand_signal(n: usize, seed: u64) -> Vec<Cf32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
                };
                Cf32::new(next(), next())
            })
            .collect()
    }

    fn max_err(a: &[Cf32], b: &[Cf32]) -> f32 {
        a.iter().zip(b.iter()).map(|(x, y)| (*x - *y).abs()).fold(0.0, f32::max)
    }

    fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    proptest! {
        #[test]
        fn roundtrip_recovers_input(
            log2 in 1u32..9,
            seed in any::<u64>(),
        ) {
            let n = 1usize << log2;
            let x = rand_signal(n, seed);
            let plan = FftPlan::new(n);
            let mut y = x.clone();
            plan.execute(&mut y, Direction::Forward);
            plan.execute(&mut y, Direction::Inverse);
            let err = x.iter().zip(y.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max);
            prop_assert!(err < 1e-3);
        }

        /// Every supported tier against the scalar oracle for single
        /// transforms, sizes 8..=4096, both directions: within a tolerance
        /// (the vector bodies' twiddle-free first stages differ from the
        /// scalar multiplies by `1` and `-i` in signed zeros), and every
        /// vector tier bit-equal to `Avx2`.
        #[test]
        fn tier_parity_single(
            log2 in 3u32..13,
            seed in any::<u64>(),
            forward in any::<bool>(),
        ) {
            let n = 1usize << log2;
            let dir = if forward { Direction::Forward } else { Direction::Inverse };
            let x = rand_signal(n, seed);
            let run = |tier| {
                let mut y = x.clone();
                FftPlan::with_tier(n, tier).execute(&mut y, dir);
                y
            };
            let (scalar, avx2) = (run(SimdTier::Scalar), run(SimdTier::Avx2));
            let tol = 1e-4 * (n as f32).sqrt().max(1.0);
            for tier in SimdTier::supported() {
                let simd = run(tier);
                prop_assert!(max_err(&scalar, &simd) < tol, "tier divergence at n={n} {dir:?} {tier:?}");
                if tier >= SimdTier::Avx2 {
                    prop_assert!(bits(&simd) == bits(&avx2), "not Avx2's bits: n={n} {dir:?} {tier:?}");
                }
            }
        }

        /// [`tier_parity_single`] for the batched path.
        #[test]
        fn tier_parity_batch(
            log2 in 3u32..13,
            batch in 1usize..5,
            seed in any::<u64>(),
            forward in any::<bool>(),
        ) {
            let n = 1usize << log2;
            let dir = if forward { Direction::Forward } else { Direction::Inverse };
            let x = rand_signal(n * batch, seed);
            let run = |tier| {
                let mut y = x.clone();
                FftPlan::with_tier(n, tier).execute_batch(&mut y, dir);
                y
            };
            let (scalar, avx2) = (run(SimdTier::Scalar), run(SimdTier::Avx2));
            let tol = 1e-4 * (n as f32).sqrt().max(1.0);
            for tier in SimdTier::supported() {
                let simd = run(tier);
                prop_assert!(
                    max_err(&scalar, &simd) < tol,
                    "batched tier divergence at n={n} b={batch} {dir:?} {tier:?}"
                );
                if tier >= SimdTier::Avx2 {
                    prop_assert!(bits(&simd) == bits(&avx2), "not Avx2's bits: n={n} b={batch} {dir:?} {tier:?}");
                }
            }
        }

        /// The batched executor must agree with running each transform
        /// alone on the same tier (loop reordering, not math changes).
        #[test]
        fn batch_parity_with_single(
            log2 in 3u32..12,
            batch in 1usize..5,
            seed in any::<u64>(),
            forward in any::<bool>(),
        ) {
            let n = 1usize << log2;
            let dir = if forward { Direction::Forward } else { Direction::Inverse };
            let plan = FftPlan::new(n);
            let mut batched = rand_signal(n * batch, seed);
            let mut single = batched.clone();
            for chunk in single.chunks_exact_mut(n) {
                plan.execute(chunk, dir);
            }
            plan.execute_batch(&mut batched, dir);
            prop_assert!(max_err(&single, &batched) < 1e-5);
        }
    }
}
