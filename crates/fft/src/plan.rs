//! Precomputed FFT plans.
//!
//! Like MKL/FFTW, the transform is split into a *plan* (twiddle factors and
//! the bit-reversal permutation, computed once per size) and an *execute*
//! step that does no allocation. Every FFT task in the engine executes
//! against a shared, immutable [`FftPlan`], so plans are `Sync` and can be
//! stored in an `Arc` next to the cell configuration.
//!
//! Execution is [`SimdTier`]-dispatched: on AVX2 hosts the butterflies run
//! four complex values per 256-bit vector with the first two stages fused
//! (see [`crate::simd`]); everywhere else the scalar radix-2 loop is the
//! reference. Callers that can produce their input in bit-reversed order
//! (the engine's fused IQ-unpack gather) use the `*_prereversed` entry
//! points and skip the permutation pass entirely, and
//! [`FftPlan::execute_batch`] runs several independent transforms through
//! each stage together so twiddle loads amortize across the batch.

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
    /// The `(i, j)` index pairs with `i < bitrev[i] = j`: exactly the swaps
    /// the in-place permutation performs. Streaming this list avoids the
    /// branch-per-element of walking `bitrev` and skipping fixed points.
    swaps: Vec<(u32, u32)>,
    /// The fixed points `i = bitrev[i]`, which the inverse transform's
    /// permutation still has to conjugate.
    fixed: Vec<u32>,
    /// Forward-direction twiddles, concatenated per stage: stage `s`
    /// (butterfly half-width `w = 2^s`) contributes the `w` twiddles
    /// `e^{-i pi j / w}` for `j` in `0..w` — exclusive of `w` itself
    /// (the half-turn `e^{-i pi}` is the negated `j = 0` twiddle and
    /// never stored).
    twiddles: Vec<Cf32>,
    /// AVX2 twiddle layout for the stages with `w >= 4`, concatenated per
    /// stage: each twiddle's real part duplicated per complex slot
    /// (`[re0 re0 re1 re1 ...]`) so a plain 256-bit load lines four
    /// twiddles up against four interleaved `Cf32` — no broadcasts in the
    /// butterfly loop.
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
        let swaps: Vec<(u32, u32)> = bitrev
            .iter()
            .enumerate()
            .filter(|&(i, &j)| (i as u32) < j)
            .map(|(i, &j)| (i as u32, j))
            .collect();
        let fixed = (0..n as u32).filter(|&i| bitrev[i as usize] == i).collect();
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
            swaps,
            fixed,
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
    /// gather their input through this table can use the `*_prereversed`
    /// execute variants and skip the in-place permutation pass.
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
    /// across the batch (the engine's per-symbol antenna batch).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan size.
    pub fn execute_batch(&self, data: &mut [Cf32], dir: Direction) {
        assert_eq!(data.len() % self.n, 0, "buffer length must be a multiple of plan size");
        self.run(data, dir, false);
    }

    /// Batched variant of [`Self::execute_prereversed`]: every transform
    /// in the batch must already be bit-reversed.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan size.
    pub fn execute_batch_prereversed(&self, data: &mut [Cf32], dir: Direction) {
        assert_eq!(data.len() % self.n, 0, "buffer length must be a multiple of plan size");
        self.run(data, dir, true);
    }

    /// `FFT(conj x)` into `out`, for `x` given as eight-sample steps in
    /// natural order: `step(t)` is samples `8t..8t + 8`, or `None` for
    /// eight zeros. The inverse transform of `x` is then `conj(out) / n`,
    /// which a caller can fuse into its store
    /// (`agora_math::simd::stream_conj_scale`). So input that sits in
    /// several places — the IFFT task's `dl_freq` lines, and guard bands
    /// it never stores — is transformed without a natural-order copy, a
    /// cleared grid or a conjugation pass.
    ///
    /// `x` goes into `out` conjugated and bit-reversed, a zero as `conj(0)
    /// = (+0, −0)` — what [`Direction::Inverse`]'s own conjugation makes
    /// of it — and the butterflies run forward on it: the operations of
    /// [`Self::execute_prereversed`] with [`Direction::Forward`] on that
    /// grid, so the bits are its. The AVX2 body scatters four steps at a
    /// time as 32-byte runs, the way the engine's IQ unpack does (a 4 x 4
    /// transpose; DESIGN.md §4.1), and since each run is one radix-4 group
    /// of the grid it leaves the scatter with the first two butterfly
    /// stages done.
    ///
    /// # Panics
    /// Panics unless `out.len()` is the plan size and at least 8.
    pub fn forward_of_conj<'a>(
        &self,
        out: &mut [Cf32],
        step: impl Fn(usize) -> Option<&'a [Cf32; 8]>,
    ) {
        assert!(out.len() == self.n && self.n >= 8, "output must be one transform of 8+ points");
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 && self.n >= 32 {
            // SAFETY: the tier is clamped to what the CPU supports,
            // `bitrev` is this plan's permutation of `out.len()` points and
            // the twiddles are this plan's.
            unsafe {
                crate::simd::scatter_conj_radix4_avx2(&self.bitrev, out, step);
                crate::simd::butterflies_avx2(out, self.n, &self.tw_re_dup, &self.tw_im_alt, true);
            }
            return;
        }
        self.scatter_conj(out, step);
        self.butterflies(out);
    }

    /// The scalar scatter of [`Self::forward_of_conj`]: `conj(x)` in
    /// bit-reversed order.
    fn scatter_conj<'a>(&self, out: &mut [Cf32], step: impl Fn(usize) -> Option<&'a [Cf32; 8]>) {
        for (t, slots) in self.bitrev.chunks_exact(8).enumerate() {
            let x = step(t);
            for (k, &j) in slots.iter().enumerate() {
                out[j as usize] = x.map_or(Cf32::ZERO, |x| x[k]).conj();
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
            self.butterflies(data);
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
            for chunk in slice.chunks_exact_mut(self.n) {
                self.bit_reverse(chunk, inverse);
            }
            self.butterflies(slice);
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

    /// In-place bit-reversal permutation of one transform (swap once per
    /// pair, streaming the precomputed swap list), conjugating every
    /// sample on the way when `conj` is set — the fixed points too.
    fn bit_reverse(&self, data: &mut [Cf32], conj: bool) {
        if !conj {
            for &(i, j) in &self.swaps {
                data.swap(i as usize, j as usize);
            }
            return;
        }
        for &(i, j) in &self.swaps {
            let (i, j) = (i as usize, j as usize);
            (data[i], data[j]) = (data[j].conj(), data[i].conj());
        }
        for &i in &self.fixed {
            data[i as usize] = data[i as usize].conj();
        }
    }

    /// All butterfly stages over one or more bit-reversed transforms.
    fn butterflies(&self, data: &mut [Cf32]) {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 && self.n >= 4 {
            unsafe {
                crate::simd::butterflies_avx2(data, self.n, &self.tw_re_dup, &self.tw_im_alt, false)
            };
            return;
        }
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

    #[test]
    fn prereversed_matches_two_pass_execute() {
        for &n in &[8usize, 64, 2048] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = FftPlan::new(n);
                let x = signal(n);
                // Two-pass path: natural order in, permutation inside.
                let mut two_pass = x.clone();
                plan.execute(&mut two_pass, dir);
                // Fused path: gather through the table, skip the pass.
                let mut gathered: Vec<Cf32> =
                    plan.bitrev().iter().map(|&j| x[j as usize]).collect();
                plan.execute_prereversed(&mut gathered, dir);
                assert!(
                    max_err(&two_pass, &gathered) < 1e-6,
                    "prereversed diverged at n={n} {dir:?}"
                );
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
    /// path, bit for bit — every size 1..=4096, both tiers, one transform
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
                plan.execute_batch_prereversed(&mut gathered, Direction::Inverse);
                assert!(bits(&gathered) == bits(&want), "n {n} {tier:?}: prereversed");
            }
        }
    }

    /// `forward_of_conj` is the conjugated input in bit-reversed order, a
    /// missing step as `(+0, -0)`, through `execute_prereversed(Forward)`,
    /// on both tiers and every size 8..=4096; behind `conj / n` that is
    /// the same tier's inverse transform, bit for bit.
    #[test]
    fn forward_of_conj_is_the_forward_transform_of_the_conjugate() {
        for log2 in 3..=12 {
            let n = 1usize << log2;
            let x = signal(n);
            // Every third step is a guard band: zeros the caller never stores.
            let steps: Vec<Option<&[Cf32; 8]>> = x
                .chunks_exact(8)
                .enumerate()
                .map(|(t, s)| (t % 3 != 1).then(|| s.try_into().unwrap()))
                .collect();
            let natural: Vec<Cf32> =
                steps.iter().flat_map(|s| s.map_or([Cf32::ZERO; 8], |s| *s)).collect();
            for tier in SimdTier::supported() {
                let plan = FftPlan::with_tier(n, tier);
                let mut inverse = natural.clone();
                plan.execute(&mut inverse, Direction::Inverse);
                let mut out = vec![Cf32::new(f32::NAN, 1.0); n];
                plan.forward_of_conj(&mut out, |t| steps[t]);
                let mut want: Vec<Cf32> =
                    plan.bitrev().iter().map(|&j| natural[j as usize].conj()).collect();
                plan.execute_prereversed(&mut want, Direction::Forward);
                assert!(bits(&out) == bits(&want), "n {n} {tier:?}");
                let out: Vec<Cf32> = out.iter().map(|z| z.conj().scale(1.0 / n as f32)).collect();
                assert!(bits(&out) == bits(&inverse), "n {n} {tier:?}: as an inverse");
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

        /// Scalar-vs-detected-tier parity for single transforms, sizes
        /// 8..=4096, both directions. On a scalar-only host this
        /// degenerates to scalar-vs-scalar and trivially holds.
        #[test]
        fn tier_parity_single(
            log2 in 3u32..13,
            seed in any::<u64>(),
            forward in any::<bool>(),
        ) {
            let n = 1usize << log2;
            let dir = if forward { Direction::Forward } else { Direction::Inverse };
            let x = rand_signal(n, seed);
            let mut scalar = x.clone();
            FftPlan::with_tier(n, SimdTier::Scalar).execute(&mut scalar, dir);
            let mut simd = x;
            FftPlan::with_tier(n, SimdTier::Avx2).execute(&mut simd, dir);
            // Near-bit-exact: the vector stages do the same IEEE ops in the
            // same order; only the multiply-free fused stages can differ in
            // signed-zero handling.
            let tol = 1e-4 * (n as f32).sqrt().max(1.0);
            prop_assert!(max_err(&scalar, &simd) < tol, "tier divergence at n={n} {dir:?}");
        }

        /// Scalar-vs-detected-tier parity for the batched path, sizes
        /// 8..=4096, both directions.
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
            let mut scalar = x.clone();
            FftPlan::with_tier(n, SimdTier::Scalar).execute_batch(&mut scalar, dir);
            let mut simd = x;
            FftPlan::with_tier(n, SimdTier::Avx2).execute_batch(&mut simd, dir);
            let tol = 1e-4 * (n as f32).sqrt().max(1.0);
            prop_assert!(
                max_err(&scalar, &simd) < tol,
                "batched tier divergence at n={n} b={batch} {dir:?}"
            );
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
