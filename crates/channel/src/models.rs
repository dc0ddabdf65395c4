//! Wireless channel models.
//!
//! The paper evaluates over (a) emulated AWGN channels at 25 dB SNR
//! (§5.2) and (b) real indoor line-of-sight channels at 17–26 dB SNR
//! (§5.3). We model (a) directly and substitute (b) with a Rician fading
//! model whose K-factor controls how line-of-sight the channel is; an
//! i.i.d. Rayleigh model covers the rich-scattering case.

use agora_math::{CMat, Cf32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small-scale fading model for drawing channel matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingModel {
    /// Frequency-flat AWGN channel: `H` is a fixed unit-magnitude
    /// random-phase matrix (what the paper's IQ generator emulates).
    Awgn,
    /// I.i.d. complex Gaussian entries, unit average power.
    Rayleigh,
    /// Rician with the given K-factor (dB): LOS + scattered components.
    /// `k_db -> inf` degenerates to a pure LOS steering structure;
    /// `k_db -> -inf` to Rayleigh. Models the paper's OTA deployment.
    Rician {
        /// Ratio of LOS to scattered power, in dB.
        k_db: f32,
    },
}

/// A reproducible channel generator for an `M x K` cell.
#[derive(Debug)]
pub struct ChannelModel {
    m: usize,
    k: usize,
    model: FadingModel,
    rng: StdRng,
}

impl ChannelModel {
    /// Creates a generator with a deterministic seed.
    pub fn new(m: usize, k: usize, model: FadingModel, seed: u64) -> Self {
        Self { m, k, model, rng: StdRng::seed_from_u64(seed) }
    }

    /// Draws one channel realisation (block fading: constant within a
    /// frame, redrawn across frames).
    pub fn draw(&mut self) -> CMat {
        match self.model {
            FadingModel::Awgn => {
                // Unit-magnitude random-phase entries: a flat, lossless
                // channel with full spatial diversity (phases decorrelate
                // the columns, keeping H well-conditioned w.h.p.).
                let phases: Vec<f32> = (0..self.m * self.k)
                    .map(|_| self.rng.gen::<f32>() * core::f32::consts::TAU)
                    .collect();
                CMat::from_fn(self.m, self.k, |r, c| Cf32::cis(phases[r * self.k + c]))
            }
            FadingModel::Rayleigh => {
                let mut h = CMat::zeros(self.m, self.k);
                for z in h.as_mut_slice().iter_mut() {
                    *z = self.gaussian_sample().scale(core::f32::consts::FRAC_1_SQRT_2);
                }
                h
            }
            FadingModel::Rician { k_db } => {
                let k_lin = 10.0f32.powf(k_db / 10.0);
                let los_amp = (k_lin / (1.0 + k_lin)).sqrt();
                let nlos_amp = (1.0 / (1.0 + k_lin)).sqrt() * core::f32::consts::FRAC_1_SQRT_2;
                // LOS component: uniform-linear-array steering vectors with
                // a random angle of arrival per user.
                let aoas: Vec<f32> = (0..self.k)
                    .map(|_| (self.rng.gen::<f32>() - 0.5) * core::f32::consts::PI)
                    .collect();
                let mut h = CMat::from_fn(self.m, self.k, |ant, user| {
                    // Half-wavelength ULA: phase = pi * ant * sin(theta).
                    let phase = core::f32::consts::PI * ant as f32 * aoas[user].sin();
                    Cf32::cis(phase).scale(los_amp)
                });
                for z in h.as_mut_slice().iter_mut() {
                    *z += self.gaussian_sample().scale(nlos_amp);
                }
                h
            }
        }
    }

    /// One complex sample with i.i.d. standard normal components.
    fn gaussian_sample(&mut self) -> Cf32 {
        Cf32::new(self.gaussian(), self.gaussian())
    }

    fn gaussian(&mut self) -> f32 {
        // Box-Muller.
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

/// Additive white Gaussian noise source with a reproducible stream.
#[derive(Debug)]
pub struct AwgnSource {
    rng: StdRng,
    sigma: f32,
}

impl AwgnSource {
    /// Creates a noise source for the given per-complex-sample noise
    /// variance `sigma^2 = noise_power` (split evenly across I and Q).
    pub fn new(noise_power: f32, seed: u64) -> Self {
        assert!(noise_power >= 0.0);
        Self { rng: StdRng::seed_from_u64(seed), sigma: (noise_power / 2.0).sqrt() }
    }

    /// The total noise power per complex sample.
    pub fn noise_power(&self) -> f32 {
        2.0 * self.sigma * self.sigma
    }

    /// Adds noise to a sample vector in place.
    pub fn corrupt(&mut self, samples: &mut [Cf32]) {
        for z in samples.iter_mut() {
            *z += Cf32::new(self.gaussian() * self.sigma, self.gaussian() * self.sigma);
        }
    }

    fn gaussian(&mut self) -> f32 {
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awgn_model_entries_unit_magnitude() {
        let mut ch = ChannelModel::new(8, 4, FadingModel::Awgn, 1);
        let h = ch.draw();
        for z in h.as_slice() {
            assert!((z.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn rayleigh_unit_average_power() {
        let mut ch = ChannelModel::new(32, 8, FadingModel::Rayleigh, 2);
        let mut acc = 0.0f64;
        let mut n = 0usize;
        for _ in 0..20 {
            let h = ch.draw();
            acc += h.as_slice().iter().map(|z| z.norm_sqr() as f64).sum::<f64>();
            n += h.as_slice().len();
        }
        let avg = acc / n as f64;
        assert!((avg - 1.0).abs() < 0.05, "average power {avg}");
    }

    #[test]
    fn rician_k_factor_splits_power() {
        // Very high K: almost pure LOS, entries near unit magnitude.
        let mut ch = ChannelModel::new(16, 2, FadingModel::Rician { k_db: 40.0 }, 3);
        let h = ch.draw();
        for z in h.as_slice() {
            assert!((z.abs() - 1.0).abs() < 0.1);
        }
        // Very low K: approximately Rayleigh; power still ~1 on average.
        let mut ch = ChannelModel::new(64, 4, FadingModel::Rician { k_db: -30.0 }, 4);
        let h = ch.draw();
        let avg: f32 =
            h.as_slice().iter().map(|z| z.norm_sqr()).sum::<f32>() / h.as_slice().len() as f32;
        assert!((avg - 1.0).abs() < 0.2, "avg power {avg}");
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = ChannelModel::new(4, 2, FadingModel::Rayleigh, 7);
        let mut b = ChannelModel::new(4, 2, FadingModel::Rayleigh, 7);
        assert!(a.draw().max_abs_diff(&b.draw()) < 1e-9);
        // And different across draws.
        assert!(a.draw().max_abs_diff(&b.draw()) < 1e-9);
        let mut c = ChannelModel::new(4, 2, FadingModel::Rayleigh, 8);
        assert!(a.draw().max_abs_diff(&c.draw()) > 1e-3);
    }

    #[test]
    fn noise_power_matches_request() {
        let mut src = AwgnSource::new(0.1, 5);
        assert!((src.noise_power() - 0.1).abs() < 1e-6);
        let mut buf = vec![Cf32::ZERO; 200_000];
        src.corrupt(&mut buf);
        let measured: f64 = buf.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / buf.len() as f64;
        assert!((measured - 0.1).abs() < 0.01, "measured noise power {measured}");
    }

    #[test]
    fn noise_mean_is_zero() {
        let mut src = AwgnSource::new(1.0, 6);
        let mut buf = vec![Cf32::ZERO; 100_000];
        src.corrupt(&mut buf);
        let mean_re: f64 = buf.iter().map(|z| z.re as f64).sum::<f64>() / buf.len() as f64;
        let mean_im: f64 = buf.iter().map(|z| z.im as f64).sum::<f64>() / buf.len() as f64;
        assert!(mean_re.abs() < 0.01 && mean_im.abs() < 0.01);
    }
}
