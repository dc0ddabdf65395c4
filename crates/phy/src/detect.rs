//! Linear detector families beyond plain zero-forcing.
//!
//! The paper adopts zero-forcing and notes (§4.2) that "in
//! ill-conditioned channels ... a lower overhead method such as
//! conjugate beamforming may perform better" [Yang & Marzetta 2013].
//! This module implements the standard linear-detector menu so that
//! trade-off can actually be measured:
//!
//! * [`Detector::ZeroForcing`] — `(H^H H)^{-1} H^H`; nulls inter-user
//!   interference, amplifies noise on weak eigenmodes.
//! * [`Detector::Mmse`] — `(H^H H + sigma^2 I)^{-1} H^H`; the regularised
//!   optimum for uncoded SINR, degrades gracefully at low SNR.
//! * [`Detector::Conjugate`] — `H^H` (matched filter); no inversion at
//!   all (`O(MK)` instead of `O(MK^2)`), accepts inter-user interference.

use agora_math::{invert, CMat, Cf32};

/// Which linear detector to compute from the channel estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detector {
    /// Zero-forcing pseudo-inverse (the paper's choice).
    ZeroForcing,
    /// Linear MMSE with the given noise power (per receive antenna).
    Mmse {
        /// Noise power `sigma^2` used for diagonal loading.
        noise_power: f32,
    },
    /// Conjugate (matched-filter) beamforming.
    Conjugate,
}

impl Detector {
    /// Computes the `K x M` detector matrix for a channel estimate `h`
    /// (`M x K`). Falls back to conjugate beamforming if an inversion
    /// fails (rank-deficient channel), mirroring a production fallback.
    pub fn compute(&self, h: &CMat) -> CMat {
        match self {
            Detector::ZeroForcing => match zf_from_gram(h, 0.0) {
                Some(w) => w,
                None => h.hermitian(),
            },
            Detector::Mmse { noise_power } => match zf_from_gram(h, *noise_power) {
                Some(w) => w,
                None => h.hermitian(),
            },
            Detector::Conjugate => {
                // Row-normalised matched filter so symbol amplitudes are
                // comparable to the inverting detectors.
                let mut w = h.hermitian();
                let m = w.cols();
                for u in 0..w.rows() {
                    let g: f32 = (0..m).map(|a| w[(u, a)].norm_sqr()).sum();
                    if g > 0.0 {
                        let inv = 1.0 / g;
                        for a in 0..m {
                            w[(u, a)] = w[(u, a)].scale(inv);
                        }
                    }
                }
                w
            }
        }
    }
}

/// Shared Gram-matrix route: `(H^H H + lambda I)^{-1} H^H`, `None` if the
/// (regularised) Gram matrix is singular.
pub(crate) fn zf_from_gram(h: &CMat, lambda: f32) -> Option<CMat> {
    let mut gram = h.gram();
    if lambda > 0.0 {
        for i in 0..gram.rows() {
            gram[(i, i)] += Cf32::real(lambda);
        }
    }
    invert(&gram).ok().map(|g| g.matmul(&h.hermitian()))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Detector {
        /// Post-detection SINR for user `user` given the true channel and
        /// noise power: signal power over (interference + amplified noise).
        fn sinr(&self, h: &CMat, noise_power: f32, user: usize) -> f32 {
            let w = self.compute(h);
            let eff = w.matmul(h); // K x K effective channel
            let k = h.cols();
            let signal = eff[(user, user)].norm_sqr();
            let interference: f32 =
                (0..k).filter(|&j| j != user).map(|j| eff[(user, j)].norm_sqr()).sum();
            let noise_gain: f32 =
                (0..h.rows()).map(|a| w[(user, a)].norm_sqr()).sum::<f32>() * noise_power;
            signal / (interference + noise_gain).max(f32::MIN_POSITIVE)
        }
    }

    fn rand_channel(m: usize, k: usize, seed: u64) -> CMat {
        let mut state = seed | 1;
        CMat::from_fn(m, k, |_, _| {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
            };
            Cf32::new(next(), next())
        })
    }

    #[test]
    fn zero_forcing_nulls_interference() {
        let h = rand_channel(16, 4, 1);
        let w = Detector::ZeroForcing.compute(&h);
        let eff = w.matmul(&h);
        for u in 0..4 {
            for j in 0..4 {
                if u != j {
                    assert!(eff[(u, j)].abs() < 1e-3, "leakage {u}->{j}");
                }
            }
        }
    }

    #[test]
    fn mmse_approaches_zf_at_high_snr() {
        let h = rand_channel(16, 4, 2);
        let zf = Detector::ZeroForcing.compute(&h);
        let mmse = Detector::Mmse { noise_power: 1e-6 }.compute(&h);
        assert!(zf.max_abs_diff(&mmse) < 1e-2);
    }

    #[test]
    fn mmse_beats_zf_at_low_snr() {
        // Average SINR over users and channels at 0 dB.
        let noise = 1.0;
        let mut zf_sum = 0.0;
        let mut mmse_sum = 0.0;
        for seed in 0..8u64 {
            let h = rand_channel(8, 4, 100 + seed);
            for u in 0..4 {
                zf_sum += Detector::ZeroForcing.sinr(&h, noise, u);
                mmse_sum += Detector::Mmse { noise_power: noise }.sinr(&h, noise, u);
            }
        }
        assert!(
            mmse_sum > zf_sum,
            "MMSE ({mmse_sum}) must beat ZF ({zf_sum}) in the noise-limited regime"
        );
    }

    #[test]
    fn conjugate_has_no_inversion_but_leaks() {
        let h = rand_channel(16, 4, 3);
        let w = Detector::Conjugate.compute(&h);
        let eff = w.matmul(&h);
        // Diagonal is ~1 after row normalisation...
        for u in 0..4 {
            assert!((eff[(u, u)].re - 1.0).abs() < 0.05, "diag {u}: {:?}", eff[(u, u)]);
        }
        // ...but some inter-user leakage exists (unlike ZF).
        let leak: f32 = (0..4)
            .flat_map(|u| (0..4).filter(move |&j| j != u).map(move |j| (u, j)))
            .map(|(u, j)| eff[(u, j)].abs())
            .sum();
        assert!(leak > 0.01, "conjugate beamforming should leak a little");
    }

    #[test]
    fn conjugate_wins_in_huge_arrays_low_snr() {
        // With M >> K and strong noise, matched filtering's array gain
        // beats ZF's noise amplification on ill-conditioned draws.
        let noise = 4.0;
        let mut conj = 0.0;
        let mut zf = 0.0;
        for seed in 0..6u64 {
            let h = rand_channel(64, 2, 500 + seed);
            for u in 0..2 {
                conj += Detector::Conjugate.sinr(&h, noise, u);
                zf += Detector::ZeroForcing.sinr(&h, noise, u);
            }
        }
        // Conjugate should be at least competitive (within 3 dB).
        assert!(conj > zf / 2.0, "conjugate {conj} vs zf {zf}");
    }

    #[test]
    fn rank_deficient_channel_falls_back() {
        let col = rand_channel(8, 1, 7);
        let h = CMat::from_fn(8, 2, |r, _| col[(r, 0)]);
        let w = Detector::ZeroForcing.compute(&h);
        assert_eq!(w.shape(), (2, 8));
        assert!(w.all_finite());
    }
}
