//! Per-user SNR assignment for the over-the-air experiment (17–26 dB
//! across antennas, §5.3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws one SNR (dB) per user, uniform in `[lo, hi]` — the paper reports
/// "a pilot SNR of 17–26 dB" across users/antennas in the OTA setup.
pub fn per_user_snrs(num_users: usize, lo: f32, hi: f32, seed: u64) -> Vec<f32> {
    assert!(hi >= lo);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_users).map(|_| lo + rng.gen::<f32>() * (hi - lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_user_snrs_within_range() {
        let snrs = per_user_snrs(100, 17.0, 26.0, 42);
        assert_eq!(snrs.len(), 100);
        assert!(snrs.iter().all(|&s| (17.0..=26.0).contains(&s)));
        // Not all identical.
        assert!(snrs.iter().any(|&s| (s - snrs[0]).abs() > 0.1));
    }

    #[test]
    fn per_user_snrs_deterministic() {
        assert_eq!(per_user_snrs(8, 17.0, 26.0, 7), per_user_snrs(8, 17.0, 26.0, 7));
    }
}
