//! Pilot sequences and pilot multiplexing schemes.
//!
//! Users announce themselves with known pilot symbols from which the base
//! station estimates the channel matrix `H`. The paper uses
//! *frequency-orthogonal* pilots in the emulated-RRU experiments (users
//! occupy interleaved subcarriers of one pilot symbol, §5.2) and
//! *time-orthogonal full-band Zadoff-Chu* pilots in the over-the-air
//! experiments (§6.1.3). Both schemes are implemented.

use agora_math::Cf32;

/// Generates a Zadoff-Chu sequence of length `n` with root `root`
/// (`gcd(root, n) == 1` required for the CAZAC property).
///
/// ZC sequences have constant amplitude and zero autocorrelation, which is
/// why LTE/5G use them for pilots: the receiver sees unit-magnitude
/// reference symbols on every subcarrier regardless of the channel.
pub fn zadoff_chu(root: usize, n: usize) -> Vec<Cf32> {
    assert!(n > 0, "sequence length must be positive");
    assert!(gcd(root, n) == 1, "root must be coprime with length");
    let cf = (n % 2) as f64; // 0 for even length, 1 for odd
    (0..n)
        .map(|k| {
            let kf = k as f64;
            let phase = -std::f64::consts::PI * root as f64 * kf * (kf + cf) / n as f64;
            Cf32::new(phase.cos() as f32, phase.sin() as f32)
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// How users' pilots are kept separable at the base station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PilotScheme {
    /// All users transmit in the same pilot symbol on interleaved
    /// subcarriers: user `k` occupies subcarriers `k, k+K, k+2K, ...`
    /// (one pilot symbol total — the emulated-RRU configuration).
    FrequencyOrthogonal,
    /// Each user gets its own full-band pilot symbol (K pilot symbols —
    /// the over-the-air configuration).
    TimeOrthogonal,
}

impl PilotScheme {
    /// Number of pilot symbols needed at the start of each frame.
    pub fn pilot_symbols(self, num_users: usize) -> usize {
        match self {
            PilotScheme::FrequencyOrthogonal => 1,
            PilotScheme::TimeOrthogonal => num_users,
        }
    }
}

/// Pilot plan for one cell: which user transmits what on which pilot
/// symbol/subcarrier, plus the reference values the estimator divides by.
#[derive(Debug, Clone)]
pub struct PilotPlan {
    scheme: PilotScheme,
    num_users: usize,
    num_subcarriers: usize,
    /// Per-user reference sequence over the full band (ZC-based).
    refs: Vec<Vec<Cf32>>,
}

impl PilotPlan {
    /// Builds a pilot plan. Reference sequences are Zadoff-Chu with
    /// per-user roots (odd roots, coprime with the length by
    /// construction).
    pub fn new(scheme: PilotScheme, num_users: usize, num_subcarriers: usize) -> Self {
        assert!(num_users > 0 && num_subcarriers >= num_users);
        let refs = (0..num_users)
            .map(|u| {
                // Choose an odd root coprime with the length.
                let mut root = 2 * u + 1;
                while gcd(root, num_subcarriers) != 1 {
                    root += 2;
                }
                zadoff_chu(root, num_subcarriers)
            })
            .collect();
        Self { scheme, num_users, num_subcarriers, refs }
    }

    /// The multiplexing scheme.
    pub fn scheme(&self) -> PilotScheme {
        self.scheme
    }

    /// Number of pilot symbols per frame.
    pub fn pilot_symbols(&self) -> usize {
        self.scheme.pilot_symbols(self.num_users)
    }

    /// The frequency-domain samples user `user` transmits during pilot
    /// symbol `sym` (zero on subcarriers it does not own).
    pub fn tx_pilot(&self, sym: usize, user: usize) -> Vec<Cf32> {
        assert!(user < self.num_users && sym < self.pilot_symbols());
        let mut out = vec![Cf32::ZERO; self.num_subcarriers];
        match self.scheme {
            PilotScheme::FrequencyOrthogonal => {
                let mut sc = user;
                while sc < self.num_subcarriers {
                    out[sc] = self.refs[user][sc];
                    sc += self.num_users;
                }
            }
            PilotScheme::TimeOrthogonal => {
                if sym == user {
                    out.copy_from_slice(&self.refs[user]);
                }
            }
        }
        out
    }

    /// The known reference value for `(pilot symbol, subcarrier)` and the
    /// user that owns that resource element, or `None` if unused.
    pub fn owner(&self, sym: usize, sc: usize) -> Option<(usize, Cf32)> {
        match self.scheme {
            PilotScheme::FrequencyOrthogonal => {
                let user = sc % self.num_users;
                Some((user, self.refs[user][sc]))
            }
            PilotScheme::TimeOrthogonal => {
                let user = sym;
                if user < self.num_users {
                    Some((user, self.refs[user][sc]))
                } else {
                    None
                }
            }
        }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of (active) subcarriers.
    pub fn num_subcarriers(&self) -> usize {
        self.num_subcarriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zc_has_constant_amplitude() {
        for (root, n) in [(1usize, 63usize), (5, 139), (7, 300)] {
            let zc = zadoff_chu(root, n);
            for z in &zc {
                assert!((z.abs() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn zc_zero_autocorrelation() {
        let n = 139; // prime length gives ideal CAZAC
        let zc = zadoff_chu(5, n);
        for shift in 1..n {
            let corr: Cf32 = (0..n).map(|k| zc[k].conj_mul(zc[(k + shift) % n])).sum();
            assert!(corr.abs() < 1e-3 * n as f32, "shift {shift}: |corr| = {}", corr.abs());
        }
    }

    #[test]
    fn zc_rejects_non_coprime_root() {
        let result = std::panic::catch_unwind(|| zadoff_chu(3, 300));
        assert!(result.is_err());
    }

    #[test]
    fn frequency_orthogonal_users_disjoint() {
        let plan = PilotPlan::new(PilotScheme::FrequencyOrthogonal, 4, 64);
        assert_eq!(plan.pilot_symbols(), 1);
        let pilots: Vec<Vec<Cf32>> = (0..4).map(|u| plan.tx_pilot(0, u)).collect();
        for sc in 0..64 {
            let owns = |(_, pilot): &(usize, &Vec<Cf32>)| pilot[sc] != Cf32::ZERO;
            let active: Vec<usize> =
                pilots.iter().enumerate().filter(owns).map(|(u, _)| u).collect();
            assert_eq!(active.len(), 1, "subcarrier {sc} owned by {active:?}");
            assert_eq!(active[0], sc % 4);
        }
    }

    #[test]
    fn time_orthogonal_one_user_per_symbol() {
        let plan = PilotPlan::new(PilotScheme::TimeOrthogonal, 3, 32);
        assert_eq!(plan.pilot_symbols(), 3);
        for sym in 0..3 {
            for u in 0..3 {
                let p = plan.tx_pilot(sym, u);
                let energy: f32 = p.iter().map(|z| z.norm_sqr()).sum();
                if u == sym {
                    assert!(energy > 31.0); // full band, unit amplitude
                } else {
                    assert_eq!(energy, 0.0);
                }
            }
        }
    }

    #[test]
    fn owner_covers_every_resource_element() {
        let plan = PilotPlan::new(PilotScheme::FrequencyOrthogonal, 4, 64);
        for sc in 0..64 {
            let (user, r) = plan.owner(0, sc).unwrap();
            assert_eq!(user, sc % 4);
            assert!((r.abs() - 1.0).abs() < 1e-5);
        }
        let plan = PilotPlan::new(PilotScheme::TimeOrthogonal, 2, 16);
        assert!(plan.owner(0, 5).is_some());
        assert!(plan.owner(5, 0).is_none());
    }

    #[test]
    fn owner_reference_matches_transmitted_value() {
        let plan = PilotPlan::new(PilotScheme::FrequencyOrthogonal, 4, 64);
        for sc in 0..64 {
            let (user, r) = plan.owner(0, sc).unwrap();
            let tx = plan.tx_pilot(0, user);
            assert_eq!(tx[sc], r);
        }
    }
}
