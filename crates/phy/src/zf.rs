//! Zero-forcing detector/precoder calculation — the "ZF" block.
//!
//! One ZF task takes the estimated channel at a subcarrier and produces
//! the `K x M` uplink detector and the `M x K` downlink precoder. The
//! paper computes ZF once per *group* of 16 subcarriers (75 tasks for
//! 1200 subcarriers), exploiting channel coherence across neighbouring
//! subcarriers; [`ZfConfig::group_size`] reproduces that knob.

use crate::chanest::CsiBuffer;
use agora_math::{normalize_precoder, pinv, CMat, PinvMethod};

/// Configuration of the ZF block.
#[derive(Debug, Clone, Copy)]
pub struct ZfConfig {
    /// Subcarriers sharing one precoder (the paper uses 16).
    pub group_size: usize,
    /// Pseudo-inverse route: a Gram solve (Cholesky, the default, or
    /// Gauss-Jordan) or SVD (robust) — the pair behind Table 4's "matrix
    /// inverse optimisation" row.
    pub method: PinvMethod,
}

impl Default for ZfConfig {
    fn default() -> Self {
        Self { group_size: 16, method: PinvMethod::default() }
    }
}

impl ZfConfig {
    /// Number of ZF tasks for a band of `num_subcarriers`.
    pub fn num_groups(&self, num_subcarriers: usize) -> usize {
        num_subcarriers.div_ceil(self.group_size)
    }
}

/// Per-frame detector/precoder storage: one pair per subcarrier group.
#[derive(Debug, Clone)]
pub struct ZfBuffer {
    group_size: usize,
    /// Uplink detectors, `K x M`, one per group.
    detectors: Vec<CMat>,
    /// Downlink precoders, `M x K`, power-normalised, one per group.
    precoders: Vec<CMat>,
}

impl ZfBuffer {
    /// Creates a zeroed buffer for `num_subcarriers` with the given group
    /// size.
    pub fn new(m: usize, k: usize, num_subcarriers: usize, group_size: usize) -> Self {
        let groups = num_subcarriers.div_ceil(group_size);
        Self {
            group_size,
            detectors: vec![CMat::zeros(k, m); groups],
            precoders: vec![CMat::zeros(m, k); groups],
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.detectors.len()
    }

    /// Downlink precoder for a *subcarrier* (group lookup included).
    pub fn precoder_for(&self, sc: usize) -> &CMat {
        &self.precoders[sc / self.group_size]
    }

    /// Uplink detector by group index.
    pub fn detector(&self, group: usize) -> &CMat {
        &self.detectors[group]
    }

    /// Downlink precoder by group index.
    pub fn precoder(&self, group: usize) -> &CMat {
        &self.precoders[group]
    }
}

/// Executes one ZF task: computes detector and precoder for subcarrier
/// group `group` from the CSI at the group's first subcarrier.
///
/// The detector is the ZF pseudo-inverse `W = (H^H H)^{-1} H^H`. With TDD
/// reciprocity the downlink channel is `H^T`, so the paper's precoder
/// `H* (H^T H*)^{-1}` is exactly `W^T` (transpose, no conjugate):
/// `H^T W^T = (W H)^T = I`. It is normalised so no antenna exceeds unit
/// power.
pub fn zf_task(csi: &CsiBuffer, cfg: &ZfConfig, group: usize, out: &mut ZfBuffer) {
    let sc = group * cfg.group_size;
    assert!(sc < csi.num_subcarriers(), "group out of range");
    let h = csi.at(sc);
    let det = pinv(h, cfg.method);
    let pre = normalize_precoder(&det.transpose());
    out.detectors[group] = det;
    out.precoders[group] = pre;
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_math::{CMat, Cf32};

    fn random_csi(m: usize, k: usize, q: usize, seed: u64) -> CsiBuffer {
        let mut state = seed | 1;
        let mut csi = CsiBuffer::new(m, k, q);
        for sc in 0..q {
            let h = CMat::from_fn(m, k, |_, _| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
                };
                Cf32::new(next(), next())
            });
            *csi.at_mut(sc) = h;
        }
        csi
    }

    #[test]
    fn group_count_matches_paper() {
        // 1200 subcarriers / 16 per group = 75 ZF tasks (§6.2.1).
        let cfg = ZfConfig::default();
        assert_eq!(cfg.num_groups(1200), 75);
    }

    #[test]
    fn detector_left_inverts_channel() {
        let csi = random_csi(16, 4, 32, 3);
        let cfg = ZfConfig::default();
        let mut buf = ZfBuffer::new(16, 4, 32, cfg.group_size);
        for g in 0..cfg.num_groups(32) {
            zf_task(&csi, &cfg, g, &mut buf);
        }
        for g in 0..2 {
            let wh = buf.detector(g).matmul(csi.at(g * 16));
            assert!(wh.max_abs_diff(&CMat::identity(4)) < 1e-2, "group {g}");
        }
    }

    #[test]
    fn precoder_inverts_reciprocal_channel() {
        let csi = random_csi(8, 2, 16, 9);
        let cfg = ZfConfig::default();
        let mut buf = ZfBuffer::new(8, 2, 16, 16);
        zf_task(&csi, &cfg, 0, &mut buf);
        let pre = buf.precoder(0);
        assert_eq!(pre.shape(), (8, 2));
        // No antenna (row of the M x K precoder) exceeds unit power.
        for a in 0..8 {
            let p: f32 = (0..2).map(|u| pre[(a, u)].norm_sqr()).sum();
            assert!(p <= 1.0 + 1e-4);
        }
        // Zero-forcing through the reciprocal downlink channel: H^T W_dl
        // proportional to the identity.
        let eff = csi.at(0).transpose().matmul(pre);
        let c = eff[(0, 0)];
        assert!(c.abs() > 1e-3);
        let mut ident = CMat::zeros(2, 2);
        for i in 0..2 {
            ident[(i, i)] = c;
        }
        assert!(eff.max_abs_diff(&ident) < 1e-2 * c.abs().max(1.0));
    }

    #[test]
    fn subcarrier_lookup_uses_groups() {
        let csi = random_csi(4, 2, 40, 17);
        let cfg = ZfConfig::default();
        let mut buf = ZfBuffer::new(4, 2, 40, 16);
        for g in 0..cfg.num_groups(40) {
            zf_task(&csi, &cfg, g, &mut buf);
        }
        assert_eq!(buf.num_groups(), 3);
        // Subcarriers 0..15 share group 0's precoder.
        assert!(buf.precoder_for(0).max_abs_diff(buf.precoder(0)) < 1e-9);
        assert!(buf.precoder_for(15).max_abs_diff(buf.precoder(0)) < 1e-9);
        assert!(buf.precoder_for(16).max_abs_diff(buf.precoder(1)) < 1e-9);
        assert!(buf.precoder_for(39).max_abs_diff(buf.precoder(2)) < 1e-9);
    }

    #[test]
    fn every_method_agrees_with_the_default() {
        let csi = random_csi(16, 4, 16, 23);
        let mut default = ZfBuffer::new(16, 4, 16, 16);
        zf_task(&csi, &ZfConfig::default(), 0, &mut default);
        assert_eq!(ZfConfig::default().method, PinvMethod::Cholesky);
        for method in [PinvMethod::Direct, PinvMethod::Svd] {
            let mut other = ZfBuffer::new(16, 4, 16, 16);
            zf_task(&csi, &ZfConfig { group_size: 16, method }, 0, &mut other);
            assert!(default.detector(0).max_abs_diff(other.detector(0)) < 1e-2, "{method:?}");
        }
    }
}
