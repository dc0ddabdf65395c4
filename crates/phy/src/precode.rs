//! Downlink precoding — beamforming user streams onto antenna streams.
//!
//! The dual of equalization: for each data subcarrier the `K` modulated
//! user symbols are multiplied by the `M x K` ZF precoder to produce the
//! `M` antenna samples: `y = W_dl x`. The engine fuses modulation into
//! this block (Table 2); this module holds the linear kernel, which
//! dispatches through the plan's SIMD tier and is bit-identical between
//! the scalar and AVX2 kernels.

use crate::zf::ZfBuffer;
use agora_math::{Cf32, Gemm};

/// Precodes a batch of `B` consecutive subcarriers sharing one precoder
/// group. `users_in` is `K x B` row-major, `antennas_out` is `M x B`
/// row-major (per antenna, adjacent subcarriers contiguous — the layout
/// the IFFT stage consumes).
pub fn precode_batch(
    zf: &ZfBuffer,
    first_sc: usize,
    batch: usize,
    plan: &Gemm,
    users_in: &[Cf32],
    antennas_out: &mut [Cf32],
) {
    let w = zf.precoder_for(first_sc);
    assert_eq!(users_in.len(), w.cols() * batch);
    assert_eq!(antennas_out.len(), w.rows() * batch);
    plan.run(w.as_slice(), users_in, antennas_out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chanest::CsiBuffer;
    use crate::zf::{zf_task, ZfConfig};
    use agora_math::CMat;

    fn setup(m: usize, k: usize, seed: u64) -> (CsiBuffer, ZfBuffer) {
        let mut state = seed | 1;
        let mut csi = CsiBuffer::new(m, k, 16);
        for sc in 0..16 {
            *csi.at_mut(sc) = CMat::from_fn(m, k, |_, _| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
                };
                Cf32::new(next(), next())
            });
        }
        let mut zf = ZfBuffer::new(m, k, 16, 16);
        zf_task(&csi, &ZfConfig::default(), 0, &mut zf);
        (csi, zf)
    }

    #[test]
    fn precoded_signal_separates_at_users() {
        // With TDD reciprocity users receive through the transpose
        // channel: r = H^T y = H^T W_dl x ∝ x (zero inter-user
        // interference is the whole point of zero-forcing).
        let (csi, zf) = setup(16, 4, 3);
        let x: Vec<Cf32> = (0..4).map(|u| Cf32::new(1.0 + u as f32, -0.5 * u as f32)).collect();
        let mut ant = vec![Cf32::ZERO; 16];
        precode_batch(&zf, 0, 1, &Gemm::plan(16, 4, 1), &x, &mut ant);
        let r = csi.at(0).transpose().matvec(&ant);
        // Proportionality: r_k / x_k equal across users (real positive c).
        let c0 = r[0] * x[0].inv();
        for u in 1..4 {
            let cu = r[u] * x[u].inv();
            assert!((cu - c0).abs() < 1e-2 * c0.abs(), "user {u}: {cu:?} vs {c0:?}");
        }
        // And cross-user leakage is small relative to signal.
        assert!(c0.abs() > 1e-3);
    }

    /// Scalar and AVX2 plans must precode to the same bits.
    #[test]
    fn tier_parity_is_bit_exact() {
        use agora_math::SimdTier;
        let (m, k, b) = (16usize, 4usize, 8usize);
        let (_csi, zf) = setup(m, k, 19);
        let users: Vec<Cf32> =
            (0..k * b).map(|i| Cf32::new(i as f32 * 0.03, -(i as f32) * 0.05)).collect();
        let mut scalar_out = vec![Cf32::ZERO; m * b];
        let mut simd_out = vec![Cf32::ZERO; m * b];
        let scalar_plan = Gemm::plan_with_tier(m, k, b, SimdTier::Scalar);
        let simd_plan = Gemm::plan_with_tier(m, k, b, SimdTier::detect());
        precode_batch(&zf, 0, b, &scalar_plan, &users, &mut scalar_out);
        precode_batch(&zf, 0, b, &simd_plan, &users, &mut simd_out);
        for (x, y) in scalar_out.iter().zip(simd_out.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn antenna_power_bounded_for_unit_symbols() {
        let (m, k) = (16usize, 4usize);
        let (_csi, zf) = setup(m, k, 13);
        let x = vec![Cf32::new(0.5, 0.5); k]; // |x_k| <= 1
        let mut ant = vec![Cf32::ZERO; m];
        precode_batch(&zf, 0, 1, &Gemm::plan(m, k, 1), &x, &mut ant);
        // Normalised precoder rows have power <= 1, so by Cauchy-Schwarz
        // each antenna sample is bounded by sqrt(K) * max|x|.
        let bound = (k as f32).sqrt() * (0.5f32 * 0.5 + 0.5 * 0.5).sqrt() + 1e-4;
        for (i, a) in ant.iter().enumerate() {
            assert!(a.abs() <= bound, "antenna {i}: {} > {bound}", a.abs());
        }
    }
}
