//! Naive `O(n^2)` DFT used as the correctness oracle for the fast
//! transforms. Never used on a hot path.

use agora_math::Cf32;

/// Direct evaluation of the DFT definition:
/// `X[k] = sum_n x[n] e^{-2 pi i k n / N}`.
pub(crate) fn dft(input: &[Cf32]) -> Vec<Cf32> {
    let n = input.len();
    let mut out = vec![Cf32::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Cf32::ZERO;
        for (idx, &x) in input.iter().enumerate() {
            let ang = -2.0 * core::f64::consts::PI * (k as f64) * (idx as f64) / (n as f64);
            let tw = Cf32::new(ang.cos() as f32, ang.sin() as f32);
            acc = x.mul_add(tw, acc);
        }
        *o = acc;
    }
    out
}

/// Direct inverse DFT with `1/N` normalisation:
/// `x[n] = (1/N) sum_k X[k] e^{+2 pi i k n / N}`.
pub(crate) fn idft(input: &[Cf32]) -> Vec<Cf32> {
    let n = input.len();
    let mut out = vec![Cf32::ZERO; n];
    let inv_n = 1.0 / n as f32;
    for (t, o) in out.iter_mut().enumerate() {
        let mut acc = Cf32::ZERO;
        for (k, &x) in input.iter().enumerate() {
            let ang = 2.0 * core::f64::consts::PI * (k as f64) * (t as f64) / (n as f64);
            let tw = Cf32::new(ang.cos() as f32, ang.sin() as f32);
            acc = x.mul_add(tw, acc);
        }
        *o = acc.scale(inv_n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Cf32::ZERO; 8];
        x[0] = Cf32::ONE;
        let y = dft(&x);
        for v in y {
            assert!((v.re - 1.0).abs() < 1e-5 && v.im.abs() < 1e-5);
        }
    }

    #[test]
    fn idft_inverts_dft() {
        let x: Vec<Cf32> = (0..16).map(|i| Cf32::new((i as f32).sin(), (i as f32).cos())).collect();
        let y = idft(&dft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((*a - *b).abs() < 1e-4);
        }
    }
}
