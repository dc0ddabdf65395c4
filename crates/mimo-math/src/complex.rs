//! Single-precision complex arithmetic.
//!
//! Baseband processing operates almost exclusively on 32-bit complex floats
//! (IQ samples, channel coefficients, constellation points). The paper's C++
//! implementation uses `std::complex<float>` plus hand-written AVX kernels;
//! this module provides the scalar type, [`Cf32`], with the full operator
//! surface the rest of the workspace needs. A double-precision twin,
//! [`Cf64`], exists for high-accuracy reference computations in tests and
//! for the accumulation steps of the Jacobi SVD.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f32` components, `repr(C)` so that a slice of
/// `Cf32` is layout-compatible with interleaved I/Q sample buffers.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Cf32 {
    /// Real (in-phase) component.
    pub re: f32,
    /// Imaginary (quadrature) component.
    pub im: f32,
}

/// A complex number with `f64` components, used for reference math in tests
/// and numerically sensitive accumulations.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Cf64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

macro_rules! impl_complex {
    ($name:ident, $t:ty) => {
        impl $name {
            /// The additive identity.
            pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
            /// The multiplicative identity.
            pub const ONE: Self = Self { re: 1.0, im: 0.0 };
            /// The imaginary unit.
            pub const I: Self = Self { re: 0.0, im: 1.0 };

            /// Creates a complex number from rectangular components.
            #[inline(always)]
            pub const fn new(re: $t, im: $t) -> Self {
                Self { re, im }
            }

            /// Creates a purely real complex number.
            #[inline(always)]
            pub const fn real(re: $t) -> Self {
                Self { re, im: 0.0 }
            }

            /// Creates a complex number from polar form `r * e^{i theta}`.
            #[inline]
            pub fn from_polar(r: $t, theta: $t) -> Self {
                Self { re: r * theta.cos(), im: r * theta.sin() }
            }

            /// Returns `e^{i theta}`, a unit-magnitude phasor.
            #[inline]
            pub fn cis(theta: $t) -> Self {
                Self::from_polar(1.0, theta)
            }

            /// Complex conjugate.
            #[inline(always)]
            pub fn conj(self) -> Self {
                Self { re: self.re, im: -self.im }
            }

            /// Squared magnitude `|z|^2` (avoids the square root).
            #[inline(always)]
            pub fn norm_sqr(self) -> $t {
                self.re * self.re + self.im * self.im
            }

            /// Magnitude `|z|`.
            #[inline]
            pub fn abs(self) -> $t {
                self.norm_sqr().sqrt()
            }

            /// Multiplicative inverse `1/z`. Returns non-finite components
            /// when `z` is zero, matching IEEE float division semantics.
            #[inline]
            pub fn inv(self) -> Self {
                let d = self.norm_sqr();
                Self { re: self.re / d, im: -self.im / d }
            }

            /// Fused multiply-add: `self * b + c`.
            #[inline(always)]
            pub fn mul_add(self, b: Self, c: Self) -> Self {
                Self {
                    re: self.re * b.re - self.im * b.im + c.re,
                    im: self.re * b.im + self.im * b.re + c.im,
                }
            }

            /// `conj(self) * b`, the kernel of Hermitian inner products.
            #[inline(always)]
            pub fn conj_mul(self, b: Self) -> Self {
                Self { re: self.re * b.re + self.im * b.im, im: self.re * b.im - self.im * b.re }
            }

            /// Scales by a real factor.
            #[inline(always)]
            pub fn scale(self, s: $t) -> Self {
                Self { re: self.re * s, im: self.im * s }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, o: Self) -> Self {
                Self { re: self.re + o.re, im: self.im + o.im }
            }
        }
        impl Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                Self { re: self.re - o.re, im: self.im - o.im }
            }
        }
        impl Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                Self { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
            }
        }
        impl Div for $name {
            type Output = Self;
            #[inline]
            // Complex division IS multiplication by the inverse.
            #[allow(clippy::suspicious_arithmetic_impl)]
            fn div(self, o: Self) -> Self {
                self * o.inv()
            }
        }
        impl Mul<$t> for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, s: $t) -> Self {
                self.scale(s)
            }
        }
        impl Div<$t> for $name {
            type Output = Self;
            #[inline(always)]
            fn div(self, s: $t) -> Self {
                Self { re: self.re / s, im: self.im / s }
            }
        }
        impl Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                Self { re: -self.re, im: -self.im }
            }
        }
        impl AddAssign for $name {
            #[inline(always)]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }
        impl SubAssign for $name {
            #[inline(always)]
            fn sub_assign(&mut self, o: Self) {
                *self = *self - o;
            }
        }
        impl MulAssign for $name {
            #[inline(always)]
            fn mul_assign(&mut self, o: Self) {
                *self = *self * o;
            }
        }
        impl DivAssign for $name {
            #[inline]
            fn div_assign(&mut self, o: Self) {
                *self = *self / o;
            }
        }
        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }
        impl From<$t> for $name {
            #[inline]
            fn from(re: $t) -> Self {
                Self::real(re)
            }
        }
        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.im >= 0.0 {
                    write!(f, "{}+{}i", self.re, self.im)
                } else {
                    write!(f, "{}{}i", self.re, self.im)
                }
            }
        }
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

impl_complex!(Cf32, f32);
impl_complex!(Cf64, f64);

impl Cf32 {
    /// Widens to double precision.
    #[inline]
    pub fn to_f64(self) -> Cf64 {
        Cf64 { re: self.re as f64, im: self.im as f64 }
    }
}

impl Cf64 {
    /// Narrows to single precision.
    #[inline]
    pub fn to_f32(self) -> Cf32 {
        Cf32 { re: self.re as f32, im: self.im as f32 }
    }
}

#[cfg(test)]
/// Approximate equality helper for tests: true when both components differ
/// by at most `tol`.
pub(crate) fn approx_eq(a: Cf32, b: Cf32, tol: f32) -> bool {
    (a.re - b.re).abs() <= tol && (a.im - b.im).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cf32 {
        /// True if both components are finite.
        pub(crate) fn is_finite(self) -> bool {
            self.re.is_finite() && self.im.is_finite()
        }
    }

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Cf32::new(1.0, 2.0).re, 1.0);
        assert_eq!(Cf32::new(1.0, 2.0).im, 2.0);
        assert_eq!(Cf32::ZERO + Cf32::ONE, Cf32::ONE);
        assert_eq!(Cf32::I * Cf32::I, -Cf32::ONE);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Cf32::from_polar(2.0, 0.5);
        assert!((z.abs() - 2.0).abs() < 1e-6);
        assert!((z.im.atan2(z.re) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mul_matches_expanded_form() {
        let a = Cf32::new(1.0, 2.0);
        let b = Cf32::new(3.0, -4.0);
        let c = a * b;
        assert!(approx_eq(c, Cf32::new(11.0, 2.0), 1e-6));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Cf32::new(1.5, -2.5);
        let b = Cf32::new(0.3, 0.7);
        let q = (a * b) / b;
        assert!(approx_eq(q, a, 1e-5));
    }

    #[test]
    fn conj_mul_is_hermitian_product() {
        let a = Cf32::new(1.0, 2.0);
        let b = Cf32::new(3.0, 4.0);
        assert!(approx_eq(a.conj_mul(b), a.conj() * b, 1e-6));
    }

    #[test]
    fn inv_of_unit_is_conj() {
        let z = Cf32::cis(1.2);
        assert!(approx_eq(z.inv(), z.conj(), 1e-6));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Cf32::new(0.5, -1.0);
        let b = Cf32::new(2.0, 3.0);
        let c = Cf32::new(-1.0, 0.25);
        assert!(approx_eq(a.mul_add(b, c), a * b + c, 1e-6));
    }

    #[test]
    fn sum_accumulates() {
        let v = [Cf32::new(1.0, 1.0); 4];
        let s: Cf32 = v.iter().copied().sum();
        assert!(approx_eq(s, Cf32::new(4.0, 4.0), 1e-6));
    }

    #[test]
    fn f64_roundtrip() {
        let z = Cf32::new(0.125, -0.5);
        assert_eq!(z.to_f64().to_f32(), z);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Cf32::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{:?}", Cf32::new(1.0, 2.0)), "1+2i");
    }
}
