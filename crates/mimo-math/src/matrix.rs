//! Dense row-major complex matrices.
//!
//! The MIMO processing chain works with small-to-medium dense complex
//! matrices: the `M x K` channel matrix `H`, its `K x K` Gram matrix
//! `H^H H`, and the `K x M` zero-forcing detector. [`CMat`] is a simple
//! owned row-major container over [`Cf32`] with the operations those
//! pipelines need. Hot-path multiplication lives in [`crate::gemm`]; this
//! module holds construction, indexing, and structural transforms.

use crate::complex::Cf32;
use crate::gemm::gemm;
use core::fmt;
use core::ops::{Index, IndexMut};

/// A dense row-major matrix of [`Cf32`] elements.
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Cf32>,
}

impl CMat {
    /// Creates a zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Cf32::ZERO; rows * cols] }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Cf32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row-major element slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Cf32] {
        &self.data
    }

    /// Mutable row-major element slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Cf32] {
        &mut self.data
    }

    /// Borrows row `r` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[Cf32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [Cf32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Plain transpose `A^T`.
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Transpose into a caller-owned matrix (no allocation).
    ///
    /// # Panics
    /// Panics if `out` is not `cols x rows`.
    pub fn transpose_into(&self, out: &mut CMat) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into shape mismatch");
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Conjugate (Hermitian) transpose `A^H`.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Copies another matrix's elements into this one (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &CMat) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Matrix product through the tier-dispatched GEMM kernels ([`gemm`]);
    /// small sizes, cold paths and tests.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &CMat) -> CMat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = CMat::zeros(self.rows, other.cols);
        gemm(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
        out
    }

    /// Maximum absolute element difference against another matrix; the
    /// standard closeness metric in this workspace's tests.
    pub fn max_abs_diff(&self, other: &CMat) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max)
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Cf32;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &Cf32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Cf32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::approx_eq;

    impl CMat {
        /// The `n x n` identity matrix.
        pub(crate) fn identity(n: usize) -> Self {
            Self::from_fn(n, n, |r, c| if r == c { Cf32::ONE } else { Cf32::ZERO })
        }
    }

    fn sample() -> CMat {
        CMat::from_fn(3, 2, |r, c| Cf32::new(r as f32, c as f32 + 1.0))
    }

    #[test]
    fn zeros_and_identity() {
        let z = CMat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&e| e == Cf32::ZERO));
        let i = CMat::identity(3);
        assert_eq!(i[(1, 1)], Cf32::ONE);
        assert_eq!(i[(0, 1)], Cf32::ZERO);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = sample();
        let i3 = CMat::identity(3);
        let i2 = CMat::identity(2);
        assert!(i3.matmul(&a).max_abs_diff(&a) < 1e-6);
        assert!(a.matmul(&i2).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn hermitian_transpose_conjugates() {
        let a = sample();
        let ah = a.hermitian();
        assert_eq!(ah.shape(), (2, 3));
        assert!(approx_eq(ah[(1, 2)], a[(2, 1)].conj(), 1e-6));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = sample();
        assert!(a.transpose().transpose().max_abs_diff(&a) < 1e-7);
    }

    /// `A^H A` by the Gram kernels' scalar reference.
    pub(super) fn gram(a: &CMat) -> CMat {
        let mut g = CMat::zeros(a.cols, a.cols);
        crate::gemm::gram_accumulate_scalar(a.rows, a.cols, &a.data, &mut g.data);
        g
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = sample();
        let g = gram(&a);
        let g_ref = a.hermitian().matmul(&a);
        assert!(g.max_abs_diff(&g_ref) < 1e-5);
        // Gram matrices are Hermitian.
        assert!(g.max_abs_diff(&g.hermitian()) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let a = sample();
        let mut t = CMat::zeros(2, 3);
        a.transpose_into(&mut t);
        assert!(t.max_abs_diff(&a.transpose()) < 1e-7);
        let mut c = CMat::zeros(3, 2);
        c.copy_from(&a);
        assert!(c.max_abs_diff(&a) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn transpose_into_rejects_wrong_shape() {
        let a = sample();
        let mut out = CMat::zeros(3, 2);
        a.transpose_into(&mut out);
    }

    #[test]
    fn row_access() {
        let a = sample();
        assert_eq!(a.row(1).len(), 2);
        assert_eq!(a.row(2)[1], a[(2, 1)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_mat(rows: usize, cols: usize) -> impl Strategy<Value = CMat> {
        proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), rows * cols).prop_map(
            move |v| {
                CMat::from_fn(rows, cols, |r, c| {
                    let (re, im) = v[r * cols + c];
                    Cf32::new(re, im)
                })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// (AB)C == A(BC) within float tolerance.
        #[test]
        fn matmul_is_associative(a in arb_mat(3, 4), b in arb_mat(4, 2), c in arb_mat(2, 5)) {
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!(left.max_abs_diff(&right) < 1e-2);
        }

        /// (AB)^H == B^H A^H.
        #[test]
        fn hermitian_reverses_products(a in arb_mat(3, 4), b in arb_mat(4, 2)) {
            let lhs = a.matmul(&b).hermitian();
            let rhs = b.hermitian().matmul(&a.hermitian());
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
        }

        /// The Gram matrix is Hermitian positive semidefinite: x^H G x >= 0.
        #[test]
        fn gram_is_psd(a in arb_mat(5, 3), x in proptest::collection::vec((-1.0f32..1.0, -1.0f32..1.0), 3)) {
            let g = super::tests::gram(&a);
            prop_assert!(g.max_abs_diff(&g.hermitian()) < 1e-3);
            let xv = CMat::from_fn(3, 1, |r, _| Cf32::new(x[r].0, x[r].1));
            let gx = g.matmul(&xv);
            let quad: Cf32 =
                xv.as_slice().iter().zip(gx.as_slice()).map(|(a, b)| a.conj_mul(*b)).sum();
            prop_assert!(quad.re >= -1e-2, "x^H G x = {quad:?}");
        }
    }
}
