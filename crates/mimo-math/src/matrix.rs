//! Dense row-major complex matrices.
//!
//! The MIMO processing chain works with small-to-medium dense complex
//! matrices: the `M x K` channel matrix `H`, its `K x K` Gram matrix
//! `H^H H`, and the `K x M` zero-forcing detector. [`CMat`] is a simple
//! owned row-major container over [`Cf32`] with the operations those
//! pipelines need. Hot-path multiplication lives in [`crate::gemm`]; this
//! module holds construction, indexing, and structural transforms.

use crate::complex::Cf32;
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

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Cf32::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of elements.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[Cf32]) -> Self {
        assert_eq!(data.len(), rows * cols, "element count must match shape");
        Self { rows, cols, data: data.to_vec() }
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

    /// True for `0 x 0` matrices.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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

    /// Copies column `c` into a vector.
    pub fn col(&self, c: usize) -> Vec<Cf32> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
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

    /// Hermitian transpose into a caller-owned matrix (no allocation).
    ///
    /// # Panics
    /// Panics if `out` is not `cols x rows`.
    pub fn hermitian_into(&self, out: &mut CMat) {
        assert_eq!(out.shape(), (self.cols, self.rows), "hermitian_into shape mismatch");
        crate::simd::conj_transpose(
            &self.data,
            self.rows,
            self.cols,
            &mut out.data,
            crate::simd::SimdTier::cached(),
        );
    }

    /// Copies another matrix's elements into this one (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &CMat) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Element-wise conjugate `A*`.
    pub fn conj(&self) -> CMat {
        let mut out = self.clone();
        for z in out.data.iter_mut() {
            *z = z.conj();
        }
        out
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, s: f32) -> CMat {
        let mut out = self.clone();
        for z in out.data.iter_mut() {
            *z = z.scale(s);
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &CMat) -> CMat {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
        out
    }

    /// Element-wise difference.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &CMat) -> CMat {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(other.data.iter()) {
            *a -= *b;
        }
        out
    }

    /// Naive `O(n^3)` matrix product; small sizes and tests. For hot paths
    /// use [`crate::gemm::gemm`], which dispatches to specialised kernels.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Self::matmul`] into a caller-owned output matrix (no allocation),
    /// through the tier-dispatched GEMM kernels.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows` or `out` is not
    /// `self.rows x other.cols`.
    pub fn matmul_into(&self, other: &CMat, out: &mut CMat) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_into shape mismatch");
        crate::gemm::gemm(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols`.
    pub fn matvec(&self, x: &[Cf32]) -> Vec<Cf32> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        (0..self.rows)
            .map(|r| {
                self.row(r).iter().zip(x.iter()).fold(Cf32::ZERO, |acc, (&a, &b)| a.mul_add(b, acc))
            })
            .collect()
    }

    /// Maximum absolute element difference against another matrix; the
    /// standard closeness metric in this workspace's tests.
    pub fn max_abs_diff(&self, other: &CMat) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    /// Gram matrix `A^H A` (`cols x cols`, Hermitian positive semidefinite).
    pub fn gram(&self) -> CMat {
        let mut g = CMat::zeros(self.cols, self.cols);
        self.gram_into(&mut g);
        g
    }

    /// [`Self::gram`] into a caller-owned output matrix (no allocation),
    /// through the tier-dispatched Gram kernel.
    ///
    /// # Panics
    /// Panics if `out` is not `cols x cols`.
    pub fn gram_into(&self, out: &mut CMat) {
        let n = self.cols;
        assert_eq!(out.shape(), (n, n), "gram_into shape mismatch");
        crate::gemm::gram(self.rows, n, &self.data, &mut out.data);
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

    #[test]
    fn gram_matches_explicit_product() {
        let a = sample();
        let g = a.gram();
        let g_ref = a.hermitian().matmul(&a);
        assert!(g.max_abs_diff(&g_ref) < 1e-5);
        // Gram matrices are Hermitian.
        assert!(g.max_abs_diff(&g.hermitian()) < 1e-5);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let x = vec![Cf32::new(1.0, -1.0), Cf32::new(0.5, 2.0)];
        let y = a.matvec(&x);
        let xm = CMat::from_slice(2, 1, &x);
        let ym = a.matmul(&xm);
        for (i, &yi) in y.iter().enumerate() {
            assert!(approx_eq(yi, ym[(i, 0)], 1e-6));
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = sample();
        let b = a.scale(2.0);
        assert!(a.add(&b).sub(&b).max_abs_diff(&a) < 1e-6);
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
        let b = CMat::from_fn(2, 4, |r, c| Cf32::new(c as f32 - r as f32, 0.5));
        let mut t = CMat::zeros(2, 3);
        a.transpose_into(&mut t);
        assert!(t.max_abs_diff(&a.transpose()) < 1e-7);
        let mut h = CMat::zeros(2, 3);
        a.hermitian_into(&mut h);
        assert!(h.max_abs_diff(&a.hermitian()) < 1e-7);
        let mut p = CMat::from_fn(3, 4, |_, _| Cf32::new(9.0, 9.0)); // stale contents
        a.matmul_into(&b, &mut p);
        assert!(p.max_abs_diff(&a.matmul(&b)) < 1e-6);
        let mut g = CMat::from_fn(2, 2, |_, _| Cf32::ONE);
        a.gram_into(&mut g);
        assert!(g.max_abs_diff(&a.gram()) < 1e-6);
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
    fn row_and_col_access() {
        let a = sample();
        assert_eq!(a.row(1).len(), 2);
        assert_eq!(a.col(0).len(), 3);
        assert_eq!(a.col(1)[2], a[(2, 1)]);
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
            let g = a.gram();
            prop_assert!(g.max_abs_diff(&g.hermitian()) < 1e-3);
            let xv: Vec<Cf32> = x.iter().map(|&(re, im)| Cf32::new(re, im)).collect();
            let gx = g.matvec(&xv);
            let quad: Cf32 = xv.iter().zip(gx.iter()).map(|(a, b)| a.conj_mul(*b)).sum();
            prop_assert!(quad.re >= -1e-2, "x^H G x = {quad:?}");
        }
    }
}
