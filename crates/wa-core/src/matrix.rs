//! Dense row-major matrix with strided block views.
//!
//! This is deliberately a small, dependency-free matrix type: the point of
//! the workspace is to count memory traffic of blocked algorithms, so the
//! only structural feature we need is cheap `b × b` block addressing with a
//! row stride (so a block of a larger matrix can be passed to a kernel
//! without copying).

use crate::rng::XorShift;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Owned dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled by `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Uniform random entries in `[-1, 1)`, deterministic in `seed`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = XorShift::new(seed);
        Mat::from_fn(rows, cols, |_, _| rng.next_unit() * 2.0 - 1.0)
    }

    /// Random symmetric positive-definite matrix (diagonally dominant),
    /// suitable as a Cholesky / CG test input.
    pub fn random_spd(n: usize, seed: u64) -> Self {
        let mut a = Mat::random(n, n, seed);
        // Symmetrize, then make strictly diagonally dominant.
        for i in 0..n {
            for j in 0..i {
                let v = 0.5 * (a[(i, j)] + a[(j, i)]);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        for i in 0..n {
            a[(i, i)] = a[(i, i)].abs() + n as f64;
        }
        a
    }

    /// Random (non-symmetric) strictly diagonally dominant matrix —
    /// well-conditioned and safe for the pivot-free LU factorizations.
    pub fn random_diagdom(n: usize, seed: u64) -> Self {
        let mut a = Mat::random(n, n, seed);
        for i in 0..n {
            a[(i, i)] = a[(i, i)].abs() + n as f64;
        }
        a
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Classical reference product `self * b` (unblocked, for verification).
    pub fn matmul_ref(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "inner dimensions must agree");
        let mut c = Mat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                for j in 0..b.cols {
                    c[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        c
    }

    /// max |self - other| over all entries.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Lower-triangular part (including diagonal), rest zeroed.
    pub fn lower_triangular(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            if j <= i {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Upper-triangular part (including diagonal), rest zeroed.
    pub fn upper_triangular(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            if j >= i {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Random well-conditioned upper-triangular matrix (unit-ish diagonal).
    pub fn random_upper_triangular(n: usize, seed: u64) -> Mat {
        let mut rng = XorShift::new(seed);
        Mat::from_fn(n, n, |i, j| {
            if j > i {
                (rng.next_unit() * 2.0 - 1.0) / n as f64
            } else if j == i {
                1.0 + rng.next_unit()
            } else {
                0.0
            }
        })
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let mut m = Mat::zeros(3, 4);
        m[(2, 3)] = 7.5;
        m[(0, 0)] = -1.0;
        assert_eq!(m[(2, 3)], 7.5);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(1, 1)], 0.0);
    }

    #[test]
    fn eye_times_anything_is_identity_map() {
        let a = Mat::random(5, 5, 42);
        let i = Mat::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(i.matmul_ref(&a).max_abs_diff(&a) < 1e-15);
        assert!(a.matmul_ref(&i).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn matmul_ref_matches_hand_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Mat::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64);
        let b = Mat::from_fn(2, 2, |i, j| (i * 2 + j + 5) as f64);
        let c = a.matmul_ref(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Mat::random(4, 7, 3);
        assert!(a.transpose().transpose().max_abs_diff(&a) == 0.0);
    }

    #[test]
    fn spd_matrix_is_symmetric_with_positive_diagonal() {
        let a = Mat::random_spd(16, 9);
        for i in 0..16 {
            assert!(a[(i, i)] > 0.0);
            for j in 0..16 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }

    #[test]
    fn triangular_extraction() {
        let a = Mat::random(5, 5, 1);
        let l = a.lower_triangular();
        let u = a.upper_triangular();
        for i in 0..5 {
            for j in 0..5 {
                if j > i {
                    assert_eq!(l[(i, j)], 0.0);
                    assert_eq!(u[(i, j)], a[(i, j)]);
                } else if j < i {
                    assert_eq!(u[(i, j)], 0.0);
                    assert_eq!(l[(i, j)], a[(i, j)]);
                }
            }
        }
    }
}
