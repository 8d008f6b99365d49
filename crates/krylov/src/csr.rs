//! Compressed-sparse-row matrices and SpMV kernels.

/// CSR sparse matrix (square or rectangular).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    pub rows: usize,
    pub cols: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<usize>,
    pub vals: Vec<f64>,
}

impl Csr {
    /// Build from (row, col, value) triplets; duplicates are summed.
    pub(crate) fn from_triplets(rows: usize, cols: usize, mut t: Vec<(usize, usize, f64)>) -> Self {
        t.sort_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(t.len());
        let mut vals: Vec<f64> = Vec::with_capacity(t.len());
        let mut cur_row = 0usize;
        for &(r, c, v) in &t {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
            while cur_row < r {
                cur_row += 1;
                row_ptr[cur_row] = col_idx.len();
            }
            // Merge a duplicate (same row, same column as the previous
            // entry of this row).
            if col_idx.len() > row_ptr[r] && *col_idx.last().unwrap() == c {
                *vals.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                vals.push(v);
            }
        }
        while cur_row < rows {
            cur_row += 1;
            row_ptr[cur_row] = col_idx.len();
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `y = A·x` over the full row range.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_range(x, y, 0, self.rows);
    }

    /// `y[r] = Σ A[r,c]·x[c]` for rows `r ∈ [r0, r1)` only (other entries
    /// of `y` untouched).
    pub(crate) fn spmv_range(&self, x: &[f64], y: &mut [f64], r0: usize, r1: usize) {
        assert!(x.len() >= self.cols && y.len() >= self.rows && r1 <= self.rows);
        self.spmv_window(x, 0, &mut y[r0..r1], r0);
    }

    /// Windowed SpMV, the blockwise matrix-powers building block: `x`
    /// holds entries `[x0, x0 + x.len())` of the input vector and `y`
    /// receives rows `[r0, r0 + y.len())`, `y[r − r0] = Σ A[r,c]·x[c − x0]`.
    /// Every column the rows reach must lie in `x`'s window. Each row
    /// sums in [`Csr::spmv`]'s order, so the values are bit-identical.
    pub(crate) fn spmv_window(&self, x: &[f64], x0: usize, y: &mut [f64], r0: usize) {
        for (r, yr) in (r0..).zip(y.iter_mut()) {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[k] * x[self.col_idx[k] - x0];
            }
            *yr = acc;
        }
    }

    /// Smallest and largest column index reachable from rows `[r0, r1)` —
    /// one step of range-based dependency closure (exact for banded
    /// matrices, conservative in general). Returns `(c_min, c_max+1)`.
    pub(crate) fn reach_range(&self, r0: usize, r1: usize) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for r in r0..r1 {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if s < e {
                lo = lo.min(self.col_idx[s..e].iter().copied().min().unwrap());
                hi = hi.max(self.col_idx[s..e].iter().copied().max().unwrap() + 1);
            }
        }
        if lo == usize::MAX {
            (r0, r1)
        } else {
            (lo.min(r0), hi.max(r1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [2 1 0]
        // [0 3 0]
        // [4 0 5]
        Csr::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
    }

    #[test]
    fn spmv_small() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![4.0, 6.0, 19.0]);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn empty_rows_are_handled() {
        let a = Csr::from_triplets(4, 4, vec![(0, 0, 1.0), (3, 3, 2.0)]);
        let mut y = vec![9.0; 4];
        a.spmv(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn range_spmv_touches_only_range() {
        let a = small();
        let mut y = vec![-1.0; 3];
        a.spmv_range(&[1.0, 1.0, 1.0], &mut y, 1, 2);
        assert_eq!(y, vec![-1.0, 3.0, -1.0]);
    }

    #[test]
    fn reach_range_expands_by_bandwidth() {
        // Tridiagonal: reach of [5,6) is [4,7).
        let n = 10;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(n, n, t);
        assert_eq!(a.reach_range(5, 6), (4, 7));
        assert_eq!(a.reach_range(0, 1), (0, 2));
    }

    #[test]
    fn duplicate_triplets_sum() {
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5)]);
        let mut y = [0.0; 2];
        a.spmv(&[1.0, 0.0], &mut y);
        assert_eq!(y, [3.5, 0.0]);
    }
}
