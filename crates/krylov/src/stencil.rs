//! Stencil matrix generators — the paper's model problems for CA-KSMs:
//! `(2b+1)^d`-point stencils on d-dimensional Cartesian meshes.

use crate::csr::Csr;

/// Standard 5-point Laplacian on an `nx × ny` grid plus `shift·I`
/// (SPD for `shift ≥ 0`, strictly for `shift > 0` or with Dirichlet
/// boundary which this is).
pub fn laplacian_2d(nx: usize, ny: usize, shift: f64) -> Csr {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut t = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            t.push((r, r, 4.0 + shift));
            if i > 0 {
                t.push((r, idx(i - 1, j), -1.0));
            }
            if i + 1 < nx {
                t.push((r, idx(i + 1, j), -1.0));
            }
            if j > 0 {
                t.push((r, idx(i, j - 1), -1.0));
            }
            if j + 1 < ny {
                t.push((r, idx(i, j + 1), -1.0));
            }
        }
    }
    Csr::from_triplets(n, n, t)
}

/// 1-D Laplacian-type band matrix on `n` points with half-bandwidth `b`:
/// diagonal `2b + shift`, off-diagonals `-1` within distance `b` (SPD for
/// `shift > 0`). A test matrix whose reach differs from the 2-D stencil's.
#[cfg(test)]
pub(crate) fn band_1d(n: usize, b: usize, shift: f64) -> Csr {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0 * b as f64 + shift));
        for d in 1..=b {
            if i >= d {
                t.push((i, i - d, -1.0));
            }
            if i + d < n {
                t.push((i, i + d, -1.0));
            }
        }
    }
    Csr::from_triplets(n, n, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `r` of `a` as a dense vector.
    fn dense_row(a: &Csr, r: usize) -> Vec<f64> {
        let mut out = vec![0.0; a.cols];
        for k in a.row_ptr[r]..a.row_ptr[r + 1] {
            out[a.col_idx[k]] += a.vals[k];
        }
        out
    }

    #[test]
    fn band_1d_structure() {
        let a = band_1d(10, 2, 1.0);
        assert_eq!(a.rows, 10);
        // Interior row has 2b+1 = 5 entries.
        assert_eq!(a.row_ptr[6] - a.row_ptr[5], 5);
        // Corner row has b+1 = 3.
        assert_eq!(a.row_ptr[1] - a.row_ptr[0], 3);
        let row = dense_row(&a, 5);
        assert_eq!(row[5], 5.0);
        assert_eq!(row[3], -1.0);
        assert_eq!(row[7], -1.0);
        assert_eq!(row[2], 0.0);
    }

    #[test]
    fn laplacian_2d_row_sums() {
        // Interior rows sum to shift; boundary rows to more.
        let a = laplacian_2d(5, 5, 0.5);
        let center = dense_row(&a, 12); // (2,2): interior
        assert!((center.iter().sum::<f64>() - 0.5).abs() < 1e-12);
        let corner = dense_row(&a, 0);
        assert!((corner.iter().sum::<f64>() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn laplacian_2d_symmetric() {
        let a = laplacian_2d(4, 6, 0.0);
        for r in 0..a.rows {
            let row = dense_row(&a, r);
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    assert_eq!(dense_row(&a, c)[r], v, "asym at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn spd_via_gershgorin() {
        // Diagonal dominance with positive diagonal => SPD.
        for a in [band_1d(20, 3, 0.1), laplacian_2d(6, 6, 0.1)] {
            for r in 0..a.rows {
                let row = dense_row(&a, r);
                let diag = row[r];
                let off: f64 = row
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| c != r)
                    .map(|(_, v)| v.abs())
                    .sum();
                assert!(diag > off - 1e-12, "row {r} not dominant");
            }
        }
    }
}
