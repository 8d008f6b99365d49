//! s-step polynomial bases and their recurrence matrices.
//!
//! CA-CG represents the 2s+1 basis vectors
//! `[ρ₀(A)p, …, ρ_s(A)p, ρ₀(A)r, …, ρ_{s−1}(A)r]` and needs the matrix `H`
//! with `A·V = V·H` on the columns whose degree stays representable. For
//! the monomial basis `ρ_j(A) = A^j`, `H` is a shift; for the Newton basis
//! `ρ_{j+1}(x) = (x − θ_j)·ρ_j(x)`, `H` adds the shifts on the diagonal.
//! Well-chosen shifts keep the basis well-conditioned for larger `s`
//! (Carson et al. \[14\]); both bases give identical iterates in exact
//! arithmetic, which the tests verify.

/// Which polynomial basis generates the s-step Krylov blocks.
#[derive(Clone, Debug, PartialEq)]
pub enum BasisKind {
    /// `ρ_j(x) = x^j`.
    Monomial,
    /// `ρ_{j+1}(x) = (x − θ_j) ρ_j(x)` with the given shifts
    /// (length ≥ s).
    Newton(Vec<f64>),
}

impl BasisKind {
    /// Shift θ_j applied when advancing degree j → j+1.
    pub(crate) fn shift(&self, j: usize) -> f64 {
        match self {
            BasisKind::Monomial => 0.0,
            BasisKind::Newton(t) => t[j % t.len()],
        }
    }

    /// Build the `(2s+1)×(2s+1)` recurrence matrix `H` (row-major). With
    /// `m = 2s+1`, columns `0..s` hold the P-part (degrees 0..s), columns
    /// `s+1..2s+1` the R-part (degrees 0..s−1):
    ///
    /// * `A·V_j = V_{j+1} + θ_j·V_j` for P columns `j < s`,
    /// * `A·V_j = V_{j+1} + θ_{j−s−1}·V_j` for R columns `s+1 ≤ j < 2s`,
    /// * columns `s` and `2s` (top degrees) are zero — the inner loop
    ///   never applies `H` to coefficients living there.
    pub(crate) fn h_matrix(&self, s: usize) -> Vec<Vec<f64>> {
        let m = 2 * s + 1;
        let mut h = vec![vec![0.0; m]; m];
        for j in 0..s {
            h[j + 1][j] = 1.0;
            h[j][j] = self.shift(j);
        }
        for j in s + 1..2 * s {
            h[j + 1][j] = 1.0;
            h[j][j] = self.shift(j - s - 1);
        }
        h
    }
}

/// `y = H·x` for the dense row-major `H` of [`BasisKind::h_matrix`].
pub(crate) fn h_apply(h: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    let m = h.len();
    let mut y = vec![0.0; m];
    for (i, row) in h.iter().enumerate() {
        let mut acc = 0.0;
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                acc += v * x[j];
            }
        }
        y[i] = acc;
    }
    let _ = m; // (kept for clarity: y has the same length as H's order)
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_h_is_a_shift() {
        let h = BasisKind::Monomial.h_matrix(3); // m = 7
                                                 // e0 -> e1 -> e2 -> e3.
        let mut v = vec![0.0; 7];
        v[0] = 1.0;
        let v1 = h_apply(&h, &v);
        assert_eq!(v1[1], 1.0);
        let v2 = h_apply(&h, &v1);
        assert_eq!(v2[2], 1.0);
        // R part: e4 -> e5.
        let mut r = vec![0.0; 7];
        r[4] = 1.0;
        assert_eq!(h_apply(&h, &r)[5], 1.0);
    }

    #[test]
    fn newton_h_adds_shifts() {
        let h = BasisKind::Newton(vec![2.0, 3.0]).h_matrix(2);
        // A·V0 = V1 + 2·V0.
        assert_eq!(h[1][0], 1.0);
        assert_eq!(h[0][0], 2.0);
        assert_eq!(h[1][1], 3.0);
        // Top-degree columns are zero.
        assert!(h.iter().all(|row| row[2] == 0.0));
        assert!(h.iter().all(|row| row[4] == 0.0));
    }

    #[test]
    fn h_apply_matches_manual() {
        let h = vec![vec![1.0, 2.0], vec![0.0, 3.0]];
        assert_eq!(h_apply(&h, &[1.0, 1.0]), vec![3.0, 3.0]);
    }
}
