//! Blocked LU factorization (no pivoting) as one block schedule with
//! exact load/store accounting.
//!
//! The sequential substrate of the paper's Section 7.2 (LL-LUNP /
//! RL-LUNP), in the same style as [`crate::explicit_cholesky`]:
//! [`lu_schedule`] owns the block loops and every explicit charge, the
//! explicit model runs it with an empty body and [`crate::lu::blocked_lu`]
//! with the block kernels as the body. The *left-looking* order brings
//! each block of `A` into fast memory once, applies every update from the
//! already-finished block column(s) to its left while it is resident, and
//! stores it exactly once — `n²` words of slow-memory writes, the output
//! size. The *right-looking* order (CALU-style without pivoting) eagerly
//! rewrites the whole trailing submatrix after each panel: `Θ(n³/(3b))`
//! writes. `A = L·U` with unit-diagonal `L` below the diagonal and `U`
//! on/above it.

use crate::explicit_mm::{strict_lower_words, tri_words};
use crate::lu::LuVariant;
use memsim::Charges;

/// One block operation of [`lu_schedule`], on block indices of `A`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuOp {
    /// `A(j,i) -= L(j,k)·U(k,i)`.
    Update { j: usize, i: usize, k: usize },
    /// `A(j,i) := L(j,j)⁻¹·A(j,i)` with the unit lower triangle of the
    /// factored diagonal block `A(j,j)`: a block of `U` right of it.
    LowerSolve { j: usize, i: usize },
    /// Factor the diagonal block in place: `A(i,i) = L(i,i)·U(i,i)`.
    Factor { i: usize },
    /// `A(j,i) := A(j,i)·U(i,i)⁻¹` with the upper triangle of the factored
    /// diagonal block `A(i,i)`: a block of `L` below it.
    UpperSolve { j: usize, i: usize },
}

/// The block loops of blocked LU without pivoting of an `n×n` matrix at
/// block size `bsize`, with every explicit charge; `body` runs each
/// [`LuOp`] after its operands are loaded.
///
/// The left-looking order walks block column `i` top-down: each `A(j,i)`
/// is loaded once, takes every update from the finished columns to its
/// left while resident, is solved (or factored, on the diagonal) and is
/// stored once — `n²` words to slow memory, the output size. Top-down
/// finalizes each `U(k,i)` before the rows below read it and factors the
/// diagonal before the panel solves under it. The right-looking order
/// eagerly rewrites the whole trailing submatrix after each panel:
/// `Θ(n³/(3b))` words.
pub fn lu_schedule<H: Charges>(
    n: usize,
    bsize: usize,
    variant: LuVariant,
    hier: &mut H,
    mut body: impl FnMut(LuOp),
) {
    assert!(bsize > 0);
    let nb = n.div_ceil(bsize);
    let w = |blk: usize| bsize.min(n - blk * bsize);
    for i in 0..nb {
        let ci = w(i);
        match variant {
            LuVariant::LeftLooking => {
                for j in 0..nb {
                    let cj = w(j);
                    hier.load(0, (cj * ci) as u64); // A(j,i), resident to the store
                    for k in 0..j.min(i) {
                        let ck = w(k);
                        hier.load(0, (cj * ck) as u64); // L(j,k)
                        hier.load(0, (ck * ci) as u64); // U(k,i)
                        body(LuOp::Update { j, i, k });
                        hier.flop(2 * (cj * ck * ci) as u64);
                        hier.free(1, ((cj + ci) * ck) as u64);
                    }
                    if j < i {
                        hier.load(0, strict_lower_words(cj)); // L(j,j), unit diag
                        body(LuOp::LowerSolve { j, i });
                        hier.flop((cj * cj * ci) as u64);
                        hier.free(1, strict_lower_words(cj));
                    } else if j == i {
                        body(LuOp::Factor { i });
                        hier.flop(2 * (ci * ci * ci) as u64 / 3);
                    } else {
                        hier.load(0, tri_words(ci)); // U(i,i) upper half
                        body(LuOp::UpperSolve { j, i });
                        hier.flop((cj * ci * ci) as u64);
                        hier.free(1, tri_words(ci));
                    }
                    hier.store(0, (cj * ci) as u64); // finished L(j,i) / U(j,i)
                    hier.free(1, (cj * ci) as u64);
                }
            }
            LuVariant::RightLooking => {
                hier.load(0, (ci * ci) as u64); // A(i,i), resident through both panels
                body(LuOp::Factor { i });
                hier.flop(2 * (ci * ci * ci) as u64 / 3);
                hier.store(0, (ci * ci) as u64);
                for j in i + 1..nb {
                    let cj = w(j);
                    hier.load(0, (cj * ci) as u64); // A(j,i) -> L(j,i)
                    body(LuOp::UpperSolve { j, i });
                    hier.flop((cj * ci * ci) as u64);
                    hier.store(0, (cj * ci) as u64);
                    hier.free(1, (cj * ci) as u64);

                    hier.load(0, (ci * cj) as u64); // A(i,j) -> U(i,j)
                    body(LuOp::LowerSolve { j: i, i: j });
                    hier.flop((ci * ci * cj) as u64);
                    hier.store(0, (ci * cj) as u64);
                    hier.free(1, (ci * cj) as u64);
                }
                hier.free(1, (ci * ci) as u64);
                // Trailing update: A(j,k) -= L(j,i)·U(i,k), eagerly written back.
                for j in i + 1..nb {
                    let cj = w(j);
                    for k in i + 1..nb {
                        let ck = w(k);
                        hier.load(0, (cj * ci) as u64); // L(j,i)
                        hier.load(0, (ci * ck) as u64); // U(i,k)
                        hier.load(0, (cj * ck) as u64); // A(j,k)
                        body(LuOp::Update { j, i: k, k: i });
                        hier.flop(2 * (cj * ci * ck) as u64);
                        hier.store(0, (cj * ck) as u64);
                        hier.free(1, (cj * ci + ci * ck + cj * ck) as u64);
                    }
                }
            }
        }
    }
}

/// Words the right-looking order of [`lu_schedule`] stores: the whole
/// trailing matrix after every panel, `Σ_{i<nb} (n − i·b)²`.
pub(crate) fn rl_store_words(n: usize, bsize: usize) -> u64 {
    (0..n.div_ceil(bsize))
        .map(|i| ((n - i * bsize) as u64).pow(2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use crate::explicit_mm::block_for;
    use crate::lu::blocked_lu;
    use memsim::{ExplicitHier, RawMem};
    use wa_core::Mat;

    /// The schedule's charges on a two-level model of `m_words`.
    fn charges(n: usize, m_words: u64, variant: LuVariant) -> ExplicitHier {
        let mut h = ExplicitHier::two_level(m_words);
        lu_schedule(n, block_for(m_words), variant, &mut h, |_| {});
        h
    }

    /// Factor `a0` with `blocked_lu` (the schedule with the block kernels
    /// as its body) at the explicit model's block size for `m_words`;
    /// returns `L\U`.
    fn factor(a0: &Mat, m_words: u64, variant: LuVariant) -> Mat {
        let n = a0.rows();
        let (d, words) = alloc_layout(&[(n, n)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, a0);
        blocked_lu(&mut mem, d[0], block_for(m_words), variant);
        d[0].load_mat(&mut mem)
    }

    fn reconstruct(lu: &Mat) -> Mat {
        let n = lu.rows();
        let l = Mat::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if j < i {
                lu[(i, j)]
            } else {
                0.0
            }
        });
        l.matmul_ref(&lu.upper_triangular())
    }

    fn check_factor(a0: &Mat, lu: &Mat) {
        let back = reconstruct(lu);
        let d = back.max_abs_diff(a0);
        assert!(d < 1e-8 * a0.rows() as f64, "reconstruction error {d}");
    }

    #[test]
    fn left_looking_factors_correctly() {
        let a0 = Mat::random_diagdom(16, 3);
        check_factor(&a0, &factor(&a0, 48, LuVariant::LeftLooking));
    }

    #[test]
    fn right_looking_factors_correctly() {
        let a0 = Mat::random_diagdom(16, 4);
        check_factor(&a0, &factor(&a0, 48, LuVariant::RightLooking));
    }

    #[test]
    fn both_orders_agree() {
        let a0 = Mat::random_diagdom(20, 5);
        let a1 = factor(&a0, 48, LuVariant::LeftLooking);
        let a2 = factor(&a0, 48, LuVariant::RightLooking);
        assert!(a1.max_abs_diff(&a2) < 1e-8);
    }

    #[test]
    fn ll_stores_exactly_the_output_size() {
        let n = 16;
        let h = charges(n, 48, LuVariant::LeftLooking);
        assert_eq!(h.traffic().boundary(0).store_words, (n * n) as u64);
    }

    #[test]
    fn rl_stores_more_than_ll() {
        let n = 32;
        let s_ll = charges(n, 48, LuVariant::LeftLooking)
            .traffic()
            .boundary(0)
            .store_words;
        let s_rl = charges(n, 48, LuVariant::RightLooking)
            .traffic()
            .boundary(0)
            .store_words;
        assert_eq!(s_ll, (n * n) as u64);
        assert_eq!(s_rl, rl_store_words(n, block_for(48)));
        // RL rewrites the trailing submatrix every panel: with nb = n/b
        // panels the write volume approaches n³/(3b).
        assert!(
            s_rl > 2 * s_ll,
            "right-looking {s_rl} should far exceed left-looking {s_ll}"
        );
    }

    #[test]
    fn capacity_and_theorem1() {
        let h = charges(24, 48, LuVariant::LeftLooking);
        assert!(h.peak(1) <= 48);
        let (wf, total) = h.theorem1_check(0);
        assert!(2 * wf >= total);
    }

    #[test]
    fn uneven_block_boundary_still_correct() {
        let a0 = Mat::random_diagdom(18, 9); // 18 = 4*4 + 2
        check_factor(&a0, &factor(&a0, 48, LuVariant::LeftLooking));
        // Stores remain exactly the output even with clipped blocks.
        let h = charges(18, 48, LuVariant::LeftLooking);
        assert_eq!(h.traffic().boundary(0).store_words, (18 * 18) as u64);
    }
}
