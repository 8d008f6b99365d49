//! Access-driven blocked LU factorization without pivoting.
//!
//! Used as the sequential substrate for Section 7.2 (parallel LL-LUNP /
//! RL-LUNP): the left-looking order is write-avoiding, the right-looking
//! order (CALU-style without pivoting) is not. `A = L·U` with unit-diagonal
//! `L` stored below the diagonal and `U` on/above it.

use crate::desc::MatDesc;
use crate::explicit_lu::{lu_schedule, LuOp};
use crate::matmul::kernel::mm_kernel_sub;
use memsim::Mem;

/// Block order for the factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuVariant {
    /// Write-avoiding left-looking order.
    LeftLooking,
    /// Right-looking (eager trailing update).
    RightLooking,
}

/// Unblocked in-place LU (no pivoting) of a diagonal block. Row-run
/// form: the pivot row's tail is loaded once per pivot, each updated
/// row's tail streams in and out as one run.
fn lu_base<M: Mem>(mem: &mut M, a: MatDesc) {
    debug_assert_eq!(a.rows, a.cols);
    let mut urow = vec![0.0; a.cols];
    let mut arow = vec![0.0; a.cols];
    for k in 0..a.rows {
        let akk = mem.ld(a.idx(k, k));
        assert!(akk.abs() > 1e-300, "zero pivot without pivoting");
        let tail = a.cols - k - 1;
        if tail > 0 {
            mem.ld_run(a.idx(k, k + 1), &mut urow[..tail]);
        }
        if k == 0 {
            // Rows 1.. are written by their updates below; row 0 of U
            // (= row 0 of A) would otherwise never be written. Store it
            // once so every output element is written at least once and
            // the block's simulated dirty footprint (write-backs after a
            // flush) matches the explicit model's full-block store.
            mem.st(a.idx(0, 0), akk);
            if tail > 0 {
                mem.st_run(a.idx(0, 1), &urow[..tail]);
            }
        }
        for i in k + 1..a.rows {
            let lik = mem.ld(a.idx(i, k)) / akk;
            mem.st(a.idx(i, k), lik);
            if tail == 0 {
                continue;
            }
            let ar = &mut arow[..tail];
            mem.ld_run(a.idx(i, k + 1), ar);
            for (v, u) in ar.iter_mut().zip(urow[..tail].iter()) {
                *v -= lik * u;
            }
            mem.st_run(a.idx(i, k + 1), &arow[..tail]);
        }
    }
}

/// Solve `L·X = B` in place (unit lower-triangular L from a factored
/// diagonal block): forward substitution, row-run form — row `i` of `B`
/// accumulates updates from the finalized rows above it, all rows moving
/// as contiguous runs.
fn trsm_lower_unit<M: Mem>(mem: &mut M, l: MatDesc, b: MatDesc) {
    debug_assert_eq!(l.rows, l.cols);
    debug_assert_eq!(b.rows, l.rows);
    let mut lrow = vec![0.0; l.cols];
    let mut xrow = vec![0.0; b.cols];
    let mut brow = vec![0.0; b.cols];
    for i in 0..b.rows {
        let lr = &mut lrow[..i];
        mem.ld_run(l.idx(i, 0), lr);
        mem.ld_run(b.idx(i, 0), &mut xrow);
        for (k, &lik) in lrow[..i].iter().enumerate() {
            mem.ld_run(b.idx(k, 0), &mut brow);
            for (x, bk) in xrow.iter_mut().zip(&brow) {
                *x -= lik * bk;
            }
        }
        mem.st_run(b.idx(i, 0), &xrow);
    }
}

/// Solve `X·U = B` in place (upper-triangular U from a factored diagonal
/// block). Produces an `L` block. Each row of `B` solves in a register
/// buffer (one run in, one out); `U` is consumed down columns, so its
/// reads stay word-granular.
fn trsm_upper_right<M: Mem>(mem: &mut M, u: MatDesc, b: MatDesc) {
    debug_assert_eq!(u.rows, u.cols);
    debug_assert_eq!(b.cols, u.rows);
    let mut brow = vec![0.0; b.cols];
    for i in 0..b.rows {
        mem.ld_run(b.idx(i, 0), &mut brow);
        for c in 0..u.cols {
            let mut acc = brow[c];
            for (t, &bt) in brow[..c].iter().enumerate() {
                acc -= bt * mem.ld(u.idx(t, c));
            }
            let ucc = mem.ld(u.idx(c, c));
            brow[c] = acc / ucc;
        }
        mem.st_run(b.idx(i, 0), &brow);
    }
}

/// Blocked LU without pivoting; `a` is overwritten by `L\U`.
/// Runs [`crate::explicit_lu::lu_schedule`] with the block kernels as its body.
pub fn blocked_lu<M: Mem>(mem: &mut M, a: MatDesc, bsize: usize, variant: LuVariant) {
    assert_eq!(a.rows, a.cols);
    let blk = |i, j| a.block(i, j, bsize);
    lu_schedule(a.rows, bsize, variant, &mut (), |op| match op {
        LuOp::Update { j, i, k } => {
            mem.phase("update");
            mm_kernel_sub(mem, blk(j, k), blk(k, i), blk(j, i));
        }
        LuOp::LowerSolve { j, i } => {
            mem.phase("trsm");
            trsm_lower_unit(mem, blk(j, j), blk(j, i));
        }
        LuOp::Factor { i } => {
            mem.phase("panel");
            lu_base(mem, blk(i, i));
        }
        LuOp::UpperSolve { j, i } => {
            mem.phase("trsm");
            trsm_upper_right(mem, blk(i, i), blk(j, i));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use memsim::RawMem;
    use wa_core::Mat;

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
        let u = lu.upper_triangular();
        l.matmul_ref(&u)
    }

    fn check(n: usize, bsize: usize, variant: LuVariant) {
        let a0 = Mat::random_diagdom(n, 41);
        let (d, words) = alloc_layout(&[(n, n)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &a0);
        blocked_lu(&mut mem, d[0], bsize, variant);
        let lu = d[0].load_mat(&mut mem);
        let back = reconstruct(&lu);
        assert!(
            back.max_abs_diff(&a0) < 1e-8 * n as f64,
            "{variant:?} n{n} b{bsize}: {}",
            back.max_abs_diff(&a0)
        );
    }

    #[test]
    fn right_looking_factors() {
        check(8, 4, LuVariant::RightLooking);
        check(16, 4, LuVariant::RightLooking);
        check(13, 4, LuVariant::RightLooking);
        check(16, 16, LuVariant::RightLooking);
    }

    #[test]
    fn left_looking_factors() {
        check(8, 4, LuVariant::LeftLooking);
        check(16, 4, LuVariant::LeftLooking);
        check(13, 4, LuVariant::LeftLooking);
    }

    #[test]
    fn variants_agree() {
        let n = 20;
        let a0 = Mat::random_diagdom(n, 43);
        let (d, words) = alloc_layout(&[(n, n)]);
        let mut m1 = RawMem::new(words);
        let mut m2 = RawMem::new(words);
        d[0].store_mat(&mut m1, &a0);
        d[0].store_mat(&mut m2, &a0);
        blocked_lu(&mut m1, d[0], 4, LuVariant::LeftLooking);
        blocked_lu(&mut m2, d[0], 4, LuVariant::RightLooking);
        let g1 = d[0].load_mat(&mut m1);
        let g2 = d[0].load_mat(&mut m2);
        assert!(g1.max_abs_diff(&g2) < 1e-9);
    }
}
