//! Access-driven blocked TRSM (Algorithm 2) over a [`memsim::Mem`].
//!
//! Solves `T·X = B` (upper-triangular `T`, X overwrites B) with either the
//! WA left-looking order (updates pulled into the resident block, `k`
//! innermost) or the non-WA right-looking order (updates pushed eagerly).

use crate::desc::MatDesc;
use crate::explicit_trsm::{trsm_schedule, TrsmOp};
use crate::matmul::kernel::mm_kernel_sub;
use memsim::Mem;

/// Which block order to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsmVariant {
    /// Write-avoiding: each `B(i,j)` is updated to completion while
    /// resident (Algorithm 2).
    WriteAvoiding,
    /// Right-looking: eager pushes, rewriting partial results.
    RightLooking,
}

/// Unblocked back substitution on the diagonal block:
/// `T[diag] · X = B[bi, j]` in place. Row-run form: row `i` of `T` (from
/// the diagonal) and each row of `B` move as contiguous runs; row `i` of
/// `B` is solved in a register buffer and stored once.
fn solve_diag<M: Mem>(mem: &mut M, t: MatDesc, b: MatDesc) {
    debug_assert_eq!(t.rows, t.cols);
    debug_assert_eq!(t.rows, b.rows);
    let mut trow = vec![0.0; t.cols];
    let mut xrow = vec![0.0; b.cols];
    let mut brow = vec![0.0; b.cols];
    for i in (0..b.rows).rev() {
        let tail = &mut trow[..t.rows - i];
        mem.ld_run(t.idx(i, i), tail); // T(i, i..) incl. the diagonal
        let tii = tail[0];
        mem.ld_run(b.idx(i, 0), &mut xrow);
        for k in i + 1..t.rows {
            let tik = trow[k - i];
            mem.ld_run(b.idx(k, 0), &mut brow);
            for (x, bk) in xrow.iter_mut().zip(&brow) {
                *x -= tik * bk;
            }
        }
        for x in xrow.iter_mut() {
            *x /= tii;
        }
        mem.st_run(b.idx(i, 0), &xrow);
    }
}

/// Blocked TRSM: `t` is `n×n` upper triangular, `b` is `n×nrhs` and is
/// overwritten with the solution.
/// Runs [`crate::explicit_trsm::trsm_schedule`] with the block kernels as its body.
pub fn blocked_trsm<M: Mem>(
    mem: &mut M,
    t: MatDesc,
    b: MatDesc,
    bsize: usize,
    variant: TrsmVariant,
) {
    assert_eq!(t.rows, t.cols);
    assert_eq!(t.rows, b.rows);
    let blk = |d: MatDesc, i, j| d.block(i, j, bsize);
    trsm_schedule((b.rows, b.cols), bsize, variant, &mut (), |op| match op {
        TrsmOp::Update { i, k, j } => mm_kernel_sub(mem, blk(t, i, k), blk(b, k, j), blk(b, i, j)),
        TrsmOp::Solve { i, j } => solve_diag(mem, blk(t, i, i), blk(b, i, j)),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use memsim::{CacheConfig, MemSim, Policy, RawMem, SimMem};
    use wa_core::Mat;

    fn setup(n: usize, nrhs: usize) -> (Mat, Mat, Mat) {
        let t = Mat::random_upper_triangular(n, 21);
        let x = Mat::random(n, nrhs, 22);
        let b = t.matmul_ref(&x);
        (t, b, x)
    }

    #[test]
    fn both_variants_solve() {
        for variant in [TrsmVariant::WriteAvoiding, TrsmVariant::RightLooking] {
            for &(n, nrhs, bsize) in &[
                (8usize, 8usize, 4usize),
                (12, 8, 4),
                (13, 9, 4),
                (16, 16, 8),
            ] {
                let (t, b, x) = setup(n, nrhs);
                let (d, words) = alloc_layout(&[(n, n), (n, nrhs)]);
                let mut mem = RawMem::new(words);
                d[0].store_mat(&mut mem, &t);
                d[1].store_mat(&mut mem, &b);
                blocked_trsm(&mut mem, d[0], d[1], bsize, variant);
                let got = d[1].load_mat(&mut mem);
                assert!(
                    got.max_abs_diff(&x) < 1e-8,
                    "{variant:?} {n}x{nrhs} b{bsize}: {}",
                    got.max_abs_diff(&x)
                );
            }
        }
    }

    /// Prop 6.2 shape under LRU: the WA order's write-backs stay near the
    /// output size; right-looking rewrites partial sums.
    #[test]
    fn wa_order_writes_less_under_lru() {
        let (n, nrhs, bsize) = (32usize, 32usize, 8usize);
        let cfg = CacheConfig {
            capacity_words: 5 * bsize * bsize + 8,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut writes = Vec::new();
        for variant in [TrsmVariant::WriteAvoiding, TrsmVariant::RightLooking] {
            let (t, b, _) = setup(n, nrhs);
            let (d, words) = alloc_layout(&[(n, n), (n, nrhs)]);
            let mut mem = SimMem::new(words, MemSim::two_level(cfg));
            d[0].store_mat(&mut mem, &t);
            d[1].store_mat(&mut mem, &b);
            let data = std::mem::take(&mut mem.data);
            let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
            blocked_trsm(&mut mem, d[0], d[1], bsize, variant);
            mem.sim.flush();
            let c = mem.sim.llc();
            writes.push(c.victims_m + c.flush_victims_m);
        }
        let out_lines = (n * nrhs / 8) as u64;
        assert!(
            writes[0] <= 2 * out_lines,
            "WA write-backs {} vs output {out_lines}",
            writes[0]
        );
        assert!(
            writes[1] > writes[0],
            "right-looking {} must exceed WA {}",
            writes[1],
            writes[0]
        );
    }
}
