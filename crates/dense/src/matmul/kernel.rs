//! The base micro-kernel shared by every blocked variant.
//!
//! The kernels run row-at-a-time over the [`Mem`] bulk-run API: each
//! matrix row they touch is one contiguous [`memsim::AccessRun`]-shaped
//! transfer (`ld_run`/`st_run`), so the cache simulator charges it through
//! its line-granular fast path instead of walking every word. Row buffers
//! play the role the scalar accumulator played before — registers above
//! the studied boundary — and the write-avoiding property is unchanged:
//! every `C` element is still loaded once and stored once per kernel call.

use crate::desc::MatDesc;
use memsim::Mem;

/// `C += A·B`, row-form: row `i` of `C` is loaded once, accumulated across
/// the whole `k` sweep against streamed rows of `B`, and stored once. This
/// is the element-level analogue of the WA property — at the granularity
/// below the innermost blocking level, `C` traffic is minimal.
pub fn mm_kernel<M: Mem>(mem: &mut M, a: MatDesc, b: MatDesc, c: MatDesc) {
    debug_assert_eq!(a.rows, c.rows);
    debug_assert_eq!(b.cols, c.cols);
    debug_assert_eq!(a.cols, b.rows);
    let mut arow = vec![0.0; a.cols];
    let mut brow = vec![0.0; b.cols];
    let mut crow = vec![0.0; c.cols];
    for i in 0..c.rows {
        mem.phase("gemm-read");
        mem.ld_run(a.idx(i, 0), &mut arow);
        mem.ld_run(c.idx(i, 0), &mut crow);
        for (k, &aik) in arow.iter().enumerate() {
            mem.ld_run(b.idx(k, 0), &mut brow);
            for (cj, bj) in crow.iter_mut().zip(&brow) {
                *cj += aik * bj;
            }
        }
        mem.phase("c-write");
        mem.st_run(c.idx(i, 0), &crow);
    }
}

/// `C -= A·B` (used by TRSM and LU updates).
pub(crate) fn mm_kernel_sub<M: Mem>(mem: &mut M, a: MatDesc, b: MatDesc, c: MatDesc) {
    debug_assert_eq!(a.rows, c.rows);
    debug_assert_eq!(b.cols, c.cols);
    debug_assert_eq!(a.cols, b.rows);
    let mut arow = vec![0.0; a.cols];
    let mut brow = vec![0.0; b.cols];
    let mut crow = vec![0.0; c.cols];
    for i in 0..c.rows {
        mem.ld_run(a.idx(i, 0), &mut arow);
        mem.ld_run(c.idx(i, 0), &mut crow);
        for (k, &aik) in arow.iter().enumerate() {
            mem.ld_run(b.idx(k, 0), &mut brow);
            for (cj, bj) in crow.iter_mut().zip(&brow) {
                *cj -= aik * bj;
            }
        }
        mem.st_run(c.idx(i, 0), &crow);
    }
}

/// `C -= A·Bᵀ` (Cholesky's SYRK-like update reads the transpose in place).
/// Rows of `B` are the contiguous runs here: `C(i,j)` consumes row `j` of
/// `B` against row `i` of `A`.
pub(crate) fn mm_kernel_sub_bt<M: Mem>(mem: &mut M, a: MatDesc, b: MatDesc, c: MatDesc) {
    debug_assert_eq!(a.rows, c.rows);
    debug_assert_eq!(b.rows, c.cols);
    debug_assert_eq!(a.cols, b.cols);
    let mut arow = vec![0.0; a.cols];
    let mut brow = vec![0.0; b.cols];
    let mut crow = vec![0.0; c.cols];
    for i in 0..c.rows {
        mem.ld_run(a.idx(i, 0), &mut arow);
        mem.ld_run(c.idx(i, 0), &mut crow);
        for (j, cj) in crow.iter_mut().enumerate() {
            mem.ld_run(b.idx(j, 0), &mut brow);
            let acc: f64 = arow.iter().zip(&brow).map(|(x, y)| x * y).sum();
            *cj -= acc;
        }
        mem.st_run(c.idx(i, 0), &crow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use memsim::{RawMem, TraceMem};
    use wa_core::Mat;

    #[test]
    fn kernel_writes_each_c_element_exactly_once() {
        let (d, words) = alloc_layout(&[(4, 4), (4, 4), (4, 4)]);
        let mut mem = TraceMem::new(words);
        let a = Mat::random(4, 4, 5);
        let b = Mat::random(4, 4, 6);
        d[0].store_mat(&mut mem, &a);
        d[1].store_mat(&mut mem, &b);
        mem.trace.clear();
        mm_kernel(&mut mem, d[0], d[1], d[2]);
        let writes = mem.trace.iter().filter(|x| x.is_write).count();
        assert_eq!(writes, 16, "one store per C element");
        let reads = mem.trace.iter().filter(|x| !x.is_write).count();
        // Row-form: C and A rows once each (16 + 16), B rows streamed
        // once per (i, k) pair (4 * 4 rows of 4 words).
        assert_eq!(reads, 16 + 16 + 64, "C + A once, B per (i,k)");
    }

    #[test]
    fn kernel_matches_reference() {
        let a = Mat::random(3, 5, 1);
        let b = Mat::random(5, 4, 2);
        let c0 = Mat::random(3, 4, 3);
        let (d, words) = alloc_layout(&[(3, 5), (5, 4), (3, 4)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &a);
        d[1].store_mat(&mut mem, &b);
        d[2].store_mat(&mut mem, &c0);
        mm_kernel(&mut mem, d[0], d[1], d[2]);
        let got = d[2].load_mat(&mut mem);
        let ab = a.matmul_ref(&b);
        for i in 0..3 {
            for j in 0..4 {
                assert!((got[(i, j)] - (c0[(i, j)] + ab[(i, j)])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sub_kernels_match_reference() {
        let a = Mat::random(3, 5, 1);
        let b = Mat::random(5, 4, 2);
        let c0 = Mat::random(3, 4, 3);
        let (d, words) = alloc_layout(&[(3, 5), (5, 4), (3, 4)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &a);
        d[1].store_mat(&mut mem, &b);
        d[2].store_mat(&mut mem, &c0);
        mm_kernel_sub(&mut mem, d[0], d[1], d[2]);
        let got = d[2].load_mat(&mut mem);
        let ab = a.matmul_ref(&b);
        for i in 0..3 {
            for j in 0..4 {
                assert!((got[(i, j)] - (c0[(i, j)] - ab[(i, j)])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bt_kernel_matches_reference() {
        let a = Mat::random(3, 5, 1);
        let b = Mat::random(4, 5, 2); // use B^T: (5,4)
        let c0 = Mat::random(3, 4, 3);
        let (d, words) = alloc_layout(&[(3, 5), (4, 5), (3, 4)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &a);
        d[1].store_mat(&mut mem, &b);
        d[2].store_mat(&mut mem, &c0);
        mm_kernel_sub_bt(&mut mem, d[0], d[1], d[2]);
        let got = d[2].load_mat(&mut mem);
        let abt = a.matmul_ref(&b.transpose());
        for i in 0..3 {
            for j in 0..4 {
                assert!((got[(i, j)] - (c0[(i, j)] - abt[(i, j)])).abs() < 1e-12);
            }
        }
    }
}
