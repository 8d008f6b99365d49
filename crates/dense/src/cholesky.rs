//! Access-driven blocked Cholesky (Algorithm 3) over a [`memsim::Mem`].

use crate::desc::MatDesc;
use crate::explicit_cholesky::{cholesky_schedule, CholOp};
use crate::matmul::kernel::mm_kernel_sub_bt;
use memsim::Mem;

/// Block order for the factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CholVariant {
    /// Write-avoiding left-looking order (Algorithm 3).
    LeftLooking,
    /// Non-WA right-looking (eager Schur-complement) order.
    RightLooking,
}

/// Unblocked in-place Cholesky of a diagonal block (lower triangle).
/// Row-run form: the row-`j` prefix is loaded once per pivot and each
/// row-`i` prefix streams as one run.
fn chol_base<M: Mem>(mem: &mut M, a: MatDesc) {
    debug_assert_eq!(a.rows, a.cols);
    let mut jrow = vec![0.0; a.cols];
    let mut irow = vec![0.0; a.cols];
    for j in 0..a.rows {
        let jr = &mut jrow[..j];
        mem.ld_run(a.idx(j, 0), jr);
        let mut djj = mem.ld(a.idx(j, j));
        for v in jr.iter() {
            djj -= v * v;
        }
        assert!(djj > 0.0, "matrix not positive definite");
        let ljj = djj.sqrt();
        mem.st(a.idx(j, j), ljj);
        for i in j + 1..a.rows {
            let ir = &mut irow[..j];
            mem.ld_run(a.idx(i, 0), ir);
            let mut v = mem.ld(a.idx(i, j));
            for (x, y) in ir.iter().zip(jrow[..j].iter()) {
                v -= x * y;
            }
            mem.st(a.idx(i, j), v / ljj);
        }
    }
}

/// Lower-half SYRK: `C -= X·Xᵀ` restricted to `j ≤ i` (C diagonal block).
/// Rows of `X` and the row-`i` prefix of `C` are the contiguous runs.
fn syrk_base<M: Mem>(mem: &mut M, x: MatDesc, c: MatDesc) {
    debug_assert_eq!(c.rows, c.cols);
    debug_assert_eq!(x.rows, c.rows);
    let mut xi = vec![0.0; x.cols];
    let mut xj = vec![0.0; x.cols];
    let mut crow = vec![0.0; c.cols];
    for i in 0..c.rows {
        mem.ld_run(x.idx(i, 0), &mut xi);
        let cr = &mut crow[..i + 1];
        mem.ld_run(c.idx(i, 0), cr);
        for (j, cj) in cr.iter_mut().enumerate() {
            mem.ld_run(x.idx(j, 0), &mut xj);
            let acc: f64 = xi.iter().zip(&xj).map(|(u, v)| u * v).sum();
            *cj -= acc;
        }
        mem.st_run(c.idx(i, 0), cr);
    }
}

/// Solve `X · Lᵀ = B` in place (B := B·L⁻ᵀ) for factored lower-triangular
/// L. Each row of `B` is solved in a register buffer (loaded and stored
/// as one run); the row-`c` prefix of `L` is one run per column step.
fn trsm_rt_base<M: Mem>(mem: &mut M, l: MatDesc, b: MatDesc) {
    debug_assert_eq!(l.rows, l.cols);
    debug_assert_eq!(b.cols, l.rows);
    let mut brow = vec![0.0; b.cols];
    let mut lrow = vec![0.0; l.cols];
    for i in 0..b.rows {
        mem.ld_run(b.idx(i, 0), &mut brow);
        for c in 0..l.rows {
            let lr = &mut lrow[..c + 1];
            mem.ld_run(l.idx(c, 0), lr); // L(c, 0..=c) incl. the diagonal
            let mut acc = brow[c];
            for (bt, lt) in brow[..c].iter().zip(lr.iter()) {
                acc -= bt * lt;
            }
            brow[c] = acc / lr[c];
        }
        mem.st_run(b.idx(i, 0), &brow);
    }
}

/// Blocked Cholesky: `a` (symmetric positive definite, only the lower
/// triangle is accessed) is overwritten by `L` in its lower triangle.
/// Runs [`crate::explicit_cholesky::cholesky_schedule`] with the block kernels as its body.
pub fn blocked_cholesky<M: Mem>(mem: &mut M, a: MatDesc, bsize: usize, variant: CholVariant) {
    assert_eq!(a.rows, a.cols);
    let blk = |i, j| a.block(i, j, bsize);
    cholesky_schedule(a.rows, bsize, variant, &mut (), |op| match op {
        CholOp::Syrk { i, k } => syrk_base(mem, blk(i, k), blk(i, i)),
        CholOp::Factor { i } => chol_base(mem, blk(i, i)),
        CholOp::Update { j, i, k } => mm_kernel_sub_bt(mem, blk(j, k), blk(i, k), blk(j, i)),
        CholOp::Solve { j, i } => trsm_rt_base(mem, blk(i, i), blk(j, i)),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use memsim::{CacheConfig, MemSim, Policy, RawMem, SimMem};
    use wa_core::Mat;

    fn check(n: usize, bsize: usize, variant: CholVariant) {
        let a0 = Mat::random_spd(n, 31);
        let (d, words) = alloc_layout(&[(n, n)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &a0);
        blocked_cholesky(&mut mem, d[0], bsize, variant);
        let l = d[0].load_mat(&mut mem).lower_triangular();
        let prod = l.matmul_ref(&l.transpose());
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (prod[(i, j)] - a0[(i, j)]).abs() < 1e-8 * a0[(i, i)].max(1.0),
                    "{variant:?} n{n} b{bsize} at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn factorizes_correctly_all_variants_and_shapes() {
        for v in [CholVariant::LeftLooking, CholVariant::RightLooking] {
            check(8, 4, v);
            check(16, 4, v);
            check(13, 4, v); // uneven edge blocks
            check(16, 16, v); // single block
        }
    }

    /// §4.3/Prop 6.2: left-looking stays near n²/2 write-backs under LRU;
    /// right-looking rewrites the Schur complement.
    #[test]
    fn left_looking_writes_less_under_lru() {
        let (n, bsize) = (32usize, 8usize);
        let cfg = CacheConfig {
            capacity_words: 5 * bsize * bsize + 8,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut writes = Vec::new();
        for v in [CholVariant::LeftLooking, CholVariant::RightLooking] {
            let a0 = Mat::random_spd(n, 33);
            let (d, words) = alloc_layout(&[(n, n)]);
            let mut mem = SimMem::new(words, MemSim::two_level(cfg));
            d[0].store_mat(&mut mem, &a0);
            let data = std::mem::take(&mut mem.data);
            let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
            blocked_cholesky(&mut mem, d[0], bsize, v);
            mem.sim.flush();
            let c = mem.sim.llc();
            writes.push(c.victims_m + c.flush_victims_m);
        }
        // Output is the lower triangle: ~n²/2 words; line granularity and
        // the row-major layout make the written footprint up to ~n²
        // (every line crossing the diagonal is dirtied), so compare
        // variants rather than absolute bounds, plus a generous cap.
        let full_lines = (n * n / 8) as u64;
        assert!(
            writes[0] <= 2 * full_lines,
            "LL write-backs {} vs matrix {full_lines}",
            writes[0]
        );
        assert!(
            writes[1] > writes[0],
            "RL {} must exceed LL {}",
            writes[1],
            writes[0]
        );
    }
}
