//! Algorithm 1: two-level blocked classical matmul, with the block-loop
//! order as a parameter.
//!
//! The paper's key observation (§4.1): every one of the six orders is
//! communication-avoiding, but the algorithm is write-avoiding **only when
//! `k` is the innermost block loop** — then each `C` block is updated to
//! completion while resident and stored exactly once. With `k` outermost,
//! each `C` block is re-read and re-written `n/b` times.

use crate::desc::MatDesc;
use crate::explicit_mm::mm_schedule;
use crate::matmul::kernel::mm_kernel;
use memsim::Mem;

/// Order of the three block loops (`i` over C rows, `j` over C cols, `k`
/// over the shared dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopOrder {
    Ijk,
    Ikj,
    Jik,
    Jki,
    Kij,
    Kji,
}

impl LoopOrder {
    pub const ALL: [LoopOrder; 6] = [
        LoopOrder::Ijk,
        LoopOrder::Ikj,
        LoopOrder::Jik,
        LoopOrder::Jki,
        LoopOrder::Kij,
        LoopOrder::Kji,
    ];

    /// Orders with `k` innermost are write-avoiding (Algorithm 1).
    pub fn is_write_avoiding(self) -> bool {
        matches!(self, LoopOrder::Ijk | LoopOrder::Jik)
    }

    /// Map the loop nest position `(outer, middle, inner)` to `(i, j, k)`
    /// block indices.
    #[inline]
    pub(crate) fn map(self, o: usize, m: usize, inr: usize) -> (usize, usize, usize) {
        match self {
            LoopOrder::Ijk => (o, m, inr),
            LoopOrder::Ikj => (o, inr, m),
            LoopOrder::Jik => (m, o, inr),
            LoopOrder::Jki => (inr, o, m),
            LoopOrder::Kij => (m, inr, o),
            LoopOrder::Kji => (inr, m, o),
        }
    }

    /// Trip counts for the nest positions given block counts `(ni, nj, nk)`.
    pub(crate) fn trips(self, ni: usize, nj: usize, nk: usize) -> (usize, usize, usize) {
        match self {
            LoopOrder::Ijk => (ni, nj, nk),
            LoopOrder::Ikj => (ni, nk, nj),
            LoopOrder::Jik => (nj, ni, nk),
            LoopOrder::Jki => (nj, nk, ni),
            LoopOrder::Kij => (nk, ni, nj),
            LoopOrder::Kji => (nk, nj, ni),
        }
    }
}

/// `C += A·B`, blocked at size `b`, block loops in `order`: one level of
/// [`crate::explicit_mm::mm_schedule`] with [`mm_kernel`] as its body.
///
/// ```
/// use dense::desc::alloc_layout;
/// use dense::matmul::{blocked_matmul, LoopOrder};
/// use memsim::RawMem;
/// use wa_core::Mat;
/// let (a, b) = (Mat::random(8, 8, 1), Mat::random(8, 8, 2));
/// let (d, words) = alloc_layout(&[(8, 8), (8, 8), (8, 8)]);
/// let mut mem = RawMem::new(words);
/// d[0].store_mat(&mut mem, &a);
/// d[1].store_mat(&mut mem, &b);
/// blocked_matmul(&mut mem, d[0], d[1], d[2], 4, LoopOrder::Ijk);
/// assert!(d[2].load_mat(&mut mem).max_abs_diff(&a.matmul_ref(&b)) < 1e-12);
/// ```
pub fn blocked_matmul<M: Mem>(
    mem: &mut M,
    a: MatDesc,
    b: MatDesc,
    c: MatDesc,
    bsize: usize,
    order: LoopOrder,
) {
    assert!(bsize > 0);
    assert_eq!(a.rows, c.rows);
    assert_eq!(b.cols, c.cols);
    assert_eq!(a.cols, b.rows);
    let dims = (c.rows, a.cols, c.cols);
    mm_schedule(dims, &[bsize], (order, order), &mut (), |i, j, k| {
        mm_kernel(
            mem,
            a.sub(i.0, k.0, i.1, k.1),
            b.sub(k.0, j.0, k.1, j.1),
            c.sub(i.0, j.0, i.1, j.1),
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use memsim::{CacheConfig, MemSim, Policy, SimMem};
    use wa_core::Mat;

    fn run_with_sim(order: LoopOrder, n: usize, bsize: usize, cache_words: usize) -> (u64, u64) {
        let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
        let cfg = CacheConfig {
            capacity_words: cache_words,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut mem = SimMem::new(words, MemSim::two_level(cfg));
        d[0].store_mat(&mut mem, &Mat::random(n, n, 1));
        d[1].store_mat(&mut mem, &Mat::random(n, n, 2));
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        blocked_matmul(&mut mem, d[0], d[1], d[2], bsize, order);
        mem.sim.flush();
        let c = mem.sim.llc();
        (c.victims_m + c.flush_victims_m, c.fills)
    }

    /// The paper's central sequential claim, at cache-simulator level:
    /// k-innermost orders write ~C once; k-outermost orders write it
    /// ~n/b times.
    #[test]
    fn k_innermost_is_write_avoiding_k_outermost_is_not() {
        let n = 48;
        let bsize = 8;
        // Cache: 5 blocks of 8x8 = 320 words -> round up to lines: 320/8=40
        // lines. Use 48 lines for margin (Prop 6.1's "five blocks + one
        // line" condition).
        let cache_words = 3 * 8 * (5 * bsize * bsize / 8 + 8);
        let (wa_writes, wa_fills) = run_with_sim(LoopOrder::Ijk, n, bsize, cache_words);
        let (rw_writes, rw_fills) = run_with_sim(LoopOrder::Kij, n, bsize, cache_words);
        let c_lines = (n * n / 8) as u64;
        assert!(
            wa_writes <= 2 * c_lines,
            "WA order writes {wa_writes} vs C size {c_lines}"
        );
        assert!(
            rw_writes >= 3 * c_lines,
            "non-WA order should rewrite C repeatedly: {rw_writes} vs {c_lines}"
        );
        // Both are CA: fills within a small factor of each other.
        assert!(rw_fills < 4 * wa_fills && wa_fills < 4 * rw_fills);
    }

    #[test]
    fn jik_also_write_avoiding() {
        let n = 48;
        let bsize = 8;
        let cache_words = 3 * 8 * (5 * bsize * bsize / 8 + 8);
        let (writes, _) = run_with_sim(LoopOrder::Jik, n, bsize, cache_words);
        let c_lines = (n * n / 8) as u64;
        assert!(writes <= 2 * c_lines);
    }

    #[test]
    fn classification_constant() {
        let wa: Vec<bool> = LoopOrder::ALL
            .iter()
            .map(|o| o.is_write_avoiding())
            .collect();
        assert_eq!(wa, vec![true, false, true, false, false, false]);
    }
}
