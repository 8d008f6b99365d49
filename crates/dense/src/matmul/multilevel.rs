//! Multi-level recursive blocked matmul — the two codes of the paper's
//! Figure 4.
//!
//! * [`RecOrder::COuter`] is `WAMatMul` (Fig 4a): at each recursion level
//!   the loops run `i, k(C cols), j(shared)` with the shared dimension
//!   innermost — a full column of block-multiplications perpendicular to
//!   each C block completes before moving on. Under LRU this minimizes
//!   write-backs **when five blocks fit** in the cache (Prop 6.1) but
//!   degrades when only three fit (Fig 5 left column).
//! * [`RecOrder::AOuter`] is `ABMatMul` (Fig 4b): loops run `j(shared),
//!   i, k` — slabs parallel to C. Used below the top level, it keeps the
//!   C block at high LRU priority, so write-backs stay near the lower
//!   bound even when just under three blocks fit (Fig 5 right column).
//!
//! `ml_matmul(…, &[b_L3, b_L2, b_L1], top, rest)` reproduces both listings:
//! Fig 4a ≙ `(COuter, COuter)`, Fig 4b ≙ `(COuter, AOuter)`.

use crate::desc::MatDesc;
use crate::explicit_mm::mm_schedule;
use crate::matmul::kernel::mm_kernel;
use crate::matmul::LoopOrder;
use memsim::Mem;

/// Loop order at one recursion level (paper Fig 4 naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecOrder {
    /// `WAMatMul` order: C-block outer, shared dimension innermost.
    COuter,
    /// `ABMatMul` order: shared dimension outermost (A/B slabs).
    AOuter,
}

impl RecOrder {
    /// The same nest in [`LoopOrder`] terms (`i` over C rows, `j` over C
    /// columns, `k` shared): `COuter` is `Ijk`, `AOuter` is `Kij`.
    pub(crate) fn loop_order(self) -> LoopOrder {
        match self {
            RecOrder::COuter => LoopOrder::Ijk,
            RecOrder::AOuter => LoopOrder::Kij,
        }
    }
}

/// Multi-level blocked `C += A·B`. `block_sizes` lists the block size per
/// recursion level, largest (outermost cache) first; when the list is
/// empty the base kernel runs. `top` gives the loop order for the first
/// (outermost) level, `rest` for all deeper levels. Runs
/// [`crate::explicit_mm::mm_schedule`] with [`mm_kernel`] as its body.
pub fn ml_matmul<M: Mem>(
    mem: &mut M,
    a: MatDesc,
    b: MatDesc,
    c: MatDesc,
    block_sizes: &[usize],
    top: RecOrder,
    rest: RecOrder,
) {
    let dims = (c.rows, a.cols, c.cols);
    let orders = (top.loop_order(), rest.loop_order());
    mm_schedule(dims, block_sizes, orders, &mut (), |i, j, k| {
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

    fn run(n: usize, blocks: &[usize], top: RecOrder, rest: RecOrder, cache_words: usize) -> u64 {
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
        ml_matmul(&mut mem, d[0], d[1], d[2], blocks, top, rest);
        mem.sim.flush();
        let c = mem.sim.llc();
        c.victims_m + c.flush_victims_m
    }

    /// The Figure 5 contrast at three-blocks-fit block size: the slab
    /// (Fig 4b) order keeps write-backs near the lower bound while the
    /// multi-level (Fig 4a) order thrashes the C block.
    #[test]
    fn slab_order_beats_multilevel_when_three_blocks_fit() {
        let n = 64;
        let bsize = 16; // 3 blocks of 16x16 = 768 words
        let cache_words = 768 + 8; // just over three blocks, far below five
        let fig4a = run(
            n,
            &[bsize, 4],
            RecOrder::COuter,
            RecOrder::COuter,
            cache_words,
        );
        let fig4b = run(
            n,
            &[bsize, 4],
            RecOrder::COuter,
            RecOrder::AOuter,
            cache_words,
        );
        let c_lines = (n * n / 8) as u64;
        assert!(
            fig4b <= 2 * c_lines,
            "slab order write-backs {fig4b} should stay near {c_lines}"
        );
        assert!(
            fig4a > fig4b,
            "multi-level order ({fig4a}) must exceed slab order ({fig4b})"
        );
    }

    /// Prop 6.1 regime: when five blocks fit, even the Fig 4a order holds
    /// write-backs at the output size.
    #[test]
    fn multilevel_fine_when_five_blocks_fit() {
        let n = 64;
        let bsize = 16;
        let cache_words = 5 * bsize * bsize + 16;
        let fig4a = run(
            n,
            &[bsize, 4],
            RecOrder::COuter,
            RecOrder::COuter,
            cache_words,
        );
        let c_lines = (n * n / 8) as u64;
        assert!(
            fig4a <= 2 * c_lines,
            "five-blocks regime write-backs {fig4a} vs bound {c_lines}"
        );
    }
}
