//! Algorithm 1 — blocked classical matmul as one block schedule with
//! exact load/store accounting, two-level and multi-level.
//!
//! [`mm_schedule`] owns the block loops and issues every explicit charge.
//! The explicit model runs it on an [`memsim::ExplicitHier`] with an empty
//! body; [`crate::matmul::blocked_matmul`] and
//! [`crate::matmul::ml_matmul`] run it on `()` with the row kernel as the
//! body, so both measurements see one instruction order.
//!
//! The two-level WA version attains (paper §4.1):
//!
//! * writes to L1 (loads): `ml + 2·mnl/b` words with `b = √(M/3)`;
//! * writes to L2 (stores): `ml` — exactly the output size.
//!
//! The non-WA orders (shared dimension not innermost) store each `C` block
//! once per `k` step: `mnl/b` writes to slow memory.
//!
//! The multi-level version implements the induction of §4.1: each level
//! re-blocks at `b_s = √(M_s/3)` and recurses, preserving the WA property
//! at every boundary.

use crate::matmul::LoopOrder;
use memsim::Charges;

/// Largest block size `b` with three `b×b` blocks fitting in `m` words —
/// the paper's `b = √(M/3)`.
pub fn block_for(m: u64) -> usize {
    (((m / 3) as f64).sqrt().floor() as usize).max(1)
}

/// Triangle words (diagonal included) of a `b×b` block — the stored half
/// of a symmetric/triangular operand in the block schedules.
pub fn tri_words(b: usize) -> u64 {
    (b * (b + 1) / 2) as u64
}

/// Strictly-lower-triangle words of a `b×b` block (the stored part of a
/// unit-diagonal `L` factor).
pub fn strict_lower_words(b: usize) -> u64 {
    (b * (b - 1) / 2) as u64
}

/// A block of rows or columns: `(first index, width)`.
pub type Span = (usize, usize);

/// The block loops of `C += A·B` (`m×n` times `n×l`), one level per entry
/// of `blocks` (largest first), with every explicit charge. `top` orders
/// the outermost level's loops and `rest` every deeper one.
///
/// Each level moves its blocks into the level named by its depth from the
/// leaf: the last entry of `blocks` into L1 across boundary 0, the one
/// before it into L2 across boundary 1, and so on, so an r-level
/// [`memsim::ExplicitHier`] takes `r − 1` block sizes. Under a
/// write-avoiding order (`k` innermost) the `C` block is loaded before
/// the `k` loop and stored once after it; under any other order every
/// step loads `C`, `A` and `B` and stores `C`. `body(i, j, k)` runs once
/// per leaf, on the rows `i` of `C`/`A`, the columns `j` of `C`/`B` and
/// the shared range `k`, after the leaf's operands are loaded; the leaf
/// is charged `2·|i|·|j|·|k|` flops.
///
/// With `blocks = [√(M/3)]` on a two-level hierarchy this is Algorithm 1
/// (§4.1): loads `ml + 2·mnl/b` and stores `ml` when `b` divides the
/// shapes; with one `√(M_s/3)` per level it is the multi-level induction.
pub fn mm_schedule<H: Charges, F: FnMut(Span, Span, Span)>(
    (m, n, l): (usize, usize, usize),
    blocks: &[usize],
    (top, rest): (LoopOrder, LoopOrder),
    hier: &mut H,
    mut body: F,
) {
    mm_level((0, m), (0, l), (0, n), blocks, top, rest, hier, &mut body);
}

/// One level of [`mm_schedule`] over the sub-problem `C[i, j] += A[i, k]
/// · B[k, j]`.
#[allow(clippy::too_many_arguments)] // three spans, the levels below and the two targets
fn mm_level<H: Charges, F: FnMut(Span, Span, Span)>(
    ir: Span,
    jr: Span,
    kr: Span,
    blocks: &[usize],
    order: LoopOrder,
    rest: LoopOrder,
    hier: &mut H,
    body: &mut F,
) {
    let Some((&bs, deeper)) = blocks.split_first() else {
        body(ir, jr, kr);
        hier.flop(2 * (ir.1 * jr.1 * kr.1) as u64);
        return;
    };
    assert!(bs > 0);
    let dest = blocks.len(); // the level these blocks move into
    let bnd = dest - 1;
    let part = |r: Span, blk: usize| (r.0 + blk * bs, bs.min(r.1 - blk * bs));
    let wa = order.is_write_avoiding();
    let (t0, t1, t2) = order.trips(ir.1.div_ceil(bs), jr.1.div_ceil(bs), kr.1.div_ceil(bs));
    for o in 0..t0 {
        for mid in 0..t1 {
            // k innermost: the C block stays resident across the k sweep.
            let (i, j, _) = order.map(o, mid, 0);
            let c_words = (part(ir, i).1 * part(jr, j).1) as u64;
            if wa {
                hier.load(bnd, c_words); // C(i,j)
            }
            for inr in 0..t2 {
                let (i, j, k) = order.map(o, mid, inr);
                let (si, sj, sk) = (part(ir, i), part(jr, j), part(kr, k));
                let c_words = (si.1 * sj.1) as u64;
                let ab_words = (si.1 * sk.1 + sk.1 * sj.1) as u64;
                if !wa {
                    hier.load(bnd, c_words); // C(i,j), once per k step
                }
                hier.load(bnd, (si.1 * sk.1) as u64); // A(i,k)
                hier.load(bnd, (sk.1 * sj.1) as u64); // B(k,j)
                mm_level(si, sj, sk, deeper, rest, rest, hier, body);
                if wa {
                    hier.free(dest, ab_words);
                } else {
                    hier.store(bnd, c_words);
                    hier.free(dest, c_words + ab_words);
                }
            }
            if wa {
                hier.store(bnd, c_words);
                hier.free(dest, c_words);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use crate::matmul::{ml_matmul, RecOrder};
    use memsim::{ExplicitHier, RawMem};
    use wa_core::Mat;

    /// Algorithm 1's charges on a two-level model of `m_words`.
    fn two_level(dims: (usize, usize, usize), m_words: u64, order: LoopOrder) -> ExplicitHier {
        let mut h = ExplicitHier::two_level(m_words);
        mm_schedule(
            dims,
            &[block_for(m_words)],
            (order, order),
            &mut h,
            |_, _, _| {},
        );
        h
    }

    /// The multi-level WA charges, blocking each level at `√(M_s/3)`.
    fn multilevel(dims: (usize, usize, usize), sizes: &[u64]) -> ExplicitHier {
        let mut h = ExplicitHier::new(sizes);
        let blocks: Vec<usize> = (1..h.num_levels())
            .rev()
            .map(|lvl| block_for(h.capacity(lvl)))
            .collect();
        let wa = (LoopOrder::Ijk, LoopOrder::Ijk);
        mm_schedule(dims, &blocks, wa, &mut h, |_, _, _| {});
        h
    }

    /// Largest error of the schedule run with the row kernel as its body
    /// (`ml_matmul`, blocks largest first) against the reference product.
    fn product_error((m, n, l): (usize, usize, usize), blocks: &[usize]) -> f64 {
        let a = Mat::random(m, n, 1);
        let b = Mat::random(n, l, 2);
        let (d, words) = alloc_layout(&[(m, n), (n, l), (m, l)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &a);
        d[1].store_mat(&mut mem, &b);
        ml_matmul(
            &mut mem,
            d[0],
            d[1],
            d[2],
            blocks,
            RecOrder::COuter,
            RecOrder::COuter,
        );
        d[2].load_mat(&mut mem).max_abs_diff(&a.matmul_ref(&b))
    }

    #[test]
    fn two_level_wa_counts_match_algorithm_1_exactly() {
        // b = sqrt(48/3) = 4; 12x12x12 matrices, all divisible.
        let (m, n, l) = (12, 12, 12);
        let h = two_level((m, n, l), 48, LoopOrder::Ijk);
        assert!(product_error((m, n, l), &[4]) < 1e-12);

        let bs = 4u64;
        let t = h.traffic().boundary(0);
        // Paper: loads = ml + 2 mnl / b; stores = ml.
        let (mf, nf, lf) = (m as u64, n as u64, l as u64);
        assert_eq!(t.load_words, mf * lf + 2 * mf * nf * lf / bs);
        assert_eq!(t.store_words, mf * lf);
        // Flops: 2 mnl.
        assert_eq!(h.flops(), 2 * mf * nf * lf);
        // Theorem 1 sanity.
        let (wf, total) = h.theorem1_check(0);
        assert!(2 * wf >= total);
    }

    #[test]
    fn non_wa_order_stores_c_every_k_step() {
        let (m, n, l) = (12, 12, 12);
        let bs = 4u64;
        let (mf, nf, lf) = (m as u64, n as u64, l as u64);
        for order in LoopOrder::ALL
            .into_iter()
            .filter(|o| !o.is_write_avoiding())
        {
            let t = two_level((m, n, l), 48, order).traffic().boundary(0);
            assert_eq!(t.store_words, mf * nf * lf / bs, "{order:?}"); // n/b times more
            assert_eq!(t.load_words, 3 * mf * nf * lf / bs, "{order:?}");
        }
    }

    #[test]
    fn wa_vs_nonwa_write_ratio_is_n_over_b() {
        let (m, n, l) = (24, 24, 24);
        let h_wa = two_level((m, n, l), 48, LoopOrder::Ijk);
        let h_rw = two_level((m, n, l), 48, LoopOrder::Kij);
        let wa = h_wa.traffic().boundary(0).store_words;
        let rw = h_rw.traffic().boundary(0).store_words;
        assert_eq!(rw / wa, (n / 4) as u64);
    }

    #[test]
    fn uneven_dimensions_still_correct_and_bounded() {
        let (m, n, l) = (13, 7, 10);
        assert!(product_error((m, n, l), &[4]) < 1e-12);
        let h = two_level((m, n, l), 48, LoopOrder::Ijk);
        // Stores still exactly the output size.
        assert_eq!(h.traffic().boundary(0).store_words, (m * l) as u64);
    }

    #[test]
    fn multilevel_three_levels_wa_at_every_boundary() {
        // L1 = 12 words (b1 = 2), L2 = 48 (b2 = 4), L3 backing store.
        let (m, n, l) = (16, 16, 16);
        let h = multilevel((m, n, l), &[12, 48, u64::MAX]);
        assert!(product_error((m, n, l), &[4, 2]) < 1e-12);

        let (mf, nf, lf) = (m as u64, n as u64, l as u64);
        // Writes to the backing store (stores across boundary 1) = output.
        assert_eq!(h.traffic().boundary(1).store_words, mf * lf);
        // Writes to L2: loads across boundary 1 + stores across boundary 0.
        // Loads across boundary 1 = ml + 2 mnl / b2 (Algorithm 1 at L2).
        let loads_b1 = h.traffic().boundary(1).load_words;
        assert_eq!(loads_b1, mf * lf + 2 * mf * nf * lf / 4);
        // Stores across boundary 0: each b2-block matmul stores its C
        // block once per (i,j,k) level-2 leaf => total = (mnl/b2) words...
        // The induction proof gives O(mnl/b2): check the exact structure:
        let stores_b0 = h.traffic().boundary(0).store_words;
        assert_eq!(stores_b0, mf * nf * lf / 4);
        // Loads across boundary 0 = b2-leaf count * Algorithm-1 loads at b1.
        let loads_b0 = h.traffic().boundary(0).load_words;
        let leaves = (mf / 4) * (nf / 4) * (lf / 4);
        assert_eq!(loads_b0, leaves * (16 + 2 * 64 / 2));
        // Theorem 1 at both boundaries.
        for bnd in 0..2 {
            let (wfast, total) = h.theorem1_check(bnd);
            assert!(2 * wfast >= total, "boundary {bnd}");
        }
    }

    #[test]
    fn multilevel_writes_to_l2_asymptotically_fewer_than_to_l1() {
        let (m, n, l) = (32, 32, 32);
        let h = multilevel((m, n, l), &[12, 192, u64::MAX]);
        let w_l1 = h.writes_into_level(1);
        let w_l2 = h.writes_into_level(2);
        let w_l3 = h.writes_into_level(3);
        assert!(w_l1 > w_l2, "L1 writes {w_l1} vs L2 {w_l2}");
        assert!(w_l2 > w_l3, "L2 writes {w_l2} vs L3 {w_l3}");
        assert_eq!(w_l3, (m * l) as u64);
    }

    #[test]
    fn peak_residency_within_fast_memory() {
        let h = two_level((20, 20, 20), 48, LoopOrder::Ijk);
        assert!(h.peak(1) <= 48);
    }
}
