//! Property tests on the dense block schedules' *traffic*: the explicit
//! counts obey the paper's closed forms for random divisible shapes, and
//! the WA invariants hold under shape variation.

use dense::desc::alloc_layout;
use dense::explicit_mm::{block_for, mm_schedule};
use dense::explicit_trsm::trsm_schedule;
use dense::matmul::LoopOrder;
use dense::trsm::{blocked_trsm, TrsmVariant};
use memsim::{ExplicitHier, RawMem};
use proptest::prelude::*;
use wa_core::Mat;

/// Algorithm 1's charges for an `m×n` by `n×l` product on a two-level
/// model of `mem_words`.
fn matmul_charges(dims: (usize, usize, usize), mem_words: u64, order: LoopOrder) -> ExplicitHier {
    let mut h = ExplicitHier::two_level(mem_words);
    mm_schedule(
        dims,
        &[block_for(mem_words)],
        (order, order),
        &mut h,
        |_, _, _| {},
    );
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1's exact counts for divisible shapes: loads = ml+2mnl/b,
    /// stores = ml, peak residency ≤ M, Theorem 1 holds.
    #[test]
    fn algorithm1_counts_closed_form(
        mb in 1usize..5,
        nb in 1usize..5,
        lb in 1usize..5,
        bpow in 1usize..4,
    ) {
        let bsz = 1 << bpow; // block size
        let mem_words = (3 * bsz * bsz) as u64;
        prop_assume!(block_for(mem_words) == bsz);
        let (m, n, l) = (mb * bsz, nb * bsz, lb * bsz);
        let h = matmul_charges((m, n, l), mem_words, LoopOrder::Ijk);
        let t = h.traffic().boundary(0);
        let (mf, nf, lf, bf) = (m as u64, n as u64, l as u64, bsz as u64);
        prop_assert_eq!(t.load_words, mf * lf + 2 * mf * nf * lf / bf);
        prop_assert_eq!(t.store_words, mf * lf);
        prop_assert!(h.peak(1) <= mem_words);
        let (wf, tot) = h.theorem1_check(0);
        prop_assert!(2 * wf >= tot);
    }

    /// WA vs non-WA store ratio equals the number of k-blocks, for every
    /// divisible shape and every non-WA order.
    #[test]
    fn store_ratio_equals_k_blocks(
        nb in 2usize..6,
        o in 0usize..6,
    ) {
        let order = LoopOrder::ALL[o];
        prop_assume!(!order.is_write_avoiding());
        let n = nb * 4;
        let s1 = matmul_charges((n, n, n), 48, LoopOrder::Ijk).traffic().boundary(0).store_words;
        let s2 = matmul_charges((n, n, n), 48, order).traffic().boundary(0).store_words;
        prop_assert_eq!(s2, s1 * nb as u64);
    }

    /// TRSM stores exactly the output for any divisible shape, and the
    /// solve on the same schedule (`blocked_trsm`) is correct.
    #[test]
    fn trsm_stores_equal_output(
        nb in 1usize..5,
        rb in 1usize..5,
        seed in 0u64..500,
    ) {
        let bsz = 4;
        let (n, nrhs) = (nb * bsz, rb * bsz);
        let mut h = ExplicitHier::two_level(48);
        trsm_schedule((n, nrhs), block_for(48), TrsmVariant::WriteAvoiding, &mut h, |_| {});
        prop_assert_eq!(h.traffic().boundary(0).store_words, (n * nrhs) as u64);

        let t = Mat::random_upper_triangular(n, seed);
        let x = Mat::random(n, nrhs, seed + 7);
        let (d, words) = alloc_layout(&[(n, n), (n, nrhs)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &t);
        d[1].store_mat(&mut mem, &t.matmul_ref(&x));
        blocked_trsm(&mut mem, d[0], d[1], bsz, TrsmVariant::WriteAvoiding);
        prop_assert!(d[1].load_mat(&mut mem).max_abs_diff(&x) < 1e-7);
    }
}
