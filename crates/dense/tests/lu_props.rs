//! Property tests for the LU block schedule: its left-looking order
//! stores exactly the output and the access-driven `blocked_lu` factors
//! identically in both orders; the WA access-driven kernels of LU, TRSM
//! and Cholesky write back exactly their output lines under LRU with
//! Proposition 6.1's head-room; and the simulated LU counters are a pure
//! function of the problem (invariant under repetition — the property
//! `harness --repeat` relies on to report a meaningful median).

use dense::cholesky::{blocked_cholesky, CholVariant};
use dense::desc::{alloc_layout, MatDesc};
use dense::explicit_lu::lu_schedule;
use dense::lu::{blocked_lu, LuVariant};
use dense::trsm::{blocked_trsm, TrsmVariant};
use memsim::{ExplicitHier, MemSim, RawMem, SimMem};
use proptest::prelude::*;
use std::collections::BTreeSet;
use wa_core::Mat;

/// Factor with the access-driven blocked kernel on raw memory.
fn blocked_factor(a0: &Mat, bsize: usize, variant: LuVariant) -> Mat {
    let n = a0.rows();
    let (d, words) = alloc_layout(&[(n, n)]);
    let mut mem = RawMem::new(words);
    d[0].store_mat(&mut mem, a0);
    blocked_lu(&mut mem, d[0], bsize, variant);
    d[0].load_mat(&mut mem)
}

/// Lines written back by `kernel` on the staged `mats` under a cold,
/// flushed fully-associative LRU of `5·b² + 8` words (8-word lines).
fn lru_writebacks(
    mats: &[&Mat],
    bsize: usize,
    kernel: impl FnOnce(&mut SimMem, &[MatDesc]),
) -> u64 {
    let shapes: Vec<(usize, usize)> = mats.iter().map(|m| (m.rows(), m.cols())).collect();
    let (d, words) = alloc_layout(&shapes);
    let mut raw = RawMem::new(words);
    for (desc, m) in d.iter().zip(mats) {
        desc.store_mat(&mut raw, m);
    }
    let sim = MemSim::single_level_lru(5 * bsize * bsize + 8);
    let mut mem = SimMem::from_vec(raw.data, sim);
    kernel(&mut mem, &d);
    mem.sim.flush();
    mem.sim.dram_writes_lines
}

/// Distinct 8-word lines holding the elements of `d` that `keep(i, j)`
/// selects: the output footprint a write-avoiding kernel dirties once.
fn output_lines(d: MatDesc, keep: impl Fn(usize, usize) -> bool) -> u64 {
    let mut lines = BTreeSet::new();
    for i in 0..d.rows {
        for j in (0..d.cols).filter(|&j| keep(i, j)) {
            lines.insert(d.idx(i, j) / 8);
        }
    }
    lines.len() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Left-looking and right-looking `blocked_lu` factor identically
    /// (arbitrary — including non-divisible — sizes), and the LU
    /// schedule's left-looking order stores exactly `n²` words.
    #[test]
    fn explicit_and_access_driven_lu_produce_identical_factors(
        n in 4usize..28,
        bsize in 2usize..6,
        seed in 0u64..1000,
    ) {
        let a0 = Mat::random_diagdom(n, seed);
        let ll = blocked_factor(&a0, bsize, LuVariant::LeftLooking);
        let rl = blocked_factor(&a0, bsize, LuVariant::RightLooking);
        prop_assert!(
            ll.max_abs_diff(&rl) < 1e-8,
            "left-looking vs right-looking: {}",
            ll.max_abs_diff(&rl)
        );

        // The WA property holds for every shape: LL stores exactly n².
        let mut h = ExplicitHier::two_level(3 * (bsize * bsize) as u64);
        lu_schedule(n, bsize, LuVariant::LeftLooking, &mut h, |_| {});
        prop_assert_eq!(h.traffic().boundary(0).store_words, (n * n) as u64);
    }

    /// With five blocks of head-room (Proposition 6.1), the WA orders'
    /// simulated write-backs are exactly their output lines for 2–6
    /// block rows: LU's `L\U`, TRSM's `X` and Cholesky's lower triangle.
    #[test]
    fn wa_kernels_write_back_exactly_their_output_lines(
        nb in 2usize..7,
        rb in 1usize..7,
        seed in 0u64..1000,
    ) {
        let bsize = 8usize; // line-aligned blocks
        let n = nb * bsize;

        let a = Mat::random_diagdom(n, seed);
        let lu = lru_writebacks(&[&a], bsize, |mem, d| {
            blocked_lu(mem, d[0], bsize, LuVariant::LeftLooking)
        });
        let out = (n * n / 8) as u64;
        prop_assert_eq!(lu, out, "lu-wa write-backs vs output lines at {} block rows", nb);

        let nrhs = rb * bsize;
        let t = Mat::random_upper_triangular(n, seed + 1);
        let b = t.matmul_ref(&Mat::random(n, nrhs, seed + 2));
        let trsm = lru_writebacks(&[&t, &b], bsize, |mem, d| {
            blocked_trsm(mem, d[0], d[1], bsize, TrsmVariant::WriteAvoiding)
        });
        let out = (n * nrhs / 8) as u64;
        prop_assert_eq!(trsm, out, "trsm-wa write-backs vs output lines at {} block rows", nb);

        let spd = Mat::random_spd(n, seed + 3);
        let chol = lru_writebacks(&[&spd], bsize, |mem, d| {
            blocked_cholesky(mem, d[0], bsize, CholVariant::LeftLooking)
        });
        let lower = output_lines(MatDesc::new(0, n, n), |i, j| j <= i);
        prop_assert_eq!(chol, lower, "cholesky-wa write-backs vs output lines at {} block rows", nb);
    }

    /// Simulated-LU counters are deterministic: two runs of the same
    /// problem produce byte-identical LLC counters and DRAM tallies, so
    /// `--repeat N` repetition cannot drift them.
    #[test]
    fn simmed_lu_counters_are_invariant_under_repetition(
        nb in 2usize..4,
        seed in 0u64..1000,
        right_looking in any::<bool>(),
    ) {
        let bsize = 8usize; // line-aligned blocks
        let n = nb * bsize;
        let a0 = Mat::random_diagdom(n, seed);
        let variant = if right_looking {
            LuVariant::RightLooking
        } else {
            LuVariant::LeftLooking
        };
        let run = || {
            let (d, words) = alloc_layout(&[(n, n)]);
            let mut raw = RawMem::new(words);
            d[0].store_mat(&mut raw, &a0);
            let mut mem = SimMem::from_vec(raw.data, MemSim::single_level_lru(4 * bsize * bsize));
            blocked_lu(&mut mem, d[0], bsize, variant);
            mem.sim.flush();
            (
                mem.sim.llc(),
                mem.sim.dram_reads_lines,
                mem.sim.dram_writes_lines,
            )
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first.0, second.0);
        prop_assert_eq!(first.1, second.1);
        prop_assert_eq!(first.2, second.2);
    }
}
