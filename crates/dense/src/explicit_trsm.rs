//! Algorithm 2 — blocked triangular solve (TRSM) as one block schedule
//! with exact load/store accounting.
//!
//! Solves `T·X = B` for upper-triangular `T`, X overwriting B, by
//! successive substitution over `b×b` blocks (`b = √(M/3)` in the explicit
//! model). [`trsm_schedule`] owns the block loops and every explicit
//! charge; the explicit model runs it with an empty body and
//! [`crate::trsm::blocked_trsm`] with the block kernels as the body. The
//! paper's WA order keeps each `B(i,j)` block resident across its whole
//! update sweep (`k` innermost), storing it exactly once: `n·nrhs` writes
//! to slow memory. The right-looking variant pushes updates eagerly and
//! stores `Θ(n²·nrhs/b)` words.

use crate::explicit_mm::tri_words;
use crate::trsm::TrsmVariant;
use memsim::Charges;

/// One block operation of [`trsm_schedule`], on block indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsmOp {
    /// `B(i,j) -= T(i,k)·X(k,j)`, with `X(k,j)` already solved in `B`.
    Update { i: usize, k: usize, j: usize },
    /// Back-substitute the diagonal block: `X(i,j) = T(i,i)⁻¹·B(i,j)`.
    Solve { i: usize, j: usize },
}

/// The block loops of Algorithm 2, `T·X = B` for an `n×n` upper
/// triangular `T` and `n×nrhs` `B` (X overwrites B) at block size
/// `bsize`, with every explicit charge; `body` runs each [`TrsmOp`] after
/// its operands are loaded.
///
/// The write-avoiding order keeps each `B(i,j)` resident across its
/// whole update sweep (`k` innermost) and stores it once: `n·nrhs` words
/// to slow memory. The right-looking order pushes each solved block's
/// updates eagerly, storing every `B(k,j)` above it per step:
/// `Θ(n²·nrhs/b)` words.
pub fn trsm_schedule<H: Charges>(
    (n, nrhs): (usize, usize),
    bsize: usize,
    variant: TrsmVariant,
    hier: &mut H,
    mut body: impl FnMut(TrsmOp),
) {
    assert!(bsize > 0);
    let nb = n.div_ceil(bsize);
    let w = |blk: usize, lim: usize| bsize.min(lim - blk * bsize);
    for j in 0..nrhs.div_ceil(bsize) {
        let cj = w(j, nrhs);
        for i in (0..nb).rev() {
            let ci = w(i, n);
            let b_words = (ci * cj) as u64;
            hier.load(0, b_words); // B(i,j)
            if variant == TrsmVariant::WriteAvoiding {
                for k in i + 1..nb {
                    let ck = w(k, n);
                    hier.load(0, (ci * ck) as u64); // T(i,k)
                    hier.load(0, (ck * cj) as u64); // X(k,j)
                    body(TrsmOp::Update { i, k, j });
                    hier.flop(2 * (ci * ck * cj) as u64);
                    hier.free(1, (ci * ck + ck * cj) as u64);
                }
            }
            hier.load(0, tri_words(ci)); // T(i,i), triangular half
            body(TrsmOp::Solve { i, j });
            hier.flop((ci * ci * cj) as u64);
            hier.free(1, tri_words(ci));
            hier.store(0, b_words); // X(i,j)
            if variant == TrsmVariant::RightLooking {
                // X(i,j) stays resident for the eager updates above it.
                for k in 0..i {
                    let ck = w(k, n);
                    hier.load(0, (ck * ci) as u64); // T(k,i)
                    hier.load(0, (ck * cj) as u64); // B(k,j)
                    body(TrsmOp::Update { i: k, k: i, j });
                    hier.flop(2 * (ck * ci * cj) as u64);
                    hier.store(0, (ck * cj) as u64); // partial update written back
                    hier.free(1, (ck * ci + ck * cj) as u64);
                }
            }
            hier.free(1, b_words);
        }
    }
}

/// Words the right-looking order of [`trsm_schedule`] stores for an
/// `n×n` right-hand side: each `X(i,j)`, then every block row above `i`
/// with its partial update, so `n·Σ_{i<nb} min(n, (i+1)·b)`.
pub(crate) fn rl_store_words(n: usize, bsize: usize) -> u64 {
    let rows: usize = (0..n.div_ceil(bsize)).map(|i| n.min((i + 1) * bsize)).sum();
    (n * rows) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::alloc_layout;
    use crate::explicit_mm::block_for;
    use crate::trsm::blocked_trsm;
    use memsim::{ExplicitHier, RawMem};
    use wa_core::Mat;

    /// The schedule's charges on a two-level model of `m_words`.
    fn charges(n: usize, nrhs: usize, m_words: u64, variant: TrsmVariant) -> ExplicitHier {
        let mut h = ExplicitHier::two_level(m_words);
        trsm_schedule((n, nrhs), block_for(m_words), variant, &mut h, |_| {});
        h
    }

    /// Solve a random system with `blocked_trsm` (the schedule with the
    /// block kernels as its body) at the explicit model's block size for
    /// `m_words`; returns the solution and the true `X`.
    fn solve(n: usize, nrhs: usize, m_words: u64, variant: TrsmVariant) -> (Mat, Mat) {
        let t = Mat::random_upper_triangular(n, 7);
        let x_true = Mat::random(n, nrhs, 8);
        let (d, words) = alloc_layout(&[(n, n), (n, nrhs)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, &t);
        d[1].store_mat(&mut mem, &t.matmul_ref(&x_true));
        blocked_trsm(&mut mem, d[0], d[1], block_for(m_words), variant);
        (d[1].load_mat(&mut mem), x_true)
    }

    #[test]
    fn wa_trsm_solves_correctly() {
        let (x, x_true) = solve(12, 12, 48, TrsmVariant::WriteAvoiding);
        assert!(
            x.max_abs_diff(&x_true) < 1e-9,
            "{}",
            x.max_abs_diff(&x_true)
        );
    }

    #[test]
    fn rl_trsm_solves_correctly() {
        let (x, x_true) = solve(12, 8, 48, TrsmVariant::RightLooking);
        assert!(x.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn wa_trsm_stores_exactly_output_size() {
        let (n, nrhs) = (16, 16);
        let h = charges(n, nrhs, 48, TrsmVariant::WriteAvoiding);
        assert_eq!(h.traffic().boundary(0).store_words, (n * nrhs) as u64);
    }

    #[test]
    fn wa_trsm_load_count_matches_formula() {
        // Divisible case: n = nrhs = 16, b = 4, nb = 4.
        let (n, nrhs) = (16usize, 16usize);
        let h = charges(n, nrhs, 48, TrsmVariant::WriteAvoiding);
        let bs = 4u64;
        let nb = (n as u64) / bs;
        // loads = Σ_j Σ_i [ b² + (nb-1-i)·2b² + b(b+1)/2 ]
        let expected: u64 = (0..nb)
            .flat_map(|_| (0..nb).map(|i| bs * bs + (nb - 1 - i) * 2 * bs * bs + bs * (bs + 1) / 2))
            .sum();
        assert_eq!(h.traffic().boundary(0).load_words, expected);
    }

    #[test]
    fn rl_stores_match_the_closed_form() {
        // b = 4, 4, 10: nb = 5, 6 (last block short) and 10 (likewise).
        for (n, m) in [(20usize, 48), (22, 48), (96, 300)] {
            assert!(n.div_ceil(block_for(m)) >= 3, "n = {n}");
            let h = charges(n, n, m, TrsmVariant::RightLooking);
            let want = rl_store_words(n, block_for(m));
            assert_eq!(h.traffic().boundary(0).store_words, want, "n = {n}");
        }
    }

    #[test]
    fn rl_stores_asymptotically_more() {
        let (n, nrhs) = (24, 24);
        let (x_wa, _) = solve(n, nrhs, 48, TrsmVariant::WriteAvoiding);
        let (x_rl, _) = solve(n, nrhs, 48, TrsmVariant::RightLooking);
        assert!(x_wa.max_abs_diff(&x_rl) < 1e-8);
        let s_wa = charges(n, nrhs, 48, TrsmVariant::WriteAvoiding)
            .traffic()
            .boundary(0)
            .store_words;
        let s_rl = charges(n, nrhs, 48, TrsmVariant::RightLooking)
            .traffic()
            .boundary(0)
            .store_words;
        // RL stores ~ .5 (n/b)³ b² + n², WA stores n²: ratio ~ (n/b)/2 + 1.
        assert!(
            s_rl as f64 / s_wa as f64 > (n / 4) as f64 / 2.0,
            "ratio {} too small",
            s_rl as f64 / s_wa as f64
        );
    }

    #[test]
    fn theorem1_and_capacity_respected() {
        let h = charges(20, 12, 48, TrsmVariant::WriteAvoiding);
        let (wf, total) = h.theorem1_check(0);
        assert!(2 * wf >= total);
        assert!(h.peak(1) <= 48);
    }
}
