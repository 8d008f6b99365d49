//! Algorithm 3 — blocked Cholesky `A = L·Lᵀ` as one block schedule with
//! exact load/store accounting.
//!
//! [`cholesky_schedule`] owns the block loops and every explicit charge;
//! the explicit model runs it with an empty body and
//! [`crate::cholesky::blocked_cholesky`] with the block kernels as the
//! body. The paper's *left-looking* order (Algorithm 3) computes each
//! block column of `L` by reading already-finished columns to its left,
//! storing each output block exactly once: ≈ `n²/2` writes to slow
//! memory. The *right-looking* order updates the whole Schur complement
//! after each panel, storing `Θ(n³/(6b))` words — asymptotically more
//! (§4.3).

use crate::cholesky::CholVariant;
use crate::explicit_mm::tri_words;
use memsim::Charges;

/// One block operation of [`cholesky_schedule`], on block indices of `A`
/// (lower triangle only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CholOp {
    /// `A(i,i) -= A(i,k)·A(i,k)ᵀ`, lower half (SYRK).
    Syrk { i: usize, k: usize },
    /// Factor the diagonal block in place: `A(i,i) = L(i,i)·L(i,i)ᵀ`.
    Factor { i: usize },
    /// `A(j,i) -= A(j,k)·A(i,k)ᵀ`.
    Update { j: usize, i: usize, k: usize },
    /// `A(j,i) := A(j,i)·L(i,i)⁻ᵀ`, a block of `L` below the diagonal.
    Solve { j: usize, i: usize },
}

/// The block loops of blocked Cholesky `A = L·Lᵀ` of an `n×n` matrix at
/// block size `bsize`, with every explicit charge; `body` runs each
/// [`CholOp`] after its operands are loaded.
///
/// The left-looking order (Algorithm 3) finishes each block of `L` while
/// it is resident, reading the finished columns to its left, and stores
/// it once: the lower triangle, ≈ `n²/2` words. The right-looking order
/// updates the whole trailing Schur complement after each panel, storing
/// `Θ(n³/(6b))` words (§4.3).
pub fn cholesky_schedule<H: Charges>(
    n: usize,
    bsize: usize,
    variant: CholVariant,
    hier: &mut H,
    mut body: impl FnMut(CholOp),
) {
    assert!(bsize > 0);
    let nb = n.div_ceil(bsize);
    let w = |blk: usize| bsize.min(n - blk * bsize);
    for i in 0..nb {
        let ci = w(i);
        hier.load(0, tri_words(ci)); // A(i,i) lower half
        match variant {
            CholVariant::LeftLooking => {
                for k in 0..i {
                    let ck = w(k);
                    hier.load(0, (ci * ck) as u64); // A(i,k)
                    body(CholOp::Syrk { i, k });
                    hier.flop((ci * ci * ck) as u64);
                    hier.free(1, (ci * ck) as u64);
                }
                body(CholOp::Factor { i });
                hier.flop((ci * ci * ci) as u64 / 3);
                hier.store(0, tri_words(ci)); // L(i,i)
                hier.free(1, tri_words(ci));
                for j in i + 1..nb {
                    let cj = w(j);
                    hier.load(0, (cj * ci) as u64); // A(j,i)
                    for k in 0..i {
                        let ck = w(k);
                        hier.load(0, (ci * ck) as u64); // A(i,k)
                        hier.load(0, (cj * ck) as u64); // A(j,k)
                        body(CholOp::Update { j, i, k });
                        hier.flop(2 * (cj * ci * ck) as u64);
                        hier.free(1, ((ci + cj) * ck) as u64);
                    }
                    hier.load(0, tri_words(ci)); // L(i,i) lower half
                    body(CholOp::Solve { j, i });
                    hier.flop((cj * ci * ci) as u64);
                    hier.free(1, tri_words(ci));
                    hier.store(0, (cj * ci) as u64); // L(j,i)
                    hier.free(1, (cj * ci) as u64);
                }
            }
            CholVariant::RightLooking => {
                body(CholOp::Factor { i });
                hier.flop((ci * ci * ci) as u64 / 3);
                hier.store(0, tri_words(ci));
                // Panel: L(j,i) = A(j,i)·L(i,i)⁻ᵀ, with L(i,i) resident.
                for j in i + 1..nb {
                    let cj = w(j);
                    hier.load(0, (cj * ci) as u64); // A(j,i)
                    body(CholOp::Solve { j, i });
                    hier.flop((cj * ci * ci) as u64);
                    hier.store(0, (cj * ci) as u64);
                    hier.free(1, (cj * ci) as u64);
                }
                hier.free(1, tri_words(ci));
                // Trailing update: A(j,k) -= L(j,i)·L(k,i)ᵀ for i < k ≤ j.
                for j in i + 1..nb {
                    let cj = w(j);
                    for k in i + 1..=j {
                        let ck = w(k);
                        hier.load(0, (cj * ci) as u64); // L(j,i)
                        hier.load(0, (ck * ci) as u64); // L(k,i)
                        let words = if j == k {
                            tri_words(cj)
                        } else {
                            (cj * ck) as u64
                        };
                        hier.load(0, words); // A(j,k)
                        body(if j == k {
                            CholOp::Syrk { i: j, k: i }
                        } else {
                            CholOp::Update { j, i: k, k: i }
                        });
                        hier.flop(2 * (cj * ck * ci) as u64);
                        hier.store(0, words); // eagerly written back
                        hier.free(1, (cj * ci + ck * ci) as u64 + words);
                    }
                }
            }
        }
    }
}

/// Words [`cholesky_schedule`] stores: the left-looking order stores the
/// lower triangle once, `tri(n)`; the right-looking order stores the
/// trailing lower triangle after every panel, `Σ_{i<nb} tri(n − i·b)`.
pub(crate) fn store_words(n: usize, bsize: usize, variant: CholVariant) -> u64 {
    match variant {
        CholVariant::LeftLooking => tri_words(n),
        CholVariant::RightLooking => (0..n.div_ceil(bsize))
            .map(|i| tri_words(n - i * bsize))
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::blocked_cholesky;
    use crate::desc::alloc_layout;
    use crate::explicit_mm::block_for;
    use memsim::{ExplicitHier, RawMem};
    use wa_core::Mat;

    /// The schedule's charges on a two-level model of `m_words`.
    fn charges(n: usize, m_words: u64, variant: CholVariant) -> ExplicitHier {
        let mut h = ExplicitHier::two_level(m_words);
        cholesky_schedule(n, block_for(m_words), variant, &mut h, |_| {});
        h
    }

    /// Factor `a0` with `blocked_cholesky` (the schedule with the block
    /// kernels as its body) at the explicit model's block size for
    /// `m_words`; returns `L`.
    fn factor(a0: &Mat, m_words: u64, variant: CholVariant) -> Mat {
        let n = a0.rows();
        let (d, words) = alloc_layout(&[(n, n)]);
        let mut mem = RawMem::new(words);
        d[0].store_mat(&mut mem, a0);
        blocked_cholesky(&mut mem, d[0], block_for(m_words), variant);
        d[0].load_mat(&mut mem).lower_triangular()
    }

    fn check_factor(a0: &Mat, l: &Mat) {
        let n = a0.rows();
        let prod = l.matmul_ref(&l.transpose());
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (prod[(i, j)] - a0[(i, j)]).abs() < 1e-8 * a0[(i, i)].abs().max(1.0),
                    "({i},{j}): {} vs {}",
                    prod[(i, j)],
                    a0[(i, j)]
                );
            }
        }
    }

    #[test]
    fn left_looking_factors_correctly() {
        let a0 = Mat::random_spd(16, 3);
        check_factor(&a0, &factor(&a0, 48, CholVariant::LeftLooking));
    }

    #[test]
    fn right_looking_factors_correctly() {
        let a0 = Mat::random_spd(16, 4);
        check_factor(&a0, &factor(&a0, 48, CholVariant::RightLooking));
    }

    #[test]
    fn both_orders_agree() {
        let a0 = Mat::random_spd(20, 5);
        let l1 = factor(&a0, 48, CholVariant::LeftLooking);
        let l2 = factor(&a0, 48, CholVariant::RightLooking);
        assert!(l1.max_abs_diff(&l2) < 1e-8);
    }

    #[test]
    fn ll_stores_about_half_n_squared() {
        let n = 16;
        let h = charges(n, 48, CholVariant::LeftLooking);
        let bs = 4u64;
        let nb = n as u64 / bs;
        // stores = nb * tri(b) + b² * nb(nb-1)/2 (the exact lower triangle
        // of the output, block by block).
        let expected = nb * tri_words(bs as usize) + bs * bs * nb * (nb - 1) / 2;
        assert_eq!(h.traffic().boundary(0).store_words, expected);
    }

    #[test]
    fn stores_match_the_closed_form() {
        // b = 4, 4, 10: nb = 4, 5 (last block short) and 10 (likewise).
        for (n, m) in [(16usize, 48), (18, 48), (96, 300)] {
            assert!(n.div_ceil(block_for(m)) >= 3, "n = {n}");
            for v in [CholVariant::LeftLooking, CholVariant::RightLooking] {
                let h = charges(n, m, v);
                let want = store_words(n, block_for(m), v);
                assert_eq!(h.traffic().boundary(0).store_words, want, "n = {n}, {v:?}");
            }
        }
    }

    #[test]
    fn rl_stores_asymptotically_more_than_ll() {
        let n = 32;
        let s_ll = charges(n, 48, CholVariant::LeftLooking)
            .traffic()
            .boundary(0)
            .store_words;
        let s_rl = charges(n, 48, CholVariant::RightLooking)
            .traffic()
            .boundary(0)
            .store_words;
        assert!(
            s_rl > 2 * s_ll,
            "right-looking {s_rl} should far exceed left-looking {s_ll}"
        );
    }

    #[test]
    fn capacity_and_theorem1() {
        let h = charges(24, 48, CholVariant::LeftLooking);
        assert!(h.peak(1) <= 48);
        let (wf, total) = h.theorem1_check(0);
        assert!(2 * wf >= total);
    }

    #[test]
    fn uneven_block_boundary_still_correct() {
        let a0 = Mat::random_spd(18, 9); // 18 = 4*4 + 2
        check_factor(&a0, &factor(&a0, 48, CholVariant::LeftLooking));
    }
}
