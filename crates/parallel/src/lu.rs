//! Parallel LU factorization without pivoting (§7.2): LL-LUNP and RL-LUNP.
//!
//! Model 2.2 setting: the matrix lives in the NVM (L3) of a `√P×√P`
//! block-cyclic grid; L2 holds only a few blocks. The two algorithms sit
//! on opposite sides of the Theorem 4 trade-off:
//!
//! * **LL-LUNP** (left-looking, Algorithm 5): each block of the output is
//!   written to NVM O(1) times (`≈ 2n²/P` per processor), but the already-
//!   computed L/U blocks are re-communicated for every column update —
//!   network volume `Θ(n³ log²P / (P√M2))`.
//! * **RL-LUNP** (right-looking, CALU-style): network volume near the
//!   `O(n²/√P · log P)` lower bound, but the trailing Schur complement is
//!   read from and written back to NVM every step —
//!   `Θ(n² log²P / √P)` NVM writes.
//!
//! Both compute the true factorization (verified against a sequential
//! reference) on a block-cyclic layout; counters are charged per Figure 1's
//! boundaries.

use crate::collectives::charge_bcast;
use crate::machine::{replay_block_rw, replay_gemm, Machine, Staging};
use memsim::Sink;
use wa_core::Mat;

/// In-place unblocked LU of `a[d0..d1, d0..d1]`.
fn lu_base(a: &mut Mat, (d0, d1): (usize, usize)) {
    for k in d0..d1 {
        let akk = a[(k, k)];
        assert!(akk.abs() > 1e-300, "zero pivot");
        for i in k + 1..d1 {
            let lik = a[(i, k)] / akk;
            a[(i, k)] = lik;
            for j in k + 1..d1 {
                a[(i, j)] -= lik * a[(k, j)];
            }
        }
    }
}

/// `A[r, c] -= L[r, kk] · U[kk, c]` over block ranges.
fn gemm_sub(a: &mut Mat, r: (usize, usize), c: (usize, usize), kk: (usize, usize)) {
    for i in r.0..r.1 {
        for j in c.0..c.1 {
            let mut acc = a[(i, j)];
            for k in kk.0..kk.1 {
                acc -= a[(i, k)] * a[(k, j)];
            }
            a[(i, j)] = acc;
        }
    }
}

/// Solve `L[d,d]·X = A[d, c]` in place (unit lower-triangular diagonal).
fn trsm_lower_unit(a: &mut Mat, d: (usize, usize), c: (usize, usize)) {
    for j in c.0..c.1 {
        for i in d.0..d.1 {
            let mut acc = a[(i, j)];
            for k in d.0..i {
                acc -= a[(i, k)] * a[(k, j)];
            }
            a[(i, j)] = acc;
        }
    }
}

/// Solve `X·U[d,d] = A[r, d]` in place.
fn trsm_upper_right(a: &mut Mat, r: (usize, usize), d: (usize, usize)) {
    for i in r.0..r.1 {
        for c in d.0..d.1 {
            let mut acc = a[(i, c)];
            for t in d.0..c {
                acc -= a[(i, t)] * a[(t, c)];
            }
            a[(i, c)] = acc / a[(c, c)];
        }
    }
}

/// Which variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LunpVariant {
    LeftLooking,
    RightLooking,
}

/// Block-cyclic owner of block `(bi, bj)` on a `q×q` grid.
fn owner(bi: usize, bj: usize, q: usize) -> usize {
    (bi % q) * q + (bj % q)
}

/// Parallel LU without pivoting on a `q×q` grid (`machine.p() == q²`),
/// block size `b` (`n % b == 0`), data resident in NVM. `a` is overwritten
/// by `L\U`.
pub fn parallel_lu<S: Sink>(m: &mut Machine<S>, a: &mut Mat, b: usize, variant: LunpVariant) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert!(n.is_multiple_of(b));
    let nb = n / b;
    let q = (m.p() as f64).sqrt().round() as usize;
    assert_eq!(q * q, m.p(), "machine must be a square grid");
    let bw = (b * b) as u64;
    let rng = |blk: usize| (blk * b, (blk + 1) * b);

    // Symmetric rank-local layout: every rank reserves a slot per block it
    // can own under the cyclic distribution, plus receive buffers for the
    // L/U/diagonal blocks that arrive over the network. Block (bi, bj)
    // lives at the same local offset on whichever rank owns it.
    let slots = nb.div_ceil(q);
    let blk_base = m.alloc(slots * slots * b * b);
    let recv_a = m.alloc(b * b);
    let recv_b = m.alloc(b * b);
    let diag_buf = m.alloc(b * b);
    let addr = |bi: usize, bj: usize| blk_base + ((bi / q) * slots + (bj / q)) * (b * b);

    match variant {
        LunpVariant::RightLooking => {
            for i in 0..nb {
                let od = owner(i, i, q);
                // Factor the diagonal block (read from NVM, write back).
                m.l3_read_at(od, addr(i, i), bw);
                lu_base(a, rng(i));
                if m.has_sims() {
                    let mut mem = m.rank_mem(od);
                    replay_block_rw(&mut mem, addr(i, i), b);
                }
                m.l3_write_at(od, addr(i, i), bw);
                m.node_mut(od).flops += 2 * (b * b * b) as u64 / 3;
                // Broadcast the factored diagonal along its row and column.
                let col_party: Vec<usize> = (0..q).map(|r| owner(r + i, i, q)).collect();
                charge_bcast(m, od, &col_party, bw, Staging::L2, diag_buf);
                let row_party: Vec<usize> = (0..q).map(|c| owner(i, c + i, q)).collect();
                charge_bcast(m, od, &row_party, bw, Staging::L2, diag_buf);
                // Panel TRSMs.
                for j in i + 1..nb {
                    let oj = owner(j, i, q);
                    m.l3_read_at(oj, addr(j, i), bw);
                    trsm_upper_right(a, rng(j), rng(i));
                    if m.has_sims() {
                        let mut mem = m.rank_mem(oj);
                        replay_gemm(&mut mem, diag_buf, diag_buf, addr(j, i), b, b, b);
                    }
                    m.l3_write_at(oj, addr(j, i), bw);
                    m.node_mut(oj).flops += (b * b * b) as u64;
                    let ok = owner(i, j, q);
                    m.l3_read_at(ok, addr(i, j), bw);
                    trsm_lower_unit(a, rng(i), rng(j));
                    if m.has_sims() {
                        let mut mem = m.rank_mem(ok);
                        replay_gemm(&mut mem, diag_buf, diag_buf, addr(i, j), b, b, b);
                    }
                    m.l3_write_at(ok, addr(i, j), bw);
                    m.node_mut(ok).flops += (b * b * b) as u64;
                }
                // Broadcast panels: L(j,i) along row j; U(i,k) along col k.
                for j in i + 1..nb {
                    let parties: Vec<usize> = (0..q).map(|c| owner(j, c, q)).collect();
                    charge_bcast(m, owner(j, i, q), &parties, bw, Staging::L2, recv_a);
                    let parties: Vec<usize> = (0..q).map(|r| owner(r, j, q)).collect();
                    charge_bcast(m, owner(i, j, q), &parties, bw, Staging::L2, recv_b);
                }
                // Trailing update: the write-heavy part (each block read
                // from and written back to NVM every step).
                for j in i + 1..nb {
                    for k in i + 1..nb {
                        let o = owner(j, k, q);
                        m.l3_read_at(o, addr(j, k), bw);
                        gemm_sub(a, rng(j), rng(k), rng(i));
                        if m.has_sims() {
                            let mut mem = m.rank_mem(o);
                            replay_gemm(&mut mem, recv_a, recv_b, addr(j, k), b, b, b);
                        }
                        m.l3_write_at(o, addr(j, k), bw);
                        m.node_mut(o).flops += 2 * (b * b * b) as u64;
                    }
                }
            }
        }
        LunpVariant::LeftLooking => {
            for i in 0..nb {
                // Pull all updates from columns K < i into block column i,
                // top-down, interleaving the U TRSMs (Algorithm 5's loop).
                // Each A(j,i) is accumulated in L2 and written to NVM once.
                for j in 0..nb {
                    let o = owner(j, i, q);
                    m.l3_read_at(o, addr(j, i), bw); // A(j,i) into L2, stays resident
                    for k in 0..j.min(i) {
                        // L(j,k) travels along processor row j; U(k,i)
                        // along processor column i; both read from the
                        // owner's NVM and landing in the consumer's L2.
                        let ol = owner(j, k, q);
                        let la = if ol != o {
                            m.transfer(ol, o, bw, Staging::L3, Staging::L2, addr(j, k), recv_a);
                            recv_a
                        } else {
                            m.l3_read_at(o, addr(j, k), bw);
                            addr(j, k)
                        };
                        let ou = owner(k, i, q);
                        let ua = if ou != o {
                            m.transfer(ou, o, bw, Staging::L3, Staging::L2, addr(k, i), recv_b);
                            recv_b
                        } else {
                            m.l3_read_at(o, addr(k, i), bw);
                            addr(k, i)
                        };
                        gemm_sub(a, rng(j), rng(i), rng(k));
                        if m.has_sims() {
                            let mut mem = m.rank_mem(o);
                            replay_gemm(&mut mem, la, ua, addr(j, i), b, b, b);
                        }
                        m.node_mut(o).flops += 2 * (b * b * b) as u64;
                    }
                    if j < i {
                        // U(j,i) = L(j,j)⁻¹ A(j,i).
                        let od = owner(j, j, q);
                        let ld = if od != o {
                            m.transfer(od, o, bw, Staging::L3, Staging::L2, addr(j, j), diag_buf);
                            diag_buf
                        } else {
                            m.l3_read_at(o, addr(j, j), bw);
                            addr(j, j)
                        };
                        trsm_lower_unit(a, rng(j), rng(i));
                        if m.has_sims() {
                            let mut mem = m.rank_mem(o);
                            replay_gemm(&mut mem, ld, ld, addr(j, i), b, b, b);
                        }
                        m.node_mut(o).flops += (b * b * b) as u64;
                        m.l3_write_at(o, addr(j, i), bw); // final U block: written once
                    }
                }
                // Factor the diagonal and the sub-diagonal column.
                let od = owner(i, i, q);
                lu_base(a, rng(i));
                if m.has_sims() {
                    let mut mem = m.rank_mem(od);
                    replay_block_rw(&mut mem, addr(i, i), b);
                }
                m.node_mut(od).flops += 2 * (b * b * b) as u64 / 3;
                m.l3_write_at(od, addr(i, i), bw);
                let col_party: Vec<usize> = (0..q).map(|r| owner(r + i, i, q)).collect();
                charge_bcast(m, od, &col_party, bw, Staging::L2, diag_buf);
                for j in i + 1..nb {
                    let oj = owner(j, i, q);
                    trsm_upper_right(a, rng(j), rng(i));
                    if m.has_sims() {
                        let mut mem = m.rank_mem(oj);
                        replay_gemm(&mut mem, diag_buf, diag_buf, addr(j, i), b, b, b);
                    }
                    m.node_mut(oj).flops += (b * b * b) as u64;
                    m.l3_write_at(oj, addr(j, i), bw); // final L block: written once
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::CostParams;

    fn diagonally_dominant(n: usize, seed: u64) -> Mat {
        let mut a = Mat::random(n, n, seed);
        for i in 0..n {
            a[(i, i)] = a[(i, i)].abs() + n as f64;
        }
        a
    }

    fn reconstruct(lu: &Mat) -> Mat {
        let n = lu.rows();
        let l = Mat::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if j < i {
                lu[(i, j)]
            } else {
                0.0
            }
        });
        l.matmul_ref(&lu.upper_triangular())
    }

    #[test]
    fn both_variants_factor_correctly() {
        for v in [LunpVariant::LeftLooking, LunpVariant::RightLooking] {
            let n = 24;
            let a0 = diagonally_dominant(n, 77);
            let mut a = a0.clone();
            let mut m = Machine::new(4, CostParams::nvm_cluster());
            parallel_lu(&mut m, &mut a, 4, v);
            let back = reconstruct(&a);
            assert!(
                back.max_abs_diff(&a0) < 1e-8 * n as f64,
                "{v:?}: {}",
                back.max_abs_diff(&a0)
            );
        }
    }

    #[test]
    fn variants_agree_numerically() {
        let n = 32;
        let a0 = diagonally_dominant(n, 78);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut m1 = Machine::new(16, CostParams::nvm_cluster());
        let mut m2 = Machine::new(16, CostParams::nvm_cluster());
        parallel_lu(&mut m1, &mut a1, 4, LunpVariant::LeftLooking);
        parallel_lu(&mut m2, &mut a2, 4, LunpVariant::RightLooking);
        assert!(a1.max_abs_diff(&a2) < 1e-9);
    }

    /// The §7.2 trade-off, measured: LL writes ~output-size to NVM but
    /// talks more; RL is network-lean but write-heavy.
    #[test]
    fn ll_minimizes_nvm_writes_rl_minimizes_network() {
        let n = 48;
        let b = 4;
        let p = 16;
        let a0 = diagonally_dominant(n, 79);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut mll = Machine::new(p, CostParams::nvm_cluster());
        let mut mrl = Machine::new(p, CostParams::nvm_cluster());
        parallel_lu(&mut mll, &mut a1, b, LunpVariant::LeftLooking);
        parallel_lu(&mut mrl, &mut a2, b, LunpVariant::RightLooking);
        let ll = mll.max_counters();
        let rl = mrl.max_counters();
        assert!(
            ll.l3_write_words < rl.l3_write_words / 2,
            "LL NVM writes {} should undercut RL {}",
            ll.l3_write_words,
            rl.l3_write_words
        );
        assert!(
            rl.net_words() < ll.net_words(),
            "RL network {} should undercut LL {}",
            rl.net_words(),
            ll.net_words()
        );
        // LL writes per proc stay within a small factor of 2n²/P.
        let out = (2 * n * n / p) as u64;
        assert!(
            ll.l3_write_words <= 2 * out,
            "LL writes {} vs 2·n²/P = {out}",
            ll.l3_write_words
        );
    }
}
