//! 2.5D matrix multiplication (Demmel & Solomonik) with configurable
//! replication factor and staging level — the paper's 2DMML2 / 2.5DMML2 /
//! 2.5DMML3 / 2.5DMML3ooL2 family.
//!
//! The processor grid is `q × q × c` with `q = √(P/c)`. The four steps
//! (§7.1):
//!
//! 1. the top layer gathers the 2D-distributed inputs into `q×q` blocks
//!    of size `n/q` (each gather: `c` messages of `2n²/P` words);
//! 2. the inputs are broadcast down the `c` layers (replication);
//! 3. each layer runs `q/c` Cannon steps on its copy;
//! 4. the `c` partial C's are reduced onto the top layer.
//!
//! `Staging::L2` charges only network and DRAM; `Staging::L3` additionally
//! pays NVM reads/writes on every transfer (Model 2.1 using NVM for
//! capacity); `ool2 = true` further charges the local multiplies as
//! out-of-L2 (Model 2.2: operands resident in NVM, L2 of `m2` words used
//! as the fast level — Algorithm 1 traffic at the L2/L3 boundary).

use crate::collectives::{charge_bcast, charge_gather, charge_reduce};
use crate::machine::{replay_gemm, Machine, Staging};
use memsim::Sink;
use wa_core::Mat;

/// Configuration for one 2.5D run.
#[derive(Clone, Copy, Debug)]
pub struct Mm25Config {
    /// Total processors; `p = q²·c` with square `q`.
    pub p: usize,
    /// Replication factor `c` (1 = plain 2D/Cannon on the full grid).
    pub c: usize,
    /// Where replicated operands are staged.
    pub at: Staging,
    /// Model 2.2: local multiplies run out of L2 against NVM-resident data.
    pub ool2: bool,
    /// L2 capacity in words (used when `ool2` to derive the local blocking).
    pub m2: u64,
}

impl Mm25Config {
    pub fn q(&self) -> usize {
        let q2 = self.p / self.c;
        let q = (q2 as f64).sqrt().round() as usize;
        assert_eq!(q * q * self.c, self.p, "p must equal q²·c");
        q
    }
}

/// Run 2.5D matmul; returns the assembled product (verified by tests
/// against the sequential reference).
pub fn mm25d<S: Sink>(m: &mut Machine<S>, a: &Mat, b: &Mat, cfg: Mm25Config) -> Mat {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!((b.rows(), b.cols()), (n, n));
    let q = cfg.q();
    let c = cfg.c;
    assert!(n.is_multiple_of(q), "n must divide the layer grid");
    // When c > q, layers beyond q simply get no Cannon steps (the range
    // clamps below); wasteful but well-defined.
    let nb = n / q;
    // Node id: (layer l, row i, col j).
    let id = |l: usize, i: usize, j: usize| (l * q + i) * q + j;

    // Symmetric rank-local layout: the gather landing zone, the A/B
    // operand pair, and the partial-C accumulator.
    let words_each = (2 * n * n / cfg.p) as u64;
    let gath_buf = m.alloc(words_each as usize);
    let ab_buf = m.alloc(2 * nb * nb);
    let a_blk = ab_buf;
    let b_blk = ab_buf + nb * nb;
    let part_buf = m.alloc(nb * nb);

    // ----- Step 1: gather the 2D layout into the top layer's q×q blocks.
    // The original layout spreads 2n²/P words per processor; each top-layer
    // processor gathers c contributions.
    for i in 0..q {
        for j in 0..q {
            let root = id(0, i, j);
            let parties: Vec<usize> = (0..c).map(|l| id(l, i, j)).collect();
            charge_gather(m, root, &parties, words_each, cfg.at, gath_buf);
        }
    }

    // ----- Step 2: replicate A and B to all layers.
    let block_words = 2 * (nb * nb) as u64; // A and B blocks
    if c > 1 {
        for i in 0..q {
            for j in 0..q {
                let parties: Vec<usize> = (0..c).map(|l| id(l, i, j)).collect();
                charge_bcast(m, id(0, i, j), &parties, block_words, cfg.at, ab_buf);
            }
        }
    }

    // ----- Step 3: q/c Cannon steps per layer (layer l covers shifts
    // t ∈ [l·q/c, (l+1)·q/c)).
    let steps_per_layer = q.div_ceil(c);
    let mut partial: Vec<Mat> = (0..cfg.p).map(|_| Mat::zeros(nb, nb)).collect();
    for l in 0..c {
        let t0 = l * steps_per_layer;
        let t1 = ((l + 1) * steps_per_layer).min(q);
        for t in t0..t1 {
            for i in 0..q {
                for j in 0..q {
                    let k = (i + j + t) % q; // Cannon alignment
                    let me = id(l, i, j);
                    // Receive the needed A and B blocks (skew + shifts are
                    // charged as one transfer per step per operand).
                    if t > t0 || l > 0 || k != j {
                        let w = (nb * nb) as u64;
                        m.transfer(id(l, i, k), me, w, cfg.at, cfg.at, a_blk, a_blk);
                    }
                    if t > t0 || l > 0 || k != i {
                        let w = (nb * nb) as u64;
                        m.transfer(id(l, k, j), me, w, cfg.at, cfg.at, b_blk, b_blk);
                    }
                    // Local multiply-accumulate.
                    let cb = &mut partial[me];
                    for r in 0..nb {
                        for s in 0..nb {
                            let mut acc = cb[(r, s)];
                            for kk in 0..nb {
                                acc += a[(i * nb + r, k * nb + kk)] * b[(k * nb + kk, j * nb + s)];
                            }
                            cb[(r, s)] = acc;
                        }
                    }
                    if cfg.ool2 {
                        // Model 2.2 local traffic: Algorithm 1 at the
                        // L2/L3 boundary with fast memory m2. The read
                        // side stays a counter-only charge (the streaming
                        // re-reads depend on a tiny m2-word L2 the rank
                        // simulator does not model; NVM loads are not part
                        // of the agreement contract). The write side — one
                        // C-block writeback per step — is replayed so the
                        // simulated NVM stores stay exact.
                        let bsz = (((cfg.m2 / 3) as f64).sqrt().floor() as u64).max(1);
                        let (mm, kk, ll) = (nb as u64, nb as u64, nb as u64);
                        m.l3_read(id(l, i, j), mm * ll + 2 * mm * kk * ll / bsz);
                        m.l3_write_at(id(l, i, j), part_buf, mm * ll);
                    }
                    m.node_mut(me).flops += 2 * (nb * nb * nb) as u64;
                    if m.has_sims() {
                        let mut mem = m.rank_mem(me);
                        replay_gemm(&mut mem, a_blk, b_blk, part_buf, nb, nb, nb);
                    }
                }
            }
        }
    }

    // ----- Step 4: reduce partial C's across layers onto layer 0.
    let mut c_out = Mat::zeros(n, n);
    for i in 0..q {
        for j in 0..q {
            if c > 1 {
                let parties: Vec<usize> = (0..c).map(|l| id(l, i, j)).collect();
                charge_reduce(m, id(0, i, j), &parties, (nb * nb) as u64, cfg.at, part_buf);
            }
            // The layer-0 root owns the final C block and must write it to
            // NVM (W1 ≥ n²/P) — unless the algorithm's last writing action
            // already put it there: an L3-staged reduce lands the combined
            // block in NVM, and ooL2 without replication writes C back to
            // NVM on every Cannon step.
            let already_in_nvm = (c > 1 && cfg.at == Staging::L3) || (c == 1 && cfg.ool2);
            if !already_in_nvm {
                m.assemble_output(id(0, i, j), part_buf, (nb * nb) as u64);
            }
            let mut sum = Mat::zeros(nb, nb);
            for l in 0..c {
                let p = &partial[id(l, i, j)];
                for r in 0..nb {
                    for s in 0..nb {
                        sum[(r, s)] += p[(r, s)];
                    }
                }
            }
            for r in 0..nb {
                for s in 0..nb {
                    c_out[(i * nb + r, j * nb + s)] = sum[(r, s)];
                }
            }
        }
    }
    c_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::CostParams;

    fn run(n: usize, p: usize, c: usize, at: Staging, ool2: bool) -> (Mat, Machine, Mat, Mat) {
        let a = Mat::random(n, n, 91);
        let b = Mat::random(n, n, 92);
        let mut m = Machine::new(p, CostParams::nvm_cluster());
        let got = mm25d(
            &mut m,
            &a,
            &b,
            Mm25Config {
                p,
                c,
                at,
                ool2,
                m2: 48,
            },
        );
        (got, m, a, b)
    }

    #[test]
    fn correct_for_2d_and_25d_grids() {
        for (p, c) in [(4usize, 1usize), (16, 1), (8, 2), (27, 3), (32, 2)] {
            let q = ((p / c) as f64).sqrt().round() as usize;
            if q * q * c != p {
                continue;
            }
            let n = q * 4;
            let (got, _, a, b) = run(n, p, c, Staging::L2, false);
            assert!(got.max_abs_diff(&a.matmul_ref(&b)) < 1e-10, "p={p} c={c}");
        }
    }

    #[test]
    fn replication_reduces_network_words() {
        // The 2.5D win needs √P ≫ c(1+log c)√c (the paper's own Table 1
        // second terms); at P = 4096, c = 4 the Cannon-phase words drop by
        // ~√c and dominate the replication overhead.
        let n = 64;
        let (_, m1, _, _) = run(n, 4096, 1, Staging::L2, false);
        let (_, m4, _, _) = run(n, 4096, 4, Staging::L2, false);
        let w1 = m1.max_counters().net_recv_words;
        let w4 = m4.max_counters().net_recv_words;
        assert!(
            (w4 as f64) < 0.8 * w1 as f64,
            "c=4 words {w4} not below c=1 words {w1}"
        );
    }

    #[test]
    fn l3_staging_pays_nvm_traffic() {
        let n = 24;
        let (_, m_l2, _, _) = run(n, 8, 2, Staging::L2, false);
        let (_, m_l3, _, _) = run(n, 8, 2, Staging::L3, false);
        // L2 staging pays NVM only for the assembled output block
        // (q = 2, nb = 12 → 144 words on each layer-0 root).
        assert_eq!(m_l2.max_counters().l3_write_words, 144);
        assert!(m_l3.max_counters().l3_write_words > 144);
        // Network volume identical: staging is orthogonal.
        assert_eq!(
            m_l2.max_counters().net_recv_words,
            m_l3.max_counters().net_recv_words
        );
    }

    #[test]
    fn ool2_charges_local_nvm_traffic_theorem4_shape() {
        let n = 32;
        let (_, m, _, _) = run(n, 16, 1, Staging::L3, true);
        let mc = m.max_counters();
        // L3 reads scale like n³/(P √M2), far above the output size.
        let out = (n * n / 16) as u64;
        assert!(
            mc.l3_write_words > out,
            "ooL2 2.5D writes {} should exceed W1 {out} (Theorem 4)",
            mc.l3_write_words
        );
        assert!(mc.l3_read_words > mc.l3_write_words);
    }

    #[test]
    fn critical_time_prefers_nvm_replication_when_network_is_slow() {
        // Model 2.1 decision: with a very slow network and fast NVM, the
        // L3-staged run with bigger c should win.
        let n = 64;
        let (_, m2, _, _) = run(n, 4096, 1, Staging::L2, false);
        let (_, m4, _, _) = run(n, 4096, 4, Staging::L3, false);
        let mut slow_net = CostParams::nvm_cluster();
        slow_net.beta_nw *= 100.0;
        let t2 = m2.max_counters().time(&slow_net);
        let t4 = m4.max_counters().time(&slow_net);
        assert!(
            t4 < t2,
            "with expensive network, replication via NVM should win: {t4} vs {t2}"
        );
    }
}
