//! Cannon's algorithm on a √P×√P torus.
//!
//! Included as the second classical CA baseline (the paper's 2.5D analysis
//! models its layers on Cannon steps). Blocks are physically shifted
//! between simulated processors each step, so the data movement charged is
//! the data movement performed.

use crate::machine::{replay_gemm, Machine, Staging};
use memsim::Sink;
use wa_core::Mat;

/// C = A·B by Cannon's algorithm on a `q×q` torus. Per-processor network
/// volume: `2·q·(n/q)²` words = `2n²/√P`.
pub fn cannon<S: Sink>(m: &mut Machine<S>, a: &Mat, b: &Mat, q: usize, at: Staging) -> Mat {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!((b.rows(), b.cols()), (n, n));
    assert_eq!(m.p(), q * q);
    assert!(n.is_multiple_of(q));
    let nb = n / q;
    let id = |i: usize, j: usize| i * q + j;
    let block = |src: &Mat, bi: usize, bj: usize| {
        Mat::from_fn(nb, nb, |r, s| src[(bi * nb + r, bj * nb + s)])
    };

    // Symmetric rank-local layout: resident A/B blocks plus the C
    // accumulator.
    let bw = nb * nb;
    let la_buf = m.alloc(bw);
    let lb_buf = m.alloc(bw);
    let lc_buf = m.alloc(bw);

    // Initial skew: processor (i,j) holds A(i, i+j) and B(i+j, j).
    let mut la: Vec<Mat> = Vec::with_capacity(q * q);
    let mut lb: Vec<Mat> = Vec::with_capacity(q * q);
    for i in 0..q {
        for j in 0..q {
            la.push(block(a, i, (i + j) % q));
            lb.push(block(b, (i + j) % q, j));
        }
    }
    // Charge the skew: each processor sends its block i places left / up.
    for i in 0..q {
        for j in 0..q {
            if i > 0 {
                let dst = id(i, (j + q - i) % q);
                m.transfer(id(i, j), dst, bw as u64, at, at, la_buf, la_buf);
            }
            if j > 0 {
                let dst = id((i + q - j) % q, j);
                m.transfer(id(i, j), dst, bw as u64, at, at, lb_buf, lb_buf);
            }
        }
    }

    let mut lc: Vec<Mat> = (0..q * q).map(|_| Mat::zeros(nb, nb)).collect();
    for step in 0..q {
        // Multiply-accumulate everywhere.
        for i in 0..q {
            for j in 0..q {
                let p = id(i, j);
                let (ab, bb) = (&la[p], &lb[p]);
                let cb = &mut lc[p];
                for r in 0..nb {
                    for s in 0..nb {
                        let mut acc = cb[(r, s)];
                        for k in 0..nb {
                            acc += ab[(r, k)] * bb[(k, s)];
                        }
                        cb[(r, s)] = acc;
                    }
                }
                m.node_mut(p).flops += 2 * (nb * nb * nb) as u64;
                if m.has_sims() {
                    let mut mem = m.rank_mem(p);
                    replay_gemm(&mut mem, la_buf, lb_buf, lc_buf, nb, nb, nb);
                }
            }
        }
        if step + 1 == q {
            break;
        }
        // Shift A left by one, B up by one.
        let mut na = la.clone();
        let mut nb_ = lb.clone();
        for i in 0..q {
            for j in 0..q {
                na[id(i, j)] = la[id(i, (j + 1) % q)].clone();
                nb_[id(i, j)] = lb[id((i + 1) % q, j)].clone();
                m.transfer(
                    id(i, (j + 1) % q),
                    id(i, j),
                    bw as u64,
                    at,
                    at,
                    la_buf,
                    la_buf,
                );
                m.transfer(
                    id((i + 1) % q, j),
                    id(i, j),
                    bw as u64,
                    at,
                    at,
                    lb_buf,
                    lb_buf,
                );
            }
        }
        la = na;
        lb = nb_;
    }

    // Assemble: each rank writes its finished C block to node-local NVM
    // (nb² = n²/P words each, the trivial W1 lower bound).
    let mut c = Mat::zeros(n, n);
    for i in 0..q {
        for j in 0..q {
            m.assemble_output(id(i, j), lc_buf, (nb * nb) as u64);
            let blk = &lc[id(i, j)];
            for r in 0..nb {
                for s in 0..nb {
                    c[(i * nb + r, j * nb + s)] = blk[(r, s)];
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::CostParams;

    #[test]
    fn cannon_computes_the_product() {
        for q in [2usize, 3, 4] {
            let n = q * 6;
            let a = Mat::random(n, n, 1);
            let b = Mat::random(n, n, 2);
            let mut m = Machine::new(q * q, CostParams::nvm_cluster());
            let c = cannon(&mut m, &a, &b, q, Staging::L2);
            assert!(c.max_abs_diff(&a.matmul_ref(&b)) < 1e-10, "q={q}");
        }
    }

    #[test]
    fn cannon_volume_matches_2n2_over_sqrt_p() {
        let q = 4;
        let n = 32;
        let a = Mat::random(n, n, 3);
        let b = Mat::random(n, n, 4);
        let mut m = Machine::new(q * q, CostParams::nvm_cluster());
        let _ = cannon(&mut m, &a, &b, q, Staging::L2);
        let nb = n / q;
        let shifts = 2 * (q - 1) as u64 * (nb * nb) as u64; // steady-state shifts
        let recv = m.max_counters().net_recv_words;
        // Skew adds at most 2 more block transfers.
        assert!(recv >= shifts && recv <= shifts + 2 * (nb * nb) as u64);
    }

    #[test]
    fn l3_staging_charges_nvm_both_ends() {
        let q = 2;
        let n = 8;
        let a = Mat::random(n, n, 5);
        let b = Mat::random(n, n, 6);
        let mut m = Machine::new(q * q, CostParams::nvm_cluster());
        let _ = cannon(&mut m, &a, &b, q, Staging::L3);
        let mc = m.max_counters();
        assert!(mc.l3_read_words > 0);
        assert!(mc.l3_write_words > 0);
        // Every received word lands in NVM, plus the rank's own finished
        // C block (nb² words) is written once at assembly.
        let nbw = ((n / q) * (n / q)) as u64;
        assert_eq!(mc.l3_write_words, mc.net_recv_words + nbw);
    }

    #[test]
    fn l2_staging_still_charges_assembled_output() {
        let q = 2;
        let n = 8;
        let a = Mat::random(n, n, 7);
        let b = Mat::random(n, n, 8);
        let mut m = Machine::new(q * q, CostParams::nvm_cluster());
        let _ = cannon(&mut m, &a, &b, q, Staging::L2);
        let nbw = ((n / q) * (n / q)) as u64;
        assert_eq!(m.max_counters().l3_write_words, nbw);
    }
}
