//! SUMMA (van de Geijn & Watts) on a √P×√P grid, plus the Model 2.2
//! variant `SUMMAL3ooL2` that minimizes writes to NVM.
//!
//! The simulator executes the real arithmetic with the true ownership
//! mapping (each processor computes exactly its C block from the panels it
//! would receive) and charges per-node counters for every panel broadcast;
//! the result is verified against a sequential product.

use crate::collectives::charge_bcast;
use crate::machine::{replay_gemm, Machine, Staging};
use memsim::Sink;
use wa_core::Mat;

/// Multiply a sub-range of A and B into a C accumulator block:
/// `C[ci.., cj..] += A[ci.., ks..ke] · B[ks..ke, cj..]` where C is the
/// processor-local block with global offset `(ci, cj)`.
fn gemm_into(c: &mut Mat, a: &Mat, b: &Mat, (ci, cj): (usize, usize), (ks, ke): (usize, usize)) {
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let mut acc = c[(i, j)];
            for k in ks..ke {
                acc += a[(ci + i, k)] * b[(k, cj + j)];
            }
            c[(i, j)] = acc;
        }
    }
}

/// Classic SUMMA: C = A·B on a `q×q` grid (`machine.p() == q²`), panel
/// width `panel`, operands staged at `at`. Returns the assembled C.
///
/// Per-processor network volume: `2·(n/q)·n` words (the paper's
/// `2n²/√P` with q = √P).
pub fn summa<S: Sink>(
    m: &mut Machine<S>,
    a: &Mat,
    b: &Mat,
    q: usize,
    panel: usize,
    at: Staging,
) -> Mat {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!((b.rows(), b.cols()), (n, n));
    assert_eq!(m.p(), q * q, "machine size must be q²");
    assert!(n.is_multiple_of(q), "n must divide the grid");
    let nb = n / q;
    let id = |i: usize, j: usize| i * q + j;

    // Symmetric rank-local layout: the C block plus the two panel
    // receive buffers every rank holds.
    let c_blk = m.alloc(nb * nb);
    let a_buf = m.alloc(nb * panel.min(n));
    let b_buf = m.alloc(panel.min(n) * nb);

    let mut local_c: Vec<Mat> = (0..q * q).map(|_| Mat::zeros(nb, nb)).collect();

    let mut ks = 0;
    while ks < n {
        let ke = (ks + panel).min(n);
        let w = (ke - ks) as u64;
        {
            let _span = wa_core::obs::span("panel-bcast", "summa");
            // The grid column owning this panel of A broadcasts along rows;
            // the grid row owning the B panel broadcasts along columns.
            let owner_col = ks / nb;
            let owner_row = ks / nb;
            for i in 0..q {
                let parties: Vec<usize> = (0..q).map(|j| id(i, j)).collect();
                charge_bcast(m, id(i, owner_col), &parties, nb as u64 * w, at, a_buf);
            }
            for j in 0..q {
                let parties: Vec<usize> = (0..q).map(|i| id(i, j)).collect();
                charge_bcast(m, id(owner_row, j), &parties, w * nb as u64, at, b_buf);
            }
        }
        // Local multiply-accumulate on every processor.
        let _span = wa_core::obs::span("local-gemm", "summa");
        for i in 0..q {
            for j in 0..q {
                gemm_into(&mut local_c[id(i, j)], a, b, (i * nb, j * nb), (ks, ke));
                m.node_mut(id(i, j)).flops += 2 * (nb * nb) as u64 * w;
                if m.has_sims() {
                    let mut mem = m.rank_mem(id(i, j));
                    replay_gemm(&mut mem, a_buf, b_buf, c_blk, nb, ke - ks, nb);
                }
            }
        }
        ks = ke;
    }

    // Assemble the distributed output. Each rank materializes its C block
    // to node-local NVM — nb² = n²/P words, the trivial W1 lower bound.
    // (This used to be charged as free, which let classic SUMMA report
    // zero NVM writes — below any algorithm's real write cost.)
    let mut c = Mat::zeros(n, n);
    for i in 0..q {
        for j in 0..q {
            m.assemble_output(id(i, j), c_blk, (nb * nb) as u64);
            let blk = &local_c[id(i, j)];
            for r in 0..nb {
                for s in 0..nb {
                    c[(i * nb + r, j * nb + s)] = blk[(r, s)];
                }
            }
        }
    }
    c
}

/// `SUMMAL3ooL2` (paper §7, Model 2.2): data lives in NVM (L3); each
/// processor computes its C block one `b₂×b₂` tile at a time entirely in
/// L2 (`b₂ = √(M2/3)`), writing each tile to NVM exactly once — attaining
/// the `W1 = n²/P` write bound at the price of `Θ(n³/(P√M2))` network
/// words.
pub fn summa_l3_ool2<S: Sink>(m: &mut Machine<S>, a: &Mat, b: &Mat, q: usize, m2: u64) -> Mat {
    let n = a.rows();
    assert_eq!(m.p(), q * q);
    assert!(n.is_multiple_of(q));
    let nb = n / q;
    let b2 = (((m2 / 3) as f64).sqrt().floor() as usize).clamp(1, nb);
    let id = |i: usize, j: usize| i * q + j;

    let mut local_c: Vec<Mat> = (0..q * q).map(|_| Mat::zeros(nb, nb)).collect();

    // Tile loop over each processor's C block (identical tiling on all
    // processors, so one loop drives the whole grid step by step).
    let tiles = nb.div_ceil(b2);
    // Rank-local layout, tile-contiguous: a WA implementation stores C
    // tile-major so each finished b₂×b₂ tile is one whole-line NVM write
    // (row-sliced tiles would straddle lines and overcharge the
    // line-granular simulator relative to the word-granular counters).
    let tile_stride = (b2 * b2).div_ceil(memsim::LINE_WORDS) * memsim::LINE_WORDS;
    let c_tiles = m.alloc(tiles * tiles * tile_stride);
    let a_buf = m.alloc(b2 * b2);
    let b_buf = m.alloc(b2 * b2);
    for ti in 0..tiles {
        for tj in 0..tiles {
            let tile_addr = c_tiles + (ti * tiles + tj) * tile_stride;
            // One SUMMA over the full shared dimension for this tile.
            let mut ks = 0;
            while ks < n {
                let ke = (ks + b2).min(n);
                let w = (ke - ks) as u64;
                let owner = ks / nb; // grid col/row owning the panel
                for i in 0..q {
                    let parties: Vec<usize> = (0..q).map(|j| id(i, j)).collect();
                    // Panel read from the owner's NVM, broadcast, landing
                    // in L2 at the receivers (not written to NVM).
                    let root = id(i, owner);
                    m.l3_read_at(root, a_buf, b2 as u64 * w);
                    charge_bcast(m, root, &parties, b2 as u64 * w, Staging::L2, a_buf);
                }
                for j in 0..q {
                    let parties: Vec<usize> = (0..q).map(|i| id(i, j)).collect();
                    let root = id(owner, j);
                    m.l3_read_at(root, b_buf, w * b2 as u64);
                    charge_bcast(m, root, &parties, w * b2 as u64, Staging::L2, b_buf);
                }
                for gi in 0..q {
                    for gj in 0..q {
                        let (r0, c0) = (ti * b2, tj * b2);
                        let rows = b2.min(nb - r0);
                        let cols = b2.min(nb - c0);
                        let cblk = &mut local_c[id(gi, gj)];
                        for i in 0..rows {
                            for j in 0..cols {
                                let mut acc = cblk[(r0 + i, c0 + j)];
                                for k in ks..ke {
                                    acc += a[(gi * nb + r0 + i, k)] * b[(k, gj * nb + c0 + j)];
                                }
                                cblk[(r0 + i, c0 + j)] = acc;
                            }
                        }
                        m.node_mut(id(gi, gj)).flops += 2 * (rows * cols) as u64 * w;
                        if m.has_sims() {
                            let mut mem = m.rank_mem(id(gi, gj));
                            replay_gemm(&mut mem, a_buf, b_buf, tile_addr, rows, ke - ks, cols);
                        }
                    }
                }
                ks = ke;
            }
            // Tile complete on every processor: one NVM write each.
            for gi in 0..q {
                for gj in 0..q {
                    let rows = b2.min(nb - ti * b2);
                    let cols = b2.min(nb - tj * b2);
                    m.l3_write_at(id(gi, gj), tile_addr, (rows * cols) as u64);
                }
            }
        }
    }

    // No assembly charge here: the per-tile NVM writes above *are* the
    // output materialization (that is the point of ooL2 — it attains the
    // W1 = n²/P bound exactly).
    let mut c = Mat::zeros(n, n);
    for i in 0..q {
        for j in 0..q {
            let blk = &local_c[id(i, j)];
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
    fn summa_computes_the_product() {
        let n = 24;
        let a = Mat::random(n, n, 1);
        let b = Mat::random(n, n, 2);
        let mut m = Machine::new(9, CostParams::nvm_cluster());
        let c = summa(&mut m, &a, &b, 3, 4, Staging::L2);
        assert!(c.max_abs_diff(&a.matmul_ref(&b)) < 1e-10);
    }

    #[test]
    fn summa_network_volume_matches_2n2_over_sqrt_p() {
        let n = 32;
        let q = 4;
        let a = Mat::random(n, n, 3);
        let b = Mat::random(n, n, 4);
        let mut m = Machine::new(q * q, CostParams::nvm_cluster());
        let _ = summa(&mut m, &a, &b, q, 8, Staging::L2);
        let recv = m.max_counters().net_recv_words;
        let expect = 2 * (n * n / q) as u64; // 2 n²/√P
        assert!(
            recv <= expect && recv >= expect / 2,
            "recv {recv} vs expected ≤ {expect}"
        );
    }

    #[test]
    fn summa_ool2_computes_the_product() {
        let n = 24;
        let a = Mat::random(n, n, 5);
        let b = Mat::random(n, n, 6);
        let mut m = Machine::new(9, CostParams::nvm_cluster());
        let c = summa_l3_ool2(&mut m, &a, &b, 3, 48);
        assert!(c.max_abs_diff(&a.matmul_ref(&b)) < 1e-10);
    }

    #[test]
    fn summa_ool2_attains_w1_nvm_writes() {
        let n = 32;
        let q = 4;
        let a = Mat::random(n, n, 7);
        let b = Mat::random(n, n, 8);
        let mut m = Machine::new(q * q, CostParams::nvm_cluster());
        let _ = summa_l3_ool2(&mut m, &a, &b, q, 48);
        let mc = m.max_counters();
        // Writes to NVM = exactly the local C block = n²/P.
        assert_eq!(mc.l3_write_words, (n * n / (q * q)) as u64);
        // Network words are Θ(n³/(P √M2)) — far above 2n²/√P here.
        assert!(mc.net_recv_words > 2 * (n * n / q) as u64);
    }
}
