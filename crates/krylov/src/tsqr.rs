//! Tall-skinny QR (TSQR) with a streaming, write-avoiding mode.
//!
//! The last paragraph of §8: for Arnoldi-based s-step KSMs, the Gram
//! matrix computation is replaced by a tall-skinny QR factorization,
//! "which can be interleaved with the matrix powers computation in a
//! similar manner". This module provides that building block:
//!
//! * [`tsqr_r`] — the R factor of an `n×s` matrix via block-row local
//!   Householder QRs and a sequential R-combining reduction. In
//!   **streaming** mode each row block is consumed and discarded
//!   (provided by a closure — e.g. the matrix powers kernel regenerating
//!   basis rows), so slow-memory writes are O(s²) instead of O(n·s);
//! * [`householder_qr_r`] — the dense local kernel (also usable
//!   standalone).
//!
//! Verified against the Cholesky identity `RᵀR = AᵀA` and Q-lessness is
//! compensated by the reproducibility of the generator (exactly like
//! streaming matrix powers recomputes the basis).

use crate::counter::SimIo;
use memsim::Sink;
use memsim::LINE_WORDS;

/// In-place Householder QR of an `r×c` row-major block (`r ≥ c` not
/// required); returns the `c×c` upper-triangular R (row-major).
pub fn householder_qr_r(a: &mut [f64], r: usize, c: usize) -> Vec<f64> {
    assert_eq!(a.len(), r * c);
    for k in 0..c.min(r.saturating_sub(1)) {
        // Build the Householder reflector for column k below row k.
        let mut norm2 = 0.0;
        for i in k..r {
            norm2 += a[i * c + k] * a[i * c + k];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            continue;
        }
        let akk = a[k * c + k];
        let alpha = if akk >= 0.0 { -norm } else { norm };
        // v = x - alpha e1 (stored over the column), normalized so v[k]=1.
        let vkk = akk - alpha;
        if vkk == 0.0 {
            continue;
        }
        for i in k + 1..r {
            a[i * c + k] /= vkk;
        }
        let beta = -vkk / alpha; // 2/vᵀv with this scaling
        a[k * c + k] = alpha;
        // Apply I - beta v vᵀ to the trailing columns.
        for j in k + 1..c {
            let mut dot = a[k * c + j];
            for i in k + 1..r {
                dot += a[i * c + k] * a[i * c + j];
            }
            let s = beta * dot;
            a[k * c + j] -= s;
            for i in k + 1..r {
                a[i * c + j] -= s * a[i * c + k];
            }
        }
        // Zero the column below the diagonal (we only keep R).
        // (The reflector vector is discarded; Q is not materialized.)
    }
    let mut rmat = vec![0.0; c * c];
    for i in 0..c.min(r) {
        for j in i..c {
            rmat[i * c + j] = a[i * c + j];
        }
    }
    rmat
}

/// TSQR over `nblocks` row blocks of `rows_per_block × s`, produced on
/// demand by `gen(block_index) -> Vec<f64>` (row-major). Sequential
/// R-combining: R ← qr([R_prev; R_block]). In streaming mode (`store =
/// false`) blocks are discarded after use and only O(s²) state persists;
/// with `store = true` the blocks are also written back to slow memory
/// (the non-WA baseline, counted in `io`). Profiling sinks see the
/// phases `block-qr` (each block's read, store and local QR) and
/// `r-write`.
pub fn tsqr_r<S: Sink>(
    nblocks: usize,
    rows_per_block: usize,
    s: usize,
    mut gen: impl FnMut(usize) -> Vec<f64>,
    store: bool,
    io: &mut SimIo<S>,
) -> Vec<f64> {
    assert!(nblocks >= 1 && s >= 1);
    // Nominal layout: row block b owns the span starting at b·rpb·s; the
    // O(s²) R factor lives after the last block (line-aligned).
    let bwords = rows_per_block * s;
    let v_r = (nblocks * bwords).div_ceil(LINE_WORDS) * LINE_WORDS;
    let mut r_acc: Option<Vec<f64>> = None;
    io.phase("block-qr");
    for b in 0..nblocks {
        let block = gen(b);
        assert_eq!(block.len(), bwords);
        io.read_at(b * bwords, bwords); // the generator's rows stream in
        if store {
            io.write_at(b * bwords, bwords); // non-streaming: basis stored
        }
        let r_new = match r_acc.take() {
            None => {
                let mut work = block;
                householder_qr_r(&mut work, rows_per_block, s)
            }
            Some(prev) => {
                // Stack [R_prev; block] and re-factor.
                let rows = s + rows_per_block;
                let mut work = vec![0.0; rows * s];
                work[..s * s].copy_from_slice(&prev);
                work[s * s..].copy_from_slice(&block);
                householder_qr_r(&mut work, rows, s)
            }
        };
        io.flop(2 * rows_per_block * s * s);
        r_acc = Some(r_new);
    }
    let r = r_acc.expect("at least one block");
    io.phase("r-write");
    io.write_at(v_r, s * s); // only the O(s²) R factor leaves fast memory
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::Traffic;
    use wa_core::{Mat, XorShift};

    fn rtr(r: &[f64], s: usize) -> Mat {
        let rm = Mat::from_fn(s, s, |i, j| r[i * s + j]);
        rm.transpose().matmul_ref(&rm)
    }

    fn ata(a: &Mat) -> Mat {
        a.transpose().matmul_ref(a)
    }

    #[test]
    fn local_qr_satisfies_cholesky_identity() {
        let (r, c) = (40, 5);
        let a = Mat::random(r, c, 81);
        let mut work: Vec<f64> = a.as_slice().to_vec();
        let rfac = householder_qr_r(&mut work, r, c);
        let lhs = rtr(&rfac, c);
        let rhs = ata(&a);
        assert!(lhs.max_abs_diff(&rhs) < 1e-10, "{}", lhs.max_abs_diff(&rhs));
        // R upper triangular.
        for i in 0..c {
            for j in 0..i {
                assert_eq!(rfac[i * c + j], 0.0);
            }
        }
    }

    #[test]
    fn tsqr_matches_direct_qr() {
        let (nb, rpb, s) = (8, 16, 4);
        let n = nb * rpb;
        let a = Mat::random(n, s, 82);
        let mut io = SimIo::new(Traffic::ZERO);
        let r = tsqr_r(
            nb,
            rpb,
            s,
            |b| {
                let mut v = Vec::with_capacity(rpb * s);
                for i in 0..rpb {
                    for j in 0..s {
                        v.push(a[(b * rpb + i, j)]);
                    }
                }
                v
            },
            false,
            &mut io,
        );
        let lhs = rtr(&r, s);
        let rhs = ata(&a);
        assert!(lhs.max_abs_diff(&rhs) < 1e-9, "{}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn streaming_tsqr_writes_only_r() {
        let (nb, rpb, s) = (32, 64, 6);
        let a = Mat::random(nb * rpb, s, 83);
        let run = |store: bool| {
            let mut io = SimIo::new(Traffic::ZERO);
            let _ = tsqr_r(
                nb,
                rpb,
                s,
                |b| {
                    let mut v = Vec::with_capacity(rpb * s);
                    for i in 0..rpb {
                        for j in 0..s {
                            v.push(a[(b * rpb + i, j)]);
                        }
                    }
                    v
                },
                store,
                &mut io,
            );
            io
        };
        let streaming = run(false);
        let storing = run(true);
        assert_eq!(
            streaming.sim.store_words,
            (s * s) as u64,
            "only R leaves fast memory"
        );
        assert_eq!(
            storing.sim.store_words,
            (nb * rpb * s + s * s) as u64,
            "storing pays Θ(n·s)"
        );
        assert_eq!(streaming.sim.load_words, storing.sim.load_words);
    }

    #[test]
    fn rank_deficient_and_tiny_inputs() {
        // A column of zeros must not break the reflector construction.
        let (r, c) = (10, 3);
        let mut rng = XorShift::new(84);
        let a = Mat::from_fn(r, c, |_, j| if j == 1 { 0.0 } else { rng.next_unit() });
        let mut work: Vec<f64> = a.as_slice().to_vec();
        let rfac = householder_qr_r(&mut work, r, c);
        assert!(rtr(&rfac, c).max_abs_diff(&ata(&a)) < 1e-10);
        // 1×1.
        let mut one = vec![3.0];
        let rf = householder_qr_r(&mut one, 1, 1);
        assert!((rf[0].abs() - 3.0).abs() < 1e-15);
    }
}
