//! CA-CG (paper Algorithm 7) with blockwise and *streaming* matrix powers.
//!
//! One outer iteration advances the solve by `s` conventional CG steps:
//!
//! 1. build the 2s+1 Krylov basis vectors `[P, R]` blockwise (matrix
//!    powers kernel with ghost zones);
//! 2. accumulate the Gram matrix `G = [P,R]ᵀ[P,R]` block by block;
//! 3. run `s` CG steps entirely in 2s+1-dimensional coefficient space
//!    (no slow-memory traffic);
//! 4. recover `[p, r, x] = [P,R]·[p̂, r̂, x̂] + [0, 0, x]`.
//!
//! The **storing** form writes the basis to slow memory in step 1 and
//! re-reads it in step 4: `Θ(s·n)` writes per outer iteration — the same
//! order as `s` steps of CG. The **streaming** form (§8, "streaming matrix
//! powers") discards each basis block after accumulating it into `G`, and
//! *recomputes* it in step 4: only the `3n` output words are written per
//! outer iteration, a `Θ(s)` write reduction for ≤ 2× more reads and
//! flops. Both forms perform identical arithmetic (the tests check
//! bit-identical iterates).

use crate::basis::{h_apply, BasisKind};
use crate::cg::SolveResult;
use crate::counter::SimIo;
use crate::csr::Csr;
use memsim::Sink;
use memsim::LINE_WORDS;

/// Options for one CA-CG run.
#[derive(Clone, Debug)]
pub struct CaCgOptions {
    /// Steps per outer iteration.
    pub s: usize,
    pub basis: BasisKind,
    /// Streaming matrix powers: do not store the basis; recompute it for
    /// the recovery step.
    pub streaming: bool,
    /// Row-block size of the blockwise matrix powers kernel.
    pub block_rows: usize,
    pub tol: f64,
    /// Maximum *outer* iterations (each worth `s` CG steps).
    pub max_outer: usize,
}

impl Default for CaCgOptions {
    fn default() -> Self {
        CaCgOptions {
            s: 4,
            basis: BasisKind::Monomial,
            streaming: true,
            block_rows: 64,
            tol: 1e-10,
            max_outer: 1000,
        }
    }
}

/// Dependency ranges for one row block: `rg[j]` is the row range on which
/// the degree-`j` basis vector must be known so that rows `[r0, r1)` of
/// the degree-`maxdeg` vector are computable.
fn ghost_ranges(a: &Csr, r0: usize, r1: usize, maxdeg: usize) -> Vec<(usize, usize)> {
    let mut rg = vec![(r0, r1); maxdeg + 1];
    for j in (0..maxdeg).rev() {
        let (lo, hi) = rg[j + 1];
        rg[j] = a.reach_range(lo, hi);
    }
    rg
}

/// Compute rows `[r0, r1)` of all basis columns for seed `v` (degree 0) up
/// to degree `maxdeg`, using ghost zones. Returns, for each degree `j`,
/// the window of values on `rg[j]` (row `i` at `levels[j][i − rg[j].0]`),
/// plus the ranges. Each level is computed from the previous level's
/// window alone, in the same per-row order as a full [`Csr::spmv`], so the
/// values equal `j` full products restricted to `rg[j]`. Charges reads for
/// the seed (resident at nominal address `vseed`) and the matrix rows
/// touched (values at `va`).
#[allow(clippy::too_many_arguments)] // matrix + seed + range + two addresses; the recursion-free body keeps them flat
fn block_powers<S: Sink>(
    a: &Csr,
    v: &[f64],
    vseed: usize,
    va: usize,
    r0: usize,
    r1: usize,
    maxdeg: usize,
    shifts: &BasisKind,
    io: &mut SimIo<S>,
) -> (Vec<Vec<f64>>, Vec<(usize, usize)>) {
    let rg = ghost_ranges(a, r0, r1, maxdeg);
    let mut levels: Vec<Vec<f64>> = Vec::with_capacity(maxdeg + 1);
    // Degree 0: read the seed on the widest range.
    let (lo0, hi0) = rg[0];
    io.read_at(vseed + lo0, hi0 - lo0);
    levels.push(v[lo0..hi0].to_vec());
    for j in 0..maxdeg {
        let (clo, _) = rg[j];
        let (lo, hi) = rg[j + 1];
        let cur = &levels[j];
        let mut next = vec![0.0; hi - lo];
        a.spmv_window(cur, clo, &mut next, lo);
        // Matrix rows [lo, hi) are read once per level.
        let nnz_rows: usize = a.row_ptr[hi] - a.row_ptr[lo];
        io.read_at(va + a.row_ptr[lo], nnz_rows);
        io.flop(2 * nnz_rows);
        let theta = shifts.shift(j);
        if theta != 0.0 {
            for (y, &c) in next.iter_mut().zip(&cur[lo - clo..hi - clo]) {
                *y -= theta * c;
            }
            io.flop(2 * (hi - lo));
        }
        levels.push(next);
    }
    (levels, rg)
}

/// CA-CG solve of SPD `A·x = b`. See [`CaCgOptions`]; returns iterates
/// equivalent (in exact arithmetic) to `s·outer` steps of [`crate::cg::cg`].
pub fn ca_cg<S: Sink>(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    opts: &CaCgOptions,
    io: &mut SimIo<S>,
) -> SolveResult {
    let n = a.rows;
    let s = opts.s;
    assert!(s >= 1);
    let m = 2 * s + 1;
    let h = opts.basis.h_matrix(s);
    let bs = opts.block_rows.max(1);

    // Nominal slow-memory layout: line-aligned spans for x, r, p, b, the
    // matrix values, and (storing variant) the n×m basis V. The tally
    // ignores the addresses; the simulated sink caches them.
    let n8 = n.div_ceil(LINE_WORDS) * LINE_WORDS;
    let (vx, vr, vp, vb, va) = (0, n8, 2 * n8, 3 * n8, 4 * n8);
    let vv = va + a.nnz().div_ceil(LINE_WORDS) * LINE_WORDS;

    let mut x = x0.to_vec();
    // r = b − A·x0; p = r.
    let mut r = vec![0.0; n];
    a.spmv(&x, &mut r);
    // One message per stream: the matrix, then each n-vector.
    io.read_at(va, a.nnz());
    io.read_at(vx, n);
    io.write_at(vr, n);
    io.flop(2 * a.nnz());
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    io.read_at(vb, n);
    io.read_at(vr, n);
    io.write_at(vr, n);
    let mut p = r.clone();
    io.read_at(vr, n);
    io.write_at(vp, n);

    let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    let mut delta = r.iter().map(|v| v * v).sum::<f64>();
    io.read_at(vr, n);
    io.flop(2 * n);
    let mut history = vec![delta.sqrt() / bnorm];
    let mut outer = 0;

    while outer < opts.max_outer && delta.sqrt() / bnorm > opts.tol {
        // ---- Steps 1 + 2: basis and Gram matrix, blockwise. The storing
        // variant also materializes V (n×m) in slow memory.
        let mut g = vec![vec![0.0; m]; m];
        let mut v_store: Option<Vec<Vec<f64>>> = if opts.streaming {
            None
        } else {
            Some(vec![vec![0.0; n]; m])
        };
        let mut r0 = 0;
        while r0 < n {
            let r1 = (r0 + bs).min(n);
            let (pl, prg) = block_powers(a, &p, vp, va, r0, r1, s, &opts.basis, io);
            let (rl, rrg) = block_powers(a, &r, vr, va, r0, r1, s - 1, &opts.basis, io);
            // Column view of this block: degrees 0..s from p, 0..s-1 from r.
            let col = |j: usize, i: usize| -> f64 {
                if j <= s {
                    pl[j][i - prg[j].0]
                } else {
                    rl[j - s - 1][i - rrg[j - s - 1].0]
                }
            };
            // G += V(I,:)ᵀ V(I,:). Indexing (not iterators): the symmetric
            // write g[j2][j1] needs the second row by index anyway.
            #[allow(clippy::needless_range_loop)]
            for j1 in 0..m {
                for j2 in j1..m {
                    let mut acc = 0.0;
                    for i in r0..r1 {
                        acc += col(j1, i) * col(j2, i);
                    }
                    g[j1][j2] += acc;
                    if j1 != j2 {
                        g[j2][j1] = g[j1][j2];
                    }
                }
            }
            io.flop(2 * m * m * (r1 - r0) / 2);
            if let Some(vs) = v_store.as_mut() {
                for (j, vj) in vs.iter_mut().enumerate() {
                    for (i, v) in vj[r0..r1].iter_mut().enumerate() {
                        *v = col(j, r0 + i);
                    }
                    // One write run per basis column block: the storing
                    // variant's Θ(s·n) slow-memory writes.
                    io.write_at(vv + j * n8 + r0, r1 - r0);
                }
            }
            r0 = r1;
        }

        // ---- Step 3: s steps in coefficient space (fast memory only).
        let mut xh = vec![0.0; m];
        let mut ph = vec![0.0; m];
        ph[0] = 1.0;
        let mut rh = vec![0.0; m];
        rh[s + 1] = 1.0;
        let gdot = |u: &[f64], w: &[f64]| -> f64 {
            let mut acc = 0.0;
            for i in 0..m {
                if u[i] == 0.0 {
                    continue;
                }
                for j in 0..m {
                    acc += u[i] * g[i][j] * w[j];
                }
            }
            acc
        };
        let mut dp = delta;
        let mut breakdown = false;
        for _ in 0..s {
            let wh = h_apply(&h, &ph);
            let denom = gdot(&ph, &wh);
            if !denom.is_finite() || denom.abs() < 1e-300 {
                breakdown = true;
                break;
            }
            let alpha = dp / denom;
            for i in 0..m {
                xh[i] += alpha * ph[i];
                rh[i] -= alpha * wh[i];
            }
            let dc = gdot(&rh, &rh).max(0.0);
            let beta = dc / dp;
            for i in 0..m {
                ph[i] = rh[i] + beta * ph[i];
            }
            dp = dc;
        }

        // ---- Step 4: recover [p, r, x], blockwise (streaming recomputes
        // the basis; storing re-reads it). The streaming recomputation
        // must see the *old* p and r even in ghost zones already
        // overwritten by earlier blocks, so it reads from snapshots (in
        // the real machine these are simply the old locations, with the
        // new vectors written to fresh addresses — no extra traffic).
        let (p_old, r_old) = if opts.streaming {
            (p.clone(), r.clone())
        } else {
            (Vec::new(), Vec::new())
        };
        let mut r0b = 0;
        while r0b < n {
            let r1b = (r0b + bs).min(n);
            if let Some(vs) = v_store.as_ref() {
                for j in 0..m {
                    io.read_at(vv + j * n8 + r0b, r1b - r0b);
                }
                for i in r0b..r1b {
                    let (mut np, mut nr, mut nx) = (0.0, 0.0, 0.0);
                    for j in 0..m {
                        let vij = vs[j][i];
                        np += vij * ph[j];
                        nr += vij * rh[j];
                        nx += vij * xh[j];
                    }
                    p[i] = np;
                    r[i] = nr;
                    x[i] += nx;
                }
            } else {
                // Streaming recomputation reads the *old* p and r at
                // their original addresses (the new vectors land at the
                // same spans only after this block's writes).
                let (pl, prg) = block_powers(a, &p_old, vp, va, r0b, r1b, s, &opts.basis, io);
                let (rl, rrg) = block_powers(a, &r_old, vr, va, r0b, r1b, s - 1, &opts.basis, io);
                let col = |j: usize, i: usize| -> f64 {
                    if j <= s {
                        pl[j][i - prg[j].0]
                    } else {
                        rl[j - s - 1][i - rrg[j - s - 1].0]
                    }
                };
                for i in r0b..r1b {
                    let (mut np, mut nr, mut nx) = (0.0, 0.0, 0.0);
                    for j in 0..m {
                        let vij = col(j, i);
                        np += vij * ph[j];
                        nr += vij * rh[j];
                        nx += vij * xh[j];
                    }
                    p[i] = np;
                    r[i] = nr;
                    x[i] += nx;
                }
            }
            io.flop(6 * m * (r1b - r0b));
            // p, r, x — the only writes of the streaming variant.
            io.write_at(vp + r0b, r1b - r0b);
            io.write_at(vr + r0b, r1b - r0b);
            io.write_at(vx + r0b, r1b - r0b);
            r0b = r1b;
        }

        delta = dp.max(0.0);
        outer += 1;
        history.push(delta.sqrt() / bnorm);
        if breakdown {
            break;
        }
    }

    let mut ax = vec![0.0; n];
    a.spmv(&x, &mut ax);
    let res = b
        .iter()
        .zip(&ax)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    SolveResult {
        x,
        iters: outer * s,
        residual: res,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::stencil::{band_1d, laplacian_2d};
    use wa_core::Traffic;
    use wa_core::XorShift;

    /// Each windowed level equals, bit for bit, `j` full products with
    /// the basis shifts (`w ← A·w − θ_j·w`) on its ghost range `rg[j]`,
    /// which contains the block. Blocks at both ends of the matrix, in the
    /// middle and spanning it whole, on a 2-D Laplacian (wide reach) and a
    /// band matrix, in the monomial and Newton bases.
    #[test]
    fn windowed_block_powers_equal_full_spmvs() {
        let mats = [laplacian_2d(7, 6, 0.3), band_1d(50, 2, 0.5)];
        let bases = [BasisKind::Monomial, BasisKind::Newton(vec![4.0, 4.5, 4.25])];
        for a in &mats {
            let n = a.rows;
            let v: Vec<f64> = (0..n).map(|i| ((i * 5 + 3) as f64).sin()).collect();
            for basis in &bases {
                for (r0, r1) in [(0, 5), (n - 7, n), (n / 3, n / 3 + 9), (0, n)] {
                    let maxdeg = 4;
                    let mut io = SimIo::new(Traffic::ZERO);
                    let (levels, rg) = block_powers(a, &v, 0, 0, r0, r1, maxdeg, basis, &mut io);
                    assert_eq!(rg[maxdeg], (r0, r1));
                    let mut full = v.clone();
                    for (j, level) in levels.iter().enumerate() {
                        let (lo, hi) = rg[j];
                        assert!(lo <= r0 && r1 <= hi, "rg[{j}] = {:?}", rg[j]);
                        assert_eq!(level.len(), hi - lo);
                        for (i, (&got, &want)) in level.iter().zip(&full[lo..hi]).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{basis:?} [{r0}, {r1}) level {j} row {}",
                                lo + i
                            );
                        }
                        let mut next = vec![0.0; n];
                        a.spmv(&full, &mut next);
                        let theta = basis.shift(j);
                        if theta != 0.0 {
                            for (y, &w) in next.iter_mut().zip(&full) {
                                *y -= theta * w;
                            }
                        }
                        full = next;
                    }
                }
            }
        }
    }

    /// BUG GUARD: streaming recovery must use the *old* p/r for
    /// recomputation within a block even while overwriting them — hence
    /// the deferred-update dance; this test would catch in-place damage.
    #[test]
    fn streaming_and_storing_agree_bitwise() {
        let a = laplacian_2d(10, 10, 0.2);
        let n = a.rows;
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64).sin()).collect();
        for s in [2usize, 4] {
            let mut o1 = CaCgOptions {
                s,
                streaming: true,
                max_outer: 12,
                block_rows: 17,
                ..Default::default()
            };
            let mut io1 = SimIo::new(Traffic::ZERO);
            let r1 = ca_cg(&a, &b, &vec![0.0; n], &o1, &mut io1);
            o1.streaming = false;
            let mut io2 = SimIo::new(Traffic::ZERO);
            let r2 = ca_cg(&a, &b, &vec![0.0; n], &o1, &mut io2);
            for (u, v) in r1.x.iter().zip(&r2.x) {
                assert_eq!(u, v, "s={s}: streaming must be a pure reordering");
            }
        }
    }

    #[test]
    fn cacg_matches_cg_iterates() {
        // In exact arithmetic CA-CG reproduces CG; with a well-conditioned
        // operator and small s the solutions agree tightly.
        let a = laplacian_2d(8, 8, 0.5);
        let n = a.rows;
        let mut rng = XorShift::new(6);
        let xt: Vec<f64> = (0..n).map(|_| rng.next_unit() - 0.5).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xt, &mut b);
        let mut io = SimIo::new(Traffic::ZERO);
        let rcg = cg(&a, &b, &vec![0.0; n], 1e-12, 400, &mut io);
        let mut io2 = SimIo::new(Traffic::ZERO);
        let rca = ca_cg(
            &a,
            &b,
            &vec![0.0; n],
            &CaCgOptions {
                s: 4,
                tol: 1e-12,
                max_outer: 100,
                ..Default::default()
            },
            &mut io2,
        );
        assert!(rca.residual < 1e-8, "CA-CG residual {}", rca.residual);
        for (u, v) in rca.x.iter().zip(&rcg.x) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn newton_basis_agrees_with_monomial() {
        let a = band_1d(80, 2, 0.5);
        let b = vec![1.0; 80];
        let run = |basis: BasisKind| {
            let mut io = SimIo::new(Traffic::ZERO);
            ca_cg(
                &a,
                &b,
                &vec![0.0; 80],
                &CaCgOptions {
                    s: 3,
                    basis,
                    tol: 1e-11,
                    ..Default::default()
                },
                &mut io,
            )
        };
        let rm = run(BasisKind::Monomial);
        // Shifts near the spectrum's center.
        let rn = run(BasisKind::Newton(vec![4.0, 4.5, 4.25]));
        assert!(rm.residual < 1e-8);
        assert!(rn.residual < 1e-8);
        for (u, v) in rm.x.iter().zip(&rn.x) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    /// The paper's Section 8 headline: streaming reduces writes by Θ(s)
    /// while reads/flops grow by at most ~2×.
    #[test]
    fn streaming_write_reduction_theta_s() {
        let a = laplacian_2d(24, 24, 0.2);
        let n = a.rows;
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let s = 6;
        // Force a fixed amount of work: tiny tol, capped outers.
        let outers = 10;
        let base = CaCgOptions {
            s,
            tol: 1e-30,
            max_outer: outers,
            block_rows: 48,
            ..Default::default()
        };
        let mut io_stream = SimIo::new(Traffic::ZERO);
        let _ = ca_cg(&a, &b, &vec![0.0; n], &base, &mut io_stream);
        let mut store = base.clone();
        store.streaming = false;
        let mut io_store = SimIo::new(Traffic::ZERO);
        let _ = ca_cg(&a, &b, &vec![0.0; n], &store, &mut io_store);
        let mut io_cg = SimIo::new(Traffic::ZERO);
        let _ = cg(&a, &b, &vec![0.0; n], 1e-30, outers * s, &mut io_cg);

        // Writes: CG ≈ 4n/step; storing CA-CG ≈ (2s+4)n/s per step;
        // streaming ≈ 3n/s per step.
        let w_cg = io_cg.sim.store_words as f64;
        let w_store = io_store.sim.store_words as f64;
        let w_stream = io_stream.sim.store_words as f64;
        assert!(
            w_stream < w_cg / (s as f64 / 2.0),
            "streaming {w_stream} should be ≪ CG {w_cg} (s = {s})"
        );
        assert!(
            w_stream < w_store / (s as f64 / 2.0),
            "streaming {w_stream} should be ≪ storing {w_store}"
        );
        // Reads/flops at most ~2× the storing variant, as the paper says.
        assert!(
            io_stream.sim.load_words < 2 * io_store.sim.load_words + 1000,
            "reads {} vs {}",
            io_stream.sim.load_words,
            io_store.sim.load_words
        );
        assert!(io_stream.flops < 2 * io_store.flops + 1000);
    }
}
