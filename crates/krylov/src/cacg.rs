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
//!
//! The ghost zones depend only on the matrix, the row block and `s`, so a
//! solve plans them once: each row block's `ghost_ranges` to degree `s`
//! serve the `p` basis, and their suffix `rg[1..]` (the degree-`s−1`
//! ranges) the `r` basis. The `s+1` and `s` level buffers of
//! `block_powers`, the Gram matrix and the storing form's `V` live for
//! the whole solve; each block's `2s+1` basis columns are plain slices of
//! the level windows, so the Gram entries and the recovery are dot
//! products over slices. Profiling sinks see the phases `residual`,
//! `basis` (steps 1 and, streaming, 4's recomputation), `gram`,
//! `coef-update` and `vec-update` (step 4's recovery and writes).

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
/// the degree-`maxdeg` vector are computable. The ranges to `maxdeg − 1`
/// are the suffix `rg[1..]`.
fn ghost_ranges(a: &Csr, r0: usize, r1: usize, maxdeg: usize) -> Vec<(usize, usize)> {
    let mut rg = vec![(r0, r1); maxdeg + 1];
    for j in (0..maxdeg).rev() {
        let (lo, hi) = rg[j + 1];
        rg[j] = a.reach_range(lo, hi);
    }
    rg
}

/// Compute the block's rows of all basis columns for seed `v` (degree 0)
/// up to degree `rg.len() − 1`, using the ghost ranges `rg` (the block is
/// the last range). Fills `levels[j]` with the window of values on
/// `rg[j]` (row `i` at `levels[j][i − rg[j].0]`), reusing the buffers'
/// capacity. Each level is computed from the previous level's window
/// alone, in the same per-row order as a full [`Csr::spmv`], so the values
/// equal `j` full products restricted to `rg[j]`. Charges reads for the
/// seed (resident at nominal address `vseed`) and the matrix rows touched
/// (values at `va`).
fn block_powers<S: Sink>(
    a: &Csr,
    v: &[f64],
    (vseed, va): (usize, usize),
    rg: &[(usize, usize)],
    shifts: &BasisKind,
    levels: &mut [Vec<f64>],
    io: &mut SimIo<S>,
) {
    debug_assert_eq!(levels.len(), rg.len());
    // Degree 0: read the seed on the widest range.
    let (lo0, hi0) = rg[0];
    io.read_at(vseed + lo0, hi0 - lo0);
    levels[0].clear();
    levels[0].extend_from_slice(&v[lo0..hi0]);
    for j in 0..rg.len() - 1 {
        let (clo, _) = rg[j];
        let (lo, hi) = rg[j + 1];
        let (done, rest) = levels.split_at_mut(j + 1);
        let (cur, next) = (&done[j], &mut rest[0]);
        next.clear();
        next.resize(hi - lo, 0.0);
        a.spmv_window(cur, clo, next, lo);
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
    }
}

/// The `2s+1` basis columns of rows `[r0, r1)` as slices of the level
/// windows: degrees `0..=s` of `p` (on `rg`), then `0..s` of `r` (on
/// `rg[1..]`).
fn block_cols<'a>(
    pl: &'a [Vec<f64>],
    rl: &'a [Vec<f64>],
    rg: &[(usize, usize)],
    (r0, r1): (usize, usize),
) -> Vec<&'a [f64]> {
    pl.iter()
        .zip(rg)
        .chain(rl.iter().zip(&rg[1..]))
        .map(|(level, &(lo, _))| &level[r0 - lo..r1 - lo])
        .collect()
}

/// Step 4 on one row block: `[p, r] = V·[p̂, r̂]` and `x += V·x̂`, where
/// `cols` are the block's basis columns and `p`, `r`, `x` its rows.
fn recover(
    cols: &[&[f64]],
    (ph, rh, xh): (&[f64], &[f64], &[f64]),
    p: &mut [f64],
    r: &mut [f64],
    x: &mut [f64],
) {
    for (i, ((pi, ri), xi)) in p.iter_mut().zip(r.iter_mut()).zip(x.iter_mut()).enumerate() {
        let (mut np, mut nr, mut nx) = (0.0, 0.0, 0.0);
        for (j, col) in cols.iter().enumerate() {
            let vij = col[i];
            np += vij * ph[j];
            nr += vij * rh[j];
            nx += vij * xh[j];
        }
        *pi = np;
        *ri = nr;
        *xi += nx;
    }
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

    // The block plan: each row block `[r0, r1)` with its ghost ranges to
    // degree `s` (the `r` basis uses `rg[1..]`).
    let plan: Vec<_> = (0..n)
        .step_by(bs)
        .map(|r0| {
            let r1 = (r0 + bs).min(n);
            (r0, r1, ghost_ranges(a, r0, r1, s))
        })
        .collect();
    // Per-solve buffers: level windows, the Gram matrix and the storing
    // variant's V (every entry rewritten each outer iteration).
    let mut pl: Vec<Vec<f64>> = vec![Vec::new(); s + 1];
    let mut rl: Vec<Vec<f64>> = vec![Vec::new(); s];
    let mut g = vec![vec![0.0; m]; m];
    let mut v_store = if opts.streaming {
        Vec::new()
    } else {
        vec![vec![0.0; n]; m]
    };

    io.phase("residual");
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
        for row in &mut g {
            row.fill(0.0);
        }
        for &(r0, r1, ref rg) in &plan {
            io.phase("basis");
            block_powers(a, &p, (vp, va), rg, &opts.basis, &mut pl, io);
            block_powers(a, &r, (vr, va), &rg[1..], &opts.basis, &mut rl, io);
            let cols = block_cols(&pl, &rl, rg, (r0, r1));
            for (j, (vj, col)) in v_store.iter_mut().zip(&cols).enumerate() {
                vj[r0..r1].copy_from_slice(col);
                // One write run per basis column block: the storing
                // variant's Θ(s·n) slow-memory writes.
                io.write_at(vv + j * n8 + r0, r1 - r0);
            }
            io.phase("gram");
            // G += V(I,:)ᵀ V(I,:), each entry summed over the rows in
            // order. Indexing: the symmetric write g[j2][j1] needs the
            // second row by index anyway.
            #[allow(clippy::needless_range_loop)]
            for j1 in 0..m {
                for j2 in j1..m {
                    let acc = cols[j1]
                        .iter()
                        .zip(cols[j2])
                        .fold(0.0, |acc, (u, w)| acc + u * w);
                    g[j1][j2] += acc;
                    if j1 != j2 {
                        g[j2][j1] = g[j1][j2];
                    }
                }
            }
            io.flop(2 * m * m * (r1 - r0) / 2);
        }

        // ---- Step 3: s steps in coefficient space (fast memory only).
        io.phase("coef-update");
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
        let coefs = (&ph[..], &rh[..], &xh[..]);
        for &(r0b, r1b, ref rg) in &plan {
            let (pb, rb, xb) = (&mut p[r0b..r1b], &mut r[r0b..r1b], &mut x[r0b..r1b]);
            if opts.streaming {
                // Streaming recomputation reads the *old* p and r at
                // their original addresses (the new vectors land at the
                // same spans only after this block's writes).
                io.phase("basis");
                block_powers(a, &p_old, (vp, va), rg, &opts.basis, &mut pl, io);
                block_powers(a, &r_old, (vr, va), &rg[1..], &opts.basis, &mut rl, io);
                io.phase("vec-update");
                recover(&block_cols(&pl, &rl, rg, (r0b, r1b)), coefs, pb, rb, xb);
            } else {
                io.phase("vec-update");
                for j in 0..m {
                    io.read_at(vv + j * n8 + r0b, r1b - r0b);
                }
                let cols: Vec<&[f64]> = v_store.iter().map(|vj| &vj[r0b..r1b]).collect();
                recover(&cols, coefs, pb, rb, xb);
            }
            io.flop(6 * m * (r1b - r0b));
            // p, r, x — the only writes of the streaming variant.
            io.write_at(vp + r0b, r1b - r0b);
            io.write_at(vr + r0b, r1b - r0b);
            io.write_at(vx + r0b, r1b - r0b);
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
                // One set of level buffers across blocks, as a solve reuses them.
                let mut levels = vec![Vec::new(); 5];
                for (r0, r1) in [(0, 5), (n - 7, n), (n / 3, n / 3 + 9), (0, n)] {
                    let maxdeg = 4;
                    let rg = ghost_ranges(a, r0, r1, maxdeg);
                    let mut io = SimIo::new(Traffic::ZERO);
                    block_powers(a, &v, (0, 0), &rg, basis, &mut levels, &mut io);
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

    /// The `r` basis runs on the suffix of the `p` basis's plan: the
    /// ghost ranges to degree `s − 1` are those to degree `s` without
    /// their first (widest) entry, for blocks at both ends, in the middle
    /// and spanning the matrix whole.
    #[test]
    fn lower_degree_ghost_ranges_are_a_suffix() {
        for a in [laplacian_2d(7, 6, 0.3), band_1d(50, 2, 0.5)] {
            let n = a.rows;
            for (r0, r1) in [(0, 5), (n - 7, n), (n / 3, n / 3 + 9), (0, n)] {
                for s in 1..=5 {
                    let rg = ghost_ranges(&a, r0, r1, s);
                    assert_eq!(
                        ghost_ranges(&a, r0, r1, s - 1),
                        rg[1..],
                        "[{r0}, {r1}) s = {s}"
                    );
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
