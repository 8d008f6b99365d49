//! Conjugate gradients (paper Algorithm 6) with slow-memory accounting.
//!
//! Traffic is charged through the batched [`AccessRun`] API: each
//! n-vector the iteration streams is one run over that vector's nominal
//! slow-memory span, so the tally's message counts equal the number of
//! vector transfers (the block-transfer notion of the model).

use crate::counter::SimIo;
use crate::csr::Csr;
use memsim::Sink;
use memsim::LINE_WORDS;
use wa_core::AccessRun;

/// Result of a CG / CA-CG solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    pub x: Vec<f64>,
    /// Conventional-iteration count (CA-CG reports `outer × s`).
    pub iters: usize,
    /// Final true residual norm ‖b − Ax‖₂.
    pub residual: f64,
    /// Residual-norm history, one entry per conventional iteration
    /// (per outer iteration for CA-CG).
    pub history: Vec<f64>,
}

fn dot<S: Sink>(a: &[f64], b: &[f64], va: usize, vb: usize, io: &mut SimIo<S>) -> f64 {
    // Two vector streams = two read runs (one message each).
    io.phase("dot");
    io.read_at(va, a.len());
    io.read_at(vb, b.len());
    io.flop(2 * a.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Standard CG for SPD `A·x = b`. Each iteration writes the four n-vectors
/// `x, r, p, w` back to slow memory (the paper's `W12 ≥ 4n − M₁` per
/// iteration when `n ≫ M₁`).
///
/// ```
/// use krylov::{cg::cg, counter::SimIo, stencil::laplacian_2d};
/// use wa_core::Traffic;
/// let a = laplacian_2d(8, 8, 0.1);
/// let b = vec![1.0; a.rows];
/// let mut io = SimIo::new(Traffic::ZERO);
/// let r = cg(&a, &b, &vec![0.0; a.rows], 1e-10, 500, &mut io);
/// assert!(r.residual < 1e-8);
/// assert!(io.sim.store_words > 0);
/// ```
pub fn cg<S: Sink>(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iters: usize,
    io: &mut SimIo<S>,
) -> SolveResult {
    let n = a.rows;
    assert_eq!(b.len(), n);
    let mut x = x0.to_vec();
    let mut r = vec![0.0; n];
    let mut w = vec![0.0; n];
    // Nominal slow-memory spans of the solver's streams. The tally only
    // charges words and messages; the simulated sink caches the spans, so
    // they are line-aligned to keep its write-backs word-comparable.
    let n8 = n.div_ceil(LINE_WORDS) * LINE_WORDS;
    let (vx, vr, vp, vw, vb, va) = (0, n8, 2 * n8, 3 * n8, 4 * n8, 5 * n8);
    // r = b − A x0
    io.phase("residual");
    a.spmv(&x, &mut r);
    io.run(&[
        AccessRun::read(va, a.nnz()),
        AccessRun::read(vx, n),
        AccessRun::write(vr, n),
    ]);
    io.flop(2 * a.nnz());
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    io.run(&[
        AccessRun::read(vb, n),
        AccessRun::read(vr, n),
        AccessRun::write(vr, n),
    ]);
    let mut p = r.clone();
    io.run(&[AccessRun::read(vr, n), AccessRun::write(vp, n)]);
    let bnorm = norm2(b).max(1e-300);
    let mut delta = dot(&r, &r, vr, vr, io);
    let mut history = vec![delta.sqrt() / bnorm];

    let mut iters = 0;
    while iters < max_iters && delta.sqrt() / bnorm > tol {
        io.phase("spmv");
        a.spmv(&p, &mut w); // w = A p
        io.run(&[
            AccessRun::read(va, a.nnz()),
            AccessRun::read(vp, n),
            AccessRun::write(vw, n),
        ]);
        io.flop(2 * a.nnz());
        let alpha = delta / dot(&p, &w, vp, vw, io);
        io.phase("vec-update");
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * w[i];
        }
        io.run(&[
            AccessRun::read(vx, n),
            AccessRun::read(vp, n),
            AccessRun::read(vr, n),
            AccessRun::read(vw, n),
            AccessRun::write(vx, n),
            AccessRun::write(vr, n),
        ]);
        io.flop(4 * n);
        let delta_new = dot(&r, &r, vr, vr, io);
        let beta = delta_new / delta;
        io.phase("vec-update");
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        io.run(&[
            AccessRun::read(vr, n),
            AccessRun::read(vp, n),
            AccessRun::write(vp, n),
        ]);
        io.flop(2 * n);
        delta = delta_new;
        iters += 1;
        history.push(delta.sqrt() / bnorm);
    }

    // True residual.
    let mut ax = vec![0.0; n];
    a.spmv(&x, &mut ax);
    let res = norm2(&b.iter().zip(&ax).map(|(u, v)| u - v).collect::<Vec<_>>());
    SolveResult {
        x,
        iters,
        residual: res,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{band_1d, laplacian_2d};
    use wa_core::Traffic;
    use wa_core::XorShift;

    #[test]
    fn solves_poisson_2d() {
        let a = laplacian_2d(12, 12, 0.0);
        let n = a.rows;
        let mut rng = XorShift::new(5);
        let xt: Vec<f64> = (0..n).map(|_| rng.next_unit() - 0.5).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xt, &mut b);
        let mut io = SimIo::new(Traffic::ZERO);
        let r = cg(&a, &b, &vec![0.0; n], 1e-10, 2000, &mut io);
        assert!(r.residual < 1e-8, "residual {}", r.residual);
        for (u, v) in r.x.iter().zip(&xt) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn residual_history_decreases_overall() {
        let a = band_1d(100, 1, 0.5);
        let b = vec![1.0; 100];
        let mut io = SimIo::new(Traffic::ZERO);
        let r = cg(&a, &b, &vec![0.0; 100], 1e-12, 500, &mut io);
        assert!(r.history.last().unwrap() < &1e-12);
        assert!(r.history[0] > *r.history.last().unwrap());
    }

    #[test]
    fn writes_scale_as_4n_per_iteration() {
        let a = laplacian_2d(16, 16, 0.0);
        let n = a.rows;
        let b = vec![1.0; n];
        let mut io = SimIo::new(Traffic::ZERO);
        let r = cg(&a, &b, &vec![0.0; n], 1e-30, 50, &mut io);
        assert_eq!(r.iters, 50, "should hit the cap");
        let per_iter = (io.sim.store_words as f64) / 50.0;
        assert!(
            (per_iter - 4.0 * n as f64).abs() < 0.2 * n as f64,
            "writes/iter {per_iter} vs 4n = {}",
            4 * n
        );
    }

    /// Pin the tally of one hand-computed CG iteration, words *and*
    /// messages (a message = one vector/matrix stream transfer — the
    /// block-transfer unit documented on `RunReport::boundaries`).
    ///
    /// Setup (`r = b − A·x0`, `p = r`, `δ = rᵀr`):
    ///   loads  nnz + 6n words in 7 runs, stores 3n words in 3 runs.
    /// One iteration (`w = A·p`, two dots, x/r update, p update):
    ///   loads  nnz + 11n words in 12 runs, stores 4n words in 4 runs.
    #[test]
    fn one_iteration_tally_matches_hand_count() {
        let a = laplacian_2d(8, 8, 0.0);
        let (n, nnz) = (a.rows as u64, a.nnz() as u64);
        let b = vec![1.0; a.rows];
        let mut io = SimIo::new(Traffic::ZERO);
        let r = cg(&a, &b, &vec![0.0; a.rows], 1e-30, 1, &mut io);
        assert_eq!(r.iters, 1, "must run exactly one iteration");
        let t = io.sim;
        assert_eq!(t.load_words, 2 * nnz + 17 * n);
        assert_eq!(t.load_msgs, 19);
        assert_eq!(t.store_words, 7 * n);
        assert_eq!(t.store_msgs, 7);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = band_1d(50, 2, 1.0);
        let mut io = SimIo::new(Traffic::ZERO);
        let r = cg(&a, &vec![0.0; 50], &vec![0.0; 50], 1e-10, 100, &mut io);
        assert_eq!(r.iters, 0);
        assert!(r.residual < 1e-12);
    }
}
