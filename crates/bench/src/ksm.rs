//! §8 — Krylov methods: slow-memory writes of CG vs CA-CG vs streaming
//! CA-CG on a (2b+1)^d-point stencil.

use crate::util::print_table;
use krylov::basis::BasisKind;
use krylov::cacg::{ca_cg, CaCgOptions};
use krylov::cg::cg;
use krylov::counter::SimIo;
use krylov::stencil::laplacian_2d;
use wa_core::Traffic;

pub(crate) struct KsmRow {
    pub(crate) method: String,
    pub(crate) steps: usize,
    pub(crate) writes: u64,
    pub(crate) reads: u64,
    pub(crate) flops: u64,
    pub(crate) residual: f64,
}

/// Fixed-work comparison: `outers × s` CG-step equivalents on an
/// `nx × nx` 5-point Poisson problem.
pub(crate) fn run_rows(nx: usize, s: usize, outers: usize) -> Vec<KsmRow> {
    let a = laplacian_2d(nx, nx, 0.1);
    let n = a.rows;
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let x0 = vec![0.0; n];
    let steps = outers * s;
    let mut out = Vec::new();

    let mut io = SimIo::new(Traffic::ZERO);
    let r = cg(&a, &b, &x0, 1e-30, steps, &mut io);
    out.push(KsmRow {
        method: "CG".into(),
        steps,
        writes: io.sim.store_words,
        reads: io.sim.load_words,
        flops: io.flops,
        residual: r.residual,
    });

    for (streaming, name) in [(false, "CA-CG (storing)"), (true, "CA-CG (streaming)")] {
        let mut io = SimIo::new(Traffic::ZERO);
        let r = ca_cg(
            &a,
            &b,
            &x0,
            &CaCgOptions {
                s,
                basis: BasisKind::Monomial,
                streaming,
                block_rows: 4 * nx,
                tol: 1e-30,
                max_outer: outers,
            },
            &mut io,
        );
        out.push(KsmRow {
            method: name.into(),
            steps,
            writes: io.sim.store_words,
            reads: io.sim.load_words,
            flops: io.flops,
            residual: r.residual,
        });
    }
    out
}

pub fn run(nx: usize, s: usize, outers: usize) {
    let rows = run_rows(nx, s, outers);
    let n = (nx * nx) as f64;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                r.steps.to_string(),
                r.writes.to_string(),
                format!("{:.2}", r.writes as f64 / r.steps as f64 / n),
                r.reads.to_string(),
                r.flops.to_string(),
                format!("{:.2e}", r.residual),
            ]
        })
        .collect();
    print_table(
        &format!("KSM writes (2-D 5-point stencil, {nx}×{nx}, s={s}, {outers} outer iters)"),
        &[
            "method",
            "steps",
            "writes",
            "writes/step/n",
            "reads",
            "flops",
            "residual",
        ],
        &body,
    );
    println!("paper §8: streaming reduces writes by Θ(s) for ≤2× reads/flops");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_hierarchy_matches_paper() {
        let s = 6;
        let rows = run_rows(20, s, 8);
        let cg_w = rows[0].writes as f64;
        let store_w = rows[1].writes as f64;
        let stream_w = rows[2].writes as f64;
        // Storing CA-CG is the same order as CG (it writes the basis);
        // streaming is ~s/..x lower than both.
        assert!(stream_w * (s as f64) / 2.0 < cg_w);
        assert!(stream_w * (s as f64) / 2.0 < store_w);
        assert!(store_w < 2.0 * cg_w);
        // Reads at most ~2x of storing.
        assert!(rows[2].reads < 2 * rows[1].reads + 1000);
        // All methods actually converged to the same solve (same work).
        assert!(rows[2].residual.is_finite());
    }
}
