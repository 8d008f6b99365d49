//! Solving a 2-D Poisson problem with write-avoiding Krylov methods.
//!
//! ```sh
//! cargo run --release --example stencil_solver
//! ```
//!
//! Runs CG, s-step CA-CG, and the streaming-matrix-powers CA-CG on the
//! same 5-point stencil system and reports solution quality and
//! slow-memory traffic: the paper's Θ(s) write reduction, live.

use write_avoiding::krylov::basis::BasisKind;
use write_avoiding::krylov::cacg::{ca_cg, CaCgOptions};
use write_avoiding::krylov::cg::cg;
use write_avoiding::krylov::counter::SimIo;
use write_avoiding::krylov::stencil::laplacian_2d;
use write_avoiding::wa_core::{Traffic, XorShift};

fn main() {
    let nx = 64;
    let a = laplacian_2d(nx, nx, 0.05);
    let n = a.rows;
    let mut rng = XorShift::new(2026);
    let x_true: Vec<f64> = (0..n).map(|_| rng.next_unit() - 0.5).collect();
    let mut b = vec![0.0; n];
    a.spmv(&x_true, &mut b);
    let x0 = vec![0.0; n];
    let s = 6;
    let tol = 1e-10;

    println!("2-D Poisson, {nx}x{nx} grid (n = {n}), 5-point stencil, s = {s}\n");
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>14} {:>10}",
        "method", "steps", "writes", "reads", "writes/step/n", "residual"
    );

    let mut io = SimIo::new(Traffic::ZERO);
    let r = cg(&a, &b, &x0, tol, 4000, &mut io);
    let report = |name: &str, steps: usize, io: &SimIo<Traffic>, res: f64| {
        println!(
            "{name:<22} {steps:>6} {:>12} {:>12} {:>14.2} {res:>10.2e}",
            io.sim.store_words,
            io.sim.load_words,
            io.sim.store_words as f64 / steps.max(1) as f64 / n as f64
        );
    };
    report("CG", r.iters, &io, r.residual);

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
                tol,
                max_outer: 1000,
            },
            &mut io,
        );
        report(name, r.iters, &io, r.residual);
        let err =
            r.x.iter()
                .zip(&x_true)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max);
        assert!(err < 1e-5, "solution error {err}");
    }

    println!(
        "\nStreaming matrix powers: ~4n writes/CG-step -> ~3n/s writes/step, paying <=2x reads."
    );
}
