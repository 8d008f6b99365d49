//! Krylov benches: CG vs CA-CG (storing vs streaming — the ablation of the
//! §8 write optimization) and the serial SpMV substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use krylov::cacg::{ca_cg, CaCgOptions};
use krylov::cg::cg;
use krylov::counter::SimIo;
use krylov::stencil::laplacian_2d;
use wa_core::Traffic;

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("krylov/solver");
    g.sample_size(10);
    let nx = 48;
    let a = laplacian_2d(nx, nx, 0.1);
    let n = a.rows;
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let x0 = vec![0.0; n];
    let s = 4;
    let outers = 12;

    g.bench_function("cg", |bch| {
        bch.iter(|| {
            let mut io = SimIo::new(Traffic::ZERO);
            cg(&a, &b, &x0, 1e-30, outers * s, &mut io)
        });
    });
    for (name, streaming) in [("cacg_storing", false), ("cacg_streaming", true)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &streaming,
            |bch, &streaming| {
                bch.iter(|| {
                    let mut io = SimIo::new(Traffic::ZERO);
                    ca_cg(
                        &a,
                        &b,
                        &x0,
                        &CaCgOptions {
                            s,
                            streaming,
                            tol: 1e-30,
                            max_outer: outers,
                            block_rows: 4 * nx,
                            ..Default::default()
                        },
                        &mut io,
                    )
                });
            },
        );
    }
    g.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("krylov/spmv");
    let a = laplacian_2d(256, 256, 0.0);
    let n = a.rows;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function("serial", |b| {
        let mut y = vec![0.0; n];
        b.iter(|| a.spmv(&x, &mut y));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_solvers, bench_spmv
}
criterion_main!(benches);
