//! Matmul kernel benches: the loop-order ablation (Algorithm 1's WA
//! property is exactly the k-innermost choice), the cache-oblivious and
//! tuned baselines, and the multi-level recursion (E1–E5's kernels at
//! wall-clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dense::desc::alloc_layout;
use dense::matmul::{blocked_matmul, co_matmul, ml_matmul, tuned_matmul, LoopOrder, RecOrder};
use dense::MatDesc;
use memsim::RawMem;
use wa_core::Mat;

fn setup(n: usize) -> (RawMem, [MatDesc; 3]) {
    let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
    let mut mem = RawMem::new(words);
    d[0].store_mat(&mut mem, &Mat::random(n, n, 1));
    d[1].store_mat(&mut mem, &Mat::random(n, n, 2));
    (mem, [d[0], d[1], d[2]])
}

fn bench_loop_orders(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul/loop_order");
    let n = 128;
    for order in LoopOrder::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{order:?}")),
            &order,
            |b, &order| {
                let (mut mem, d) = setup(n);
                b.iter(|| blocked_matmul(&mut mem, d[0], d[1], d[2], 32, order));
            },
        );
    }
    g.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul/variant");
    let n = 128;
    g.bench_function("naive", |b| {
        let (mut mem, d) = setup(n);
        b.iter(|| dense::matmul::naive_matmul(&mut mem, d[0], d[1], d[2]));
    });
    g.bench_function("cache_oblivious", |b| {
        let (mut mem, d) = setup(n);
        b.iter(|| co_matmul(&mut mem, d[0], d[1], d[2], 16));
    });
    g.bench_function("tuned", |b| {
        let (mut mem, d) = setup(n);
        b.iter(|| tuned_matmul(&mut mem, d[0], d[1], d[2], 32));
    });
    g.bench_function("multilevel_fig4a", |b| {
        let (mut mem, d) = setup(n);
        b.iter(|| {
            ml_matmul(
                &mut mem,
                d[0],
                d[1],
                d[2],
                &[64, 16],
                RecOrder::COuter,
                RecOrder::COuter,
            )
        });
    });
    g.bench_function("multilevel_fig4b", |b| {
        let (mut mem, d) = setup(n);
        b.iter(|| {
            ml_matmul(
                &mut mem,
                d[0],
                d[1],
                d[2],
                &[64, 16],
                RecOrder::COuter,
                RecOrder::AOuter,
            )
        });
    });
    g.finish();
}

fn bench_explicit_model(c: &mut Criterion) {
    // The explicit-movement accounting overhead (Algorithm 1's block
    // schedule, charged from shapes alone).
    let mut g = c.benchmark_group("matmul/explicit_model");
    let n = 96;
    let bs = dense::explicit_mm::block_for(768);
    for order in [LoopOrder::Ijk, LoopOrder::Kij] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{order:?}")),
            &order,
            |b, &order| {
                b.iter(|| {
                    let mut h = memsim::ExplicitHier::two_level(768);
                    let orders = (order, order);
                    dense::explicit_mm::mm_schedule((n, n, n), &[bs], orders, &mut h, |_, _, _| {});
                    h.traffic().boundary(0).store_words
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_loop_orders, bench_variants, bench_explicit_model
}
criterion_main!(benches);
