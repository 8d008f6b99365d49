//! Direct N-body benches: WA (Algorithm 4) vs symmetry-exploiting orders,
//! the access-driven WA kernel on an uninstrumented store, and the
//! (N,3)-body kernel. The paper's §4.4 trade-off — half the flops vs
//! minimal writes — shows up here as wall-clock vs (tested elsewhere)
//! traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memsim::{ExplicitHier, RawMem};
use nbody::explicit::{explicit_kbody_wa, explicit_nbody_wa};
use nbody::force::{Particle, WORDS_PER_BODY};
use nbody::simmed::{simmed_nbody_wa, store_cloud};
use nbody::symmetric::explicit_nbody_symmetric;

fn bench_2body(c: &mut Criterion) {
    let mut g = c.benchmark_group("nbody/2body");
    for n in [256usize, 1024] {
        let cloud = Particle::random_cloud(n, 7);
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::new("wa", n), &cloud, |b, cloud| {
            b.iter(|| {
                let mut h = ExplicitHier::two_level(96);
                explicit_nbody_wa(cloud, &mut h)
            });
        });
        g.bench_with_input(BenchmarkId::new("symmetric", n), &cloud, |b, cloud| {
            b.iter(|| {
                let mut h = ExplicitHier::two_level(128);
                explicit_nbody_symmetric(cloud, &mut h)
            });
        });
    }
    g.finish();
}

/// The `Mem`-driven kernel the raw/simmed/stack cells run, on a `RawMem`:
/// kernel cost (force law, block runs) without a simulator.
fn bench_simmed_raw(c: &mut Criterion) {
    let mut g = c.benchmark_group("nbody");
    let n = 1024usize;
    let mut staged = RawMem::new(2 * n * WORDS_PER_BODY);
    store_cloud(&mut staged, &Particle::random_cloud(n, 7));
    g.throughput(Throughput::Elements((n * n) as u64));
    g.bench_with_input(
        BenchmarkId::new("simmed-raw", n),
        &staged.data,
        |b, data| {
            b.iter(|| {
                let mut mem = RawMem::from_vec(data.clone());
                simmed_nbody_wa(&mut mem, n, 64);
                mem.data
            });
        },
    );
    g.finish();
}

fn bench_3body(c: &mut Criterion) {
    let mut g = c.benchmark_group("nbody/3body");
    g.sample_size(10);
    for n in [48usize, 96] {
        let cloud = Particle::random_cloud(n, 8);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("wa", n), &cloud, |b, cloud| {
            b.iter(|| {
                let mut h = ExplicitHier::two_level(64);
                explicit_kbody_wa(cloud, &mut h)
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_2body, bench_simmed_raw, bench_3body
}
criterion_main!(benches);
