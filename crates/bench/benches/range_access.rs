//! Per-word vs line-granular simulator paths (ISSUE 4 tentpole bench).
//!
//! Three ways to push the same word stream through `MemSim`:
//!
//! * `word_reference` — the pre-memo per-word walk (`disable_fast_path`),
//!   the old behavior of every `read`/`write` call;
//! * `word_memo` — per-word calls with the last-line memo active (what
//!   unconverted kernels get for free);
//! * `read_range` / `run_bulk` — the line-granular range decomposition
//!   and the batched `AccessRun` API the converted kernels use.
//!
//! All four produce byte-identical counters (see
//! `memsim/tests/range_equiv.rs`); only the wall time differs. Numbers
//! are recorded in `BENCH_simulator.json` at the repo root.
//!
//! Each geometry also streams once over a fresh buffer of the same
//! word count (`cold_stream`): every line is a cold miss, which a fully
//! associative L1 fills as one cold run. The geometries are one fully
//! associative LRU level, the clock-policy set-associative Xeon
//! hierarchy, and the Xeon capacities as three fully associative LRU
//! levels, where the passes' re-reads miss L1 and L2 and hit L3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memsim::xeon::XeonGeometry;
use memsim::{AccessRun, MemSim};

/// Streaming read+write sweep: `passes` passes over a `words`-word
/// buffer, reads then writes, like a kernel scanning its operands.
fn drive_words(sim: &mut MemSim, words: usize, passes: usize) -> u64 {
    for _ in 0..passes {
        for a in 0..words {
            sim.read(a);
        }
        for a in 0..words {
            sim.write(a);
        }
    }
    sim.llc().hits
}

fn drive_ranges(sim: &mut MemSim, words: usize, passes: usize) -> u64 {
    for _ in 0..passes {
        sim.read_range(0, words);
        sim.write_range(0, words);
    }
    sim.llc().hits
}

fn drive_bulk(sim: &mut MemSim, words: usize, passes: usize) -> u64 {
    let runs = [AccessRun::read(0, words), AccessRun::write(0, words)];
    for _ in 0..passes {
        sim.run(&runs);
    }
    sim.llc().hits
}

fn bench_paths(c: &mut Criterion) {
    let words = 1 << 14; // 4x the single-level cache below
    let passes = 4;
    let single = || MemSim::single_level_lru(1 << 12);
    let xeon = || XeonGeometry::default_scaled().build();
    let xeon_fa = || {
        let g = XeonGeometry::default_scaled();
        MemSim::stacked_lru(&[g.l1_words, g.l2_words, g.l3_words])
    };

    for (geom, make) in [
        ("l3_fa_lru", &single as &dyn Fn() -> MemSim),
        ("xeon_3level", &xeon),
        ("xeon_3level_fa_lru", &xeon_fa),
    ] {
        let mut g = c.benchmark_group(format!("range_access/{geom}"));
        g.throughput(Throughput::Elements((2 * words * passes) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("word_reference"),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut s = make();
                    s.disable_fast_path();
                    drive_words(&mut s, words, passes)
                });
            },
        );
        g.bench_with_input(BenchmarkId::from_parameter("word_memo"), &(), |b, _| {
            b.iter(|| drive_words(&mut make(), words, passes));
        });
        g.bench_with_input(BenchmarkId::from_parameter("read_range"), &(), |b, _| {
            b.iter(|| drive_ranges(&mut make(), words, passes));
        });
        g.bench_with_input(BenchmarkId::from_parameter("run_bulk"), &(), |b, _| {
            b.iter(|| drive_bulk(&mut make(), words, passes));
        });
        g.bench_with_input(BenchmarkId::from_parameter("cold_stream"), &(), |b, _| {
            b.iter(|| {
                let mut s = make();
                s.read_range(0, 2 * words * passes);
                s.llc().misses
            });
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_paths
}
criterion_main!(benches);
