//! Single-pass capacity curve vs per-capacity re-simulation (ISSUE 8
//! tentpole bench).
//!
//! The question a capacity sweep answers — "how do fills and write-backs
//! move as fast memory grows?" — used to cost one full kernel
//! re-simulation per capacity. The Mattson stack backend answers it for
//! *every* capacity from one pass. This bench pins the ratio on the
//! paper-scale WA matmul:
//!
//! * `stack_single_pass` — the kernel once through a [`SimMem`] over a
//!   [`StackSim`], curve projected at every capacity of the default
//!   ladder (what `harness curve matmul-wa --scale paper` prints);
//! * `memsim_per_capacity` — the kernel through a flushed
//!   [`MemSim::single_level_lru`] at each of those same capacities, the
//!   sweep the stack backend replaces.
//!
//! Both produce identical fills/write-backs per capacity
//! (`memsim/tests/stack_equiv.rs`); only the wall time differs. Numbers
//! are recorded in `BENCH_capacity.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use dense::desc::alloc_layout;
use dense::matmul::blocked_matmul;
use dense::workloads::{fast_words, sim_block_and_dim};
use dense::{LoopOrder, MatDesc};
use memsim::{MemSim, RawMem, SimMem, StackSim};
use wa_core::{Mat, Scale};

/// The paper-scale WA matmul inputs, staged once; every iteration clones
/// the flat data vector (both paths pay the same clone).
fn stage(scale: Scale) -> (Vec<MatDesc>, Vec<f64>, usize) {
    let (bsize, n) = sim_block_and_dim(scale);
    let a = Mat::random(n, n, 11);
    let b = Mat::random(n, n, 12);
    let c = Mat::zeros(n, n);
    let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
    let mut raw = RawMem::new(words);
    d[0].store_mat(&mut raw, &a);
    d[1].store_mat(&mut raw, &b);
    d[2].store_mat(&mut raw, &c);
    (d, raw.data, bsize)
}

fn bench_curve(c: &mut Criterion) {
    let scale = Scale::Paper;
    let (d, data, bsize) = stage(scale);
    // The exact capacity list the curve command reports by default:
    // powers of two from one line up to the trace footprint (a setup
    // pre-pass discovers it; the sweep under test re-runs per entry).
    let caps: Vec<usize> = {
        let mut mem = SimMem::from_vec(data.clone(), StackSim::new());
        blocked_matmul(&mut mem, d[0], d[1], d[2], bsize, LoopOrder::Ijk);
        let ladder = mem.sim.curve().default_ladder();
        ladder.iter().map(|&w| w as usize).collect()
    };
    eprintln!(
        "capacity_curve: {} capacities (default ladder), L3 = {} words",
        caps.len(),
        fast_words(scale)
    );

    let mut g = c.benchmark_group("capacity_curve/matmul-wa-paper");
    g.sample_size(10);
    g.bench_function("stack_single_pass", |b| {
        b.iter(|| {
            let mut mem = SimMem::from_vec(data.clone(), StackSim::new());
            blocked_matmul(&mut mem, d[0], d[1], d[2], bsize, LoopOrder::Ijk);
            let curve = mem.sim.curve();
            caps.iter().map(|&c| curve.at(c as u64).fills).sum::<u64>()
        });
    });
    let sweep_id = format!("memsim_per_capacity_x{}", caps.len());
    g.bench_function(sweep_id.as_str(), |b| {
        b.iter(|| {
            let mut fills = 0u64;
            for &cap in &caps {
                let mut mem = SimMem::from_vec(data.clone(), MemSim::single_level_lru(cap));
                blocked_matmul(&mut mem, d[0], d[1], d[2], bsize, LoopOrder::Ijk);
                mem.sim.flush();
                fills += mem.sim.llc().fills;
            }
            fills
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_curve
}
criterion_main!(benches);
