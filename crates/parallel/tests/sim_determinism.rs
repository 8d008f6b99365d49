//! Property tests for the per-rank simulators (ISSUE 10 satellite).
//!
//! Each rank owns a private `MemSim`, so two guarantees must hold:
//!
//! 1. **Rank-interleaving invariance** — the global order in which ranks'
//!    accesses are replayed must not change any rank's counters, as long
//!    as each rank's own access sequence is preserved. The explicit
//!    kernels iterate ranks in different orders (row-major loops, skew
//!    loops, pipeline steps), so this is what makes their charging
//!    order-independent.
//! 2. **Repeat determinism** — running a simmed workload twice yields
//!    byte-identical boundaries (`harness run --repeat N` relies on it).

use memsim::MemSim;
use parallel::machine::Machine;
use parallel::workloads::workloads;
use proptest::prelude::*;
use wa_core::{BackendKind, CostParams, RunCfg, Scale};

/// One rank-local access, replayed through that rank's private simulator.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read { addr: usize, words: usize },
    Write { addr: usize, words: usize },
    Writeback { addr: usize, words: usize },
}

fn apply(m: &mut Machine<MemSim>, rank: usize, op: Op) {
    match op {
        Op::Read { addr, words } => m.sim_read(rank, addr, words),
        Op::Write { addr, words } => m.sim_write(rank, addr, words),
        Op::Writeback { addr, words } => m.sim_writeback(rank, addr, words),
    }
}

/// Decode a flat `(kind, offset, len)` triple into an [`Op`] inside a
/// `heap_words`-sized rank heap.
fn decode(kind: u8, offset: usize, len: usize, heap_words: usize) -> Op {
    let words = 1 + len % 96;
    let addr = offset % (heap_words - words);
    match kind % 3 {
        0 => Op::Read { addr, words },
        1 => Op::Write { addr, words },
        _ => Op::Writeback { addr, words },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay the same per-rank access sequences in two different global
    /// interleavings (rank-major vs round-robin) and require identical
    /// per-rank boundary counters, for both 1- and 2-level rank
    /// hierarchies.
    #[test]
    fn per_rank_counters_ignore_rank_interleaving(
        p in 2usize..6,
        depth in 1usize..3,
        raw in prop::collection::vec((0u8..3, 0usize..4096, 0usize..96), 8..40),
    ) {
        let caps: &[usize] = if depth == 1 { &[512] } else { &[64, 512] };
        let heap = 448; // stays within the 512-word rank L2
        let mk = || {
            let mut m = Machine::with_sinks(p, CostParams::nvm_cluster(), || MemSim::stacked_lru(caps));
            let base = m.alloc(heap);
            (m, base)
        };
        // Deal the generated ops round-robin into per-rank sequences.
        let per_rank: Vec<Vec<Op>> = (0..p)
            .map(|r| {
                raw.iter()
                    .skip(r)
                    .step_by(p)
                    .map(|&(k, off, len)| decode(k, off, len, heap))
                    .collect()
            })
            .collect();

        // Order A: rank-major (rank 0's ops, then rank 1's, ...).
        let (mut ma, base_a) = mk();
        for (r, ops) in per_rank.iter().enumerate() {
            for &op in ops {
                apply(&mut ma, r, shift(op, base_a));
            }
        }
        // Order B: round-robin across ranks, per-rank order preserved.
        let (mut mb, base_b) = mk();
        let longest = per_rank.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (r, ops) in per_rank.iter().enumerate() {
                if let Some(&op) = ops.get(i) {
                    apply(&mut mb, r, shift(op, base_b));
                }
            }
        }

        for r in 0..p {
            prop_assert_eq!(ma.sim_boundaries_of(r), mb.sim_boundaries_of(r));
        }
        prop_assert_eq!(ma.sim_boundaries(), mb.sim_boundaries());
    }
}

/// Rebase an op onto the machine's allocated heap.
fn shift(op: Op, base: usize) -> Op {
    match op {
        Op::Read { addr, words } => Op::Read {
            addr: addr + base,
            words,
        },
        Op::Write { addr, words } => Op::Write {
            addr: addr + base,
            words,
        },
        Op::Writeback { addr, words } => Op::Writeback {
            addr: addr + base,
            words,
        },
    }
}

/// `--repeat` determinism: every parallel workload produces identical
/// simmed boundaries (and config echo) when run twice at every declared
/// depth.
#[test]
fn repeated_simmed_runs_are_identical() {
    for w in workloads() {
        for depth in [1, 2] {
            let cfg = RunCfg::with_depth(BackendKind::Simmed, Scale::Small, depth);
            let r1 = match w.run_cfg(cfg) {
                Ok(r) => r,
                Err(_) => continue, // depth not declared for this workload
            };
            let r2 = w.run_cfg(cfg).expect("second run must succeed too");
            assert_eq!(
                r1.boundaries,
                r2.boundaries,
                "{} depth {depth}: simmed boundaries changed between runs",
                w.name()
            );
            assert_eq!(
                r1.config,
                r2.config,
                "{} depth {depth}: config echo changed",
                w.name()
            );
            // Simmed layout: depth sim boundaries + one network boundary,
            // so node-local NVM is the second-to-last entry.
            let nvm = r1.boundaries[r1.boundaries.len() - 2];
            assert!(
                nvm.store_words > 0,
                "{} depth {depth}: assembled output must reach NVM",
                w.name()
            );
        }
    }
}
