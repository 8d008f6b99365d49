//! Exactness of the streaming tallies.
//!
//! A [`SimMem`] over a [`TraceTally`] must report exactly what a
//! recorded [`TraceMem`] trace reduces to: its length, its write count
//! and its set of distinct `addr / 8` lines. These properties drive both
//! backends with the same random stream of per-word `ld`/`st` calls mixed
//! with `ld_run`/`st_run` runs — unaligned starts, runs straddling lines
//! and bitset words, and zero-length runs — and compare the three counts.
//!
//! The explicit tally [`Traffic`] is a [`Sink`] too: driven run by run
//! through the sink surface (as the Krylov `SimIo` charges it) or through
//! a [`SimMem`], it must charge exactly what [`Traffic::run`] charges.

use memsim::{Mem, SimMem, Sink, TraceMem, TraceTally};
use proptest::prelude::*;
use std::collections::BTreeSet;
use wa_core::{AccessRun, Traffic};

/// Words of backing store: 512 lines, i.e. eight 64-line bitset words.
const SPAN: usize = 4096;

/// One step of a stream: `(kind, addr, words)` where kind 0/1 is a
/// per-word load/store at `addr` and 2/3 a load/store run of `words`.
fn apply<M: Mem>(m: &mut M, steps: &[(u8, usize, usize)]) {
    let mut buf = vec![0.0; SPAN];
    for &(kind, addr, words) in steps {
        let words = words.min(SPAN - addr);
        match kind {
            0 => {
                let _ = m.ld(addr);
            }
            1 => m.st(addr, addr as f64),
            2 => m.ld_run(addr, &mut buf[..words]),
            _ => m.st_run(addr, &buf[..words]),
        }
    }
}

fn assert_tally_matches_trace(steps: &[(u8, usize, usize)]) {
    let mut tally = SimMem::from_vec(vec![0.0; SPAN], TraceTally::with_span(SPAN));
    let mut trace = TraceMem::from_vec(vec![0.0; SPAN]);
    apply(&mut tally, steps);
    apply(&mut trace, steps);
    let writes = trace.trace.iter().filter(|a| a.is_write).count() as u64;
    let lines: BTreeSet<usize> = trace.trace.iter().map(|a| a.addr / 8).collect();
    let t = &tally.sim;
    assert_eq!(t.words(), trace.trace.len() as u64, "trace length");
    assert_eq!(t.writes(), writes, "write count");
    assert_eq!(t.distinct_lines(), lines.len() as u64, "distinct lines");
    assert_eq!(tally.data, trace.data, "stored values");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random mixed streams over the whole span: long runs cross many
    /// lines and bitset words, short ones start anywhere in a line.
    #[test]
    fn tally_equals_recorded_trace(
        steps in prop::collection::vec((0u8..4, 0usize..SPAN, 0usize..700), 0..60),
    ) {
        assert_tally_matches_trace(&steps);
    }

    /// Dense reuse of a few lines: short unaligned runs (often zero-length
    /// or straddling one line boundary) mixed with per-word accesses.
    #[test]
    fn tally_equals_recorded_trace_under_heavy_reuse(
        steps in prop::collection::vec((0u8..4, 0usize..40, 0usize..12), 1..80),
    ) {
        assert_tally_matches_trace(&steps);
    }

    /// Random run batches, empty runs included: one message per non-empty
    /// run, whichever surface charges it.
    #[test]
    fn traffic_as_a_sink_charges_what_traffic_run_charges(
        raw in prop::collection::vec((any::<bool>(), 0usize..SPAN, 0usize..3), 0..60),
    ) {
        // Every third run is empty; the rest are 1..=64 words.
        let runs: Vec<AccessRun> = raw
            .iter()
            .map(|&(is_write, addr, k)| AccessRun {
                addr: addr.min(SPAN - 64),
                words: if k == 0 { 0 } else { 1 + addr % 64 },
                is_write,
            })
            .collect();
        let mut want = Traffic::ZERO;
        want.run(&runs);

        let mut sink = Traffic::ZERO;
        charge(&mut sink, &runs);
        prop_assert_eq!(sink, want);

        let mut mem = SimMem::from_vec(vec![0.0; SPAN], Traffic::ZERO);
        let mut buf = vec![0.0; 64];
        for r in &runs {
            if r.is_write {
                mem.st_run(r.addr, &buf[..r.words]);
            } else {
                mem.ld_run(r.addr, &mut buf[..r.words]);
            }
        }
        prop_assert_eq!(mem.sim, want);
    }
}

/// Charge `runs` one at a time through the sink surface.
fn charge<S: Sink>(sink: &mut S, runs: &[AccessRun]) {
    for r in runs {
        if r.is_write {
            sink.write_range(r.addr, r.words);
        } else {
            sink.read_range(r.addr, r.words);
        }
    }
}
