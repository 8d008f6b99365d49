//! Exactness of the single-pass Mattson stack projection.
//!
//! For ANY access trace and ANY capacity, the [`StackSim`] curve must be
//! byte-identical to an independent per-capacity FA-LRU
//! [`MemSim::single_level_lru`] run of the same trace — fills, during-run
//! dirty victims, flush write-backs, and word-granular hits alike. These
//! property tests drive random run traces and random capacity lists
//! through both simulators, plus the edge cases (empty trace, capacity
//! beyond the footprint, write-only streams).

use memsim::{AccessRun, MemSim, StackSim};
use proptest::prelude::*;
use wa_core::CapacityCurve;

/// Reference counters at one capacity: a flushed FA-LRU MemSim run.
/// Returns (fills, victims_m, flush_victims_m, hits, dram_reads,
/// dram_writes).
fn reference(runs: &[AccessRun], cap_words: usize) -> (u64, u64, u64, u64, u64, u64) {
    let mut m = MemSim::single_level_lru(cap_words);
    m.run(runs);
    m.flush();
    let c = m.llc();
    (
        c.fills,
        c.victims_m,
        c.flush_victims_m,
        c.hits,
        m.dram_reads_lines,
        m.dram_writes_lines,
    )
}

/// Project the stack curve at every capacity in `caps_lines` and compare
/// field-for-field against independent per-capacity reference runs.
fn assert_curve_matches(runs: &[AccessRun], caps_lines: &[usize]) {
    let mut s = StackSim::new();
    s.run(runs);
    assert_matches_reference(&s.curve(), runs, caps_lines);
}

/// Compare an already projected `curve` of `runs` field-for-field
/// against independent per-capacity reference runs.
fn assert_matches_reference(curve: &CapacityCurve, runs: &[AccessRun], caps_lines: &[usize]) {
    // Histogram mass: every line touch is cold, repeat, or distanced.
    assert_eq!(curve.line_touches, curve.word_accesses);
    for &c in caps_lines {
        let cap_words = c * 8;
        let p = curve.at(cap_words as u64);
        let (fills, victims_m, flush_m, hits, dram_r, dram_w) = reference(runs, cap_words);
        assert_eq!(p.fills, fills, "fills at {c} lines");
        assert_eq!(p.writebacks, victims_m, "victims_m at {c} lines");
        assert_eq!(p.flush_writebacks, flush_m, "flush_victims_m at {c} lines");
        assert_eq!(p.hits, hits, "hits at {c} lines");
        assert_eq!(p.dram_reads_lines(), dram_r, "dram reads at {c} lines");
        assert_eq!(p.dram_writes_lines(), dram_w, "dram writes at {c} lines");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random run traces over a small address space (heavy reuse and
    /// eviction pressure), checked at a random capacity list.
    #[test]
    fn random_traces_match_reference_at_random_capacities(
        spec in prop::collection::vec((0usize..160, 1usize..24, any::<bool>()), 1..40),
        caps in prop::collection::vec(1usize..30, 1..6),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        assert_curve_matches(&runs, &caps);
    }

    /// Write-heavy ping-pong + strided spans: maximizes dirty evictions,
    /// re-dirtying, and repeat writes — the paths the interval emission
    /// and the repeat memo must get exactly right.
    #[test]
    fn adversarial_write_patterns_match(
        stride in 1usize..12,
        reps in 1usize..30,
    ) {
        let mut runs = Vec::new();
        for r in 0..reps {
            runs.push(AccessRun::write(r * stride, 1));
            runs.push(AccessRun::read(r * stride, 1));
            runs.push(AccessRun::write(r * stride + 3, 13));
        }
        assert_curve_matches(&runs, &[1, 2, 3, 5, 8, 64]);
    }

    /// Write-only streams: every fill eventually leaves dirty (during the
    /// run or at flush), at every capacity.
    #[test]
    fn write_only_streams_match(
        spec in prop::collection::vec((0usize..120, 1usize..20), 1..30),
        caps in prop::collection::vec(1usize..20, 1..5),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words)| AccessRun::write(addr, words))
            .collect();
        assert_curve_matches(&runs, &caps);
        // Cross-capacity invariant: total DRAM writes = fills at every
        // capacity (each filled line is written at least once after).
        let mut s = StackSim::new();
        s.run(&runs);
        let curve = s.curve();
        for &c in &caps {
            let p = curve.at((c * 8) as u64);
            assert_eq!(p.dram_writes_lines(), p.fills, "write-only at {c} lines");
        }
    }

    /// Long write-heavy traces over at most 16 lines: thousands of
    /// distinct-line touches on a footprint that never outgrows the
    /// 64-slot tree, so every case compacts the tick space many times.
    /// The curve taken mid-trace and the one at the end must both match
    /// the reference runs of the trace so far.
    #[test]
    fn compacting_long_traces_match_mid_trace_and_at_end(
        span_lines in 1usize..17,
        spec in prop::collection::vec((0usize..1 << 16, 1usize..9, 0u8..4), 2000..4000),
        cut in 0usize..1 << 16,
    ) {
        let span = span_lines * 8;
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(x, words, kind)| {
                let addr = x % span;
                AccessRun { addr, words: words.min(span - addr), is_write: kind != 0 }
            })
            .collect();
        let cut = cut % (runs.len() + 1);
        let caps: Vec<usize> = (1..=17).collect();
        let mut s = StackSim::new();
        s.run(&runs[..cut]);
        assert_matches_reference(&s.curve(), &runs[..cut], &caps);
        s.run(&runs[cut..]);
        assert_matches_reference(&s.curve(), &runs, &caps);
        let st = s.stats();
        prop_assert_eq!(st.tree_slots, 64);
        if st.full_queries + st.memo_d1_hits + st.footprint_lines > 64 {
            prop_assert!(st.compactions > 0);
        }
    }
}

#[test]
fn empty_trace_is_all_zero_at_every_capacity() {
    assert_curve_matches(&[], &[1, 2, 7, 100]);
}

#[test]
fn capacity_beyond_footprint_sees_only_cold_misses() {
    let runs = [
        AccessRun::read(0, 40),
        AccessRun::write(8, 24),
        AccessRun::read(0, 40),
    ];
    // Footprint is 5 lines; everything ≥ 5 lines behaves identically.
    assert_curve_matches(&runs, &[5, 6, 100, 4096]);
    let mut s = StackSim::new();
    s.run(&runs);
    let curve = s.curve();
    let p = curve.at(4096 * 8);
    assert_eq!(
        p.fills, curve.cold,
        "no capacity misses above the footprint"
    );
    assert_eq!(p.writebacks, 0, "nothing evicted above the footprint");
    assert_eq!(p.flush_writebacks, 3, "the 3 written lines flush");
}

#[test]
fn zero_length_runs_and_partial_lines_are_harmless() {
    let runs = [
        AccessRun::read(3, 0),
        AccessRun::write(5, 9),
        AccessRun::read(13, 1),
        AccessRun::write(0, 0),
    ];
    assert_curve_matches(&runs, &[1, 2, 3]);
}
