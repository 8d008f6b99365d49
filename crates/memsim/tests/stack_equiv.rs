//! Exactness of the single-pass Mattson stack projection.
//!
//! For ANY access trace and ANY capacity, the [`StackSim`] curve must be
//! byte-identical to an independent per-capacity FA-LRU
//! [`MemSim::single_level_lru`] run of the same trace — fills, during-run
//! dirty victims, flush write-backs, and word-granular hits alike. These
//! property tests drive random run traces and random capacity lists
//! through both simulators, plus the edge cases (empty trace, capacity
//! beyond the footprint, write-only streams).
//!
//! The same stack serves `simmed`'s reuse histogram as a tee inside
//! [`MemSim`]; the tee must leave the hierarchy's counters untouched and
//! see exactly the stream a standalone [`StackSim`] would.

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

/// One call of the mixed per-word / range / batch / flush API the tee
/// property drives: `(kind, addr, words, is_write)`.
type Call = (u8, usize, usize, bool);

/// Replay `calls` on a 1–3 level hierarchy, with or without the reuse
/// tee. Flushes go to the hierarchy only: the stack has no residency.
fn hierarchy_of(calls: &[Call], depth: usize, tee: bool) -> MemSim {
    let caps = [16, 64, 256];
    let mut m = MemSim::stacked_lru(&caps[..depth]);
    if tee {
        m.attach_probe(true);
    }
    for &(kind, addr, words, is_write) in calls {
        match (kind, is_write) {
            (0, false) => m.read(addr),
            (0, true) => m.write(addr),
            (1, false) => m.read_range(addr, words),
            (1, true) => m.write_range(addr, words),
            (2, _) => m.run(&[
                AccessRun {
                    addr,
                    words,
                    is_write,
                },
                AccessRun {
                    addr: addr / 2,
                    words: words / 2,
                    is_write: !is_write,
                },
            ]),
            _ => {
                m.flush();
            }
        }
    }
    m
}

/// The same calls on a standalone stack.
fn stack_of(calls: &[Call]) -> StackSim {
    let mut s = StackSim::new();
    for &(kind, addr, words, is_write) in calls {
        match (kind, is_write) {
            (0, false) => s.read(addr),
            (0, true) => s.write(addr),
            (1, false) => s.read_range(addr, words),
            (1, true) => s.write_range(addr, words),
            (2, _) => s.run(&[
                AccessRun {
                    addr,
                    words,
                    is_write,
                },
                AccessRun {
                    addr: addr / 2,
                    words: words / 2,
                    is_write: !is_write,
                },
            ]),
            _ => {}
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reuse tee is invisible to the hierarchy and exact: counters
    /// with and without `attach_probe(true)` are identical, and the
    /// teed stack's curve equals a standalone `StackSim` fed the same
    /// calls — memo repeats, memo[1] ping-pongs and flushes included.
    #[test]
    fn reuse_tee_leaves_counters_alone_and_equals_a_standalone_stack(
        calls in prop::collection::vec((0u8..4, 0usize..200, 0usize..24, any::<bool>()), 1..60),
        depth in 1usize..4,
    ) {
        let plain = hierarchy_of(&calls, depth, false);
        let teed = hierarchy_of(&calls, depth, true);
        for i in 0..depth {
            prop_assert_eq!(plain.counters(i), teed.counters(i));
        }
        prop_assert_eq!(plain.dram_reads_lines, teed.dram_reads_lines);
        prop_assert_eq!(plain.dram_writes_lines, teed.dram_writes_lines);
        prop_assert_eq!(plain.memo_hits, teed.memo_hits);
        prop_assert_eq!(plain.memo_misses, teed.memo_misses);
        prop_assert!(plain.reuse().is_none());
        let curve = teed.reuse().expect("attach_probe(true) tees a stack").curve();
        prop_assert_eq!(curve, stack_of(&calls).curve());
    }

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
        if st.full_queries + st.memo_d1_hits + st.seq_hits + st.footprint_lines > 64 {
            prop_assert!(st.compactions > 0);
        }
    }

    /// Blocked kernels re-read a block of lines in the order they last
    /// read it, which is where a touch reuses the previous touch's
    /// distance and its Fenwick move joins a deferred run. Random blocks
    /// repeated in order (one run per pass, or one run per line), with
    /// single-line touches and partial runs between them, reads mixed
    /// with writes, over footprints that compact the 64-slot tree (up to
    /// 16 lines) or double it (more). Fed in random batches through
    /// `run`, `read_range` and `write_range`, with a curve taken
    /// mid-stream and at the end.
    #[test]
    fn repeated_blocks_in_order_match_mid_trace_and_at_end(
        span_lines in 1usize..41,
        ops in prop::collection::vec(
            (0u8..4, 0usize..1 << 16, 1usize..13, 1usize..5, 0u8..3),
            1..120,
        ),
        batches in prop::collection::vec(1usize..40, 1..40),
        cut in 0usize..1 << 16,
    ) {
        let mut runs = Vec::new();
        for &(kind, x, len, reps, w) in &ops {
            let first = x % span_lines;
            let len = len.min(span_lines - first);
            let is_write = w == 0;
            match kind {
                0 => {
                    for _ in 0..reps {
                        runs.push(AccessRun { addr: first * 8, words: len * 8, is_write });
                    }
                }
                1 => {
                    for r in 0..reps {
                        for l in first..first + len {
                            let words = 1 + (x + l + r) % 8;
                            let is_write = is_write && l % 2 == 0;
                            runs.push(AccessRun { addr: l * 8, words, is_write });
                        }
                    }
                }
                2 => runs.push(AccessRun { addr: first * 8 + x % 8, words: 1, is_write }),
                _ => {
                    let addr = first * 8 + x % 8;
                    let words = (len * 3).min(span_lines * 8 - addr);
                    runs.push(AccessRun { addr, words, is_write });
                }
            }
        }
        let cut = cut % (runs.len() + 1);
        let caps: Vec<usize> = (1..=span_lines + 1).collect();
        let mut s = StackSim::new();
        let mut fed = 0;
        let mut feed = |s: &mut StackSim, end: usize| {
            for &b in batches.iter().cycle() {
                if fed == end {
                    break;
                }
                let next = (fed + b).min(end);
                match b % 3 {
                    0 => s.run(&runs[fed..next]),
                    _ => {
                        for r in &runs[fed..next] {
                            if r.is_write {
                                s.write_range(r.addr, r.words);
                            } else {
                                s.read_range(r.addr, r.words);
                            }
                        }
                    }
                }
                fed = next;
            }
        };
        feed(&mut s, cut);
        assert_matches_reference(&s.curve(), &runs[..cut], &caps);
        feed(&mut s, runs.len());
        assert_matches_reference(&s.curve(), &runs, &caps);
    }
}

/// A block re-read in order is a stretch of reused distances, which
/// stops where the tick space ends and resumes after `make_room`. Ten lines fill the 64-slot tick space at the
/// fourth line of the seventh pass, with few enough live to compact;
/// forty fill it at the twenty-fourth line of the second pass, with too
/// many, so it doubles.
#[test]
fn stretches_that_reach_the_end_of_the_tick_space_stay_exact() {
    for (lines, passes, compactions, slots) in [(10, 9, 1, 64), (40, 3, 0, 128)] {
        let runs: Vec<AccessRun> = (0..passes)
            .map(|p| AccessRun {
                addr: 0,
                words: lines * 8,
                is_write: p % 3 == 1,
            })
            .collect();
        let mut s = StackSim::new();
        s.run(&runs);
        let st = s.stats();
        assert_eq!(
            (st.compactions, st.tree_slots),
            (compactions, slots),
            "{st:?}"
        );
        // Each pass's first line continues the previous pass's order, so
        // only the first re-read and the touch after `make_room` query.
        assert_eq!(st.full_queries, 2, "{st:?}");
        assert_eq!(st.seq_hits, (passes - 1) * lines as u64 - 2, "{st:?}");
        let caps: Vec<usize> = (1..=lines + 1).collect();
        assert_matches_reference(&s.curve(), &runs, &caps);
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
