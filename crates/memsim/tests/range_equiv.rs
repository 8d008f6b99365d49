//! Counter-exactness of the line-granular fast path.
//!
//! The bulk APIs ([`MemSim::read_range`], [`MemSim::write_range`],
//! [`MemSim::run`]) and the last-line memo inside `access` are pure
//! accelerations: for ANY access trace, every [`LevelCounters`] field of
//! every level — and the DRAM line tallies — must be byte-identical to
//! the per-word reference walk (`disable_fast_path`). These property
//! tests drive random run traces through random 1-, 2-, and 3-level
//! hierarchies under every replacement policy and compare the two paths
//! field for field. With a fully associative L1, a run's lines that sit
//! in L1 in the order the run reads them are touched as one stretch;
//! block re-reads pin that its memo counters equal a line-at-a-time
//! feed's.

use memsim::{AccessRun, CacheConfig, LevelCounters, MemSim, Policy};
use proptest::prelude::*;

/// All (ways, policy) combinations the simulator supports. Fully
/// associative (`ways == 0`) requires true LRU; the set-associative
/// configurations exercise LRU, the 3-bit clock, and FIFO.
const CONFIGS: [(usize, Policy); 4] = [
    (0, Policy::Lru),
    (2, Policy::Lru),
    (4, Policy::Clock3),
    (2, Policy::Fifo),
];

fn build(levels: usize, ways: usize, policy: Policy, base_lines: usize) -> MemSim {
    let cfgs: Vec<CacheConfig> = (0..levels)
        .map(|i| CacheConfig {
            // Strictly growing capacities: 4x per level keeps every level
            // a whole number of (ways-divisible) sets.
            capacity_words: (base_lines * 8) << (2 * i),
            line_words: 8,
            ways,
            policy,
        })
        .collect();
    MemSim::new(&cfgs)
}

/// Apply `runs` through the bulk API on one sim and the per-word
/// reference walk on another; compare every counter of every level.
fn assert_equivalent(
    levels: usize,
    ways: usize,
    policy: Policy,
    base_lines: usize,
    runs: &[AccessRun],
) {
    let mut fast = build(levels, ways, policy, base_lines);
    let mut refr = build(levels, ways, policy, base_lines);
    refr.disable_fast_path();
    fast.run(runs);
    for r in runs {
        for a in r.addr..r.addr + r.words {
            if r.is_write {
                refr.write(a);
            } else {
                refr.read(a);
            }
        }
    }
    for i in 0..levels {
        let (f, r): (LevelCounters, LevelCounters) = (fast.counters(i), refr.counters(i));
        assert_eq!(f, r, "level {i} counters diverge ({ways}-way {policy:?})");
    }
    assert_eq!(fast.dram_reads_lines, refr.dram_reads_lines);
    assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
    // And after a flush both must have pushed the same dirty state out.
    fast.flush();
    refr.flush();
    for i in 0..levels {
        assert_eq!(
            fast.counters(i),
            refr.counters(i),
            "level {i} counters diverge after flush"
        );
    }
    assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random run traces over a small address space (heavy line reuse and
    /// eviction pressure) across all policies and 1/2/3-level shapes.
    #[test]
    fn range_and_bulk_api_match_per_word_reference(
        levels in 1usize..4,
        cfg_idx in 0usize..4,
        base_lines in 2usize..6,
        spec in prop::collection::vec((0usize..160, 1usize..24, any::<bool>()), 1..40),
    ) {
        let (ways, policy) = CONFIGS[cfg_idx];
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        assert_equivalent(levels, ways, policy, base_lines * 4, &runs);
    }

    /// Dense same-line hammering maximizes memo usage; strided runs
    /// maximize line crossings. Both extremes must stay exact.
    #[test]
    fn adversarial_memo_traces_match(
        stride in 1usize..12,
        reps in 1usize..30,
        cfg_idx in 0usize..4,
    ) {
        let (ways, policy) = CONFIGS[cfg_idx];
        let mut runs = Vec::new();
        for r in 0..reps {
            // Same word over and over, then a strided hop, then a span
            // crossing several lines starting mid-line.
            runs.push(AccessRun::write(r * stride, 1));
            runs.push(AccessRun::read(r * stride, 1));
            runs.push(AccessRun::read(r * stride + 3, 13));
        }
        assert_equivalent(2, ways, policy, 8, &runs);
    }

    /// Blocked kernels re-read a block of lines in the order they last
    /// read it, which a fully associative L1 touches as one stretch.
    /// Random blocks re-read in order (some starting or ending mid-line),
    /// with single words and writes between them, on 1–3 fully
    /// associative levels: the counters equal the per-word reference,
    /// and the memo counters equal those of the same runs fed one call
    /// per line, where every stretch is one line long.
    #[test]
    fn in_order_block_rereads_match_reference_and_line_calls(
        levels in 1usize..4,
        base_lines in 2usize..12,
        ops in prop::collection::vec(
            (0u8..4, 0usize..1 << 16, 1usize..13, 1usize..5, any::<bool>()),
            1..60,
        ),
    ) {
        let span_lines = 40;
        let mut runs = Vec::new();
        for &(kind, x, len, reps, is_write) in &ops {
            let first = x % span_lines;
            let len = len.min(span_lines - first);
            match kind {
                0 | 1 => {
                    for _ in 0..reps {
                        runs.push(AccessRun { addr: first * 8, words: len * 8, is_write: is_write && kind == 1 });
                    }
                }
                2 => runs.push(AccessRun { addr: first * 8 + x % 8, words: 1, is_write }),
                _ => {
                    let addr = first * 8 + x % 8;
                    let words = (len * 8 - x % 8).max(1);
                    runs.push(AccessRun { addr, words, is_write });
                }
            }
        }
        assert_equivalent(levels, 0, Policy::Lru, base_lines, &runs);

        assert_matches_line_calls(levels, base_lines, &runs);
    }
}

/// Feed `runs` to a fully associative hierarchy as given, and to another
/// as one call per line interval (where every in-order stretch is one
/// line long): every counter, the memo counters included, must agree.
fn assert_matches_line_calls(levels: usize, base_lines: usize, runs: &[AccessRun]) {
    let mut line_calls = Vec::new();
    for r in runs {
        let (mut a, end) = (r.addr, r.addr + r.words);
        while a < end {
            let stop = ((a / 8 + 1) * 8).min(end);
            line_calls.push(AccessRun {
                addr: a,
                words: stop - a,
                is_write: r.is_write,
            });
            a = stop;
        }
    }
    let mut stretched = build(levels, 0, Policy::Lru, base_lines);
    let mut by_line = build(levels, 0, Policy::Lru, base_lines);
    stretched.run(runs);
    by_line.run(&line_calls);
    for i in 0..levels {
        assert_eq!(stretched.counters(i), by_line.counters(i), "level {i}");
    }
    assert_eq!(stretched.memo_hits, by_line.memo_hits);
    assert_eq!(stretched.memo_misses, by_line.memo_misses);
}

/// A stretch never takes L1's MRU line as its second line. Here the L2
/// evicts line 20 while L1 hits keep it MRU in L1, so the inclusive
/// hierarchy drops it from L1 and `memo[1]` goes stale: L1 then holds
/// lines 6 and 7 in that order, with 7 in `memo[0]`. A run over lines
/// 6 and 7 walks to 6, and the line-at-a-time path finds 7 in `memo[1]`.
#[test]
fn stretch_stops_before_the_mru_line_when_memo1_went_stale() {
    let mut runs = vec![AccessRun::read(160, 1)];
    for line in 0..7 {
        runs.push(AccessRun::read(line * 8, 1));
        runs.push(AccessRun::read(160, 1));
    }
    runs.push(AccessRun::read(56, 1));
    runs.push(AccessRun::read(48, 16));
    assert_matches_line_calls(2, 2, &runs);
    assert_equivalent(2, 0, Policy::Lru, 2, &runs);
}
