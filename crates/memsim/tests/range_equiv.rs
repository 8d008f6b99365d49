//! Counter-exactness of the line-granular fast path.
//!
//! The bulk APIs ([`MemSim::read_range`], [`MemSim::write_range`],
//! [`MemSim::run`]) and the last-line memo inside `access` are pure
//! accelerations: for ANY access trace, every [`LevelCounters`] field of
//! every level — and the DRAM line tallies — must be byte-identical to
//! the per-word reference walk (`disable_fast_path`). These property
//! tests drive random run traces through random 1-, 2-, and 3-level
//! hierarchies under every replacement policy and compare the paths
//! field for field, the memo counters against per-word calls with the
//! memo on, and the memo and work counters against the same runs fed
//! one call per line interval. With a fully associative L1, a run's
//! lines that sit in L1 in the order the run reads them are touched as
//! one stretch, and its lines absent from L1 are filled as one cold run;
//! block re-reads pin the stretches, long runs on hierarchies that mix
//! fully associative and set-associative levels pin the cold runs at
//! every depth, and fft-shaped one- and two-word runs among a few lines
//! pin the one-line memo case at the head of the range path.

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

/// Apply `runs` to `levels` levels of one kind and compare the paths as
/// [`assert_exact`] does.
fn assert_equivalent(
    levels: usize,
    ways: usize,
    policy: Policy,
    base_lines: usize,
    runs: &[AccessRun],
) {
    let ops: Vec<Op> = runs.iter().map(|&r| Op::Run(r)).collect();
    assert_exact(
        &mixed(&vec![(ways, policy); levels], base_lines),
        &ops,
        false,
    );
}

/// Per-level (ways, policy) choices for mixed hierarchies: fully
/// associative LRU, and 1-, 2- and 4-way sets under each policy.
const LEVEL_KINDS: [(usize, Policy); 10] = [
    (0, Policy::Lru),
    (1, Policy::Lru),
    (2, Policy::Lru),
    (4, Policy::Lru),
    (1, Policy::Fifo),
    (2, Policy::Fifo),
    (4, Policy::Fifo),
    (1, Policy::Clock3),
    (2, Policy::Clock3),
    (4, Policy::Clock3),
];

/// One step of a trace: a run, a flush of the whole hierarchy, or a
/// write-back of a span.
#[derive(Clone, Copy, Debug)]
enum Op {
    Run(AccessRun),
    Flush,
    Writeback(usize, usize),
}

/// Levels of `l1_lines << 2i` lines, fastest first, each of the given
/// kind (ways capped at the level's lines).
fn mixed(kinds: &[(usize, Policy)], l1_lines: usize) -> Vec<CacheConfig> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &(ways, policy))| {
            let lines = l1_lines << (2 * i);
            CacheConfig {
                capacity_words: lines * 8,
                line_words: 8,
                ways: ways.min(lines),
                policy,
            }
        })
        .collect()
}

/// `r` split at its line boundaries: one run per line interval.
fn line_calls(r: AccessRun) -> impl Iterator<Item = AccessRun> {
    let end = r.addr + r.words;
    let mut a = r.addr;
    std::iter::from_fn(move || {
        (a < end).then(|| {
            let stop = ((a / 8 + 1) * 8).min(end);
            let call = AccessRun {
                addr: a,
                words: stop - a,
                is_write: r.is_write,
            };
            a = stop;
            call
        })
    })
}

/// Apply `ops` through the range API, through the same runs fed one call
/// per line interval, through per-word calls with the memo on, and
/// through the per-word reference walk (the range API with the fast path
/// off, which must walk every word):
/// every level's counters and the DRAM tallies agree across all four,
/// the memo counters and the work counters between the range API and the
/// line calls, the memo counters between the range API and the per-word
/// calls, and the range API's work counters add up to its memo misses.
/// With `reuse`, every simulator tees its calls into a reuse stack, and
/// the range API's stack curve equals the per-word calls'.
fn assert_exact(cfgs: &[CacheConfig], ops: &[Op], reuse: bool) -> MemSim {
    let mut fast = MemSim::new(cfgs);
    let mut lines = MemSim::new(cfgs);
    let mut word = MemSim::new(cfgs);
    let mut refr = MemSim::new(cfgs);
    refr.disable_fast_path();
    if reuse {
        for sim in [&mut fast, &mut lines, &mut word, &mut refr] {
            sim.attach_probe(true);
        }
    }
    for (k, op) in ops.iter().enumerate() {
        match *op {
            Op::Run(r) => {
                // With the fast path off, the range API is the per-word
                // reference walk.
                fast.run(&[r]);
                refr.run(&[r]);
                lines.run(&line_calls(r).collect::<Vec<_>>());
                for a in r.addr..r.addr + r.words {
                    if r.is_write {
                        word.write(a);
                    } else {
                        word.read(a);
                    }
                }
            }
            Op::Flush => {
                for sim in [&mut fast, &mut lines, &mut word, &mut refr] {
                    sim.flush();
                }
            }
            Op::Writeback(addr, words) => {
                let flushed = fast.writeback_range(addr, words);
                for sim in [&mut lines, &mut word, &mut refr] {
                    assert_eq!(sim.writeback_range(addr, words), flushed, "op {k}");
                }
            }
        }
    }
    // Compare, then flush all four and compare the dirty state they
    // pushed out.
    for flushed in [false, true] {
        if flushed {
            for sim in [&mut fast, &mut lines, &mut word, &mut refr] {
                sim.flush();
            }
        }
        for i in 0..cfgs.len() {
            let r: LevelCounters = refr.counters(i);
            assert_eq!(fast.counters(i), r, "level {i}, flushed {flushed}");
            assert_eq!(
                lines.counters(i),
                r,
                "level {i} of line calls, flushed {flushed}"
            );
            assert_eq!(
                word.counters(i),
                r,
                "level {i} of word calls, flushed {flushed}"
            );
        }
        for sim in [&lines, &word, &fast] {
            assert_eq!(sim.dram_reads_lines, refr.dram_reads_lines);
            assert_eq!(sim.dram_writes_lines, refr.dram_writes_lines);
        }
    }
    assert_eq!(refr.memo_hits, 0, "the reference walks every word");
    assert_eq!(refr.work().walks, refr.memo_misses);
    for sim in [&lines, &word] {
        assert_eq!(fast.memo_hits, sim.memo_hits);
        assert_eq!(fast.memo_misses, sim.memo_misses);
    }
    assert_eq!(fast.work(), lines.work(), "work of the line calls");
    let w = fast.work();
    assert_eq!(w.walks + w.stretch_lines + w.cold_lines, fast.memo_misses);
    if reuse {
        let curve = |sim: &MemSim| sim.reuse().expect("teed stack").curve();
        assert_eq!(curve(&fast), curve(&word), "reuse curve");
        assert_eq!(curve(&lines), curve(&word), "reuse curve of line calls");
    }
    fast
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
    }
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
    assert_equivalent(2, 0, Policy::Lru, 2, &runs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Long runs over an address space several times the LLC, on 1–3
    /// levels that mix fully associative and 1/2/4-way levels under LRU,
    /// FIFO and Clock: cold runs longer than L1 (and, at depth 3, than
    /// the LLC) evict their own lines, dirty and clean, and `memo[1]`'s
    /// line among them. Runs that back up over the previous run's end
    /// re-read the lines in the memo, and runs that go on from it meet
    /// lines touched ahead of it, so cold runs stop at resident lines;
    /// short runs and block re-reads mix in memo hits and stretches, and
    /// flushes and write-backs land mid-trace.
    #[test]
    fn cold_runs_match_per_word_reference_on_mixed_hierarchies(
        levels in 1usize..4,
        kinds in prop::collection::vec(0usize..10, 3..4),
        l1_fa in any::<bool>(),
        l1_lines in prop::sample::select(vec![1usize, 4, 8]),
        ops in prop::collection::vec((0u8..12, 0usize..4096, 1usize..1500, any::<bool>()), 1..60),
    ) {
        let mut kinds: Vec<(usize, Policy)> = kinds.iter().map(|&k| LEVEL_KINDS[k]).collect();
        if l1_fa {
            kinds[0] = (0, Policy::Lru);
        }
        let cfgs = mixed(&kinds[..levels], l1_lines);
        // The end of the previous run.
        let mut end = 0;
        let mut trace = Vec::new();
        for &(kind, x, len, is_write) in &ops {
            let (addr, words) = match kind {
                0..=2 => (x, len),
                3..=5 => (end - (x % 512).min(end), len % 400 + 1),
                6 => (x, len % 20 + 1),
                7 => (x % 256, len % 200 + 1),
                8 => {
                    let a = end + x % 128;
                    trace.push(Op::Run(AccessRun { addr: a, words: 1, is_write }));
                    continue;
                }
                9 => (end, len % 400 + 1),
                10 => {
                    trace.push(Op::Flush);
                    continue;
                }
                _ => {
                    trace.push(Op::Writeback(x, len));
                    continue;
                }
            };
            trace.push(Op::Run(AccessRun { addr, words, is_write }));
            end = addr + words;
        }
        assert_exact(&cfgs, &trace, false);
    }
}

/// A cold run through a one-line L1 evicts each line it fills, so after
/// it `memo[1]` names an evicted line, which a re-read must not take as
/// a memo hit.
/// At depth 3 the run is longer than the LLC too, so it also evicts its
/// own dirty lines there.
#[test]
fn cold_run_evicts_its_own_lines_and_the_memo1_line() {
    for levels in 1..=3 {
        let kinds = [(0, Policy::Lru), (2, Policy::Fifo), (0, Policy::Lru)];
        let cfgs = mixed(&kinds[..levels], 1);
        let ops = [
            Op::Run(AccessRun::write(0, 200)),
            Op::Run(AccessRun::read(184, 1)),
            Op::Writeback(0, 200),
            Op::Run(AccessRun::read(0, 64)),
        ];
        let sim = assert_exact(&cfgs, &ops, false);
        let w = sim.work();
        // Lines 0..=24 cold, then line 23 (`memo[1]`, evicted) is a
        // one-line cold run, then lines 0..=7 are cold again.
        assert_eq!(
            (w.cold_lines, w.walks, w.stretch_lines),
            (34, 0, 0),
            "depth {levels}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fft's streams are one- and two-word runs that ping-pong among a
    /// few lines: the bit-reversal swap reads two complex words at `i`
    /// and at `j` and writes both back, and a butterfly reads and writes
    /// the pair `k`, `k + half`. Runs inside one memo line are served at
    /// the head of the range path; here they mix with runs that cross a
    /// line, flushes and write-backs, among at most four lines, on 1–3
    /// levels with a fully associative or a set-associative L1 under LRU,
    /// FIFO and Clock, with and without a teed reuse stack.
    #[test]
    fn one_line_runs_among_few_lines_match_reference_and_line_calls(
        levels in 1usize..4,
        l1_kind in prop::sample::select(vec![0usize, 2, 3, 5, 6, 8, 9]),
        lower in prop::collection::vec(0usize..10, 2..3),
        l1_lines in prop::sample::select(vec![1usize, 2, 4]),
        picks in prop::collection::vec(0usize..24, 4..5),
        reuse in any::<bool>(),
        ops in prop::collection::vec((0u8..10, 0usize..4, 0usize..4, 0usize..8, any::<bool>()), 1..80),
    ) {
        let kinds: Vec<(usize, Policy)> = std::iter::once(l1_kind)
            .chain(lower.iter().copied())
            .map(|k| LEVEL_KINDS[k])
            .collect();
        let cfgs = mixed(&kinds[..levels], l1_lines);
        // The (at most four) lines the trace ping-pongs among.
        let line = |i: usize| picks[i] * 8;
        let run = |addr, words, is_write| Op::Run(AccessRun { addr, words, is_write });
        let mut trace = Vec::new();
        for &(kind, i, j, off, is_write) in &ops {
            // Complex words `c` of lines `i` and `j` (two words each).
            let (x, y) = (line(i) + off / 2 * 2, line(j) + off % 4 * 2);
            match kind {
                // Bit-reversal swap and butterfly: read both, write both.
                0..=3 => {
                    trace.extend([run(x, 2, false), run(y, 2, false)]);
                    trace.extend([run(x, 2, true), run(y, 2, true)]);
                }
                // One-word loads and stores of either part.
                4 | 5 => trace.extend([run(x + off % 2, 1, is_write), run(y + 1, 1, !is_write)]),
                // A two-word run at any offset: at 7 it crosses a line.
                6 | 7 => trace.push(run(line(i) + off, 2, is_write)),
                8 => trace.push(Op::Flush),
                _ => trace.push(Op::Writeback(line(i), 8 * (1 + off % 2))),
            }
        }
        assert_exact(&cfgs, &trace, reuse);
    }
}
