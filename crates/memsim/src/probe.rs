//! Optional observer on [`crate::MemSim`]: per-phase counter deltas and
//! an optional reuse-distance histogram.
//!
//! A [`Probe`] attaches to a simulator (automatically when a
//! [`wa_core::obs`] recorder is installed — see
//! [`crate::MemSim::stacked_lru`] — or explicitly via
//! [`crate::MemSim::attach_probe`]). Workloads mark phase boundaries with
//! the no-op-by-default [`crate::Mem::phase`] call; the probe attributes
//! every counter delta (fills, write-backs, DRAM traffic, memo hits) and
//! the wall time between marks to the *current* phase, aggregated by
//! phase name — a kernel that alternates `"gemm-read"`/`"c-write"` marks
//! thousands of times still reports exactly two rows.
//!
//! The [`ReuseHist`] is the classical Mattson/LRU stack-distance
//! histogram over the line-granular access stream, computed with a
//! Fenwick tree over access ticks. Its tree is never compacted, so it
//! grows with the number of *distinct-line* touches and each touch costs
//! `O(log touches)`; the Mattson stack backend ([`crate::StackSim`])
//! shares the `Fenwick` type but compacts its ticks, costing
//! `O(footprint)` memory and `O(log footprint)` per touch. Consecutive
//! same-line accesses — the simulator's memo/bulk fast path — are
//! distance-0 by definition and are folded in as O(1) bucket bumps, so
//! the histogram costs nothing extra on the hot path it would otherwise
//! destroy.

use crate::cache::LevelCounters;
use std::collections::HashMap;
use std::time::Instant;

/// Cumulative counter state of a [`crate::MemSim`] at one point in time.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Total word accesses (the simulator clock).
    pub accesses: u64,
    /// Per-level counters, fastest first.
    pub counters: Vec<LevelCounters>,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

/// Aggregated deltas for one named phase. `fills`/`writebacks` are per
/// level (fastest first), in lines; `writebacks` counts dirty victims
/// plus flush-drained dirty lines.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    pub name: String,
    pub wall_ns: u128,
    pub accesses: u64,
    pub fills: Vec<u64>,
    pub writebacks: Vec<u64>,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl PhaseStats {
    fn new(name: &str, levels: usize) -> PhaseStats {
        PhaseStats {
            name: name.to_string(),
            wall_ns: 0,
            accesses: 0,
            fills: vec![0; levels],
            writebacks: vec![0; levels],
            dram_reads: 0,
            dram_writes: 0,
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    fn add_delta(&mut self, from: &Snapshot, to: &Snapshot, wall_ns: u128) {
        self.wall_ns += wall_ns;
        self.accesses += to.accesses - from.accesses;
        for i in 0..self.fills.len() {
            self.fills[i] += to.counters[i].fills - from.counters[i].fills;
            let wb_to = to.counters[i].victims_m + to.counters[i].flush_victims_m;
            let wb_from = from.counters[i].victims_m + from.counters[i].flush_victims_m;
            self.writebacks[i] += wb_to - wb_from;
        }
        self.dram_reads += to.dram_reads - from.dram_reads;
        self.dram_writes += to.dram_writes - from.dram_writes;
        self.memo_hits += to.memo_hits - from.memo_hits;
        self.memo_misses += to.memo_misses - from.memo_misses;
    }
}

/// Per-phase counter attribution plus the optional reuse histogram.
/// Owned by the simulator; see the module docs for the attach paths.
pub struct Probe {
    levels: usize,
    phases: Vec<PhaseStats>,
    index: HashMap<String, usize>,
    current: usize,
    start: Snapshot,
    start_t: Instant,
    reuse: Option<ReuseHist>,
}

impl Probe {
    /// A probe for a `levels`-deep simulator. Accesses before the first
    /// [`Probe::mark`] land in the `"(init)"` phase.
    pub fn new(levels: usize) -> Probe {
        let mut p = Probe {
            levels,
            phases: Vec::new(),
            index: HashMap::new(),
            current: 0,
            start: Snapshot {
                counters: vec![LevelCounters::default(); levels],
                ..Snapshot::default()
            },
            start_t: Instant::now(),
            reuse: None,
        };
        p.phases.push(PhaseStats::new("(init)", levels));
        p.index.insert("(init)".to_string(), 0);
        p
    }

    /// Rebase the open phase on `snap` — used when attaching to a
    /// simulator that already has counter history, so pre-attach
    /// activity is not misattributed to the first phase.
    pub(crate) fn reset_start(&mut self, snap: Snapshot) {
        self.start = snap;
        self.start_t = Instant::now();
    }

    /// Enable the reuse-distance histogram.
    pub fn with_reuse(mut self) -> Probe {
        self.reuse = Some(ReuseHist::new());
        self
    }

    pub fn has_reuse(&self) -> bool {
        self.reuse.is_some()
    }

    pub fn reuse(&self) -> Option<&ReuseHist> {
        self.reuse.as_ref()
    }

    pub(crate) fn reuse_mut(&mut self) -> Option<&mut ReuseHist> {
        self.reuse.as_mut()
    }

    /// Close the current phase at counter state `now` and switch
    /// attribution to `name` (reopening its row if seen before).
    pub fn mark(&mut self, name: &str, now: Snapshot) {
        let wall = self.start_t.elapsed().as_nanos();
        let (start, cur) = (&self.start, self.current);
        self.phases[cur].add_delta(start, &now, wall);
        self.current = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.phases.len();
                self.phases.push(PhaseStats::new(name, self.levels));
                self.index.insert(name.to_string(), i);
                i
            }
        };
        self.start = now;
        self.start_t = Instant::now();
    }

    /// The per-phase table with the still-open tail phase closed at `now`
    /// — non-mutating, so it can run from a `&MemSim` report adapter.
    /// Phases with no simulator activity at all are dropped; a phase with
    /// traffic but no accesses (e.g. `"(flush)"`, which only drains) is
    /// kept — flush write-backs are the paper's headline number.
    pub fn finalized(&self, now: Snapshot) -> Vec<PhaseStats> {
        let mut out = self.phases.clone();
        out[self.current].add_delta(&self.start, &now, self.start_t.elapsed().as_nanos());
        out.retain(|p| {
            p.accesses > 0
                || p.dram_reads > 0
                || p.dram_writes > 0
                || p.fills.iter().any(|&f| f > 0)
                || p.writebacks.iter().any(|&w| w > 0)
        });
        out
    }
}

/// Fenwick (binary-indexed) tree over access ticks `1..=n`, holding a 1
/// at each line's most recent access position. Grows by doubling;
/// [`Fenwick::reset`] rebuilds it at any size for a compacted tick space.
/// Shared by [`ReuseHist`] and the Mattson stack simulator
/// (`crate::stack::StackSim`), which both derive stack distances from
/// prefix sums over it.
pub(crate) struct Fenwick {
    /// `fen.len() == n + 1`; index 0 unused.
    fen: Vec<i64>,
    /// Tree size (power of two).
    n: usize,
}

impl Fenwick {
    pub(crate) fn new() -> Fenwick {
        Fenwick {
            fen: vec![0; 65],
            n: 64,
        }
    }

    /// Grow until `tick` is addressable.
    pub(crate) fn ensure(&mut self, tick: usize) {
        while tick > self.n {
            self.grow();
        }
    }

    /// Double the tree. The only node whose range reaches into the past
    /// is the new root `2n` (covers `1..=2n`); its value is the current
    /// total, which at size `n` (a power of two) is exactly `fen[n]`.
    /// Every other new node's range lies wholly in the not-yet-ticked
    /// future, so zero is correct.
    fn grow(&mut self) {
        let total = self.fen[self.n];
        self.n *= 2;
        self.fen.resize(self.n + 1, 0);
        self.fen[self.n] = total;
    }

    /// Tree size: the highest addressable position.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Rebuild as a tree of `n` slots (a power of two) holding a 1 at
    /// each of the positions `1..=ones` and 0 elsewhere, in `O(n)`:
    /// each node passes its finished sum up to its parent once.
    pub(crate) fn reset(&mut self, n: usize, ones: usize) {
        debug_assert!(n.is_power_of_two() && ones <= n);
        self.n = n;
        self.fen.clear();
        self.fen.resize(n + 1, 0);
        self.fen.shrink_to_fit();
        self.fen[1..=ones].fill(1);
        for i in 1..n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.fen[parent] += self.fen[i];
            }
        }
    }

    pub(crate) fn add(&mut self, mut i: usize, v: i64) {
        while i <= self.n {
            self.fen[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=i`.
    pub(crate) fn prefix(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.fen[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Mattson (LRU stack-distance) histogram over the line access stream.
///
/// `touch(line)` records one *distinct-line-boundary* access: distance =
/// number of distinct lines touched since `line`'s previous access
/// (`u64::MAX`-like "cold" for first touches), bucketed as `d = 0`,
/// `d = 1`, `d ∈ [2,3]`, `[4,7]`, … (powers of two). Consecutive
/// same-line repeats are distance 0 and are recorded in bulk via
/// [`ReuseHist::record_repeats`] into the separate [`ReuseHist::repeats`]
/// counter without touching the Fenwick tree — valid precisely because
/// they are contiguous, so they carry no distinct-line information.
/// Keeping them out of `buckets[0]` means the buckets count exactly the
/// full-walk touches while `total()` still equals every line touch.
pub struct ReuseHist {
    /// `line -> tick of its last full-walk access`.
    last: HashMap<u64, usize>,
    /// Fenwick tree over ticks: 1 where a line's most recent access sits.
    fen: Fenwick,
    tick: usize,
    /// First-ever touches (infinite distance).
    pub cold: u64,
    /// Memoized consecutive same-line repeats (distance 0 by
    /// construction, never walked through the Fenwick tree).
    pub repeats: u64,
    /// `buckets[0]` = distance 0; `buckets[i]` = distance in
    /// `[2^(i-1), 2^i - 1]` for `i ≥ 1`. Full-walk touches only.
    pub buckets: Vec<u64>,
}

impl Default for ReuseHist {
    fn default() -> Self {
        ReuseHist::new()
    }
}

impl ReuseHist {
    pub fn new() -> ReuseHist {
        ReuseHist {
            last: HashMap::new(),
            fen: Fenwick::new(),
            tick: 0,
            cold: 0,
            repeats: 0,
            buckets: vec![0],
        }
    }

    /// Record `n` consecutive same-line repeat accesses (distance 0).
    pub fn record_repeats(&mut self, n: u64) {
        self.repeats += n;
    }

    /// Record one access to `line` at a line boundary (a full-walk access
    /// in the simulator).
    pub fn touch(&mut self, line: u64) {
        self.tick += 1;
        self.fen.ensure(self.tick);
        match self.last.insert(line, self.tick) {
            None => self.cold += 1,
            Some(prev) => {
                // Distinct lines touched strictly between prev and now.
                let d = (self.fen.prefix(self.tick - 1) - self.fen.prefix(prev)) as u64;
                let b = bucket_of(d);
                if self.buckets.len() <= b {
                    self.buckets.resize(b + 1, 0);
                }
                self.buckets[b] += 1;
                self.fen.add(prev, -1);
            }
        }
        self.fen.add(self.tick, 1);
    }

    /// Total recorded accesses (cold + repeats + boundary touches) —
    /// equal to the line touches of the trace, so histogram mass checks
    /// out against the simulator clock.
    pub fn total(&self) -> u64 {
        self.cold + self.repeats + self.buckets.iter().sum::<u64>()
    }

    /// Compact single-line rendering for report config echo:
    /// `cold=5|rep=120|d0=2|d1=3|d2-3=1|…` (empty parts omitted).
    pub fn render(&self) -> String {
        let mut parts = vec![format!("cold={}", self.cold)];
        if self.repeats > 0 {
            parts.push(format!("rep={}", self.repeats));
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let label = if i == 0 {
                "d0".to_string()
            } else {
                let lo = 1u64 << (i - 1);
                let hi = (1u64 << i) - 1;
                if lo == hi {
                    format!("d{lo}")
                } else {
                    format!("d{lo}-{hi}")
                }
            };
            parts.push(format!("{label}={n}"));
        }
        parts.join("|")
    }
}

fn bucket_of(d: u64) -> usize {
    if d == 0 {
        0
    } else {
        64 - d.leading_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
    }

    #[test]
    fn reuse_hist_matches_hand_computed_stack_distances() {
        // Stream: A B C A A B. Distances: A,B,C cold; A at distance 2
        // (B, C distinct since); repeat A distance 0; B at distance 2
        // (C, A since).
        let mut h = ReuseHist::new();
        for line in [0u64, 1, 2, 0] {
            h.touch(line);
        }
        h.record_repeats(1); // the consecutive A repeat
        h.touch(1);
        assert_eq!(h.cold, 3);
        assert_eq!(h.repeats, 1, "one memoized repeat, outside the buckets");
        assert_eq!(h.buckets[0], 0, "no full-walk distance-0 touch");
        assert_eq!(h.buckets[bucket_of(2)], 2, "two distance-2 reuses");
        assert_eq!(h.total(), 6, "mass equals total line touches");
        assert_eq!(h.render(), "cold=3|rep=1|d2-3=2");
    }

    #[test]
    fn reuse_hist_distance_counts_distinct_lines_not_accesses() {
        // A B B B B A: only one distinct line (B) between the As.
        let mut h = ReuseHist::new();
        h.touch(0);
        h.touch(1);
        h.record_repeats(3);
        h.touch(0);
        assert_eq!(h.buckets[bucket_of(1)], 1, "A reused at distance 1");
    }

    #[test]
    fn reuse_hist_grows_past_initial_capacity() {
        let mut h = ReuseHist::new();
        for i in 0..200u64 {
            h.touch(i);
        }
        h.touch(0); // distance 199
        assert_eq!(h.cold, 200);
        assert_eq!(h.buckets[bucket_of(199)], 1);
    }

    #[test]
    fn phase_stats_aggregate_by_name_across_repeated_marks() {
        let mut p = Probe::new(1);
        let snap = |accesses: u64, fills: u64| Snapshot {
            accesses,
            counters: vec![LevelCounters {
                fills,
                ..LevelCounters::default()
            }],
            ..Snapshot::default()
        };
        // (init) sees 2 accesses, then alternate a/b twice each.
        p.mark("a", snap(2, 1));
        p.mark("b", snap(5, 2)); // a: +3 accesses, +1 fill
        p.mark("a", snap(6, 2)); // b: +1 access
        p.mark("b", snap(10, 4)); // a again: +4 accesses, +2 fills
        let rows = p.finalized(snap(11, 4)); // b again: +1 access
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(get("(init)").accesses, 2);
        assert_eq!(get("a").accesses, 7);
        assert_eq!(get("a").fills, vec![3]);
        assert_eq!(get("b").accesses, 2);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn finalized_drops_access_free_phases_and_is_repeatable() {
        let mut p = Probe::new(1);
        p.mark(
            "never-used",
            Snapshot {
                accesses: 0,
                counters: vec![LevelCounters::default()],
                ..Snapshot::default()
            },
        );
        let now = Snapshot {
            accesses: 4,
            counters: vec![LevelCounters::default()],
            ..Snapshot::default()
        };
        let rows = p.finalized(now.clone());
        assert_eq!(rows.len(), 1, "(init) had no accesses; tail phase has 4");
        assert_eq!(rows[0].name, "never-used");
        // finalized() is non-mutating: calling again gives the same rows.
        let again = p.finalized(now);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].accesses, 4);
    }
}
