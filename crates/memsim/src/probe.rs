//! Optional observer on [`crate::MemSim`]: per-phase counter deltas.
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
//! The reuse-distance histogram (`--reuse`) is not the probe's: the
//! simulator tees its accesses into a [`crate::StackSim`], and the
//! report renders the histogram from that stack's
//! [`wa_core::CapacityCurve`].

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

/// Per-phase counter attribution.
/// Owned by the simulator; see the module docs for the attach paths.
pub struct Probe {
    levels: usize,
    phases: Vec<PhaseStats>,
    index: HashMap<String, usize>,
    current: usize,
    start: Snapshot,
    start_t: Instant,
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
    /// Every named phase keeps its row, so the wall time of a phase that
    /// moves no words (CA-CG's `gram`) is attributed too, and a phase
    /// with traffic but no accesses (e.g. `"(flush)"`, which only drains)
    /// carries the flush write-backs, the paper's headline number. Only
    /// an `"(init)"` with no simulator activity is dropped.
    pub fn finalized(&self, now: Snapshot) -> Vec<PhaseStats> {
        let mut out = self.phases.clone();
        out[self.current].add_delta(&self.start, &now, self.start_t.elapsed().as_nanos());
        let init = &out[0];
        if init.accesses == 0
            && init.dram_reads == 0
            && init.dram_writes == 0
            && init.fills.iter().all(|&f| f == 0)
            && init.writebacks.iter().all(|&w| w == 0)
        {
            out.remove(0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn finalized_keeps_named_phases_that_move_no_words() {
        let mut p = Probe::new(1);
        let snap = |accesses: u64| Snapshot {
            accesses,
            counters: vec![LevelCounters::default()],
            ..Snapshot::default()
        };
        p.mark("basis", snap(3)); // (init): 3 accesses
        p.mark("gram", snap(9)); // basis: 6
        p.mark("vec-update", snap(9)); // gram: none
        let rows = p.finalized(snap(12));
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["(init)", "basis", "gram", "vec-update"]);
        assert_eq!(rows[2].accesses, 0);
    }
}
