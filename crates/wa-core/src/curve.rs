//! Capacity curves: exact per-capacity miss/write-back projections from a
//! single-pass Mattson stack simulation.
//!
//! LRU is a *stack algorithm* (Mattson et al., 1970): the set of lines
//! resident in a fully associative LRU cache of capacity `C` is always the
//! top `C` entries of one global recency stack, independent of `C`. One
//! pass over the access stream therefore determines, for **every**
//! capacity at once, whether each access hits (stack distance `< C`) or
//! fills (`≥ C`). The dirty-aware extension tracked here also pins the
//! write-backs: an eviction is dirty for exactly the capacities in a
//! contiguous interval `[maxd+1, d]`, where `maxd` is the deepest stack
//! distance the line reached since its last write and `d` is the distance
//! at the access that re-fetches it (see `memsim::stack` for the
//! derivation and the per-access emission).
//!
//! [`CapacityCurve`] is the projection substrate: cumulative histograms
//! over stack distance, from which [`CapacityCurve::at`] answers any
//! capacity in O(1). The producing simulator lives in `memsim::stack`;
//! the struct lives here so [`crate::report::RunReport`] can carry a
//! curve without `wa-core` depending on the simulator crate.

/// Exact counters of one fully associative LRU cache of a given capacity,
/// projected from a [`CapacityCurve`]. All line-denominated fields count
/// cache lines; `hits`/`misses` are word-granular like the simulator's
/// `LevelCounters` (every word access scores one hit or miss).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CurvePoint {
    /// Capacity this point was projected at, in words.
    pub capacity_words: u64,
    /// The same capacity in lines (`capacity_words / line_words`, min 1).
    pub capacity_lines: u64,
    /// Lines fetched from the backing store (cold + capacity misses).
    pub fills: u64,
    /// Dirty lines evicted to the backing store during the run.
    pub writebacks: u64,
    /// Dirty lines still resident at end of trace, charged as an
    /// end-of-run flush (the convention of the flushed `simmed` cells).
    pub flush_writebacks: u64,
    /// Word-granular hits (`word_accesses − misses`).
    pub hits: u64,
    /// Word-granular misses (equal to `fills`: each line touch that
    /// misses triggers exactly one fill).
    pub misses: u64,
}

impl CurvePoint {
    /// Lines read from the backing store (same as `fills`).
    pub fn dram_reads_lines(&self) -> u64 {
        self.fills
    }

    /// Lines written to the backing store, flush included.
    pub fn dram_writes_lines(&self) -> u64 {
        self.writebacks + self.flush_writebacks
    }
}

/// Single-pass projection data for FA-LRU caches of every capacity.
///
/// All histograms are *cumulative* (index `i` holds the count for
/// arguments `≤ i`), clamped at their last entry beyond the end, so
/// [`CapacityCurve::at`] is O(1) per query. Distances and capacities are
/// measured in lines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CapacityCurve {
    /// Words per cache line.
    pub line_words: u64,
    /// Total word-granular accesses in the trace.
    pub word_accesses: u64,
    /// Total line touches (one per word access; repeats included).
    pub line_touches: u64,
    /// Consecutive same-line touches (stack distance 0 by construction;
    /// they hit at every capacity ≥ 1 line).
    pub repeats: u64,
    /// First-ever touches (compulsory misses at every capacity).
    pub cold: u64,
    /// Distinct lines in the trace.
    pub footprint_lines: u64,
    /// `dist_cum[d]` = non-cold, non-repeat touches with stack distance
    /// `≤ d`. Its last entry is the total of such touches.
    pub dist_cum: Vec<u64>,
    /// `wb_lo_cum[c]` = dirty-eviction emissions whose capacity interval
    /// starts at `≤ c` (see module docs; intervals are `[maxd+1, d]`).
    pub wb_lo_cum: Vec<u64>,
    /// `wb_hi_cum[c]` = emissions whose interval ends at `≤ c`.
    pub wb_hi_cum: Vec<u64>,
    /// `flush_cum[c]` = lines dirty-resident at end of trace for every
    /// capacity `≥` their threshold, cumulative over thresholds `≤ c`.
    pub flush_cum: Vec<u64>,
}

/// Last-entry-clamped cumulative lookup: histograms are zero past their
/// end, so the cumulative value saturates at the final entry.
fn cum(h: &[u64], i: u64) -> u64 {
    if h.is_empty() {
        return 0;
    }
    let i = (i as usize).min(h.len() - 1);
    h[i]
}

impl CapacityCurve {
    /// Total non-cold, non-repeat touches (the mass of `dist_cum`).
    fn reuse_touches(&self) -> u64 {
        self.dist_cum.last().copied().unwrap_or(0)
    }

    /// Project the exact FA-LRU counters for a cache of `capacity_words`.
    /// Capacities below one line are clamped to one line (a cache holds
    /// at least the line being accessed).
    pub fn at(&self, capacity_words: u64) -> CurvePoint {
        let c = (capacity_words / self.line_words.max(1)).max(1);
        // A touch at distance d hits iff d < c: subtract the hits
        // (distance ≤ c−1) from the reuse touches, add compulsory misses.
        let reuse_misses = self.reuse_touches() - cum(&self.dist_cum, c - 1);
        let fills = self.cold + reuse_misses;
        // An emission [lo, hi] produces a write-back at capacity c iff
        // lo ≤ c ≤ hi: count intervals starting at ≤ c, minus those
        // already closed (ending at ≤ c−1).
        let writebacks = cum(&self.wb_lo_cum, c) - cum(&self.wb_hi_cum, c.saturating_sub(1));
        let flush_writebacks = cum(&self.flush_cum, c);
        CurvePoint {
            capacity_words,
            capacity_lines: c,
            fills,
            writebacks,
            flush_writebacks,
            hits: self.word_accesses - fills,
            misses: fills,
        }
    }

    /// Project a list of capacities (words), in the order given.
    pub fn points(&self, capacities_words: &[u64]) -> Vec<CurvePoint> {
        capacities_words.iter().map(|&w| self.at(w)).collect()
    }

    /// Default capacity ladder: powers of two in words, from one line up
    /// to the first power of two covering the trace footprint.
    pub fn default_ladder(&self) -> Vec<u64> {
        let lw = self.line_words.max(1);
        let footprint_words = (self.footprint_lines.max(1)) * lw;
        let mut caps = Vec::new();
        let mut c = lw.next_power_of_two();
        loop {
            caps.push(c);
            if c >= footprint_words {
                break;
            }
            c *= 2;
        }
        caps
    }

    /// The reuse-distance histogram on one line, as `--reuse` reports
    /// it: `cold=5|rep=120|d1=3|d2-3=1|d4-7=9|…`. `cold` counts first
    /// touches and `rep` consecutive same-line repeats; the other
    /// touches are bucketed by stack distance (distinct lines since the
    /// previous touch) in powers of two, `d0`, `d1`, `d2-3`, `d4-7`, ….
    /// Empty buckets and a zero `rep` are omitted.
    pub fn render_reuse(&self) -> String {
        let mut parts = vec![format!("cold={}", self.cold)];
        if self.repeats > 0 {
            parts.push(format!("rep={}", self.repeats));
        }
        // Buckets [lo, hi]: [0, 0], [1, 1], [2, 3], [4, 7], ….
        let mut lo = 0u64;
        while (lo as usize) < self.dist_cum.len() {
            let hi = (2 * lo).saturating_sub(1);
            let below = lo.checked_sub(1).map_or(0, |d| cum(&self.dist_cum, d));
            let n = cum(&self.dist_cum, hi) - below;
            if n > 0 {
                let label = if lo == hi {
                    format!("d{lo}")
                } else {
                    format!("d{lo}-{hi}")
                };
                parts.push(format!("{label}={n}"));
            }
            lo = (2 * lo).max(1);
        }
        parts.join("|")
    }

    /// JSON object (stable field order) carrying the curve sampled at
    /// `capacities_words`: summary scalars plus one point per capacity.
    pub fn to_json(&self, capacities_words: &[u64]) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"line_words\":{},\"word_accesses\":{},\"line_touches\":{},\
             \"repeats\":{},\"cold_lines\":{},\"footprint_lines\":{},\"points\":[",
            self.line_words,
            self.word_accesses,
            self.line_touches,
            self.repeats,
            self.cold,
            self.footprint_lines
        );
        for (i, p) in self.points(capacities_words).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"capacity_words\":{},\"capacity_lines\":{},\"fills\":{},\
                 \"writebacks\":{},\"flush_writebacks\":{},\"dram_reads_lines\":{},\
                 \"dram_writes_lines\":{},\"hits\":{},\"misses\":{}}}",
                p.capacity_words,
                p.capacity_lines,
                p.fills,
                p.writebacks,
                p.flush_writebacks,
                p.dram_reads_lines(),
                p.dram_writes_lines(),
                p.hits,
                p.misses
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built curve for the trace R0 R1 R0 W1 (line addresses),
    /// line_words = 1, word = line touch.
    ///
    /// Touches: 0 cold, 1 cold, 0 at d=1, 1 at d=1 (write).
    /// Emissions: none during the run (both reuses hit any C ≥ 2; at
    /// C = 1 the W1 access finds line 1 clean — it was never written
    /// before). End state: line 1 dirty, maxd=0, 0 lines after it → e=0;
    /// line 0 clean. Flush threshold for line 1 = max(0, 0)+1 = 1.
    fn tiny() -> CapacityCurve {
        CapacityCurve {
            line_words: 1,
            word_accesses: 4,
            line_touches: 4,
            repeats: 0,
            cold: 2,
            footprint_lines: 2,
            // d-histogram {1: 2} → cumulative [0, 2].
            dist_cum: vec![0, 2],
            wb_lo_cum: vec![0],
            wb_hi_cum: vec![0],
            // flush threshold histogram {1: 1} → cumulative [0, 1].
            flush_cum: vec![0, 1],
        }
    }

    #[test]
    fn projection_matches_hand_simulation() {
        let c = tiny();
        // C = 1: both reuses miss (d=1 ≥ 1) → 4 fills; the final W1
        // leaves line 1 dirty-resident → 1 flush write-back.
        let p1 = c.at(1);
        assert_eq!(p1.fills, 4);
        assert_eq!(p1.writebacks, 0);
        assert_eq!(p1.flush_writebacks, 1);
        assert_eq!(p1.hits, 0);
        assert_eq!(p1.misses, 4);
        assert_eq!(p1.dram_writes_lines(), 1);
        // C = 2 (and beyond): only the 2 cold fills; line 1 still flushes.
        for cap in [2, 3, 100] {
            let p = c.at(cap);
            assert_eq!(p.fills, 2, "capacity {cap}");
            assert_eq!(p.hits, 2);
            assert_eq!(p.flush_writebacks, 1);
        }
    }

    #[test]
    fn sub_line_capacity_clamps_to_one_line() {
        let mut c = tiny();
        c.line_words = 8;
        let p = c.at(3);
        assert_eq!(p.capacity_lines, 1);
    }

    #[test]
    fn default_ladder_covers_footprint() {
        let mut c = tiny();
        c.line_words = 8;
        c.footprint_lines = 37;
        let ladder = c.default_ladder();
        assert_eq!(ladder[0], 8);
        assert!(ladder.windows(2).all(|w| w[1] == 2 * w[0]));
        assert!(*ladder.last().unwrap() >= 37 * 8);
        assert!(ladder[ladder.len() - 2] < 37 * 8);
    }

    #[test]
    fn render_reuse_buckets_are_log2() {
        // One touch at each distance 0..=8: buckets d0, d1, d2-3, d4-7,
        // d8-15 hold 1, 1, 2, 4 and 1 of them.
        let c = CapacityCurve {
            cold: 3,
            repeats: 0,
            dist_cum: (1..=9).collect(),
            ..tiny()
        };
        assert_eq!(c.render_reuse(), "cold=3|d0=1|d1=1|d2-3=2|d4-7=4|d8-15=1");
        assert_eq!(tiny().render_reuse(), "cold=2|d1=2");
    }

    #[test]
    fn json_shape_is_stable() {
        let j = tiny().to_json(&[1, 2]);
        assert!(j.starts_with("{\"line_words\":1,\"word_accesses\":4,"));
        assert!(j.contains("\"points\":[{\"capacity_words\":1,"));
        assert!(j.contains("\"fills\":4"));
        assert!(j.ends_with("}]}"));
    }
}
