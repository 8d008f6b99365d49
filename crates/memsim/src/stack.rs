//! Single-pass Mattson stack simulation: exact FA-LRU fills *and*
//! write-backs for every capacity from one pass over the access stream.
//!
//! # Why one pass suffices
//!
//! LRU is a stack algorithm (Mattson et al., 1970): the residents of a
//! fully associative LRU cache of capacity `C` lines are always the top
//! `C` entries of one global recency stack. An access to line `L` whose
//! stack distance is `d` (the number of *distinct other* lines touched
//! since `L`'s previous access) therefore hits iff `d < C` — for every
//! `C` simultaneously. A histogram of exact distances answers every
//! fill count: `fills(C) = cold + #{touches with d ≥ C}`.
//!
//! # Dirty-aware extension
//!
//! Write-backs need one more per-line scalar: `maxd`, the deepest stack
//! distance `L` reached *since its last write* (reset to 0 by a write,
//! `max`ed with `d` by a read). For capacity `C`, `L` is still dirty at
//! an access iff it never missed since the write — iff `maxd < C` — and
//! the eviction preceding the access happened iff `d ≥ C`. So the
//! eviction re-fetched by an access at distance `d` wrote back dirty
//! data for exactly the capacities `C ∈ [maxd+1, d]`: one contiguous
//! interval, emitted into a pair of difference histograms
//! (`wb_lo[maxd+1] += 1`, `wb_hi[d] += 1`;
//! `WB(C) = Σ_{c≤C} wb_lo[c] − Σ_{c≤C−1} wb_hi[c]`). A single program
//! write can legitimately produce write-backs at different trace points
//! for different capacities; the interval emission captures that. `maxd`
//! is never reset by a miss — for any capacity where a miss occurred,
//! `maxd` has already grown past it, so later emission intervals
//! correctly exclude it (the refill was clean).
//!
//! At end of trace each written line `L` with `e` distinct lines after
//! its last access (and final `maxd`) still owes, for `C > maxd`:
//! a during-run write-back if `C ≤ e` (evicted dirty before the end —
//! interval `[maxd+1, e]`), else a flush write-back (`C ≥ max(maxd,e)+1`,
//! a simple threshold histogram). [`StackSim::curve`] folds this end
//! state; the per-access emissions happen in [`StackSim::run`] and
//! friends.
//!
//! The projections are *byte-identical* to independent per-capacity
//! [`crate::MemSim::single_level_lru`] runs (flushed) on any trace —
//! property-tested in `tests/stack_equiv.rs`. They are exact for fully
//! associative LRU only: set-associative or non-LRU policies do not
//! satisfy the stack property, and neither do `MemSim`'s stacked
//! hierarchies (an L1 hit does not refresh L2 recency).
//!
//! Distances are computed with the same Fenwick-tree-over-ticks scheme
//! as [`crate::ReuseHist`] (`O(log n)` per distinct-line touch). A
//! two-entry recency memo keeps the hot patterns cheap: consecutive
//! repeats are O(1) (distance 0 touches no histogram), and the
//! second-most-recent line has distance exactly 1 by construction, so
//! its touch skips both Fenwick prefix queries.

use crate::probe::Fenwick;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use wa_core::curve::CapacityCurve;
pub use wa_core::AccessRun;

/// Multiply-fold hasher for line numbers — the map's only key type. The
/// default SipHash costs more than the Fenwick work on this hot path;
/// a Fibonacci multiply with the high bits folded down suffices for
/// sequential/strided line keys.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("line keys hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type LineMap = HashMap<u64, LineState, BuildHasherDefault<LineHasher>>;

/// Per-line state of the Mattson stack.
struct LineState {
    /// Fenwick tick of the line's most recent (non-repeat) touch.
    pos: usize,
    /// Has the line ever been written? (Clean lines never owe
    /// write-backs at any capacity.)
    written: bool,
    /// Deepest stack distance reached since the last write.
    maxd: u64,
}

/// One-pass all-capacities FA-LRU simulator. Feed it the same
/// word-granular access stream as [`crate::MemSim`] (as the sink of a
/// [`crate::SimMem`], or the `read`/`write`/`*_range`/`run` calls directly),
/// then project any capacity list with [`StackSim::curve`].
pub struct StackSim {
    line_words: usize,
    /// Non-repeat touch counter (Fenwick positions).
    tick: usize,
    /// 1 at each line's most recent touch position.
    fen: Fenwick,
    lines: LineMap,
    /// Most recently touched line: consecutive repeats are distance 0.
    memo: Option<u64>,
    /// A repeat *write* happened during the current `memo` streak; its
    /// dirtying effect (written = true, maxd = 0) is applied to the memo
    /// line's map entry when the streak ends — and virtually by
    /// [`StackSim::curve`] if the trace ends mid-streak — so repeat
    /// writes stay O(1) with no map lookup.
    memo_dirty: bool,
    /// Second-most-recent distinct line: its next touch has stack
    /// distance exactly 1 (only `memo` intervened), so no Fenwick
    /// prefix queries are needed.
    memo2: Option<u64>,
    word_accesses: u64,
    repeats: u64,
    cold: u64,
    /// Exact distance histogram over non-cold, non-repeat touches.
    dist: Vec<u64>,
    /// Dirty-eviction interval emissions (see module docs).
    wb_lo: Vec<u64>,
    wb_hi: Vec<u64>,
    /// Cancel token captured at construction (see [`crate::MemSim`]).
    cancel_token: Option<wa_core::CancelToken>,
    /// Word-access count at which the token is next polled; `u64::MAX`
    /// when no token is installed.
    cancel_check_at: u64,
}

impl Default for StackSim {
    fn default() -> Self {
        StackSim::new()
    }
}

fn bump(v: &mut Vec<u64>, i: usize) {
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] += 1;
}

/// Turn a histogram into its running (cumulative) sums, in place.
fn cumulate(mut v: Vec<u64>) -> Vec<u64> {
    let mut acc = 0;
    for x in v.iter_mut() {
        acc += *x;
        *x = acc;
    }
    v
}

impl StackSim {
    /// A stack simulator over [`crate::LINE_WORDS`]-word lines — the same
    /// line size as every engine `simmed` hierarchy.
    pub fn new() -> StackSim {
        StackSim::with_line_words(crate::xeon::LINE_WORDS)
    }

    pub fn with_line_words(line_words: usize) -> StackSim {
        assert!(line_words > 0, "line size must be positive");
        let cancel_token = wa_core::cancel::current();
        let cancel_check_at = if cancel_token.is_some() {
            wa_core::cancel::CHECK_INTERVAL
        } else {
            u64::MAX
        };
        StackSim {
            line_words,
            tick: 0,
            fen: Fenwick::new(),
            lines: LineMap::default(),
            memo: None,
            memo_dirty: false,
            memo2: None,
            word_accesses: 0,
            repeats: 0,
            cold: 0,
            dist: Vec::new(),
            wb_lo: Vec::new(),
            wb_hi: Vec::new(),
            cancel_token,
            cancel_check_at,
        }
    }

    /// Poll the captured cancel token (cold branch of the per-access
    /// check) and unwind with the current access count if it has fired.
    #[cold]
    fn cancel_checkpoint(&mut self) {
        self.cancel_check_at = self.word_accesses + wa_core::cancel::CHECK_INTERVAL;
        if let Some(t) = &self.cancel_token {
            if t.is_cancelled() {
                let reason = t.reason().unwrap_or(wa_core::CancelReason::Deadline);
                wa_core::cancel::raise(self.word_accesses, reason);
            }
        }
    }

    pub fn line_words(&self) -> usize {
        self.line_words
    }

    /// Distinct lines touched so far.
    pub fn footprint_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Total word accesses recorded.
    pub fn word_accesses(&self) -> u64 {
        self.word_accesses
    }

    /// Record a read of word address `addr`.
    #[inline]
    pub fn read(&mut self, addr: usize) {
        self.word_accesses += 1;
        if self.word_accesses >= self.cancel_check_at {
            self.cancel_checkpoint();
        }
        self.touch_line(addr as u64 / self.line_words as u64, false);
    }

    /// Record a write of word address `addr`.
    #[inline]
    pub fn write(&mut self, addr: usize) {
        self.word_accesses += 1;
        if self.word_accesses >= self.cancel_check_at {
            self.cancel_checkpoint();
        }
        self.touch_line(addr as u64 / self.line_words as u64, true);
    }

    /// Record a sequential read scan of `[addr, addr + words)`.
    pub fn read_range(&mut self, addr: usize, words: usize) {
        self.range_access(addr, words, false);
    }

    /// Record sequential writes over `[addr, addr + words)`.
    pub fn write_range(&mut self, addr: usize, words: usize) {
        self.range_access(addr, words, true);
    }

    /// Replay a batch of access runs (the bulk API kernels drive).
    pub fn run(&mut self, runs: &[AccessRun]) {
        for r in runs {
            self.range_access(r.addr, r.words, r.is_write);
        }
    }

    fn range_access(&mut self, addr: usize, words: usize, is_write: bool) {
        let lw = self.line_words;
        let end = addr + words;
        let mut a = addr;
        while a < end {
            let line_end = (a / lw + 1) * lw;
            let in_line = line_end.min(end) - a;
            self.word_accesses += in_line as u64;
            if self.word_accesses >= self.cancel_check_at {
                self.cancel_checkpoint();
            }
            self.touch_line(a as u64 / lw as u64, is_write);
            if in_line > 1 {
                // The remaining words of the interval are distance-0
                // repeats of the line just touched; `touch_line` already
                // applied the write's dirtying effect.
                self.repeats += (in_line - 1) as u64;
            }
            a = line_end;
        }
    }

    /// Apply a memo streak's pending repeat-write dirtying to the memo
    /// line's map entry. Must run before the streak ends (the entry is
    /// never read mid-streak, so deferring until here is exact).
    fn flush_memo_dirty(&mut self) {
        if self.memo_dirty {
            let prev = self.memo.expect("memo_dirty implies an active memo");
            let st = self.lines.get_mut(&prev).expect("memo line is mapped");
            st.written = true;
            st.maxd = 0;
            self.memo_dirty = false;
        }
    }

    /// One line-granular touch: distance, fill/write-back emission, state
    /// update. The word-level accounting is the caller's job.
    fn touch_line(&mut self, line: u64, is_write: bool) {
        if self.memo == Some(line) {
            // Distance 0: hits at every capacity ≥ 1 line, so it affects
            // no histogram — but a repeat *write* re-dirties the line
            // (applied lazily when the streak ends).
            self.repeats += 1;
            self.memo_dirty |= is_write;
            return;
        }
        self.flush_memo_dirty();
        self.tick += 1;
        self.fen.ensure(self.tick);
        if self.memo2 == Some(line) {
            // Second-most-recent line: exactly one distinct line (the
            // memo) was touched since, so d = 1 with no prefix queries.
            let st = self.lines.get_mut(&line).expect("memo2 line is mapped");
            bump(&mut self.dist, 1);
            if st.written && st.maxd == 0 {
                bump(&mut self.wb_lo, 1);
                bump(&mut self.wb_hi, 1);
            }
            self.fen.add(st.pos, -1);
            st.pos = self.tick;
            if is_write {
                st.written = true;
                st.maxd = 0;
            } else {
                st.maxd = st.maxd.max(1);
            }
        } else {
            match self.lines.get_mut(&line) {
                None => {
                    self.cold += 1;
                    self.lines.insert(
                        line,
                        LineState {
                            pos: self.tick,
                            written: is_write,
                            maxd: 0,
                        },
                    );
                }
                Some(st) => {
                    // Distinct other lines touched since the previous touch.
                    let d = (self.fen.prefix(self.tick - 1) - self.fen.prefix(st.pos)) as u64;
                    bump(&mut self.dist, d as usize);
                    // The eviction this access would re-fetch after is dirty
                    // for capacities in [maxd+1, d] (empty when the line
                    // already missed at every capacity it was dirty for).
                    if st.written && st.maxd < d {
                        bump(&mut self.wb_lo, st.maxd as usize + 1);
                        bump(&mut self.wb_hi, d as usize);
                    }
                    self.fen.add(st.pos, -1);
                    st.pos = self.tick;
                    if is_write {
                        st.written = true;
                        st.maxd = 0;
                    } else {
                        st.maxd = st.maxd.max(d);
                    }
                }
            }
        }
        self.fen.add(self.tick, 1);
        self.memo2 = self.memo;
        self.memo = Some(line);
    }

    /// Fold the end-of-trace state and return the all-capacities
    /// projection. Non-destructive: the simulator can keep consuming
    /// accesses afterwards (later curves fold the later end state).
    ///
    /// The projection matches a flushed per-capacity
    /// [`crate::MemSim::single_level_lru`] run: `writebacks` ≙
    /// `victims_m`, `flush_writebacks` ≙ `flush_victims_m`.
    pub fn curve(&self) -> CapacityCurve {
        let mut wb_lo = self.wb_lo.clone();
        let mut wb_hi = self.wb_hi.clone();
        let mut flush = Vec::new();
        for (&line, st) in self.lines.iter() {
            // A trace ending mid-streak may owe the memo line a pending
            // repeat-write dirtying; apply it virtually (curve() must not
            // mutate the simulator).
            let (written, maxd) = if self.memo_dirty && self.memo == Some(line) {
                (true, 0)
            } else {
                (st.written, st.maxd)
            };
            if !written {
                continue;
            }
            // Distinct lines touched after this line's last access: the
            // line is evicted before end-of-trace iff capacity ≤ e.
            let e = (self.fen.prefix(self.tick) - self.fen.prefix(st.pos)) as u64;
            if maxd < e {
                // Dirty-evicted during the run for C in [maxd+1, e],
                // with no later access to emit it — fold it here.
                bump(&mut wb_lo, maxd as usize + 1);
                bump(&mut wb_hi, e as usize);
            }
            // Still dirty-resident at end for C > max(maxd, e): charged
            // as a flush write-back.
            bump(&mut flush, maxd.max(e) as usize + 1);
        }
        CapacityCurve {
            line_words: self.line_words as u64,
            word_accesses: self.word_accesses,
            line_touches: self.cold + self.repeats + self.dist.iter().sum::<u64>(),
            repeats: self.repeats,
            cold: self.cold,
            footprint_lines: self.lines.len() as u64,
            dist_cum: cumulate(self.dist.clone()),
            wb_lo_cum: cumulate(wb_lo),
            wb_hi_cum: cumulate(wb_hi),
            flush_cum: cumulate(flush),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemSim;

    /// Reference: run the same word trace through a flushed FA-LRU
    /// `MemSim` at `cap_words` and return
    /// (fills, victims_m, flush_victims_m, hits).
    fn reference(trace: &[(usize, bool)], cap_words: usize) -> (u64, u64, u64, u64) {
        let mut m = MemSim::single_level_lru(cap_words);
        for &(a, w) in trace {
            if w {
                m.write(a);
            } else {
                m.read(a);
            }
        }
        m.flush();
        let c = m.llc();
        (c.fills, c.victims_m, c.flush_victims_m, c.hits)
    }

    fn stack_of(trace: &[(usize, bool)]) -> StackSim {
        let mut s = StackSim::new();
        for &(a, w) in trace {
            if w {
                s.write(a);
            } else {
                s.read(a);
            }
        }
        s
    }

    fn assert_matches_reference(trace: &[(usize, bool)], caps_lines: &[usize]) {
        let curve = stack_of(trace).curve();
        for &c in caps_lines {
            let cap_words = c * 8;
            let p = curve.at(cap_words as u64);
            let (fills, victims_m, flush_m, hits) = reference(trace, cap_words);
            assert_eq!(p.fills, fills, "fills at {c} lines");
            assert_eq!(p.writebacks, victims_m, "victims_m at {c} lines");
            assert_eq!(p.flush_writebacks, flush_m, "flush at {c} lines");
            assert_eq!(p.hits, hits, "hits at {c} lines");
        }
    }

    #[test]
    fn read_only_stream_matches_every_capacity() {
        // Cyclic scan of 4 lines: the classic LRU pathology — capacities
        // 1..4 miss everything, capacity ≥ 4 misses only cold.
        let mut trace = Vec::new();
        for _ in 0..3 {
            for l in 0..4 {
                trace.push((l * 8, false));
            }
        }
        assert_matches_reference(&trace, &[1, 2, 3, 4, 5]);
        let curve = stack_of(&trace).curve();
        assert_eq!(curve.at(3 * 8).fills, 12, "thrashing below the cycle");
        assert_eq!(curve.at(4 * 8).fills, 4, "only cold at the cycle size");
    }

    #[test]
    fn interval_emission_pins_per_capacity_writeback_divergence() {
        // W0 R1 R2 R0 …: after the write, line 0 reaches distance 2. At
        // C=1 the dirty copy leaves at the first eviction; at C=2 it
        // survives R1 but not R2; at C=3 it is never evicted and flushes.
        let trace = [
            (0, true),
            (8, false),
            (16, false),
            (0, false),
            (8, false),
            (16, false),
        ];
        assert_matches_reference(&trace, &[1, 2, 3, 4]);
    }

    #[test]
    fn rewritten_line_emits_writebacks_at_multiple_trace_points() {
        // One line written, cycled out, re-read, re-written, cycled out
        // again: small capacities see two write-backs, large ones see
        // fewer — exactly what per-capacity simulation yields.
        let trace = [
            (0, true),
            (8, false),
            (16, false),
            (24, false),
            (0, true),
            (8, false),
            (16, false),
            (24, false),
            (0, false),
        ];
        assert_matches_reference(&trace, &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn repeat_write_after_clean_read_redirties_the_line() {
        // The consecutive-repeat memo must not swallow the dirtying
        // effect of a repeat write (read 0 then write 0 back-to-back).
        let trace = [(0, false), (1, true), (8, false), (16, false), (0, false)];
        assert_matches_reference(&trace, &[1, 2, 3]);
    }

    #[test]
    fn range_api_equals_per_word_calls() {
        let mut a = StackSim::new();
        a.read_range(3, 18);
        a.write_range(5, 9);
        a.run(&[AccessRun::read(0, 24), AccessRun::write(40, 3)]);
        let mut b = StackSim::new();
        for w in 3..21 {
            b.read(w);
        }
        for w in 5..14 {
            b.write(w);
        }
        for w in 0..24 {
            b.read(w);
        }
        for w in 40..43 {
            b.write(w);
        }
        assert_eq!(a.curve(), b.curve());
        assert_eq!(a.word_accesses(), b.word_accesses());
    }

    #[test]
    fn empty_trace_yields_empty_curve() {
        let s = StackSim::new();
        let c = s.curve();
        assert_eq!(c.footprint_lines, 0);
        let p = c.at(64);
        assert_eq!((p.fills, p.writebacks, p.flush_writebacks), (0, 0, 0));
        assert_eq!(p.hits, 0);
    }

    #[test]
    fn curve_is_nondestructive_and_folds_later_state() {
        let mut s = StackSim::new();
        s.write(0);
        let c1 = s.curve();
        assert_eq!(c1.at(64).flush_writebacks, 1);
        // Keep going: cycle line 0 out at small capacities.
        s.read(8);
        s.read(16);
        let c2 = s.curve();
        assert_eq!(c2.at(8).writebacks, 1, "now evicted dirty during run");
        assert_eq!(c2.at(8).flush_writebacks, 0);
        assert_eq!(c2.at(64).flush_writebacks, 1, "still resident at C=8 lines");
    }

    #[test]
    fn stack_mem_drives_the_sim_and_the_data() {
        use crate::{Mem, SimMem};
        let mut m = SimMem::new(16, StackSim::new());
        m.st(0, 2.5);
        assert_eq!(m.ld(0), 2.5);
        let mut buf = [0.0; 8];
        m.ld_run(8, &mut buf);
        m.st_run(8, &buf);
        m.phase("ignored");
        assert_eq!(m.sim.word_accesses(), 2 + 16);
        assert_eq!(m.sim.footprint_lines(), 2);
    }
}
