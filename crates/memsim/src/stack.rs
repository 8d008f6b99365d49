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
//! # Cost
//!
//! Distances come from a Fenwick tree over *ticks*, one tick per
//! distinct-line touch, holding a 1 at each line's most recent tick.
//! Before a touch the tree holds exactly one 1 per live line, so a line
//! last touched at tick `pos` has distance `live − prefix(pos)`: one
//! prefix query per touch, at most. One walk then moves the line's 1
//! from `pos` to the new tick. The update paths of the two positions
//! meet at a common node, above which the −1 and the +1 cancel, so the
//! walk stops there.
//!
//! The tick space is compacted: when the ticks reach the end of the
//! tree and at most a quarter of its slots hold a live line, one linear
//! scan renumbers the live lines `1..=L` in recency order and the tree
//! is rebuilt as ones on `1..=L` at `max(64, next_pow2(4L))` slots. A
//! distance counts only the live positions between two ticks, so
//! renumbering in order keeps every distance exact. The tree never
//! exceeds `max(64, 8 × footprint)` slots, so the simulator costs
//! `O(footprint)` memory and `O(log footprint)` amortized work per
//! distinct-line touch, however long the trace.
//!
//! A two-entry recency memo keeps the hot patterns cheaper still:
//! consecutive repeats are O(1) (distance 0 touches no histogram), and
//! the second-most-recent line has distance exactly 1 by construction,
//! so its touch skips the prefix query.
//!
//! Blocked kernels re-read a block in the order they last read it, and
//! there most touches need no query either. Say line `A`, last touched
//! at tick `p`, is touched at tick `T + 1` with distance `D`, the number
//! of live ticks in `(p, T]`. If the next distinct-line touch is of the
//! line `B` at tick `p + 1`, its distance counts the live ticks in
//! `(p + 1, T + 1]`: the same interval less `B` itself, plus `A` at
//! `T + 1`. So it is `D − 1 + 1 = D`, the previous touch's distance.
//! The simulator keeps the previous touch's old tick and distance and
//! reuses them on such a touch. The second-most-recent line is checked
//! first, so a distance-1 touch always counts as a memo hit. The kept
//! state is stamped with its touch's tick and serves only the very next
//! touch: a cold touch in between adds a 1 inside the interval, and
//! after a distance-1 touch the line at `p + 1` can only be the memo2
//! line. [`StackSim`]'s `make_room` clears it (a compaction renumbers
//! the ticks).
//!
//! A run of such touches moves the 1s of a contiguous span of old ticks
//! to a contiguous span of new ticks. Those moves are deferred and land
//! as one interval update: the nodes inside each span gain their
//! overlap with it, and the ancestors of the right ends gain the rest.
//! That walk stops at the first node covering both spans, where the
//! `−k` and the `+k` cancel, so a run of `k` moves costs `O(k + log n)`
//! rather than `k` walks. Fenwick updates commute, and a prefix query
//! adds the pending run's share in `O(1)` (of each span, the ticks up
//! to the queried one), so the run never has to land before a read: it
//! lands when the next run starts, a doubling carries it along (it
//! moves no mass), and a compaction rebuilds the tree from the lines'
//! ticks and drops it. [`StackSim::curve`] therefore reads exact
//! distances mid-run and stays `&self`, and a run can span many calls,
//! as a block re-read row by row does. Only reused-distance touches
//! defer: a queried or distance-1 touch moves its 1 at once, as before,
//! so a stream with few runs (fft) does no extra work.
//!
//! The same stack serves the `--reuse` histogram of the `simmed`
//! backend: a [`crate::MemSim`] whose probe asks for reuse tees every
//! access call into a `StackSim` (see [`crate::MemSim::attach_probe`]),
//! and [`CapacityCurve::render_reuse`] buckets its distances. This is
//! the workspace's only Mattson stack.
//!
//! Per-line state lives in a table indexed by line number
//! (`addr / line_words`) and grown on demand, the convention of
//! [`crate::TraceTally`]'s line bitset. A feeder must therefore address
//! a dense range from 0: the table spans every line up to the highest
//! one touched. Every feeder in the workspace does — [`crate::SimMem`]
//! and krylov's `SimIo` address their staged data, the distributed
//! machine each rank's bump-allocated heap, and the benchmark replays
//! streams recorded from `SimMem`-style kernels.

use wa_core::cancel::CancelPoll;
use wa_core::curve::CapacityCurve;
pub use wa_core::AccessRun;

/// Fenwick (binary-indexed) tree over access ticks `1..=n`, holding a 1
/// at each live line's most recent tick. Grows by doubling;
/// [`Fenwick::reset`] rebuilds it at any size for a compacted tick space.
///
/// Moves of a 1 may be deferred ([`Fenwick::defer_move`]): one pending
/// run of them, the 1s at `run_from..run_from + run_len` bound for
/// `run_to..run_to + run_len`, lands in one [`Fenwick::flush`]. Updates
/// commute, and [`Fenwick::prefix`] counts the run as landed, so it
/// only has to land when a new run replaces it.
struct Fenwick {
    /// `fen.len() == n + 1`; index 0 unused.
    fen: Vec<i64>,
    /// Tree size (power of two).
    n: usize,
    run_from: usize,
    run_to: usize,
    run_len: usize,
}

impl Fenwick {
    fn new() -> Fenwick {
        Fenwick::with_size(64)
    }

    fn with_size(n: usize) -> Fenwick {
        Fenwick {
            fen: vec![0; n + 1],
            n,
            run_from: 0,
            run_to: 0,
            run_len: 0,
        }
    }

    /// Grow until `tick` is addressable.
    fn ensure(&mut self, tick: usize) {
        while tick > self.n {
            self.grow();
        }
    }

    /// Double the tree. The only node whose range reaches into the past
    /// is the new root `2n` (covers `1..=2n`); its value is the current
    /// total, which at size `n` (a power of two) is exactly `fen[n]`.
    /// Every other new node's range lies wholly in the not-yet-ticked
    /// future, so zero is correct. A pending run lies inside `1..=n` and
    /// moves no mass, so it leaves `fen[n]` right and lands the same way
    /// in the doubled tree.
    fn grow(&mut self) {
        let total = self.fen[self.n];
        self.n *= 2;
        self.fen.resize(self.n + 1, 0);
        self.fen[self.n] = total;
    }

    /// Tree size: the highest addressable position.
    fn len(&self) -> usize {
        self.n
    }

    /// Rebuild as a tree of `n` slots (a power of two) holding a 1 at
    /// each of the positions `1..=ones` and 0 elsewhere, in `O(n)`:
    /// each node passes its finished sum up to its parent once. The
    /// pending run is dropped: the new contents already place its 1s.
    fn reset(&mut self, n: usize, ones: usize) {
        debug_assert!(n.is_power_of_two() && ones <= n);
        self.run_len = 0;
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

    fn add(&mut self, mut i: usize, v: i64) {
        while i <= self.n {
            self.fen[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Move a 1 from position `from` to position `to`: the same tree as
    /// `add(from, -1); add(to, 1)` in one walk. The two update paths
    /// rise to a common node (at worst the root `n`), and from there on
    /// the −1 and the +1 cancel; advancing whichever index is smaller
    /// meets that node without passing it.
    fn shift(&mut self, mut from: usize, mut to: usize) {
        debug_assert!(from >= 1 && to >= 1 && from.max(to) <= self.n);
        while from != to {
            if from < to {
                self.fen[from] -= 1;
                from += from & from.wrapping_neg();
            } else {
                self.fen[to] += 1;
                to += to & to.wrapping_neg();
            }
        }
    }

    /// Move the 1s at `from..from + k` to `to..to + k` (`from < to`; the
    /// ranges may overlap): the same tree as `k` pairs of point updates,
    /// in `O(k + log n)`. Node `i` covers `(i − lowbit(i), i]`, so the
    /// nodes that meet a range are the ones inside it and the ancestors
    /// of its right end; each gains its overlap with the `+1` range less
    /// its overlap with the `−1` range. The ancestors of `from + k − 1`
    /// above `to + k − 1` are ancestors of `to + k − 1` too, and once a
    /// node covers both ranges whole the two overlaps cancel, so the walk
    /// stops there.
    fn move_run(&mut self, from: usize, to: usize, k: usize) {
        debug_assert!(1 <= from && from < to && to + k - 1 <= self.n);
        let (hi_from, hi_to) = (from + k - 1, to + k - 1);
        // Overlap of node `i` with `lo..=hi`, for `i ≥ lo`.
        let overlap = |i: usize, lo: usize, hi: usize| {
            let start = (i - (i & i.wrapping_neg())).max(lo - 1);
            hi.min(i).saturating_sub(start) as i64
        };
        for i in from..=hi_from {
            self.fen[i] -= overlap(i, from, hi_from);
        }
        for i in to..=hi_to {
            self.fen[i] += overlap(i, to, hi_to);
        }
        let mut i = hi_from + (hi_from & hi_from.wrapping_neg());
        while i <= hi_to {
            self.fen[i] -= overlap(i, from, hi_from);
            i += i & i.wrapping_neg();
        }
        let mut i = hi_to + (hi_to & hi_to.wrapping_neg());
        while i <= self.n && i - (i & i.wrapping_neg()) >= from {
            self.fen[i] += overlap(i, to, hi_to) - overlap(i, from, hi_from);
            i += i & i.wrapping_neg();
        }
    }

    /// Defer moving a 1 from `from` to `to`, extending the pending run
    /// when both positions continue it and landing it first otherwise.
    fn defer_move(&mut self, from: usize, to: usize) {
        if self.run_len > 0
            && from == self.run_from + self.run_len
            && to == self.run_to + self.run_len
        {
            self.run_len += 1;
        } else {
            self.flush();
            (self.run_from, self.run_to, self.run_len) = (from, to, 1);
        }
    }

    /// Land the pending run: one walk for a single move, one
    /// [`Fenwick::move_run`] for more.
    fn flush(&mut self) {
        match self.run_len {
            0 => return,
            1 => self.shift(self.run_from, self.run_to),
            k => self.move_run(self.run_from, self.run_to, k),
        }
        self.run_len = 0;
    }

    /// Sum of positions `1..=i`, counting the pending run as landed: of
    /// each of its two ranges, the positions up to `i` (a clamp, `O(1)`).
    fn prefix(&self, mut i: usize) -> i64 {
        let landed = |start: usize| (i + 1).saturating_sub(start).min(self.run_len) as i64;
        let mut s = landed(self.run_to) - landed(self.run_from);
        while i > 0 {
            s += self.fen[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// `LineState::maxd` of a line that was never written. Such a line owes
/// no write-back at any capacity, and no distance ever exceeds it, so
/// the emission test `maxd < d` needs no separate written flag.
const CLEAN: u32 = u32::MAX;

/// Per-line state of the Mattson stack.
#[derive(Clone, Copy, Default)]
struct LineState {
    /// Tick of the line's most recent (non-repeat) touch; 0 while the
    /// line is untouched.
    pos: u32,
    /// Deepest stack distance reached since the last write, or [`CLEAN`].
    maxd: u32,
}

/// Work counters of a [`StackSim`] — what `harness profile --backend
/// stack` prints to explain a run's time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    pub word_accesses: u64,
    /// Touches of the most recent line (distance 0, O(1)).
    pub repeats: u64,
    /// Touches of the second-most-recent line (distance 1, no query).
    pub memo_d1_hits: u64,
    /// Touches of the line one tick after the previous touch's line:
    /// same distance as that touch, no query.
    pub seq_hits: u64,
    /// Touches that took a Fenwick prefix query.
    pub full_queries: u64,
    /// Tick-space compactions so far.
    pub compactions: u64,
    /// Current Fenwick tree size in slots.
    pub tree_slots: u64,
    pub footprint_lines: u64,
}

/// One-pass all-capacities FA-LRU simulator. Feed it the same
/// word-granular access stream as [`crate::MemSim`] (as the sink of a
/// [`crate::SimMem`], or the `read`/`write`/`*_range`/`run` calls directly),
/// then project any capacity list with [`StackSim::curve`]. Addresses
/// must form a dense range from 0 (see the module docs).
pub struct StackSim {
    line_words: usize,
    /// `log2(line_words)`: a line number is `addr >> line_shift`.
    line_shift: u32,
    /// Last tick handed out (Fenwick positions `1..=tick` are in use).
    tick: usize,
    /// 1 at each live line's most recent tick.
    fen: Fenwick,
    /// `owner[p]` is the line that took tick `p`; the slot is live iff
    /// that line's `pos` is still `p`.
    owner: Vec<u32>,
    /// Per-line state, indexed by line number.
    lines: Vec<LineState>,
    /// Distinct lines touched so far (the 1s in `fen`).
    live: usize,
    /// Most recently touched line: consecutive repeats are distance 0.
    memo: Option<usize>,
    /// A repeat *write* happened during the current `memo` streak; its
    /// dirtying effect (maxd = 0) is applied to the memo line's entry
    /// when the streak ends — and virtually by [`StackSim::curve`] if
    /// the trace ends mid-streak — so repeat writes stay O(1).
    memo_dirty: bool,
    /// Second-most-recent distinct line: its next touch has stack
    /// distance exactly 1 (only `memo` intervened), so no Fenwick
    /// prefix query is needed.
    memo2: Option<usize>,
    /// Order state of the last queried or reused-distance touch, made at
    /// tick `seq_tick`: its old tick plus one, and its distance. The
    /// touch right after it, if it hits the line at `seq_pos`, is at
    /// distance `seq_d`. A compaction clears `seq_pos` (0 is no tick).
    seq_pos: usize,
    seq_d: u32,
    seq_tick: usize,
    word_accesses: u64,
    repeats: u64,
    cold: u64,
    memo_d1_hits: u64,
    seq_hits: u64,
    full_queries: u64,
    compactions: u64,
    /// Exact distance histogram over non-cold, non-repeat touches.
    dist: Vec<u64>,
    /// Dirty-eviction interval emissions (see module docs).
    wb_lo: Vec<u64>,
    wb_hi: Vec<u64>,
    /// Checkpoint on `word_accesses` for the constructing thread's
    /// cancel token.
    cancel: CancelPoll,
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

    /// A stack simulator over `line_words`-word lines (a power of two).
    pub fn with_line_words(line_words: usize) -> StackSim {
        assert!(
            line_words.is_power_of_two(),
            "line size must be a power of two"
        );
        let fen = Fenwick::new();
        StackSim {
            line_words,
            line_shift: line_words.trailing_zeros(),
            tick: 0,
            owner: vec![0; fen.len() + 1],
            fen,
            lines: Vec::new(),
            live: 0,
            memo: None,
            memo_dirty: false,
            memo2: None,
            seq_pos: 0,
            seq_d: 0,
            seq_tick: 0,
            word_accesses: 0,
            repeats: 0,
            cold: 0,
            memo_d1_hits: 0,
            seq_hits: 0,
            full_queries: 0,
            compactions: 0,
            dist: Vec::new(),
            wb_lo: Vec::new(),
            wb_hi: Vec::new(),
            cancel: CancelPoll::new(),
        }
    }

    pub fn line_words(&self) -> usize {
        self.line_words
    }

    /// Distinct lines touched so far.
    pub fn footprint_lines(&self) -> u64 {
        self.live as u64
    }

    /// Total word accesses recorded.
    pub fn word_accesses(&self) -> u64 {
        self.word_accesses
    }

    /// The work counters so far.
    pub fn stats(&self) -> StackStats {
        StackStats {
            word_accesses: self.word_accesses,
            repeats: self.repeats,
            memo_d1_hits: self.memo_d1_hits,
            seq_hits: self.seq_hits,
            full_queries: self.full_queries,
            compactions: self.compactions,
            tree_slots: self.fen.len() as u64,
            footprint_lines: self.live as u64,
        }
    }

    /// Record a read of word address `addr`.
    #[inline]
    pub fn read(&mut self, addr: usize) {
        self.word_accesses += 1;
        self.cancel.at(self.word_accesses);
        self.touch_line(addr >> self.line_shift, false);
    }

    /// Record a write of word address `addr`.
    #[inline]
    pub fn write(&mut self, addr: usize) {
        self.word_accesses += 1;
        self.cancel.at(self.word_accesses);
        self.touch_line(addr >> self.line_shift, true);
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
        let sh = self.line_shift;
        let end = addr + words;
        let mut a = addr;
        while a < end {
            let line = a >> sh;
            let line_end = (line + 1) << sh;
            let in_line = line_end.min(end) - a;
            self.word_accesses += in_line as u64;
            self.cancel.at(self.word_accesses);
            self.touch_line(line, is_write);
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
    /// line's entry. Must run before the streak ends (the entry is never
    /// read mid-streak, so deferring until here is exact).
    fn flush_memo_dirty(&mut self) {
        if self.memo_dirty {
            let prev = self.memo.expect("memo_dirty implies an active memo");
            self.lines[prev].maxd = 0;
            self.memo_dirty = false;
        }
    }

    /// Make tick `self.tick + 1` addressable: compact the tick space if
    /// at most a quarter of the full tree is live, else double the tree.
    /// Either way the previous touch's order is forgotten (a compaction
    /// renumbers its tick).
    #[cold]
    fn make_room(&mut self) {
        self.seq_pos = 0;
        if 4 * self.live <= self.fen.len() {
            // Renumber the live ticks 1..=live in order. A slot `p` is
            // live iff its owner still sits there; `next ≤ p` throughout,
            // so the scan rewrites `owner` in place, and a line already
            // renumbered (pos = next ≤ p) never matches a later slot.
            let mut next = 0;
            for p in 1..=self.tick {
                let line = self.owner[p];
                let st = &mut self.lines[line as usize];
                if st.pos as usize == p {
                    next += 1;
                    st.pos = next as u32;
                    self.owner[next] = line;
                }
            }
            debug_assert_eq!(next, self.live);
            self.tick = next;
            let slots = (4 * next).next_power_of_two().max(64);
            self.fen.reset(slots, next);
            self.owner.resize(slots + 1, 0);
            self.compactions += 1;
        } else {
            let slots = 2 * self.fen.len();
            assert!(slots <= u32::MAX as usize, "tick space exceeds u32");
            self.fen.ensure(slots);
            self.owner.resize(slots + 1, 0);
        }
    }

    /// One line-granular touch: distance, fill/write-back emission, state
    /// update. The word-level accounting is the caller's job.
    fn touch_line(&mut self, line: usize, is_write: bool) {
        if self.memo == Some(line) {
            // Distance 0: hits at every capacity ≥ 1 line, so it affects
            // no histogram — but a repeat *write* re-dirties the line
            // (applied lazily when the streak ends).
            self.repeats += 1;
            self.memo_dirty |= is_write;
            return;
        }
        self.flush_memo_dirty();
        if self.tick == self.fen.len() {
            self.make_room();
        }
        if line >= self.lines.len() {
            assert!(line < u32::MAX as usize, "line number exceeds u32");
            self.lines
                .resize((line + 1).max(2 * self.lines.len()), LineState::default());
        }
        self.tick += 1;
        let tick = self.tick;
        let st = &mut self.lines[line];
        if st.pos == 0 {
            self.cold += 1;
            self.live += 1;
            st.maxd = if is_write { 0 } else { CLEAN };
            self.fen.add(tick, 1);
        } else {
            let pos = st.pos as usize;
            let d = if self.memo2 == Some(line) {
                // Second-most-recent line: exactly one distinct line
                // (the memo) was touched since.
                self.memo_d1_hits += 1;
                self.fen.shift(pos, tick);
                1
            } else if pos == self.seq_pos && tick == self.seq_tick + 1 {
                // The previous touch moved the line at `pos − 1`; this
                // line leaves the counted interval as that one enters.
                self.seq_hits += 1;
                self.fen.defer_move(pos, tick);
                (self.seq_pos, self.seq_tick) = (pos + 1, tick);
                self.seq_d
            } else {
                // Distinct other lines touched since the previous touch:
                // the live lines whose tick lies after `pos`.
                self.full_queries += 1;
                let d = (self.live - self.fen.prefix(pos) as usize) as u32;
                self.fen.shift(pos, tick);
                (self.seq_pos, self.seq_d, self.seq_tick) = (pos + 1, d, tick);
                d
            };
            bump(&mut self.dist, d as usize);
            // The eviction this access would re-fetch after is dirty for
            // capacities in [maxd+1, d] (empty when the line is clean or
            // already missed at every capacity it was dirty for).
            if st.maxd < d {
                bump(&mut self.wb_lo, st.maxd as usize + 1);
                bump(&mut self.wb_hi, d as usize);
            }
            // A read deepens `maxd` (a clean line stays CLEAN).
            st.maxd = if is_write { 0 } else { st.maxd.max(d) };
        }
        st.pos = tick as u32;
        self.owner[tick] = line as u32;
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
        for (line, st) in self.lines.iter().enumerate() {
            if st.pos == 0 {
                continue;
            }
            // A trace ending mid-streak may owe the memo line a pending
            // repeat-write dirtying; apply it virtually (curve() must not
            // mutate the simulator).
            let maxd = if self.memo_dirty && self.memo == Some(line) {
                0
            } else {
                st.maxd
            };
            if maxd == CLEAN {
                continue;
            }
            // Distinct lines touched after this line's last access: the
            // line is evicted before end-of-trace iff capacity ≤ e.
            let e = (self.live - self.fen.prefix(st.pos as usize) as usize) as u32;
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
            footprint_lines: self.live as u64,
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
    use proptest::prelude::*;

    proptest! {
        /// One `shift` walk leaves the tree exactly as the two point
        /// updates it replaces, on any tree and any `from < to`.
        #[test]
        fn shift_equals_two_point_updates(
            log_n in 1u32..9,
            seed_adds in prop::collection::vec((0usize..1 << 16, -3i64..4), 0..64),
            a in 0usize..1 << 16,
            b in 0usize..1 << 16,
        ) {
            let n = 1usize << log_n;
            let mut one = Fenwick::with_size(n);
            for &(i, v) in &seed_adds {
                one.add(1 + i % n, v);
            }
            let (from, to) = (1 + a % n, 1 + b % n);
            prop_assume!(from < to);
            let mut two = Fenwick::with_size(n);
            two.fen.clone_from(&one.fen);
            one.shift(from, to);
            two.add(from, -1);
            two.add(to, 1);
            prop_assert_eq!(one.fen, two.fen);
        }

        /// One `move_run` leaves the tree exactly as the `2k` point
        /// updates it replaces, overlapping ranges included.
        #[test]
        fn move_run_equals_point_updates(
            log_n in 1u32..9,
            seed_adds in prop::collection::vec((0usize..1 << 16, -3i64..4), 0..64),
            a in 0usize..1 << 16,
            b in 0usize..1 << 16,
            c in 0usize..1 << 16,
        ) {
            let n = 1usize << log_n;
            let mut one = Fenwick::with_size(n);
            for &(i, v) in &seed_adds {
                one.add(1 + i % n, v);
            }
            let from = 1 + a % (n - 1);
            let to = from + 1 + b % (n - from);
            let k = 1 + c % (n - to + 1);
            let mut two = Fenwick::with_size(n);
            two.fen.clone_from(&one.fen);
            one.move_run(from, to, k);
            for j in 0..k {
                two.add(from + j, -1);
                two.add(to + j, 1);
            }
            prop_assert_eq!(one.fen, two.fen);
        }

        /// Any sequence of deferred moves reads, through `prefix`, and
        /// after a flush stores, exactly what the point updates it
        /// replaces would: runs extend only when both the old and the
        /// new positions continue them.
        #[test]
        fn deferred_moves_equal_point_updates(
            steps in prop::collection::vec((0u8..4, 0usize..1 << 16, 1usize..6), 1..40),
        ) {
            let n = 256;
            let mut one = Fenwick::with_size(n);
            let mut two = Fenwick::with_size(n);
            let (mut from, mut to) = (1, 2);
            for &(kind, x, gap) in &steps {
                (from, to) = match kind {
                    // Continue the run, or skip a new position (a cold
                    // touch in between), or an old one.
                    0 => (from + 1, to + 1),
                    1 => (from + 1, to + gap),
                    2 => (from + gap, to + 1),
                    _ => {
                        let f = 1 + x % (n / 2);
                        (f, f + gap)
                    }
                };
                // An old tick always precedes the new one.
                if from >= to {
                    to = from + gap;
                }
                if to > n {
                    break;
                }
                one.defer_move(from, to);
                two.add(from, -1);
                two.add(to, 1);
                let prefixes = |f: &Fenwick| (0..=n).map(|i| f.prefix(i)).collect::<Vec<_>>();
                prop_assert_eq!(prefixes(&one), prefixes(&two));
            }
            one.flush();
            prop_assert_eq!(one.fen, two.fen);
        }
    }

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
    fn tree_stays_bounded_by_the_footprint_not_the_trace() {
        // 10^6 distinct-line touches over 8 lines: without compaction the
        // tick space would grow to 2^20 slots.
        let mut s = StackSim::new();
        for i in 0..1_000_000usize {
            if i % 3 == 0 {
                s.write((i % 8) * 8);
            } else {
                s.read((i % 8) * 8);
            }
        }
        let st = s.stats();
        assert!(st.tree_slots <= 64, "tree grew to {} slots", st.tree_slots);
        assert!(st.compactions > 10_000, "{} compactions", st.compactions);
        assert_eq!(st.footprint_lines, 8);
        assert_eq!(
            st.full_queries + st.memo_d1_hits + st.seq_hits + 8,
            1_000_000
        );
        // Every re-touch of the 8-line cycle is at distance 7.
        let c = s.curve();
        assert_eq!(c.at(7 * 8).fills, 1_000_000);
        assert_eq!(c.at(8 * 8).fills, 8);
    }

    /// Runs through `StackSim::run` vs flushed per-capacity `MemSim`
    /// references, at every capacity up to one line past `lines`.
    fn assert_matches_runs(s: &StackSim, runs: &[AccessRun], lines: usize) {
        let curve = s.curve();
        for c in 1..=lines + 1 {
            let mut m = MemSim::single_level_lru(c * 8);
            m.run(runs);
            m.flush();
            let r = m.llc();
            let p = curve.at((c * 8) as u64);
            assert_eq!(
                (p.fills, p.writebacks, p.flush_writebacks, p.hits),
                (r.fills, r.victims_m, r.flush_victims_m, r.hits),
                "at {c} lines"
            );
        }
    }

    #[test]
    fn pending_moves_stay_exact_at_curve_compaction_and_doubling() {
        // At `curve`: re-reading 12 lines in order takes 1 full query and
        // leaves a run of 11 moves (the reused distances) pending.
        let runs = [AccessRun::read(0, 96), AccessRun::write(0, 96)];
        let mut s = StackSim::new();
        s.run(&runs);
        let st = s.stats();
        assert_eq!((st.full_queries, st.seq_hits), (1, 11));
        assert_matches_runs(&s, &runs, 12);

        // At a compaction: 8 lines cycled in order inside one call fill
        // the 64-slot tree with a run pending.
        let runs = vec![AccessRun::read(0, 64); 20];
        let mut s = StackSim::new();
        s.run(&runs);
        let st = s.stats();
        assert!(st.compactions >= 2, "{st:?}");
        assert_eq!(st.tree_slots, 64);
        assert!(st.seq_hits > 100, "{st:?}");
        assert_matches_runs(&s, &runs, 8);

        // At a doubling: 40 lines re-read in order reach the end of the
        // tree, with more than a quarter of it live and a run pending.
        let runs = [
            AccessRun::read(0, 320),
            AccessRun::write(0, 320),
            AccessRun::read(8, 312),
        ];
        let mut s = StackSim::new();
        s.run(&runs);
        let st = s.stats();
        assert_eq!((st.compactions, st.tree_slots), (0, 128), "{st:?}");
        assert_matches_runs(&s, &runs, 40);
    }

    #[test]
    fn order_state_does_not_outlive_a_compaction() {
        // Cycling 8 lines in order ends at tick 64 with a reused distance
        // (7): the order state holds tick 57, stamped 64. The compaction
        // renumbers the lines 1..=8. Cold lines then climb back to tick
        // 60, and a ping-pong of the last two (distance-1 touches, which
        // leave the order state alone) to 64; the tree doubles, so the
        // next touch takes tick 65. Without the reset the state would
        // pass the stamp check and give the line now at tick 57 distance
        // 7; it is 3.
        let mut trace: Vec<(usize, bool)> = (0..64).map(|t| ((t % 8) * 8, t % 3 == 0)).collect();
        trace.extend((8..60).map(|l| (l * 8, false)));
        trace.extend([58, 59, 58, 59, 56].map(|l| (l * 8, l == 59)));
        let st = stack_of(&trace).stats();
        assert_eq!((st.compactions, st.tree_slots), (1, 128), "{st:?}");
        assert_matches_reference(&trace, &(1..=9).collect::<Vec<_>>());
    }

    /// A one-word-line stack fed `lines` as reads, so word = line.
    fn touched(lines: &[usize]) -> CapacityCurve {
        let mut s = StackSim::with_line_words(1);
        for &l in lines {
            s.read(l);
        }
        s.curve()
    }

    #[test]
    fn reuse_hist_matches_hand_computed_stack_distances() {
        // Stream: A B C A A B. Distances: A,B,C cold; A at distance 2
        // (B, C distinct since); repeat A distance 0; B at distance 2
        // (C, A since).
        let c = touched(&[0, 1, 2, 0, 0, 1]);
        assert_eq!(c.cold, 3);
        assert_eq!(c.repeats, 1, "one memoized repeat, outside the buckets");
        assert_eq!(c.dist_cum, vec![0, 0, 2], "two distance-2 reuses");
        assert_eq!(c.line_touches, 6, "mass equals total line touches");
        assert_eq!(c.render_reuse(), "cold=3|rep=1|d2-3=2");
    }

    #[test]
    fn reuse_hist_distance_counts_distinct_lines_not_accesses() {
        // A B B B B A: only one distinct line (B) between the As.
        let c = touched(&[0, 1, 1, 1, 1, 0]);
        assert_eq!(c.dist_cum, vec![0, 1], "A reused at distance 1");
        assert_eq!(c.render_reuse(), "cold=2|rep=3|d1=1");
    }

    #[test]
    fn reuse_hist_grows_past_initial_capacity() {
        let mut lines: Vec<usize> = (0..200).collect();
        lines.push(0); // distance 199
        let c = touched(&lines);
        assert_eq!(c.cold, 200);
        assert_eq!(c.render_reuse(), "cold=200|d128-255=1");
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
