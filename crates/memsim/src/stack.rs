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
//! Distances come from the set of *ticks*, one tick per distinct-line
//! touch, that holds each live line's most recent tick. Before a touch
//! the set holds exactly one tick per live line, so a line last touched
//! at tick `pos` has distance `live − prefix(pos)`, where `prefix(pos)`
//! counts the live ticks up to `pos`: one prefix query per touch, at
//! most. The set is a bitset of `u64` words, one bit per tick, plus a
//! Fenwick tree over the words' counts (64-tick chunks), so a query is
//! a chunk prefix plus one `popcount`. Moving a line to its new tick
//! flips two bits. Only when the two ticks lie in different chunks does
//! it walk the chunk tree, and that walk stops where the update paths
//! of the two chunks meet, above which the −1 and the +1 cancel.
//!
//! The tick space is compacted: when the ticks reach its end and at
//! most a quarter of it is live, one scan over the set bits renumbers
//! the live lines `1..=L` in recency order, and the set is rebuilt with
//! `1..=L` live among `max(64, next_pow2(4L))` ticks. A distance counts
//! only the live ticks between two ticks, so renumbering in order keeps
//! every distance exact. The tick space never exceeds
//! `max(64, 8 × footprint)` ticks and a compaction costs
//! `O(ticks / 64 + L)`, so the simulator costs `O(footprint)` memory and
//! `O(log footprint)` amortized work per distinct-line touch, however
//! long the trace.
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
//! touch: a cold touch in between adds a tick inside the interval, and
//! after a distance-1 touch the line at `p + 1` can only be the memo2
//! line. [`StackSim`]'s `make_room` clears it (a compaction renumbers
//! the ticks).
//!
//! The range API walks a run's in-order touches as one *stretch*: the
//! lines whose old ticks are `p + 1, p + 2, …` take the ticks
//! `T + 1, T + 2, …` in one tight loop. Each line gets the kept
//! distance, its `maxd` and write-back emission, its tick and its
//! tick's owner; the distance and write-back histograms are bumped once
//! by their counts; and the two spans of ticks flip a word at a time,
//! with one chunk update per chunk they touch. A stretch stops at the
//! end of the tick space, so every move has landed when `make_room` or
//! [`StackSim::curve`] reads the set, and the order state carries it on
//! across calls, as a block re-read row by row needs.
//!
//! The same stack serves the `--reuse` histogram of the `simmed`
//! backend: a [`crate::MemSim`] whose probe asks for reuse tees every
//! access call into a `StackSim` (see [`crate::MemSim::attach_probe`]),
//! and [`CapacityCurve::render_reuse`] buckets its distances. This is
//! the workspace's only Mattson stack.
//!
//! Per-line state lives in a table indexed by line number
//! (`addr / line_words`) and grown on demand, the convention of
//! [`crate::TraceTally`]'s line bitset and [`crate::MemSim`]'s line→slot
//! table. A feeder must therefore address a dense range from 0: the
//! table spans every line up to the highest one touched. Every feeder
//! in the workspace does — [`crate::SimMem`] and krylov's `SimIo`
//! address their staged data, the distributed machine each rank's
//! bump-allocated heap, the `harness exp` figures a `SimMem` over their
//! operands, and the benchmark replays streams recorded from
//! `SimMem`-style kernels.

use wa_core::cancel::CancelPoll;
use wa_core::curve::CapacityCurve;
pub use wa_core::AccessRun;

/// Fenwick (binary-indexed) tree over `1..=n` (a power of two): the
/// live-tick counts of a [`TickSet`]'s 64-tick chunks.
struct Fenwick {
    /// `fen.len() == n + 1`; index 0 unused.
    fen: Vec<i64>,
    n: usize,
}

impl Fenwick {
    /// The tree over `vals` (a power-of-two count), in `O(n)`: each node
    /// passes its finished sum up to its parent once.
    fn build(vals: impl Iterator<Item = i64>) -> Fenwick {
        let mut fen: Vec<i64> = std::iter::once(0).chain(vals).collect();
        let n = fen.len() - 1;
        debug_assert!(n.is_power_of_two());
        for i in 1..n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                fen[parent] += fen[i];
            }
        }
        Fenwick { fen, n }
    }

    /// Double the tree. The only node whose range reaches into the past
    /// is the new root `2n` (covers `1..=2n`); its value is the current
    /// total, which at size `n` (a power of two) is exactly `fen[n]`.
    /// Every other new node's range lies wholly in the new, empty half.
    fn grow(&mut self) {
        let total = self.fen[self.n];
        self.n *= 2;
        self.fen.resize(self.n + 1, 0);
        self.fen[self.n] = total;
    }

    fn add(&mut self, mut i: usize, v: i64) {
        while i <= self.n {
            self.fen[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Move `v` from position `from` to position `to`: the same tree as
    /// `add(from, -v); add(to, v)` in one walk. The two update paths
    /// rise to a common node (at worst the root `n`), and from there on
    /// the two changes cancel; advancing whichever index is smaller
    /// meets that node without passing it.
    fn shift(&mut self, mut from: usize, mut to: usize, v: i64) {
        while from != to {
            if from < to {
                self.fen[from] -= v;
                from += from & from.wrapping_neg();
            } else {
                self.fen[to] += v;
                to += to & to.wrapping_neg();
            }
        }
    }

    /// Sum of positions `1..=i`.
    fn prefix(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.fen[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The set of live ticks among `1..=len()`: one bit per tick (tick `t`
/// is bit `t − 1`) in `u64` words, plus a [`Fenwick`] tree over each
/// word's count. A prefix count is a chunk prefix plus one `popcount`;
/// a move flips bits and updates the chunk tree once per chunk it
/// touches. The size is a power of two, at least 64.
struct TickSet {
    bits: Vec<u64>,
    chunks: Fenwick,
}

/// The bits `lo..hi` of a word (`lo < hi ≤ 64`).
fn span_mask(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> (64 - (hi - lo))) << lo
}

impl TickSet {
    /// `n` ticks (a power of two, at least 64) with exactly `1..=ones`
    /// live.
    fn filled(n: usize, ones: usize) -> TickSet {
        debug_assert!(n.is_power_of_two() && n >= 64 && ones <= n);
        let mut bits = vec![u64::MAX; ones / 64];
        let part = ones % 64;
        if part > 0 {
            bits.push(span_mask(0, part));
        }
        bits.resize(n / 64, 0);
        let chunks = Fenwick::build(bits.iter().map(|w| w.count_ones() as i64));
        TickSet { bits, chunks }
    }

    /// Number of ticks: the highest addressable one.
    fn len(&self) -> usize {
        64 * self.bits.len()
    }

    /// Double the tick space; the new half is empty.
    fn grow(&mut self) {
        self.bits.resize(2 * self.bits.len(), 0);
        self.chunks.grow();
    }

    /// Move the live ticks `from..from + k` to the dead ticks
    /// `to..to + k` (the spans are disjoint). When each span lies in one
    /// chunk, as a single move always does, the chunk counts move in one
    /// [`Fenwick::shift`] walk, and not at all within one chunk.
    fn move_ticks(&mut self, from: usize, to: usize, k: usize) {
        let (wf, wt) = ((from - 1) / 64, (to - 1) / 64);
        if (from + k - 2) / 64 == wf && (to + k - 2) / 64 == wt {
            let (bf, bt) = ((from - 1) % 64, (to - 1) % 64);
            debug_assert!(self.bits[wf] & span_mask(bf, bf + k) == span_mask(bf, bf + k));
            debug_assert!(self.bits[wt] & span_mask(bt, bt + k) == 0);
            self.bits[wf] ^= span_mask(bf, bf + k);
            self.bits[wt] ^= span_mask(bt, bt + k);
            self.chunks.shift(wf + 1, wt + 1, k as i64);
        } else {
            self.flip(from, k, -1);
            self.flip(to, k, 1);
        }
    }

    /// Flip the ticks `t..t + k`, all live (`v = −1`) or all dead
    /// (`v = 1`), a word at a time.
    fn flip(&mut self, t: usize, k: usize, v: i64) {
        let (mut b, end) = (t - 1, t - 1 + k);
        while b < end {
            let w = b / 64;
            let hi = end.min(64 * (w + 1));
            let mask = span_mask(b - 64 * w, hi - 64 * w);
            debug_assert!(self.bits[w] & mask == if v < 0 { mask } else { 0 });
            self.bits[w] ^= mask;
            self.chunks.add(w + 1, v * (hi - b) as i64);
            b = hi;
        }
    }

    /// Live ticks in `1..=t`.
    fn prefix(&self, t: usize) -> usize {
        let (w, r) = (t / 64, t % 64);
        let part = if r == 0 {
            0
        } else {
            (self.bits[w] & span_mask(0, r)).count_ones()
        };
        self.chunks.prefix(w) as usize + part as usize
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
    /// Touches that took a prefix query.
    pub full_queries: u64,
    /// Tick-space compactions so far.
    pub compactions: u64,
    /// Current tick-space size in slots.
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
    /// Last tick handed out (ticks `1..=tick` are in use).
    tick: usize,
    /// Each live line's most recent tick.
    ticks: TickSet,
    /// `owner[p]` is the line that took tick `p`; the slot is live iff
    /// that line's `pos` is still `p`.
    owner: Vec<u32>,
    /// Per-line state, indexed by line number.
    lines: Vec<LineState>,
    /// Distinct lines touched so far (the ticks in `ticks`).
    live: usize,
    /// Most recently touched line: consecutive repeats are distance 0.
    memo: Option<usize>,
    /// A repeat *write* happened during the current `memo` streak; its
    /// dirtying effect (maxd = 0) is applied to the memo line's entry
    /// when the streak ends — and virtually by [`StackSim::curve`] if
    /// the trace ends mid-streak — so repeat writes stay O(1).
    memo_dirty: bool,
    /// Second-most-recent distinct line: its next touch has stack
    /// distance exactly 1 (only `memo` intervened), so no prefix query
    /// is needed.
    memo2: Option<usize>,
    /// Order state of the last queried or reused-distance touch, made at
    /// tick `seq_tick`: its old tick plus one, and its distance. The
    /// touch right after it, if it hits the line at `seq_pos`, is at
    /// distance `seq_d`. `seq_tick` is `usize::MAX` while there is none
    /// (at the start, and after `make_room`).
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

fn bump(v: &mut Vec<u64>, i: usize, n: u64) {
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] += n;
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
    pub(crate) fn with_line_words(line_words: usize) -> StackSim {
        assert!(
            line_words.is_power_of_two(),
            "line size must be a power of two"
        );
        let ticks = TickSet::filled(64, 0);
        StackSim {
            line_words,
            line_shift: line_words.trailing_zeros(),
            tick: 0,
            owner: vec![0; ticks.len() + 1],
            ticks,
            lines: Vec::new(),
            live: 0,
            memo: None,
            memo_dirty: false,
            memo2: None,
            seq_pos: 0,
            seq_d: 0,
            seq_tick: usize::MAX,
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

    pub(crate) fn line_words(&self) -> usize {
        self.line_words
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
            tree_slots: self.ticks.len() as u64,
            footprint_lines: self.live as u64,
        }
    }

    /// Record a read of word address `addr`.
    #[inline]
    pub fn read(&mut self, addr: usize) {
        self.range_access(addr, 1, false);
    }

    /// Record a write of word address `addr`.
    #[inline]
    pub fn write(&mut self, addr: usize) {
        self.range_access(addr, 1, true);
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
            let mut lines = self.seq_stretch(line, (end - 1) >> sh, is_write);
            if lines == 0 {
                self.touch_line(line, is_write);
                lines = 1;
            }
            let stop = ((line + lines) << sh).min(end);
            self.word_accesses += (stop - a) as u64;
            self.cancel.at(self.word_accesses);
            // The other words of each touched line are distance-0
            // repeats; the line's touch already applied a write.
            self.repeats += (stop - a - lines) as u64;
            a = stop;
        }
    }

    /// Touch the run's lines `first..=last` in one step while each one
    /// continues the order state: the line at tick `seq_pos + i` takes
    /// tick `tick + 1 + i` at distance `seq_d` (module docs, "Cost").
    /// Stops at the end of the tick space, and before a line that the
    /// per-touch rules give to the distance-1 memo, so the work counters
    /// match a touch at a time. Returns the number of lines touched, 0
    /// when `first` does not continue the order.
    fn seq_stretch(&mut self, first: usize, last: usize, is_write: bool) -> usize {
        let (from, to, d) = (self.seq_pos, self.tick + 1, self.seq_d);
        if self.tick != self.seq_tick
            || self.tick == self.ticks.len()
            || self.memo2 == Some(first)
            || self.lines.get(first).map(|st| st.pos as usize) != Some(from)
        {
            return 0;
        }
        self.flush_memo_dirty();
        // The second line would be the memo2 line if it is the memo line.
        let end = if self.memo == Some(first + 1) {
            first
        } else {
            last
        };
        let max = (end - first + 1).min(self.ticks.len() - self.tick);
        let mut dirty_wb = 0;
        let mut k = 0;
        while k < max {
            let line = first + k;
            let Some(st) = self.lines.get_mut(line) else {
                break;
            };
            if st.pos as usize != from + k {
                break;
            }
            if st.maxd < d {
                bump(&mut self.wb_lo, st.maxd as usize + 1, 1);
                dirty_wb += 1;
            }
            st.maxd = if is_write { 0 } else { st.maxd.max(d) };
            st.pos = (to + k) as u32;
            self.owner[to + k] = line as u32;
            k += 1;
        }
        self.ticks.move_ticks(from, to, k);
        bump(&mut self.dist, d as usize, k as u64);
        if dirty_wb > 0 {
            bump(&mut self.wb_hi, d as usize, dirty_wb);
        }
        self.seq_hits += k as u64;
        self.tick += k;
        (self.seq_pos, self.seq_tick) = (from + k, self.tick);
        self.memo2 = if k > 1 {
            Some(first + k - 2)
        } else {
            self.memo
        };
        self.memo = Some(first + k - 1);
        k
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
    /// at most a quarter of it is live, else double it. Either way the
    /// previous touch's order is forgotten (a compaction renumbers its
    /// tick).
    #[cold]
    fn make_room(&mut self) {
        self.seq_tick = usize::MAX;
        if 4 * self.live <= self.ticks.len() {
            // Renumber the live ticks 1..=live in order: the owner of
            // each live tick `p` sits there, and `next ≤ p` throughout,
            // so the scan rewrites `owner` in place.
            let mut next = 0;
            for (w, &word) in self.ticks.bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let p = 64 * w + word.trailing_zeros() as usize + 1;
                    word &= word - 1;
                    let line = self.owner[p];
                    next += 1;
                    self.lines[line as usize].pos = next as u32;
                    self.owner[next] = line;
                }
            }
            debug_assert_eq!(next, self.live);
            self.tick = next;
            let slots = (4 * next).next_power_of_two().max(64);
            self.ticks = TickSet::filled(slots, next);
            self.owner.resize(slots + 1, 0);
            self.compactions += 1;
        } else {
            let slots = 2 * self.ticks.len();
            assert!(slots <= u32::MAX as usize, "tick space exceeds u32");
            self.ticks.grow();
            self.owner.resize(slots + 1, 0);
        }
    }

    /// One line-granular touch that does not continue the order state
    /// (see [`StackSim::seq_stretch`]): distance, fill/write-back
    /// emission, state update. The word-level accounting is the caller's
    /// job.
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
        if self.tick == self.ticks.len() {
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
            self.ticks.flip(tick, 1, 1);
        } else {
            let pos = st.pos as usize;
            let d = if self.memo2 == Some(line) {
                // Second-most-recent line: exactly one distinct line
                // (the memo) was touched since.
                self.memo_d1_hits += 1;
                1
            } else {
                // Distinct other lines touched since the previous touch:
                // the live lines whose tick lies after `pos`.
                self.full_queries += 1;
                let d = (self.live - self.ticks.prefix(pos)) as u32;
                (self.seq_pos, self.seq_d, self.seq_tick) = (pos + 1, d, tick);
                d
            };
            self.ticks.move_ticks(pos, tick, 1);
            bump(&mut self.dist, d as usize, 1);
            // The eviction this access would re-fetch after is dirty for
            // capacities in [maxd+1, d] (empty when the line is clean or
            // already missed at every capacity it was dirty for).
            if st.maxd < d {
                bump(&mut self.wb_lo, st.maxd as usize + 1, 1);
                bump(&mut self.wb_hi, d as usize, 1);
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
            let e = (self.live - self.ticks.prefix(st.pos as usize)) as u32;
            if maxd < e {
                // Dirty-evicted during the run for C in [maxd+1, e],
                // with no later access to emit it — fold it here.
                bump(&mut wb_lo, maxd as usize + 1, 1);
                bump(&mut wb_hi, e as usize, 1);
            }
            // Still dirty-resident at end for C > max(maxd, e): charged
            // as a flush write-back.
            bump(&mut flush, maxd.max(e) as usize + 1, 1);
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
        /// Any sequence of cold ticks, single and span moves, doublings
        /// and rebuilds leaves `prefix(t)` equal to a naive count of the live
        /// ticks in `1..=t`, for every `t`.
        #[test]
        fn tick_set_prefix_equals_a_naive_count(
            steps in prop::collection::vec(
                (0u8..8, 0usize..1 << 16, 0usize..1 << 16, 1usize..150),
                1..60,
            ),
        ) {
            let mut set = TickSet::filled(64, 0);
            let mut live = vec![false; 65];
            for &(op, x, y, k) in &steps {
                let n = set.len();
                match op {
                    // A single move (a queried or distance-1 touch) and a
                    // span move (a stretch), from live ticks to dead ones.
                    0..=3 => {
                        let k = if op == 0 { 1 } else { k };
                        let from = 1 + x % n;
                        let k = (from..=n).take_while(|&t| live[t]).take(k).count();
                        let to = 1 + y % n;
                        let free = (to..=n).take_while(|&t| !live[t]).take(k).count();
                        if k == 0 || free < k {
                            continue;
                        }
                        set.move_ticks(from, to, k);
                        for i in 0..k {
                            (live[from + i], live[to + i]) = (false, true);
                        }
                    }
                    4 | 5 => {
                        let t = 1 + x % n;
                        if !live[t] {
                            set.flip(t, 1, 1);
                            live[t] = true;
                        }
                    }
                    6 => {
                        if n < 1 << 10 {
                            set.grow();
                            live.resize(2 * n + 1, false);
                        }
                    }
                    _ => {
                        let n = 64 << (x % 4);
                        let ones = y % (n + 1);
                        set = TickSet::filled(n, ones);
                        live = (0..=n).map(|t| (1..=ones).contains(&t)).collect();
                    }
                }
                prop_assert_eq!(set.len() + 1, live.len());
                let mut count = 0;
                for (t, &l) in live.iter().enumerate() {
                    count += usize::from(l && t > 0);
                    prop_assert_eq!(set.prefix(t), count);
                }
            }
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
        assert_eq!(a.word_accesses, b.word_accesses);
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
        // one stretch of 11 reused distances.
        let runs = [AccessRun::read(0, 96), AccessRun::write(0, 96)];
        let mut s = StackSim::new();
        s.run(&runs);
        let st = s.stats();
        assert_eq!((st.full_queries, st.seq_hits), (1, 11));
        assert_matches_runs(&s, &runs, 12);

        // At a compaction: 8 lines cycled in order inside one call fill
        // the 64-slot tick space mid-stretch.
        let runs = vec![AccessRun::read(0, 64); 20];
        let mut s = StackSim::new();
        s.run(&runs);
        let st = s.stats();
        assert!(st.compactions >= 2, "{st:?}");
        assert_eq!(st.tree_slots, 64);
        assert!(st.seq_hits > 100, "{st:?}");
        assert_matches_runs(&s, &runs, 8);

        // At a doubling: 40 lines re-read in order reach the end of the
        // tick space mid-stretch, with more than a quarter of it live.
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
        assert_eq!(m.sim.stats().word_accesses, 2 + 16);
        assert_eq!(m.sim.stats().footprint_lines, 2);
    }
}
