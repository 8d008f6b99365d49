//! One level of a set-associative (or fully-associative) write-back cache.
//!
//! Lines carry a Modified/Exclusive state like the MESIF experiments of the
//! paper's Section 6 (the S/F states never arise single-threaded). Counters
//! mirror the Xeon uncore events used in Figure 2/5:
//!
//! * [`LevelCounters::fills`] ≙ `LLC_S_FILLS.E` — lines brought in from the
//!   next-slower level;
//! * [`LevelCounters::victims_m`] ≙ `LLC_VICTIMS.M` — modified lines
//!   evicted (obligatory write-backs to the slower level);
//! * [`LevelCounters::victims_e`] ≙ `LLC_VICTIMS.E` — clean (exclusive)
//!   lines evicted and forgotten.
//!
//! A level keeps its slots' tags, dirty bits and replacement state; the
//! line→slot index is the hierarchy's one dense table (see
//! [`crate::MemSim`]), so every method here takes the slot the caller
//! looked up, and `Level::insert` hands back the victim's line for the
//! caller to drop from that table.

use crate::policy::Policy;

/// Invalid-tag sentinel.
const INVALID: u64 = u64::MAX;

/// Geometry and policy of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Capacity in *words* (we simulate at word = element granularity;
    /// one f64 per word).
    pub capacity_words: usize,
    /// Line size in words (8 words ≙ a 64-byte line of f64).
    pub line_words: usize,
    /// Associativity; `0` means fully associative (requires [`Policy::Lru`]).
    pub ways: usize,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// Number of lines this level holds.
    pub(crate) fn capacity_lines(&self) -> usize {
        self.capacity_words / self.line_words
    }
}

/// Event counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Accesses that hit in this level.
    pub hits: u64,
    /// Accesses that missed in this level.
    pub misses: u64,
    /// Lines filled into this level from the next-slower level
    /// (≙ `LLC_S_FILLS.E` for the last level).
    pub fills: u64,
    /// Modified lines evicted — write-backs to the slower level
    /// (≙ `LLC_VICTIMS.M`).
    pub victims_m: u64,
    /// Clean lines evicted (≙ `LLC_VICTIMS.E`).
    pub victims_e: u64,
    /// Of `victims_m`, those forced out by `flush()` at the end rather than
    /// by capacity pressure during the run.
    pub flush_victims_m: u64,
}

impl LevelCounters {
    /// Total evictions.
    pub fn victims(&self) -> u64 {
        self.victims_m + self.victims_e
    }
}

/// Victim metadata returned by an insertion that displaced a line.
pub(crate) struct Victim {
    pub line: u64,
    pub dirty: bool,
}

/// Absent-slot sentinel: an empty entry of the hierarchy's line table
/// and a missing link of the recency list.
pub(crate) const NIL: u32 = u32::MAX;

/// O(1) fully-associative LRU bookkeeping: an intrusive doubly-linked
/// recency list over slots (head = LRU, tail = MRU) and a free-slot stack.
struct FaLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    free: Vec<usize>,
}

impl FaLru {
    fn new(lines: usize) -> Self {
        FaLru {
            prev: vec![NIL; lines],
            next: vec![NIL; lines],
            head: NIL,
            tail: NIL,
            free: (0..lines).rev().collect(),
        }
    }

    fn unlink(&mut self, s: usize) {
        let (p, n) = (self.prev[s], self.next[s]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[s] = NIL;
        self.next[s] = NIL;
    }

    /// Move the segment `first..=last` of the recency list, in list
    /// order, to the MRU end in O(1): the list that moving each of its
    /// slots to MRU in turn would leave.
    fn splice_mru(&mut self, first: usize, last: usize) {
        if last as u32 == self.tail {
            return;
        }
        let (p, n) = (self.prev[first], self.next[last]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        self.prev[n as usize] = p;
        self.prev[first] = self.tail;
        self.next[self.tail as usize] = first as u32;
        self.next[last] = NIL;
        self.tail = last as u32;
    }

    fn push_mru(&mut self, s: usize) {
        self.prev[s] = self.tail;
        self.next[s] = NIL;
        if self.tail != NIL {
            self.next[self.tail as usize] = s as u32;
        } else {
            self.head = s as u32;
        }
        self.tail = s as u32;
    }

    fn clear(&mut self) {
        let lines = self.prev.len();
        self.prev.iter_mut().for_each(|x| *x = NIL);
        self.next.iter_mut().for_each(|x| *x = NIL);
        self.head = NIL;
        self.tail = NIL;
        self.free = (0..lines).rev().collect();
    }
}

/// One cache level.
pub(crate) struct Level {
    cfg: CacheConfig,
    num_sets: usize,
    ways: usize,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    meta: Vec<u64>,
    hands: Vec<u32>,
    /// Fully-associative O(1) LRU machinery (only when cfg.ways == 0).
    fa: Option<FaLru>,
    pub counters: LevelCounters,
}

impl Level {
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_words.is_power_of_two(), "line size must be 2^k");
        assert!(
            cfg.capacity_words.is_multiple_of(cfg.line_words),
            "capacity must be a whole number of lines"
        );
        let lines = cfg.capacity_lines();
        let (num_sets, ways, fa) = if cfg.ways == 0 {
            assert!(
                cfg.policy == Policy::Lru,
                "fully-associative mode implements LRU only"
            );
            (1, lines, Some(FaLru::new(lines)))
        } else {
            assert!(
                lines.is_multiple_of(cfg.ways),
                "lines ({lines}) must divide evenly into {}-way sets",
                cfg.ways
            );
            (lines / cfg.ways, cfg.ways, None)
        };
        Level {
            cfg,
            num_sets,
            ways,
            tags: vec![INVALID; lines],
            dirty: vec![false; lines],
            meta: vec![0; lines],
            hands: vec![0; num_sets],
            fa,
            counters: LevelCounters::default(),
        }
    }

    pub(crate) fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line % self.num_sets as u64) as usize
    }

    #[inline]
    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Is this level fully associative (an O(1) recency list)?
    pub(crate) fn is_fully_associative(&self) -> bool {
        self.fa.is_some()
    }

    /// Count `count` repeat hits on `slot` in O(1). Valid only when the
    /// slot's line was the *immediately preceding* access at this level:
    /// with no intervening access the line is already MRU (fully
    /// associative LRU needs no list surgery) and the per-way policy
    /// effect of the skipped touches collapses to one
    /// [`Policy::on_repeat_hits`] call — so the replacement state a
    /// per-word re-touch loop would produce is behaviorally identical.
    #[inline]
    pub(crate) fn fast_hits(&mut self, slot: usize, count: u64, make_dirty: bool) {
        self.counters.hits += count;
        if make_dirty {
            self.dirty[slot] = true;
        }
        if self.fa.is_none() {
            self.cfg.policy.on_repeat_hits(&mut self.meta[slot], count);
        }
    }

    /// Does `slot` currently hold `line`? The hierarchy's carried memo
    /// entries may have been invalidated, or their slot reused, by walks
    /// that happened since they were recorded; this is the O(1)
    /// revalidation check (tags are private to this module).
    #[inline]
    pub(crate) fn slot_holds(&self, slot: usize, line: u64) -> bool {
        self.tags[slot] == line
    }

    /// Count one hit on `slot` whose line was accessed *recently but not
    /// immediately before*: unlike [`Level::fast_hits`] the line need not
    /// be MRU, so replacement metadata is refreshed as for any hit. A
    /// memo entry's slot must have been revalidated via
    /// [`Level::slot_holds`] first.
    #[inline]
    pub(crate) fn rehit(&mut self, slot: usize, now: u64, make_dirty: bool) {
        self.counters.hits += 1;
        if let Some(fa) = &mut self.fa {
            fa.splice_mru(slot, slot);
        } else {
            self.cfg.policy.on_hit(&mut self.meta[slot], now);
        }
        if make_dirty {
            self.dirty[slot] = true;
        }
    }

    /// Touch an in-order stretch of a run, starting with `line` at
    /// `slot`: while the recency-list successor of the stretch's last
    /// slot holds the run's next line (up to `last_line`), the stretch
    /// takes it. Its lines are then touched in run order in one step:
    /// dirtied on a write, and spliced to the MRU end, which is where
    /// moving them to MRU one at a time would leave them. The caller
    /// counts the hits. The stretch never takes the MRU line as its
    /// second line: that line is the hierarchy's `memo[0]`, which the
    /// per-line path would find in `memo[1]` there. Returns the number
    /// of lines and the stretch's last slot and, with two lines or more,
    /// the slot before it. Fully associative levels only.
    pub(crate) fn hit_stretch(
        &mut self,
        slot: usize,
        line: u64,
        last_line: u64,
        make_dirty: bool,
    ) -> (u64, usize, usize) {
        let fa = self
            .fa
            .as_mut()
            .expect("stretches walk a fully associative recency list");
        let (mut lines, mut last, mut before) = (1, slot, slot);
        self.dirty[slot] |= make_dirty;
        while line + lines <= last_line {
            let s = fa.next[last];
            if s == NIL || self.tags[s as usize] != line + lines || (lines == 1 && s == fa.tail) {
                break;
            }
            (before, last) = (last, s as usize);
            self.dirty[last] |= make_dirty;
            lines += 1;
        }
        fa.splice_mru(slot, last);
        (lines, last, before)
    }

    /// Mark the line at `slot` dirty (a write-back arriving from a faster
    /// level).
    pub(crate) fn mark_dirty(&mut self, slot: usize) {
        self.dirty[slot] = true;
    }

    /// Clear the dirty bit at `slot`, returning its previous value.
    /// Residency and replacement state are untouched — this is the
    /// per-level step of the hierarchy's clwb-style
    /// `MemSim::writeback_range`, which pushes dirty data down without
    /// evicting it.
    pub(crate) fn clean(&mut self, slot: usize) -> bool {
        std::mem::take(&mut self.dirty[slot])
    }

    /// Drop the line at `slot` (inclusion maintenance), returning the
    /// dirtiness of the dropped copy.
    pub(crate) fn invalidate(&mut self, slot: usize) -> bool {
        self.tags[slot] = INVALID;
        // Keep FIFO/LRU metadata at 0 for empty slots: insertion will reset.
        self.meta[slot] = 0;
        if let Some(fa) = &mut self.fa {
            fa.unlink(slot);
            fa.free.push(slot);
        }
        std::mem::take(&mut self.dirty[slot])
    }

    /// Insert `line`, which must be absent (counting a fill), evicting a
    /// victim if the set is full. Returns the slot the line landed in
    /// plus the victim, if any, whose table entry the caller clears. The
    /// caller (the hierarchy) classifies the victim as M or E — a line
    /// clean here may still be dirty in a faster level — and must call
    /// [`Level::count_victim`] with the effective dirtiness.
    pub(crate) fn insert(&mut self, line: u64, now: u64, dirty: bool) -> (usize, Option<Victim>) {
        self.counters.fills += 1;

        if let Some(fa) = &mut self.fa {
            // O(1) fully-associative LRU path.
            let (slot, victim) = match fa.free.pop() {
                Some(s) => {
                    fa.push_mru(s);
                    (s, None)
                }
                None => {
                    // The LRU slot takes the line and becomes MRU.
                    let s = fa.head as usize;
                    let v = Victim {
                        line: self.tags[s],
                        dirty: self.dirty[s],
                    };
                    fa.splice_mru(s, s);
                    (s, Some(v))
                }
            };
            self.tags[slot] = line;
            self.dirty[slot] = dirty;
            return (slot, victim);
        }

        let set = self.set_of(line);
        let range = self.slot_range(set);
        // Free slot?
        let free = range.clone().find(|&s| self.tags[s] == INVALID);
        let (slot, victim) = match free {
            Some(s) => (s, None),
            None => {
                let base = range.start;
                let hand = &mut self.hands[set];
                let way = {
                    let meta = &mut self.meta[range.clone()];
                    self.cfg.policy.choose_victim(meta, hand)
                };
                let s = base + way;
                let v = Victim {
                    line: self.tags[s],
                    dirty: self.dirty[s],
                };
                (s, Some(v))
            }
        };
        self.tags[slot] = line;
        self.dirty[slot] = dirty;
        self.meta[slot] = self.cfg.policy.on_insert(now);
        (slot, victim)
    }

    /// Record a victim eviction in this level's counters with its
    /// *effective* dirtiness (local dirty bit merged with faster levels').
    pub(crate) fn count_victim(&mut self, effective_dirty: bool) {
        if effective_dirty {
            self.counters.victims_m += 1;
        } else {
            self.counters.victims_e += 1;
        }
    }

    /// Drain every resident line; returns `(line, dirty)` pairs. Used by
    /// `MemSim::flush`.
    pub(crate) fn drain(&mut self) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        for s in 0..self.tags.len() {
            if self.tags[s] != INVALID {
                out.push((self.tags[s], self.dirty[s]));
                self.tags[s] = INVALID;
                self.dirty[s] = false;
                self.meta[s] = 0;
            }
        }
        if let Some(fa) = &mut self.fa {
            fa.clear();
        }
        out
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub(crate) fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, policy: Policy) -> Level {
        Level::new(CacheConfig {
            capacity_words: 32, // 4 lines of 8 words
            line_words: 8,
            ways,
            policy,
        })
    }

    /// The slot holding `line`, by a scan of the tags (the hierarchy's
    /// table is the real index).
    fn slot_of(l: &Level, line: u64) -> Option<usize> {
        l.tags.iter().position(|&t| t == line)
    }

    #[test]
    fn hit_after_insert() {
        let mut l = tiny(0, Policy::Lru);
        let (slot, victim) = l.insert(5, 1, false);
        assert!(victim.is_none());
        assert_eq!(slot_of(&l, 5), Some(slot));
        assert!(l.slot_holds(slot, 5));
        l.rehit(slot, 2, false);
        assert_eq!(l.counters.hits, 1);
        assert_eq!(slot_of(&l, 6), None);
    }

    #[test]
    fn lru_eviction_order_fully_associative() {
        let mut l = tiny(0, Policy::Lru);
        for (t, line) in [10u64, 11, 12, 13].iter().enumerate() {
            l.insert(*line, t as u64, false);
        }
        // Touch 10 so 11 becomes LRU.
        l.rehit(slot_of(&l, 10).unwrap(), 100, false);
        let v = l.insert(14, 101, false).1.expect("must evict");
        assert_eq!(v.line, 11);
        assert!(!v.dirty);
        l.count_victim(v.dirty);
        assert_eq!(l.counters.victims_e, 1);
    }

    #[test]
    fn dirty_victim_counts_as_m() {
        let mut l = tiny(0, Policy::Lru);
        for line in 0..4u64 {
            l.insert(line, line, false);
        }
        // Dirty line 0, which also makes it MRU.
        l.rehit(slot_of(&l, 0).unwrap(), 10, true);
        let v = l.insert(99, 11, false).1.expect("must evict");
        assert_eq!(v.line, 1);
        assert!(!v.dirty);
        // Evict until line 0 goes: it must be the last and dirty.
        l.insert(98, 12, false).1.unwrap();
        l.insert(97, 13, false).1.unwrap();
        let v0 = l.insert(96, 14, false).1.unwrap();
        assert_eq!(v0.line, 0);
        assert!(v0.dirty);
    }

    #[test]
    fn set_mapping_conflicts() {
        // 4 lines, 1-way (direct mapped) => 4 sets; lines 0 and 4 collide.
        let mut l = tiny(1, Policy::Lru);
        l.insert(0, 1, false);
        let v = l.insert(4, 2, false).1.expect("direct-mapped conflict");
        assert_eq!(v.line, 0);
        // Lines 1 and 2 go to other sets without eviction.
        assert!(l.insert(1, 3, false).1.is_none());
        assert!(l.insert(2, 4, false).1.is_none());
    }

    #[test]
    fn invalidate_reports_dirtiness_and_frees_slot() {
        let mut l = tiny(0, Policy::Lru);
        let (slot, _) = l.insert(7, 1, true);
        assert!(l.invalidate(slot));
        assert_eq!(l.resident_lines(), 0);
        assert!(!l.slot_holds(slot, 7));
        // The freed slot takes the next line without a victim.
        assert_eq!(l.insert(8, 2, false).0, slot);
    }

    #[test]
    fn clean_returns_and_clears_the_dirty_bit() {
        let mut l = tiny(2, Policy::Lru);
        let (slot, _) = l.insert(3, 1, true);
        assert!(l.clean(slot));
        assert!(!l.clean(slot));
        assert_eq!(l.resident_lines(), 1, "cleaning does not evict");
    }

    #[test]
    fn drain_returns_all_lines() {
        let mut l = tiny(2, Policy::Fifo);
        l.insert(1, 1, true);
        l.insert(2, 2, false);
        let mut d = l.drain();
        d.sort();
        assert_eq!(d, vec![(1, true), (2, false)]);
        assert_eq!(l.resident_lines(), 0);
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut l = tiny(0, Policy::Lru);
        let (slot, _) = l.insert(3, 1, false);
        l.mark_dirty(slot);
        let _ = l.insert(4, 2, false);
        // Fill to capacity and evict; line 3 should eventually leave dirty.
        l.insert(5, 3, false);
        l.insert(6, 4, false);
        let v = l.insert(8, 5, false).1.expect("must evict");
        assert_eq!(v.line, 3);
        assert!(v.dirty);
    }
}
