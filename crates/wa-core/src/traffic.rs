//! Traffic counters for a memory-hierarchy boundary.
//!
//! The paper's refined model (Section 2) decomposes each *load* into a read
//! from slow memory plus a write to fast memory, and each *store* into a
//! read from fast memory plus a write to slow memory. [`Traffic`] records
//! loads/stores in words and messages across one boundary, and derives the
//! read/write decomposition; [`BoundaryTraffic`] aggregates one `Traffic`
//! per boundary of an r-level hierarchy.

use std::fmt;
use std::ops::{Add, AddAssign};

/// One run of consecutive word accesses: `words` words starting at `addr`,
/// all reads or all writes. This is the currency of the bulk access APIs —
/// kernels describe their traffic as runs instead of single words, and the
/// consumers ([`Traffic::run`], `memsim::MemSim::run`) charge each run at
/// block-transfer granularity instead of walking it word by word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRun {
    /// First word address of the run.
    pub addr: usize,
    /// Number of consecutive words touched.
    pub words: usize,
    /// All-write run (`true`) or all-read run (`false`).
    pub is_write: bool,
}

impl AccessRun {
    /// A read run over `[addr, addr + words)`.
    pub fn read(addr: usize, words: usize) -> Self {
        AccessRun {
            addr,
            words,
            is_write: false,
        }
    }

    /// A write run over `[addr, addr + words)`.
    pub fn write(addr: usize, words: usize) -> Self {
        AccessRun {
            addr,
            words,
            is_write: true,
        }
    }
}

/// Word and message counts crossing one fast↔slow boundary.
///
/// `load_*` is slow→fast movement, `store_*` is fast→slow movement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Words moved slow→fast.
    pub load_words: u64,
    /// Messages (block transfers) moved slow→fast.
    pub load_msgs: u64,
    /// Words moved fast→slow.
    pub store_words: u64,
    /// Messages (block transfers) moved fast→slow.
    pub store_msgs: u64,
}

impl Traffic {
    pub const ZERO: Traffic = Traffic {
        load_words: 0,
        load_msgs: 0,
        store_words: 0,
        store_msgs: 0,
    };

    /// Record a slow→fast transfer of `words` words as one message. The
    /// words tick the cancel clock ([`crate::cancel::tick`]).
    #[inline]
    pub fn load(&mut self, words: u64) {
        crate::cancel::tick(words);
        self.load_words += words;
        self.load_msgs += 1;
    }

    /// Record a fast→slow transfer of `words` words as one message. The
    /// words tick the cancel clock.
    #[inline]
    pub fn store(&mut self, words: u64) {
        crate::cancel::tick(words);
        self.store_words += words;
        self.store_msgs += 1;
    }

    /// Record one read run of `words` words: one slow→fast message, or
    /// nothing for an empty run (a zero-length run moves no data, so it
    /// is not a transfer). Every explicit stream charge — the sorts, and
    /// the Krylov kernels through `Traffic`'s `memsim::Sink` impl — goes
    /// through these two methods, so the skip-empty rule lives in one
    /// place.
    #[inline]
    pub fn load_run(&mut self, words: u64) {
        if words > 0 {
            self.load(words);
        }
    }

    /// Record one write run of `words` words: one fast→slow message, or
    /// nothing for an empty run.
    #[inline]
    pub fn store_run(&mut self, words: u64) {
        if words > 0 {
            self.store(words);
        }
    }

    /// Record a batch of [`AccessRun`]s: each read run is one slow→fast
    /// message of `words` words, each write run one fast→slow message.
    /// Zero-length runs are skipped (they move nothing).
    pub fn run(&mut self, runs: &[AccessRun]) {
        for r in runs {
            if r.is_write {
                self.store_run(r.words as u64);
            } else {
                self.load_run(r.words as u64);
            }
        }
    }

    /// Total words moved in either direction (the classical "W" the
    /// communication-avoiding literature bounds).
    pub fn total_words(&self) -> u64 {
        self.load_words + self.store_words
    }

    /// Total messages in either direction.
    pub fn total_msgs(&self) -> u64 {
        self.load_msgs + self.store_msgs
    }

    /// Words *written to fast memory* across this boundary (= words loaded).
    pub fn writes_to_fast(&self) -> u64 {
        self.load_words
    }

    /// Words *written to slow memory* across this boundary (= words stored).
    pub fn writes_to_slow(&self) -> u64 {
        self.store_words
    }

    /// Words *read from slow memory* (= words loaded).
    pub fn reads_from_slow(&self) -> u64 {
        self.load_words
    }

    /// Ratio of writes-to-slow to total words; a write-avoiding execution
    /// drives this toward `output_size / W ≪ 1`.
    pub fn write_fraction(&self) -> f64 {
        if self.total_words() == 0 {
            0.0
        } else {
            self.writes_to_slow() as f64 / self.total_words() as f64
        }
    }
}

impl Add for Traffic {
    type Output = Traffic;
    fn add(self, o: Traffic) -> Traffic {
        Traffic {
            load_words: self.load_words + o.load_words,
            load_msgs: self.load_msgs + o.load_msgs,
            store_words: self.store_words + o.store_words,
            store_msgs: self.store_msgs + o.store_msgs,
        }
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, o: Traffic) {
        *self = *self + o;
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loads {} w / {} msgs, stores {} w / {} msgs",
            self.load_words, self.load_msgs, self.store_words, self.store_msgs
        )
    }
}

/// Traffic for every boundary of an r-level hierarchy.
///
/// Boundary `i` separates level `L_{i+1}` (fast) from `L_{i+2}` (slow) when
/// levels are numbered from the top (L1 smallest). For a two-level model
/// there is a single boundary, index 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoundaryTraffic {
    boundaries: Vec<Traffic>,
}

impl BoundaryTraffic {
    /// `levels` memory levels have `levels - 1` boundaries.
    pub fn new(levels: usize) -> Self {
        assert!(levels >= 2, "need at least two levels for one boundary");
        BoundaryTraffic {
            boundaries: vec![Traffic::ZERO; levels - 1],
        }
    }

    pub(crate) fn num_boundaries(&self) -> usize {
        self.boundaries.len()
    }

    /// Traffic across boundary `i` (0 = topmost, between L1 and L2).
    pub fn boundary(&self, i: usize) -> Traffic {
        self.boundaries[i]
    }

    pub fn boundary_mut(&mut self, i: usize) -> &mut Traffic {
        &mut self.boundaries[i]
    }

    /// Words written *into* level `L_lvl` (1-indexed, L1 = 1, topmost).
    ///
    /// Boundary `b` (0-indexed) separates `L_{b+1}` (fast side) from
    /// `L_{b+2}` (slow side). A load across boundary `b` writes into
    /// `L_{b+1}`; a store across boundary `b` writes into `L_{b+2}`. So
    /// `writes(L_s) = load_words(boundary s-1) + store_words(boundary s-2)`
    /// with out-of-range boundaries contributing zero.
    pub fn writes_into_level(&self, lvl: usize) -> u64 {
        assert!(lvl >= 1, "levels are 1-indexed");
        let mut w = 0;
        // Loads across boundary (lvl-1) land in L_lvl from L_{lvl+1}.
        if lvl <= self.boundaries.len() {
            w += self.boundaries[lvl - 1].load_words;
        }
        // Stores across boundary (lvl-2) land in L_lvl from L_{lvl-1}.
        if lvl >= 2 {
            w += self.boundaries[lvl - 2].store_words;
        }
        w
    }
}

impl AddAssign<&BoundaryTraffic> for BoundaryTraffic {
    fn add_assign(&mut self, o: &BoundaryTraffic) {
        assert_eq!(self.boundaries.len(), o.boundaries.len());
        for (a, b) in self.boundaries.iter_mut().zip(&o.boundaries) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_decomposition() {
        let mut t = Traffic::ZERO;
        t.load(100); // read slow, write fast
        t.store(40); // read fast, write slow
        assert_eq!(t.writes_to_fast(), 100);
        assert_eq!(t.writes_to_slow(), 40);
        assert_eq!(t.reads_from_slow(), 100);
        assert_eq!(t.total_words(), 140);
        assert_eq!(t.total_msgs(), 2);
    }

    #[test]
    fn run_batch_charges_one_message_per_run() {
        let mut t = Traffic::ZERO;
        t.run(&[
            AccessRun::read(0, 64),
            AccessRun::read(1024, 8),
            AccessRun::write(64, 16),
            AccessRun::read(0, 0), // empty: no words, no message
        ]);
        assert_eq!(t.load_words, 72);
        assert_eq!(t.load_msgs, 2);
        assert_eq!(t.store_words, 16);
        assert_eq!(t.store_msgs, 1);
    }

    #[test]
    fn run_with_empty_slice_is_a_no_op() {
        let mut t = Traffic::ZERO;
        t.run(&[]);
        assert_eq!(t, Traffic::ZERO);
        // And on a non-zero tally it changes nothing.
        t.load(5);
        let before = t;
        t.run(&[]);
        assert_eq!(t, before);
    }

    #[test]
    fn zero_length_runs_move_no_words_and_no_messages() {
        let mut t = Traffic::ZERO;
        t.run(&[AccessRun::read(0, 0), AccessRun::write(1024, 0)]);
        assert_eq!(t, Traffic::ZERO);
        t.load_run(0);
        t.store_run(0);
        assert_eq!(t, Traffic::ZERO, "empty runs are not transfers");
        // A batch mixing empty and real runs charges only the real ones.
        t.run(&[
            AccessRun::read(0, 0),
            AccessRun::read(8, 8),
            AccessRun::write(16, 0),
            AccessRun::write(24, 4),
        ]);
        assert_eq!(t.load_words, 8);
        assert_eq!(t.load_msgs, 1);
        assert_eq!(t.store_words, 4);
        assert_eq!(t.store_msgs, 1);
    }

    #[test]
    fn theorem1_invariant_holds_by_construction() {
        // Theorem 1: writes to fast >= (loads+stores)/2 holds whenever each
        // residency writes fast at least once; in the pure load/store
        // accounting, writes_to_fast = load_words and the bound is
        // load_words >= (load+store)/2 iff load >= store, which WA
        // algorithms satisfy. Check a representative WA-shaped count.
        let mut t = Traffic::ZERO;
        t.load(1_000_000);
        t.store(10_000);
        assert!(2 * t.writes_to_fast() >= t.total_words());
    }

    #[test]
    fn writes_into_middle_level_combines_both_neighbors() {
        // 3 levels: boundary 0 = L1/L2, boundary 1 = L2/L3.
        let mut bt = BoundaryTraffic::new(3);
        bt.boundary_mut(1).load(500); // L3 -> L2: writes into L2
        bt.boundary_mut(0).store(70); // L1 -> L2: writes into L2
        bt.boundary_mut(0).load(900); // L2 -> L1: writes into L1
        assert_eq!(bt.writes_into_level(2), 570);
        assert_eq!(bt.writes_into_level(1), 900);
    }

    #[test]
    fn writes_into_bottom_level_counts_only_stores_from_above() {
        let mut bt = BoundaryTraffic::new(3);
        bt.boundary_mut(1).store(33); // L2 -> L3
        bt.boundary_mut(1).load(1000); // L3 -> L2 (reads of L3, not writes)
        assert_eq!(bt.writes_into_level(3), 33);
    }

    #[test]
    fn aggregation() {
        let mut a = BoundaryTraffic::new(2);
        a.boundary_mut(0).load(10);
        let mut b = BoundaryTraffic::new(2);
        b.boundary_mut(0).store(5);
        a += &b;
        assert_eq!(a.boundary(0).total_words(), 15);
    }

    #[test]
    fn write_fraction_of_wa_trace_is_small() {
        let mut t = Traffic::ZERO;
        t.load(10_000);
        t.store(100);
        assert!(t.write_fraction() < 0.01);
    }
}
