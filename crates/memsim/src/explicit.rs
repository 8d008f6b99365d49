//! Explicit block-movement model (paper Sections 2 and 4).
//!
//! Algorithms in the WA style *explicitly* move blocks between hierarchy
//! levels ("load C(i,j) from L2 to L1"). [`ExplicitHier`] executes exactly
//! that accounting: each `load`/`store` crosses one boundary, the model
//! checks the fast level's capacity is respected, and the per-boundary
//! word/message totals (via [`wa_core::BoundaryTraffic`]) decompose into
//! reads and writes per the refined model:
//!
//! * load  = read slow + **write fast**;
//! * store = read fast + **write slow**.
//!
//! Residencies beginning without slow-memory access (R2: e.g. initializing
//! an accumulator in fast memory) are recorded with [`ExplicitHier::alloc`];
//! they count as local writes to the fast level but no boundary traffic.

use wa_core::BoundaryTraffic;

/// r-level hierarchy with explicit, capacity-checked block movement.
///
/// Levels are 1-indexed in the public API to match the paper (L1 = fastest);
/// boundary `b` (0-indexed) separates `L_{b+1}` from `L_{b+2}`.
///
/// ```
/// use memsim::ExplicitHier;
/// let mut h = ExplicitHier::two_level(100);
/// h.load(0, 60);   // read slow + write fast: 60 words into L1
/// h.store(0, 60);  // read fast + write slow
/// h.free(1, 60);
/// assert_eq!(h.traffic().boundary(0).writes_to_slow(), 60);
/// assert_eq!(h.writes_into_level(1), 60);
/// ```
#[derive(Clone, Debug)]
pub struct ExplicitHier {
    /// Capacities in words, fastest first. The last level is the backing
    /// store; its capacity is not enforced.
    sizes: Vec<u64>,
    /// Currently resident words per enforced level.
    resident: Vec<u64>,
    /// Peak residency per enforced level (for diagnostics / tests).
    peak: Vec<u64>,
    traffic: BoundaryTraffic,
    /// R2-style writes performed directly into each level (1-indexed-1).
    local_writes: Vec<u64>,
    flops: u64,
}

impl ExplicitHier {
    /// Build from level sizes, fastest first; needs ≥ 2 levels. The last
    /// entry may be `u64::MAX` to mean "unbounded backing store".
    pub fn new(sizes: &[u64]) -> Self {
        assert!(sizes.len() >= 2, "need at least two levels");
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "capacities must increase away from L1");
        }
        ExplicitHier {
            sizes: sizes.to_vec(),
            resident: vec![0; sizes.len() - 1],
            peak: vec![0; sizes.len() - 1],
            traffic: BoundaryTraffic::new(sizes.len()),
            local_writes: vec![0; sizes.len()],
            flops: 0,
        }
    }

    /// Two-level model: fast memory of `m` words over an unbounded slow
    /// memory.
    pub fn two_level(m: u64) -> Self {
        ExplicitHier::new(&[m, u64::MAX])
    }

    pub fn num_levels(&self) -> usize {
        self.sizes.len()
    }

    /// Capacity of level `lvl` (1-indexed).
    pub fn capacity(&self, lvl: usize) -> u64 {
        self.sizes[lvl - 1]
    }

    /// Words currently resident in level `lvl` (1-indexed; not the backing
    /// store).
    pub fn resident(&self, lvl: usize) -> u64 {
        self.resident[lvl - 1]
    }

    /// Peak words ever resident in level `lvl`.
    pub fn peak(&self, lvl: usize) -> u64 {
        self.peak[lvl - 1]
    }

    /// Load `words` across boundary `b` (from `L_{b+2}` into `L_{b+1}`) as
    /// one message. Panics if the fast side would overflow.
    pub fn load(&mut self, b: usize, words: u64) {
        self.reserve(b, words);
        self.traffic.boundary_mut(b).load(words);
    }

    /// Store `words` across boundary `b` (from `L_{b+1}` into `L_{b+2}`) as
    /// one message. The fast copy remains resident; pair with
    /// [`ExplicitHier::free`] to also release it.
    pub fn store(&mut self, b: usize, words: u64) {
        assert!(
            self.resident[b] >= words,
            "storing {words} words from L{} but only {} resident",
            b + 1,
            self.resident[b]
        );
        self.traffic.boundary_mut(b).store(words);
    }

    /// Release `words` from level `lvl` (1-indexed) — the D2 "discard" end
    /// of a residency (or the end of an R?/D1 residency after its store).
    pub fn free(&mut self, lvl: usize, words: u64) {
        let i = lvl - 1;
        assert!(
            self.resident[i] >= words,
            "freeing {words} from L{lvl} with only {} resident",
            self.resident[i]
        );
        self.resident[i] -= words;
    }

    /// Begin an R2 residency: `words` created directly in level `lvl`
    /// (1-indexed) without slow-memory traffic (e.g. zeroing an
    /// accumulator). Counts as local writes into that level.
    pub fn alloc(&mut self, lvl: usize, words: u64) {
        self.reserve(lvl - 1, words);
        self.local_writes[lvl - 1] += words;
    }

    fn reserve(&mut self, i: usize, words: u64) {
        let cap = self.sizes[i];
        assert!(
            self.resident[i] + words <= cap,
            "L{} overflow: {} resident + {} requested > capacity {}",
            i + 1,
            self.resident[i],
            words,
            cap
        );
        self.resident[i] += words;
        self.peak[i] = self.peak[i].max(self.resident[i]);
    }

    /// Record `n` arithmetic operations (no memory traffic in this model).
    pub fn flop(&mut self, n: u64) {
        self.flops += n;
    }

    pub fn flops(&self) -> u64 {
        self.flops
    }

    pub fn traffic(&self) -> &BoundaryTraffic {
        &self.traffic
    }

    /// R2-style local writes recorded by [`ExplicitHier::alloc`] for level
    /// `lvl` (1-indexed).
    pub(crate) fn local_writes(&self, lvl: usize) -> u64 {
        self.local_writes[lvl - 1]
    }

    /// Words written into level `lvl` (1-indexed): boundary traffic plus
    /// local R2 writes.
    pub fn writes_into_level(&self, lvl: usize) -> u64 {
        self.traffic.writes_into_level(lvl) + self.local_writes[lvl - 1]
    }

    /// Theorem 1 check: writes into the fast side of boundary `b` must be
    /// at least half the loads+stores across it. Returns
    /// `(writes_to_fast, total_ldst)`.
    pub fn theorem1_check(&self, b: usize) -> (u64, u64) {
        let t = self.traffic.boundary(b);
        (t.writes_to_fast() + self.local_writes[b], t.total_words())
    }
}

/// Where a block schedule sends its explicit charges. An
/// [`ExplicitHier`] counts them; `()` drops them, so an access-driven
/// kernel can run the same schedule with its arithmetic as the body and
/// neither pays for the charges nor ticks the cancellation clock with
/// them (its [`crate::Mem`] measures the accesses instead).
pub trait Charges {
    /// [`ExplicitHier::load`].
    fn load(&mut self, b: usize, words: u64);
    /// [`ExplicitHier::store`].
    fn store(&mut self, b: usize, words: u64);
    /// [`ExplicitHier::free`].
    fn free(&mut self, lvl: usize, words: u64);
    /// [`ExplicitHier::flop`].
    fn flop(&mut self, n: u64);
}

impl Charges for ExplicitHier {
    #[inline]
    fn load(&mut self, b: usize, words: u64) {
        ExplicitHier::load(self, b, words);
    }
    #[inline]
    fn store(&mut self, b: usize, words: u64) {
        ExplicitHier::store(self, b, words);
    }
    #[inline]
    fn free(&mut self, lvl: usize, words: u64) {
        ExplicitHier::free(self, lvl, words);
    }
    #[inline]
    fn flop(&mut self, n: u64) {
        ExplicitHier::flop(self, n);
    }
}

impl Charges for () {
    #[inline]
    fn load(&mut self, _: usize, _: u64) {}
    #[inline]
    fn store(&mut self, _: usize, _: u64) {}
    #[inline]
    fn free(&mut self, _: usize, _: u64) {}
    #[inline]
    fn flop(&mut self, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip_counts() {
        let mut h = ExplicitHier::two_level(100);
        h.load(0, 60);
        h.store(0, 60);
        h.free(1, 60);
        let t = h.traffic().boundary(0);
        assert_eq!(t.load_words, 60);
        assert_eq!(t.store_words, 60);
        assert_eq!(t.total_msgs(), 2);
        assert_eq!(h.resident(1), 0);
    }

    #[test]
    #[should_panic(expected = "L1 overflow")]
    fn capacity_is_enforced() {
        let mut h = ExplicitHier::two_level(100);
        h.load(0, 64);
        h.load(0, 64);
    }

    #[test]
    fn alloc_counts_local_writes_not_traffic() {
        let mut h = ExplicitHier::two_level(100);
        h.alloc(1, 25);
        assert_eq!(h.writes_into_level(1), 25);
        assert_eq!(h.traffic().boundary(0).total_words(), 0);
    }

    #[test]
    fn three_level_boundaries_are_independent() {
        let mut h = ExplicitHier::new(&[10, 100, u64::MAX]);
        h.load(1, 50); // L3 -> L2
        h.load(0, 10); // L2 -> L1
        h.store(0, 10); // L1 -> L2
        assert_eq!(h.writes_into_level(2), 60); // 50 loaded + 10 stored
        assert_eq!(h.writes_into_level(1), 10);
        assert_eq!(h.writes_into_level(3), 0);
        assert_eq!(h.resident(1), 10);
        assert_eq!(h.resident(2), 50);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut h = ExplicitHier::two_level(100);
        h.load(0, 80);
        h.free(1, 80);
        h.load(0, 30);
        assert_eq!(h.peak(1), 80);
        assert_eq!(h.resident(1), 30);
    }

    #[test]
    fn theorem1_holds_for_balanced_use() {
        let mut h = ExplicitHier::two_level(1000);
        h.load(0, 500);
        h.store(0, 100);
        let (wf, total) = h.theorem1_check(0);
        assert!(2 * wf >= total);
    }

    #[test]
    #[should_panic(expected = "storing")]
    fn cannot_store_more_than_resident() {
        let mut h = ExplicitHier::two_level(100);
        h.load(0, 10);
        h.store(0, 20);
    }

    #[test]
    fn flops_accumulate() {
        let mut h = ExplicitHier::two_level(10);
        h.flop(100);
        h.flop(23);
        assert_eq!(h.flops(), 123);
    }
}
