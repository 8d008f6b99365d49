//! Cache replacement policies.
//!
//! The policy operates *within one associative set*: it is told about hits
//! and insertions and asked to choose a victim way. Metadata is stored as
//! one `u64` per way, interpreted per policy:
//!
//! * [`Policy::Lru`] — last-use timestamp; victim = smallest.
//! * [`Policy::Clock3`] — the 3-bit "clock algorithm" the paper says the
//!   Nehalem-EX L3 is believed to use \[17, 22, 35\]: a hit increments a
//!   3-bit marker (saturating at 7); eviction scans clockwise from a hand
//!   for a way marked 0, decrementing all markers each failed lap.
//! * [`Policy::Fifo`] — insertion timestamp; victim = smallest.
//!
//! Belady's offline-optimal policy needs the future trace, so it lives in
//! [`crate::ideal`] rather than here.

/// Replacement policy selector for a cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// True least-recently-used.
    Lru,
    /// 3-bit clock approximation of LRU (Nehalem-EX style).
    Clock3,
    /// First-in first-out (insertion order).
    Fifo,
}

impl Policy {
    /// Metadata value for a line on insertion. `now` is a global access
    /// counter.
    #[inline]
    pub(crate) fn on_insert(self, now: u64) -> u64 {
        match self {
            Policy::Lru => now,
            // The clock algorithm inserts with marker 1 ("recently used
            // once") so a brand-new line survives the first sweep.
            Policy::Clock3 => 1,
            Policy::Fifo => now,
        }
    }

    /// Update metadata on a hit.
    #[inline]
    pub(crate) fn on_hit(self, meta: &mut u64, now: u64) {
        match self {
            Policy::Lru => *meta = now,
            Policy::Clock3 => *meta = (*meta + 1).min(7),
            Policy::Fifo => {}
        }
    }

    /// Replay `count` *consecutive repeat hits* on the same line in O(1):
    /// the line was the immediately preceding access, so no other way's
    /// metadata moved in between. For LRU the relative recency order is
    /// already final (the timestamps of the skipped touches are unused by
    /// any other line), for FIFO hits never touch metadata, and for the
    /// 3-bit clock each hit increments the saturating marker — the one
    /// policy where repeat hits are not idempotent.
    #[inline]
    pub(crate) fn on_repeat_hits(self, meta: &mut u64, count: u64) {
        match self {
            Policy::Lru | Policy::Fifo => {}
            Policy::Clock3 => *meta = meta.saturating_add(count).min(7),
        }
    }

    /// Choose a victim among `ways` (all valid). `meta` is the per-way
    /// metadata slice, `hand` the per-set clock hand (updated in place).
    /// Returns the victim way index.
    pub(crate) fn choose_victim(self, meta: &mut [u64], hand: &mut u32) -> usize {
        match self {
            Policy::Lru | Policy::Fifo => meta
                .iter()
                .enumerate()
                .min_by_key(|&(_, m)| *m)
                .map(|(w, _)| w)
                .expect("set has at least one way"),
            Policy::Clock3 => {
                let n = meta.len() as u32;
                loop {
                    // One clockwise lap looking for a zero marker.
                    for _ in 0..n {
                        let w = (*hand % n) as usize;
                        *hand = (*hand + 1) % n;
                        if meta[w] == 0 {
                            return w;
                        }
                    }
                    // No unmarked line: decrement all markers and retry.
                    for m in meta.iter_mut() {
                        *m = m.saturating_sub(1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let p = Policy::Lru;
        let mut meta = vec![10, 3, 7, 5];
        let mut hand = 0;
        assert_eq!(p.choose_victim(&mut meta, &mut hand), 1);
    }

    #[test]
    fn lru_hit_refreshes() {
        let p = Policy::Lru;
        let mut m = 3u64;
        p.on_hit(&mut m, 99);
        assert_eq!(m, 99);
    }

    #[test]
    fn fifo_ignores_hits() {
        let p = Policy::Fifo;
        let mut m = 3u64;
        p.on_hit(&mut m, 99);
        assert_eq!(m, 3);
        let mut meta = vec![4, 2, 9];
        let mut hand = 0;
        assert_eq!(p.choose_victim(&mut meta, &mut hand), 1);
    }

    #[test]
    fn clock_saturates_at_seven() {
        let p = Policy::Clock3;
        let mut m = 6u64;
        p.on_hit(&mut m, 0);
        assert_eq!(m, 7);
        p.on_hit(&mut m, 0);
        assert_eq!(m, 7);
    }

    #[test]
    fn clock_finds_zero_marker() {
        let p = Policy::Clock3;
        let mut meta = vec![2, 0, 3];
        let mut hand = 0;
        assert_eq!(p.choose_victim(&mut meta, &mut hand), 1);
        // Hand advanced past the victim.
        assert_eq!(hand, 2);
    }

    #[test]
    fn clock_decrements_when_all_marked() {
        let p = Policy::Clock3;
        let mut meta = vec![1, 2, 1];
        let mut hand = 0;
        // First lap fails; all decremented to [0,1,0]; way 0 chosen.
        assert_eq!(p.choose_victim(&mut meta, &mut hand), 0);
        assert_eq!(meta[1], 1);
    }

    #[test]
    fn clock_approximates_lru_on_simple_pattern() {
        // Repeatedly hitting way 0 should protect it from eviction.
        let p = Policy::Clock3;
        let mut meta: Vec<u64> = vec![p.on_insert(0); 4];
        for _ in 0..5 {
            let mut m = meta[0];
            p.on_hit(&mut m, 0);
            meta[0] = m;
        }
        let mut hand = 0;
        let victim = p.choose_victim(&mut meta, &mut hand);
        assert_ne!(victim, 0, "hot way must not be the victim");
    }
}
