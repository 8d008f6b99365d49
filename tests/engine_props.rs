//! Property tests on the engine layer's bookkeeping types: `Traffic`
//! aggregation is a commutative monoid, the load/store → read/write
//! decomposition of the refined model holds for arbitrary event
//! sequences, and `ExplicitHier` enforces its fast-level capacities.

use proptest::prelude::*;
use write_avoiding::memsim::ExplicitHier;
use write_avoiding::wa_core::{BoundaryTraffic, Traffic};

fn traffic_strategy() -> impl Strategy<Value = Traffic> {
    (0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 40, 0u64..1 << 20).prop_map(
        |(load_words, load_msgs, store_words, store_msgs)| Traffic {
            load_words,
            load_msgs,
            store_words,
            store_msgs,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a + b) + c == a + (b + c), a + b == b + a, ZERO is the identity.
    #[test]
    fn traffic_add_is_an_abelian_monoid(
        a in traffic_strategy(),
        b in traffic_strategy(),
        c in traffic_strategy(),
    ) {
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a + Traffic::ZERO, a);
    }

    /// `+=` agrees with `+`, including when folded over a whole sequence.
    #[test]
    fn traffic_add_assign_matches_add(ts in prop::collection::vec(traffic_strategy(), 0..8)) {
        let mut acc = Traffic::ZERO;
        for t in &ts {
            acc += *t;
        }
        let folded = ts.iter().fold(Traffic::ZERO, |s, &t| s + t);
        prop_assert_eq!(acc, folded);
    }

    /// The refined model's decomposition: every load is a read from slow
    /// plus a write to fast, every store a write to slow — for any event
    /// sequence, the derived counts are exactly the load/store sums.
    #[test]
    fn load_store_decomposes_into_reads_and_writes(
        events in prop::collection::vec((any::<bool>(), 1u64..1000), 1..50),
    ) {
        let mut t = Traffic::ZERO;
        let (mut loads, mut stores, mut nl, mut ns) = (0u64, 0u64, 0u64, 0u64);
        for &(is_load, words) in &events {
            if is_load {
                t.load(words);
                loads += words;
                nl += 1;
            } else {
                t.store(words);
                stores += words;
                ns += 1;
            }
        }
        prop_assert_eq!(t.writes_to_fast(), loads);
        prop_assert_eq!(t.reads_from_slow(), loads);
        prop_assert_eq!(t.writes_to_slow(), stores);
        prop_assert_eq!(t.total_words(), loads + stores);
        prop_assert_eq!(t.total_msgs(), nl + ns);
    }

    /// `writes_into_level` decomposes boundary traffic per the level
    /// semantics: loads land one level up, stores one level down, and the
    /// totals across levels account for every word moved plus the loads
    /// double-counted into the fast side — i.e. sum over levels equals
    /// sum of (loads + stores) per boundary.
    #[test]
    fn writes_into_levels_account_for_all_boundary_words(
        per_boundary in prop::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..5),
    ) {
        let levels = per_boundary.len() + 1;
        let mut bt = BoundaryTraffic::new(levels);
        for (i, &(l, s)) in per_boundary.iter().enumerate() {
            bt.boundary_mut(i).load(l);
            bt.boundary_mut(i).store(s);
        }
        for (i, &(l, s)) in per_boundary.iter().enumerate() {
            // Level i+1 receives boundary i's loads plus boundary i-1's stores.
            let from_below = if i > 0 { per_boundary[i - 1].1 } else { 0 };
            prop_assert_eq!(bt.writes_into_level(i + 1), l + from_below);
            let _ = s;
        }
        // Bottom level receives only the last boundary's stores.
        prop_assert_eq!(bt.writes_into_level(levels), per_boundary[levels - 2].1);
        let total: u64 = (1..=levels).map(|l| bt.writes_into_level(l)).sum();
        let moved: u64 = per_boundary.iter().map(|&(l, s)| l + s).sum();
        prop_assert_eq!(total, moved);
    }

    /// Load/alloc/free sequences that fit the capacity never trip the capacity
    /// assertion, and residency/peak never exceed the configured size.
    #[test]
    fn explicit_hier_tracks_residency_within_capacity(
        cap in 16u64..4096,
        ops in prop::collection::vec((0u8..3, 1u64..64), 1..60),
    ) {
        let mut h = ExplicitHier::two_level(cap);
        let mut resident = 0u64;
        for &(kind, words) in &ops {
            match kind {
                0 if resident + words <= cap => {
                    h.load(0, words);
                    resident += words;
                }
                1 if resident + words <= cap => {
                    h.alloc(1, words);
                    resident += words;
                }
                2 if words <= resident => {
                    h.free(1, words);
                    resident -= words;
                }
                _ => {} // would violate a precondition; skip
            }
            prop_assert_eq!(h.resident(1), resident);
            prop_assert!(h.peak(1) <= cap);
        }
    }

    /// Any load pushing residency past the capacity panics (the model
    /// *enforces* the paper's M-word fast memory, it does not saturate).
    #[test]
    fn explicit_hier_rejects_over_capacity_loads(
        cap in 16u64..512,
        fill in 1u64..512,
    ) {
        prop_assume!(fill <= cap);
        let over = cap - fill + 1;
        let result = std::panic::catch_unwind(|| {
            let mut h = ExplicitHier::two_level(cap);
            h.load(0, fill);
            h.load(0, over); // fill + over = cap + 1 > cap
        });
        prop_assert!(result.is_err(), "overflow load must panic");
    }

    /// Stores and frees beyond current residency are rejected too.
    #[test]
    fn explicit_hier_rejects_phantom_stores(
        cap in 16u64..512,
        resident in 0u64..256,
    ) {
        prop_assume!(resident < cap);
        let result = std::panic::catch_unwind(|| {
            let mut h = ExplicitHier::two_level(cap);
            if resident > 0 {
                h.load(0, resident);
            }
            h.store(0, resident + 1);
        });
        prop_assert!(result.is_err(), "storing more than resident must panic");
    }
}
