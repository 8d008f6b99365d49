//! Ready-made hierarchy configurations.
//!
//! The paper's measurements use an Intel Xeon 7560 ("Nehalem-EX"): 32 KB
//! L1, 256 KB L2, 24 MB L3, 64-byte lines, with an L3 replacement policy
//! believed to be a 3-bit clock approximation of LRU. Simulating the full
//! geometry at the paper's matrix sizes (4000×m×4000, m up to 32768) would
//! need ~10¹¹ simulated accesses, so the default configuration scales every
//! *capacity* down by [`SCALE`] = 64 while keeping the 8-word (64-byte)
//! line. Linear dimensions of workloads then scale by √64 = 8 and all the
//! "how many blocks fit in cache" ratios — which drive every effect in
//! Figures 2 and 5 — are preserved exactly:
//!
//! | quantity            | paper      | scaled (default) |
//! |---------------------|------------|------------------|
//! | L1 / L2 / L3 words  | 4 Ki / 32 Ki / 3 Mi | 64 / 512 / 48 Ki |
//! | matrix dim 4000     | 4000       | 500              |
//! | m sweep 128…32 Ki   | —          | 16…4096          |
//! | L3 block 1023 (3 blocks fit) | 1023 | 128         |
//! | L3 block 700 (5 blocks fit)  | 700  | 87          |

use crate::cache::CacheConfig;
use crate::hierarchy::MemSim;
use crate::policy::Policy;

/// Default capacity scale factor vs. the real Xeon 7560.
pub const SCALE: usize = 64;

/// Words per line (64-byte line of f64) — *not* scaled.
pub const LINE_WORDS: usize = 8;

/// Real Xeon 7560 capacities in words (f64).
pub const REAL_L1_WORDS: usize = 4 << 10; // 32 KB
pub const REAL_L2_WORDS: usize = 32 << 10; // 256 KB
pub const REAL_L3_WORDS: usize = 3 << 20; // 24 MB

/// Geometry for one simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct XeonGeometry {
    pub l1_words: usize,
    pub l2_words: usize,
    pub l3_words: usize,
    pub line_words: usize,
    pub policy: Policy,
}

impl XeonGeometry {
    /// Geometry for an engine-level [`wa_core::Scale`]: `Paper` is the
    /// reference ÷64 scaling; `Small` shrinks the L3 a further 4× (L1/L2
    /// are already at a practical floor of 8 / 64 lines) and workloads
    /// shrink linear dimensions a further 2× for fast sweeps.
    /// The `harness exp` figure geometry (`wa_bench::scale`) builds on
    /// this too.
    pub fn for_scale(scale: wa_core::Scale, policy: Policy) -> Self {
        match scale {
            wa_core::Scale::Paper => XeonGeometry::scaled(64, policy),
            wa_core::Scale::Small => XeonGeometry {
                l1_words: 64,
                l2_words: 512,
                l3_words: 12 << 10,
                line_words: LINE_WORDS,
                policy,
            },
        }
    }

    /// Capacities divided by `scale`; panics unless each level stays a
    /// whole number of lines.
    pub fn scaled(scale: usize, policy: Policy) -> Self {
        let g = XeonGeometry {
            l1_words: REAL_L1_WORDS / scale,
            l2_words: REAL_L2_WORDS / scale,
            l3_words: REAL_L3_WORDS / scale,
            line_words: LINE_WORDS,
            policy,
        };
        assert!(g.l1_words.is_multiple_of(g.line_words));
        assert!(g.l2_words.is_multiple_of(g.line_words));
        assert!(g.l3_words.is_multiple_of(g.line_words));
        g
    }

    /// The default scaled geometry with the clock policy (closest to the
    /// measured machine).
    pub fn default_scaled() -> Self {
        XeonGeometry::scaled(SCALE, Policy::Clock3)
    }

    /// Build a 3-level simulator. Associativities: 4-way L1, 8-way L2,
    /// 16-way L3 (Nehalem-like, adjusted so every level divides evenly at
    /// any power-of-two scale).
    pub fn build(&self) -> MemSim {
        MemSim::new(&[
            CacheConfig {
                capacity_words: self.l1_words,
                line_words: self.line_words,
                ways: 4,
                policy: self.policy,
            },
            CacheConfig {
                capacity_words: self.l2_words,
                line_words: self.line_words,
                ways: 8,
                policy: self.policy,
            },
            CacheConfig {
                capacity_words: self.l3_words,
                line_words: self.line_words,
                ways: 16,
                policy: self.policy,
            },
        ])
    }

    /// Build an L3-only simulator (used when only LLC events matter and
    /// upper-level filtering is irrelevant to the counts under study).
    pub fn build_l3_only(&self) -> MemSim {
        MemSim::new(&[CacheConfig {
            capacity_words: self.l3_words,
            line_words: self.line_words,
            ways: 16,
            policy: self.policy,
        }])
    }

    /// Build a fully-associative, true-LRU L3-only simulator — the setting
    /// of Propositions 6.1 and 6.2.
    pub fn build_l3_fully_assoc_lru(&self) -> MemSim {
        MemSim::new(&[CacheConfig {
            capacity_words: self.l3_words,
            line_words: self.line_words,
            ways: 0,
            policy: Policy::Lru,
        }])
    }

    /// Scale a paper linear dimension (e.g. 4000) to this geometry:
    /// dimensions shrink by √(capacity scale).
    pub fn scale_dim(&self, paper_dim: usize) -> usize {
        let scale = REAL_L3_WORDS / self.l3_words;
        let root = (scale as f64).sqrt();
        assert!(
            (root - root.round()).abs() < 1e-9,
            "capacity scale must be a perfect square to scale dimensions"
        );
        (paper_dim as f64 / root).round() as usize
    }

    /// Largest block size `b` such that `k` blocks of `b×b` doubles fit in
    /// L3 (the paper picks L3 blocking sizes this way: 1023 ≈ 3 blocks,
    /// 793 ≈ 5 blocks on the real machine).
    pub fn l3_block_for(&self, k: usize) -> usize {
        ((self.l3_words / k) as f64).sqrt().floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scaled_capacities() {
        let g = XeonGeometry::default_scaled();
        assert_eq!(g.l1_words, 64);
        assert_eq!(g.l2_words, 512);
        assert_eq!(g.l3_words, 48 << 10);
    }

    #[test]
    fn scale_dim_matches_sqrt_rule() {
        let g = XeonGeometry::default_scaled();
        assert_eq!(g.scale_dim(4000), 500);
        assert_eq!(g.scale_dim(1024), 128);
    }

    #[test]
    fn block_sizing_reproduces_paper_ratios() {
        // Real machine: 3 blocks of 1023² fit in 24 MB; 5 blocks of 793².
        let real = XeonGeometry::scaled(1, Policy::Lru);
        assert_eq!(real.l3_block_for(3), 1024);
        assert_eq!(real.l3_block_for(5), 793);
        // Scaled machine keeps the same ratios at 1/8 linear size.
        let g = XeonGeometry::default_scaled();
        assert_eq!(g.l3_block_for(3), 128);
        assert_eq!(g.l3_block_for(5), 99);
    }

    #[test]
    fn builders_produce_expected_levels() {
        let g = XeonGeometry::default_scaled();
        let m3 = g.build();
        assert_eq!(m3.num_levels(), 3);
        let m1 = g.build_l3_only();
        assert_eq!(m1.num_levels(), 1);
        assert_eq!(m1.config(0).capacity_words, g.l3_words);
    }
}
