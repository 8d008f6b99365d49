//! Ready-made hierarchy configurations.
//!
//! The paper's measurements use an Intel Xeon 7560 ("Nehalem-EX"): 32 KB
//! L1, 256 KB L2, 24 MB L3, 64-byte lines, with an L3 replacement policy
//! believed to be a 3-bit clock approximation of LRU. Simulating the full
//! geometry at the paper's matrix sizes (4000×m×4000, m up to 32768) would
//! need ~10¹¹ simulated accesses, so the default configuration scales every
//! *capacity* down by `SCALE` = 64 while keeping the 8-word (64-byte)
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
pub(crate) const SCALE: usize = 64;

/// Words per line (64-byte line of f64) — *not* scaled.
pub const LINE_WORDS: usize = 8;

/// Real Xeon 7560 capacities in words (f64).
pub(crate) const REAL_L1_WORDS: usize = 4 << 10; // 32 KB
pub(crate) const REAL_L2_WORDS: usize = 32 << 10; // 256 KB
pub(crate) const REAL_L3_WORDS: usize = 3 << 20; // 24 MB

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
    pub(crate) fn scaled(scale: usize, policy: Policy) -> Self {
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
    fn builders_produce_expected_levels() {
        let g = XeonGeometry::default_scaled();
        let m3 = g.build();
        assert_eq!(m3.num_levels(), 3);
        assert_eq!(m3.config(2).capacity_words, g.l3_words);
    }
}
