//! Experiment scales: how the paper's Xeon 7560 + 4000×m×4000 workloads
//! map onto tractable simulations.
//!
//! Capacities scale by `1/k²` and linear matrix dimensions by `1/k`, so
//! every "blocks per cache" ratio is preserved exactly (see
//! `memsim::xeon`). The figures depend only on those ratios:
//!
//! | quantity | paper | `Paper` scale (k=8) | `Small` scale (k=16) |
//! |----------|-------|---------------------|----------------------|
//! | L3 words | 3 Mi  | 48 Ki               | 12 Ki                |
//! | outer dims | 4000 | 500                | 250                  |
//! | m sweep  | 128…32 Ki | 16…4 Ki         | 8…2 Ki (capped 512)  |
//! | L3 block "1023" (3 fit) | 1023 | 128   | 64                   |
//! | L3 block "700" (5+ fit) | 700  | 87    | 44                   |
//!
//! The scale itself is the engine's [`wa_core::Scale`]; this module
//! holds the figure geometry as free functions over it.

use memsim::xeon::XeonGeometry;
use memsim::{CacheConfig, MemSim, Policy};
use wa_core::Scale;

/// Replacement-policy configuration for the figure simulations.
///
/// The figures default to fully-associative true LRU — the setting of
/// Propositions 6.1/6.2. At 1/256-scale capacities a 16-way cache has only
/// ~100 sets, so set-conflict evictions (absent at hardware scale, where
/// there are tens of thousands of sets) would dominate the counts; and the
/// 3-bit clock's markers saturate under the dense re-touch patterns of
/// these kernels, degenerating toward FIFO. Both effects are artifacts of
/// scaling, not of the algorithms; `Clock` is retained as an ablation
/// (`benches/cache_sim.rs`, harness `--policy clock`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repl {
    /// Fully-associative true LRU at every level (default).
    FaLru,
    /// Set-associative 3-bit clock (Nehalem-like geometry).
    Clock,
}

impl Repl {
    pub fn parse(s: &str) -> Option<Repl> {
        match s {
            "lru" => Some(Repl::FaLru),
            "clock" => Some(Repl::Clock),
            _ => None,
        }
    }
}

/// Outer matrix dimensions (the paper's fixed 4000).
pub(crate) fn outer_dim(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 500,
        Scale::Small => 250,
    }
}

/// The middle-dimension sweep (the paper's 128…32 Ki).
pub(crate) fn m_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        Scale::Small => vec![8, 16, 32, 64, 128, 256, 512],
    }
}

/// L3 blocking sizes analogous to the paper's {700, 800, 900, 1023}
/// (i.e. k = M3/b² ≈ {6.4, 4.9, 3.9, 3.0} blocks fitting), largest
/// last to match the paper's figure order.
pub(crate) fn l3_blocks(scale: Scale) -> Vec<(usize, &'static str)> {
    let g = XeonGeometry::for_scale(scale, Policy::Clock3);
    let b = |k: f64| ((g.l3_words as f64 / k).sqrt().floor()) as usize;
    vec![
        (b(6.4), "~700"),
        (b(4.9), "~800"),
        (b(3.9), "~900"),
        (b(3.0), "~1023"),
    ]
}

/// L2 / L1 blocking sizes (3 blocks fit, the paper's {100, 32} scaled).
pub(crate) fn inner_blocks(scale: Scale) -> (usize, usize) {
    let g = XeonGeometry::for_scale(scale, Policy::Clock3);
    let b2 = ((g.l2_words as f64 / 3.0).sqrt().floor()) as usize;
    let b1 = ((g.l1_words as f64 / 3.0).sqrt().floor()) as usize;
    (b2, b1)
}

/// Build the 3-level simulator under the given replacement
/// configuration.
pub(crate) fn build_sim(scale: Scale, repl: Repl) -> MemSim {
    match repl {
        Repl::Clock => XeonGeometry::for_scale(scale, Policy::Clock3).build(),
        Repl::FaLru => {
            let g = XeonGeometry::for_scale(scale, Policy::Lru);
            let fa = |words: usize| CacheConfig {
                capacity_words: words,
                line_words: g.line_words,
                ways: 0,
                policy: Policy::Lru,
            };
            MemSim::new(&[fa(g.l1_words), fa(g.l2_words), fa(g.l3_words)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_geometry_ratios_match_paper() {
        let s = Scale::Small;
        let g = XeonGeometry::for_scale(s, Policy::Clock3);
        // 3 blocks of the largest block size fill L3 like 3×1023² fills
        // 24 MB.
        let (b_small, label) = *l3_blocks(s).last().unwrap();
        assert_eq!(label, "~1023");
        let fill = 3.0 * (b_small * b_small) as f64 / g.l3_words as f64;
        assert!((0.9..=1.0).contains(&fill), "fill {fill}");
        // Output exceeds L3 by ~5x as in the paper (122 MB vs 24 MB).
        let n = outer_dim(s);
        let ratio = (n * n) as f64 / g.l3_words as f64;
        assert!((4.0..7.0).contains(&ratio), "C/L3 ratio {ratio}");
    }

    #[test]
    fn paper_scale_matches_xeon_module() {
        let s = Scale::Paper;
        assert_eq!(
            XeonGeometry::for_scale(s, Policy::Clock3).l3_words,
            48 << 10
        );
        assert_eq!(outer_dim(s), 500);
        let blocks = l3_blocks(s);
        assert_eq!(blocks.last().unwrap().0, 128); // ≙ paper's 1023
        assert_eq!(blocks[0].0, 87); // ≙ paper's 700
    }

    #[test]
    fn inner_blocks_fit_three_in_their_caches() {
        for s in [Scale::Small, Scale::Paper] {
            let g = XeonGeometry::for_scale(s, Policy::Clock3);
            let (b2, b1) = inner_blocks(s);
            assert!(3 * b2 * b2 <= g.l2_words);
            assert!(3 * b1 * b1 <= g.l1_words);
        }
    }
}
