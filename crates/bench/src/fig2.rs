//! Figure 2 — L3 cache-counter measurements of classical matmul variants.
//!
//! Six plots in the paper, all with outer dimensions 4000 fixed and the
//! middle dimension `m` swept: (a) cache-oblivious recursive, (b) MKL
//! (our `tuned` stand-in), (c)–(f) two-level WA with L3 blocking sizes
//! {700, 800, 900, 1023}. Reported events per run: `L3_VICTIMS.M`
//! (write-backs to DRAM), `L3_VICTIMS.E` (clean evictions),
//! `LLC_S_FILLS.E` (DRAM reads), the write lower bound (C's size in
//! lines), and — for the CO variant — the ideal-cache miss model.

use crate::scale::{build_sim, inner_blocks, l3_blocks, m_sweep, outer_dim, Repl};
use crate::util::{mil, print_table, setup_matmul};
use dense::matmul::{co_matmul, ml_matmul, tuned_matmul, RecOrder};
use memsim::ideal::co_matmul_ideal_misses;
use memsim::xeon::XeonGeometry;
use memsim::Policy;
use wa_core::Scale;

/// Which Figure 2 panel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fig2Variant {
    /// (a) recursive cache-oblivious.
    CacheOblivious,
    /// (b) tuned, write-oblivious ("MKL" stand-in).
    Tuned,
    /// (c)–(f) two-level WA with this L3 block size (slab order below).
    TwoLevelWa(usize),
}

/// One measured row of a Figure 2 panel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig2Row {
    pub(crate) m: usize,
    pub(crate) victims_m: u64,
    pub(crate) victims_e: u64,
    pub(crate) fills: u64,
    pub(crate) write_lb_lines: u64,
    pub(crate) ideal_misses: Option<f64>,
}

/// Run one variant at one middle dimension.
pub(crate) fn run_point(scale: Scale, variant: Fig2Variant, m: usize, repl: Repl) -> Fig2Row {
    let n = outer_dim(scale);
    let geo = XeonGeometry::for_scale(scale, Policy::Lru);
    let (mut mem, d) = setup_matmul(n, m, n, build_sim(scale, repl), || build_sim(scale, repl));
    let (b2, b1) = inner_blocks(scale);
    match variant {
        Fig2Variant::CacheOblivious => co_matmul(&mut mem, d[0], d[1], d[2], b1),
        Fig2Variant::Tuned => tuned_matmul(&mut mem, d[0], d[1], d[2], b2),
        Fig2Variant::TwoLevelWa(b3) => ml_matmul(
            &mut mem,
            d[0],
            d[1],
            d[2],
            &[b3, b2, b1],
            RecOrder::COuter,
            RecOrder::AOuter,
        ),
    }
    let c = mem.sim.llc();
    let lw = geo.line_words as u64;
    let ideal = match variant {
        Fig2Variant::CacheOblivious => Some(co_matmul_ideal_misses(
            n as u64,
            m as u64,
            n as u64,
            geo.l3_words as u64,
            lw,
        )),
        _ => None,
    };
    Fig2Row {
        m,
        victims_m: c.victims_m,
        victims_e: c.victims_e,
        fills: c.fills,
        write_lb_lines: (n * n) as u64 / lw,
        ideal_misses: ideal,
    }
}

/// Run a full panel (sweep of `m`).
pub(crate) fn run_panel(scale: Scale, variant: Fig2Variant, repl: Repl) -> Vec<Fig2Row> {
    m_sweep(scale)
        .into_iter()
        .map(|m| run_point(scale, variant, m, repl))
        .collect()
}

/// Print one panel in the paper's layout.
pub(crate) fn print_panel(title: &str, rows: &[Fig2Row]) {
    let header = [
        "m",
        "L3_VICTIMS.M",
        "L3_VICTIMS.E",
        "LLC_S_FILLS.E",
        "Write L.B.",
        "Ideal misses",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                mil(r.victims_m),
                mil(r.victims_e),
                mil(r.fills),
                mil(r.write_lb_lines),
                r.ideal_misses
                    .map(|x| format!("{:.3}M", x / 1e6))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(title, &header, &body);
}

/// Run and print all six panels (the whole figure).
pub fn run_figure(scale: Scale, repl: Repl) {
    let blocks = l3_blocks(scale);
    print_panel(
        "Fig 2a: cache-oblivious recursive matmul",
        &run_panel(scale, Fig2Variant::CacheOblivious, repl),
    );
    print_panel(
        "Fig 2b: tuned write-oblivious matmul (MKL stand-in)",
        &run_panel(scale, Fig2Variant::Tuned, repl),
    );
    for &(b3, label) in &blocks {
        print_panel(
            &format!("Fig 2c-f: two-level WA, L3 block {b3} (paper {label})"),
            &run_panel(scale, Fig2Variant::TwoLevelWa(b3), repl),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's headline shapes, at tiny scale: WA write-backs flat
    /// near the bound, CO/tuned write-backs growing with m.
    #[test]
    fn shapes_reproduce() {
        let scale = Scale::Small;
        let blocks = l3_blocks(scale);
        let b3 = blocks.last().unwrap().0;
        // The growth regime needs A and B to overflow L3 by a wide margin
        // (paper: growth starts once 2·4000·m exceeds the 3.1M-word L3).
        let small_m = 8;
        let big_m = 256;
        let repl = Repl::FaLru;

        let wa_small = run_point(scale, Fig2Variant::TwoLevelWa(b3), small_m, repl);
        let wa_big = run_point(scale, Fig2Variant::TwoLevelWa(b3), big_m, repl);
        // WA stays within a modest factor of the bound across the sweep.
        assert!(
            wa_big.victims_m < 3 * wa_big.write_lb_lines,
            "WA {} vs bound {}",
            wa_big.victims_m,
            wa_big.write_lb_lines
        );
        assert!(wa_big.victims_m < 4 * wa_small.victims_m.max(1));

        let co_small = run_point(scale, Fig2Variant::CacheOblivious, small_m, repl);
        let co_big = run_point(scale, Fig2Variant::CacheOblivious, big_m, repl);
        // CO write-backs grow with m (32x dim -> >3x events).
        assert!(
            co_big.victims_m > 3 * co_small.victims_m,
            "CO {} -> {}",
            co_small.victims_m,
            co_big.victims_m
        );
        assert!(co_big.victims_m > 2 * wa_big.victims_m);

        let tuned_big = run_point(scale, Fig2Variant::Tuned, big_m, repl);
        assert!(tuned_big.victims_m > 2 * wa_big.victims_m);
    }

    #[test]
    fn co_fills_track_ideal_model() {
        let r = run_point(Scale::Small, Fig2Variant::CacheOblivious, 32, Repl::FaLru);
        let ideal = r.ideal_misses.unwrap();
        let ratio = r.fills as f64 / ideal;
        assert!(
            (0.4..6.0).contains(&ratio),
            "fills {} vs ideal {ideal}: ratio {ratio}",
            r.fills
        );
    }
}
