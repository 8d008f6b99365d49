//! Figure 5 — multi-level WA order (Fig 4a) vs slab order (Fig 4b) across
//! L3 blocking sizes.
//!
//! Left column of the paper's figure: the Fig 4a instruction order
//! (C-perpendicular columns at every recursion level); write-backs
//! degrade as the L3 block grows toward three-blocks-fit. Right column:
//! the Fig 4b order (slabs parallel to C below the top level); write-backs
//! stay near the bound for *all* block sizes, letting larger blocks
//! minimize fills too.

use crate::fig2::Fig2Row;
use crate::scale::{build_sim, inner_blocks, l3_blocks, m_sweep, outer_dim, Repl};
use crate::util::{mil, print_table, setup_matmul};
use dense::matmul::{ml_matmul, RecOrder};
use memsim::xeon::XeonGeometry;
use memsim::Policy;
use wa_core::Scale;

/// Instruction order of one Figure 5 column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fig5Order {
    /// Fig 4a: C-outer at every level (left column).
    MultiLevel,
    /// Fig 4b: C-outer at the top, A/B slabs below (right column).
    Slab,
}

/// One point: a given order, L3 block size and middle dimension.
pub(crate) fn run_point(
    scale: Scale,
    order: Fig5Order,
    b3: usize,
    m: usize,
    repl: Repl,
) -> Fig2Row {
    let n = outer_dim(scale);
    let geo = XeonGeometry::for_scale(scale, Policy::Lru);
    let (b2, b1) = inner_blocks(scale);
    let rest = match order {
        Fig5Order::MultiLevel => RecOrder::COuter,
        Fig5Order::Slab => RecOrder::AOuter,
    };
    let (mut mem, d) = setup_matmul(n, m, n, build_sim(scale, repl), || build_sim(scale, repl));
    ml_matmul(
        &mut mem,
        d[0],
        d[1],
        d[2],
        &[b3, b2, b1],
        RecOrder::COuter,
        rest,
    );
    let c = mem.sim.llc();
    Fig2Row {
        m,
        victims_m: c.victims_m,
        victims_e: c.victims_e,
        fills: c.fills,
        write_lb_lines: (n * n / geo.line_words) as u64,
        ideal_misses: None,
    }
}

/// One panel: a given order and L3 block size over the m sweep.
pub(crate) fn run_panel(scale: Scale, order: Fig5Order, b3: usize, repl: Repl) -> Vec<Fig2Row> {
    m_sweep(scale)
        .into_iter()
        .map(|m| run_point(scale, order, b3, m, repl))
        .collect()
}

/// Run and print the whole figure (two columns × four block sizes).
pub fn run_figure(scale: Scale, repl: Repl) {
    for &(b3, label) in l3_blocks(scale).iter().rev() {
        for (order, name) in [
            (Fig5Order::MultiLevel, "multi-level WA order (Fig 4a)"),
            (Fig5Order::Slab, "slab order (Fig 4b)"),
        ] {
            let rows = run_panel(scale, order, b3, repl);
            let body: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.m.to_string(),
                        mil(r.victims_m),
                        mil(r.victims_e),
                        mil(r.fills),
                        mil(r.write_lb_lines),
                    ]
                })
                .collect();
            print_table(
                &format!("Fig 5: {name}, L3 block {b3} (paper {label})"),
                &[
                    "m",
                    "L3_VICTIMS.M",
                    "L3_VICTIMS.E",
                    "LLC_S_FILLS.E",
                    "Write L.B.",
                ],
                &body,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's content: at the largest block (3 fit), the slab order
    /// holds write-backs near the bound while the multi-level order does
    /// not; at the smallest block (5+ fit) both behave.
    #[test]
    fn left_column_degrades_right_column_does_not() {
        let scale = Scale::Small;
        let blocks = l3_blocks(scale);
        let big = blocks.last().unwrap().0; // ~3 blocks fit
        let small = blocks[0].0; // ~6.4 blocks fit
                                 // Needs several top-level shared-dimension blocks so that a C
                                 // block must survive from one J step to the next (the LRU
                                 // priority effect of Fig 3 only matters then).
        let m = 256;
        let repl = Repl::FaLru;

        let slab_big = run_point(scale, Fig5Order::Slab, big, m, repl);
        let ml_big = run_point(scale, Fig5Order::MultiLevel, big, m, repl);
        let ml_small = run_point(scale, Fig5Order::MultiLevel, small, m, repl);
        let lb = slab_big.write_lb_lines;

        assert!(
            slab_big.victims_m < 3 * lb,
            "slab at big block: {} vs bound {lb}",
            slab_big.victims_m
        );
        assert!(
            ml_big.victims_m > 2 * slab_big.victims_m,
            "multi-level at big block ({}) must thrash vs slab ({})",
            ml_big.victims_m,
            slab_big.victims_m
        );
        assert!(
            ml_small.victims_m < ml_big.victims_m,
            "smaller blocks must help the multi-level order: {} vs {}",
            ml_small.victims_m,
            ml_big.victims_m
        );
    }
}
