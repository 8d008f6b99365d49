//! Propositions 6.1 / 6.2 — exact LRU write-back counts.
//!
//! With a fully-associative true-LRU cache holding five blocks (plus one
//! line), the two-level WA schedules write back exactly the output:
//! `mn` lines-worth for matmul, `n·nrhs` for TRSM, `~n²/2` for Cholesky,
//! `N` for the direct N-body problem, irrespective of the instruction
//! order inside the block kernels.

use crate::util::print_table;
use dense::desc::alloc_layout;
use dense::matmul::{ml_matmul, RecOrder};
use dense::trsm::{blocked_trsm, TrsmVariant};
use memsim::{CacheConfig, MemSim, Policy, SimMem};
use nbody::force::{Particle, WORDS_PER_BODY};
use nbody::simmed::{simmed_nbody_wa, store_cloud};
use wa_core::Mat;

/// Fully-associative LRU cache holding `k` blocks of `b×b` words plus one
/// line.
fn lru_cache(k: usize, b: usize) -> CacheConfig {
    let words = k * b * b + 8;
    CacheConfig {
        capacity_words: words.div_ceil(8) * 8,
        line_words: 8,
        ways: 0,
        policy: Policy::Lru,
    }
}

/// One proposition check: returns (kernel, measured write-backs incl.
/// flush, output lines, ratio).
pub(crate) struct PropRow {
    pub(crate) kernel: &'static str,
    pub(crate) writebacks: u64,
    pub(crate) output_lines: u64,
}

pub(crate) fn run_all(n: usize, b: usize) -> Vec<PropRow> {
    let mut rows = Vec::new();

    // Matmul, five blocks fit (Prop 6.1).
    {
        let cfg = lru_cache(5, b);
        let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
        let mut mem = SimMem::new(words, MemSim::two_level(cfg));
        d[0].store_mat(&mut mem, &Mat::random(n, n, 1));
        d[1].store_mat(&mut mem, &Mat::random(n, n, 2));
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        ml_matmul(
            &mut mem,
            d[0],
            d[1],
            d[2],
            &[b],
            RecOrder::COuter,
            RecOrder::COuter,
        );
        mem.sim.flush();
        let c = mem.sim.llc();
        rows.push(PropRow {
            kernel: "matmul (Prop 6.1)",
            writebacks: c.victims_m + c.flush_victims_m,
            output_lines: (n * n / 8) as u64,
        });
    }

    // TRSM (Prop 6.2).
    {
        let cfg = lru_cache(5, b);
        let t = Mat::random_upper_triangular(n, 3);
        let bm = Mat::random(n, n, 4);
        let (d, words) = alloc_layout(&[(n, n), (n, n)]);
        let mut mem = SimMem::new(words, MemSim::two_level(cfg));
        d[0].store_mat(&mut mem, &t);
        d[1].store_mat(&mut mem, &bm);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        blocked_trsm(&mut mem, d[0], d[1], b, TrsmVariant::WriteAvoiding);
        mem.sim.flush();
        let c = mem.sim.llc();
        rows.push(PropRow {
            kernel: "TRSM (Prop 6.2)",
            writebacks: c.victims_m + c.flush_victims_m,
            output_lines: (n * n / 8) as u64,
        });
    }

    // Cholesky (Prop 6.2). Line granularity makes the touched footprint
    // the full lower-triangle rows, ~n²/2 words -> ~n²/16 lines plus
    // diagonal-straddling lines.
    {
        let cfg = lru_cache(5, b);
        let a = Mat::random_spd(n, 5);
        let (d, words) = alloc_layout(&[(n, n)]);
        let mut mem = SimMem::new(words, MemSim::two_level(cfg));
        d[0].store_mat(&mut mem, &a);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        dense::cholesky::blocked_cholesky(
            &mut mem,
            d[0],
            b,
            dense::cholesky::CholVariant::LeftLooking,
        );
        mem.sim.flush();
        let c = mem.sim.llc();
        rows.push(PropRow {
            kernel: "Cholesky (Prop 6.2)",
            writebacks: c.victims_m + c.flush_victims_m,
            // lower-triangle lines, rounded up per row
            output_lines: (0..n).map(|i| (i + 1).div_ceil(8) as u64).sum(),
        });
    }

    // N-body (Prop 6.2). Block of b particles = 4b words.
    {
        let np = n; // particles
        let pb = b.max(8) / 2;
        let cfg = lru_cache(5, (pb * WORDS_PER_BODY).isqrt().max(8));
        let cfg = CacheConfig {
            capacity_words: 5 * pb * WORDS_PER_BODY + 8,
            ..cfg
        };
        let cloud = Particle::random_cloud(np, 6);
        let mut mem = SimMem::new(2 * np * WORDS_PER_BODY, MemSim::two_level(cfg));
        store_cloud(&mut mem, &cloud);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        simmed_nbody_wa(&mut mem, np, pb);
        mem.sim.flush();
        let c = mem.sim.llc();
        rows.push(PropRow {
            kernel: "N-body (Prop 6.2)",
            writebacks: c.victims_m + c.flush_victims_m,
            output_lines: (np * WORDS_PER_BODY / 8) as u64,
        });
    }

    rows
}

/// Run and print.
pub fn run(n: usize, b: usize) {
    let rows = run_all(n, b);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.writebacks.to_string(),
                r.output_lines.to_string(),
                format!("{:.3}", r.writebacks as f64 / r.output_lines as f64),
            ]
        })
        .collect();
    print_table(
        "Propositions 6.1/6.2: LRU write-backs vs output size (5 blocks + 1 line)",
        &["kernel", "write-backs (lines)", "output (lines)", "ratio"],
        &body,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_write_close_to_output_size() {
        for r in run_all(64, 16) {
            let ratio = r.writebacks as f64 / r.output_lines as f64;
            assert!(
                ratio <= 1.6,
                "{}: write-backs {} vs output {} (ratio {ratio})",
                r.kernel,
                r.writebacks,
                r.output_lines
            );
            assert!(ratio >= 0.9, "{}: suspiciously few write-backs", r.kernel);
        }
    }
}
