//! Quickstart: count reads and writes of a write-avoiding matmul.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the two instrumentation substrates on one algorithm: its
//! block schedule charged to the *explicit-movement* model from shapes
//! alone (the paper's Algorithm 1 accounting), and the same schedule with
//! the arithmetic as its body on the *cache simulator* (the paper's
//! Section 6 hardware-counter view).

use write_avoiding::dense::desc::alloc_layout;
use write_avoiding::dense::explicit_mm::{block_for, mm_schedule};
use write_avoiding::dense::matmul::{blocked_matmul, LoopOrder};
use write_avoiding::memsim::{CacheConfig, ExplicitHier, MemSim, Policy, SimMem};
use write_avoiding::wa_core::{bounds, Mat};

fn main() {
    let n = 96;
    let fast_words: usize = 768; // M: fast memory of the two-level model
    let a = Mat::random(n, n, 1);
    let b = Mat::random(n, n, 2);

    // ---------------------------------------------------------------
    // 1. Explicit-movement model: the schedule issues block transfers.
    // ---------------------------------------------------------------
    println!("== explicit model (Algorithm 1, M = {fast_words} words) ==");
    let bs = block_for(fast_words as u64); // three b x b blocks fit
    for order in [LoopOrder::Ijk, LoopOrder::Kij] {
        let mut hier = ExplicitHier::two_level(fast_words as u64);
        mm_schedule((n, n, n), &[bs], (order, order), &mut hier, |_, _, _| {});
        let t = hier.traffic().boundary(0);
        println!(
            "{order:?} (write-avoiding: {}): loads = {:7} w, stores = {:7} w  (output = {} w)",
            order.is_write_avoiding(),
            t.load_words,
            t.store_words,
            n * n
        );
    }
    println!(
        "lower bounds: loads+stores >= {:.0} w, stores >= {} w",
        bounds::matmul_ldst_lower(n as u64, n as u64, n as u64, fast_words as u64),
        bounds::writes_to_slow_lower((n * n) as u64),
    );

    // ---------------------------------------------------------------
    // 2. Cache simulator: hardware-managed LRU cache, counted in lines.
    // ---------------------------------------------------------------
    println!("\n== cache simulator (fully-associative LRU, same M) ==");
    let cfg = CacheConfig {
        capacity_words: fast_words,
        line_words: 8,
        ways: 0,
        policy: Policy::Lru,
    };
    for order in [LoopOrder::Ijk, LoopOrder::Kij] {
        let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
        let mut mem = SimMem::new(words, MemSim::two_level(cfg));
        d[0].store_mat(&mut mem, &a);
        d[1].store_mat(&mut mem, &b);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        // Proposition 6.1: under hardware LRU the WA guarantee needs five
        // blocks resident (vs three under explicit control).
        let bsize = ((fast_words / 5) as f64).sqrt() as usize;
        blocked_matmul(&mut mem, d[0], d[1], d[2], bsize, order);
        mem.sim.flush();
        let c = mem.sim.llc();
        assert!(d[2].load_mat(&mut mem).max_abs_diff(&a.matmul_ref(&b)) < 1e-9);
        println!(
            "{order:?}: VICTIMS.M = {:5} lines, VICTIMS.E = {:6} lines, FILLS = {:6} lines (C = {} lines)",
            c.victims_m + c.flush_victims_m,
            c.victims_e,
            c.fills,
            n * n / 8
        );
    }
    println!(
        "\nk-innermost keeps write-backs at the output size; k-outermost rewrites C every panel."
    );
}
