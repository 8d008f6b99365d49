//! Shared plumbing: simulated-memory setup and table printing.

use dense::desc::{alloc_layout, MatDesc};
use memsim::{MemSim, SimMem};
use wa_core::Mat;

/// Allocate A (`l×m`), B (`m×n`), C (`l×n`) in a fresh [`SimMem`], fill A
/// and B with random data *before* attaching the measured simulator (cold
/// cache, untouched counters — the paper's protocol).
pub(crate) fn setup_matmul(
    l: usize,
    m: usize,
    n: usize,
    sim: MemSim,
    rebuild: impl Fn() -> MemSim,
) -> (SimMem, [MatDesc; 3]) {
    let (d, words) = alloc_layout(&[(l, m), (m, n), (l, n)]);
    let mut mem = SimMem::new(words, sim);
    d[0].store_mat(&mut mem, &Mat::random(l, m, 0xA));
    d[1].store_mat(&mut mem, &Mat::random(m, n, 0xB));
    let data = std::mem::take(&mut mem.data);
    (SimMem::from_vec(data, rebuild()), [d[0], d[1], d[2]])
}

/// Print a row-aligned table: `header` then rows of equal arity.
pub(crate) fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Millions with one decimal, matching the paper's "millions of cache
/// lines" axes.
pub(crate) fn mil(x: u64) -> String {
    format!("{:.3}M", x as f64 / 1e6)
}

/// Compact scientific formatting for cost-model outputs.
pub(crate) fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else {
        format!("{x:.3e}")
    }
}
