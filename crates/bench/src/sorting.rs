//! §9 conjecture exploration: sorting's read/write frontier.
//!
//! The paper conjectures no sorting algorithm performs `o(n log_M n)`
//! writes and `O(n log_M n)` reads simultaneously. We chart both ends:
//! the I/O-optimal merge sort (writes ≈ reads ≈ n·passes) and the
//! write-minimal selection sort (writes = n, reads = n²/M).

use crate::util::print_table;
use extsort::merge::external_merge_sort;
use extsort::selection::low_write_sort;
use wa_core::{Traffic, XorShift};

pub fn run(n: usize, m: usize) {
    let mut rng = XorShift::new(515);
    let data: Vec<f64> = (0..n).map(|_| rng.next_unit()).collect();

    let mut d1 = data.clone();
    let mut io1 = Traffic::ZERO;
    external_merge_sort(&mut d1, m, m / 2, &mut io1);

    let mut d2 = data.clone();
    let mut io2 = Traffic::ZERO;
    low_write_sort(&mut d2, m, &mut io2);
    assert_eq!(d1, d2, "sorts disagree");

    let rows = vec![
        vec![
            "k-way merge sort".to_string(),
            io1.load_words.to_string(),
            io1.store_words.to_string(),
            io1.load_msgs.to_string(),
            format!("{:.2}", io1.write_fraction()),
        ],
        vec![
            "low-write selection".to_string(),
            io2.load_words.to_string(),
            io2.store_words.to_string(),
            io2.load_msgs.to_string(),
            format!("{:.2}", io2.write_fraction()),
        ],
    ];
    print_table(
        &format!("§9 sorting conjecture (n = {n}, M = {m} elements)"),
        &["algorithm", "reads", "writes", "passes", "write frac"],
        &rows,
    );
    println!(
        "conjecture: o(n log_M n) writes (here: n = {}) forces ω(n log_M n) reads (here: n²/M = {})",
        n,
        n * n / m
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_clean() {
        super::run(2048, 64);
    }
}
