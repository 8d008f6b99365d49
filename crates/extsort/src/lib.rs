//! # extsort — sorting and the write-avoiding conjecture
//!
//! Section 9 of the paper conjectures that for sorting (and the DFT), no
//! algorithm can simultaneously perform `o(n log_M n)` writes to slow
//! memory and `O(n log_M n)` reads: asymptotically fewer writes seem to
//! require asymptotically more reads. This crate explores both sides of
//! the conjectured frontier with instrumented, *executed* algorithms:
//!
//! * [`merge::external_merge_sort`] — the classical I/O-optimal k-way
//!   merge sort: `Θ(n log_M n)` reads **and** writes (write fraction ½ of
//!   traffic; matches the Aggarwal–Vitter bound on total I/O);
//! * [`selection::low_write_sort`] — a write-minimal multi-pass selection
//!   sort: exactly `n` writes (the output bound!) but `Θ(n²/M)` reads —
//!   the price the conjecture predicts.
//!
//! Both sort correctly (property-tested against the standard library) and
//! charge their slow-memory traffic, in elements, to a [`wa_core::Traffic`]
//! under the explicit model (the fast memory holds `m` elements; streams
//! are counted once): loads are element reads from slow memory, stores
//! element writes, and each stream is one message. Every pass is exactly
//! one read stream, so `load_msgs` counts the sequential passes.

pub mod merge;
pub mod selection;
pub mod workloads;

#[cfg(test)]
mod tests {
    use super::merge::external_merge_sort;
    use super::selection::low_write_sort;
    use wa_core::Traffic;
    use wa_core::XorShift;

    fn random_data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = XorShift::new(seed);
        (0..n).map(|_| rng.next_unit() * 1000.0).collect()
    }

    /// The conjectured trade-off, observed: at the same fast-memory size,
    /// merge sort's writes are Θ(n log_M n) while the low-write sort's are
    /// exactly n — and its reads blow up by the predicted Θ(n/(M log_M n)).
    #[test]
    fn tradeoff_between_the_two_sorts() {
        let n = 4096;
        let m = 64;
        let data = random_data(n, 9);

        let mut d1 = data.clone();
        let mut io1 = Traffic::ZERO;
        external_merge_sort(&mut d1, m, m / 2, &mut io1);

        let mut d2 = data.clone();
        let mut io2 = Traffic::ZERO;
        low_write_sort(&mut d2, m, &mut io2);

        assert_eq!(d1, d2, "both sorts must agree");

        // Merge sort: writes ≈ reads ≈ n · passes.
        assert!(io1.write_fraction() > 0.45 && io1.write_fraction() < 0.55);
        assert!(
            io1.store_words >= (n as u64) * 2,
            "at least two passes at n/M = 64"
        );

        // Low-write sort: writes == n exactly; reads Θ(n²/m).
        assert_eq!(io2.store_words, n as u64);
        assert!(
            io2.load_words as f64 > 0.5 * (n * n / m) as f64,
            "reads {} should scale as n²/M = {}",
            io2.load_words,
            n * n / m
        );
        // And the trade is real: fewer writes, far more reads.
        assert!(io2.store_words * 2 < io1.store_words);
        assert!(io2.load_words > 4 * io1.load_words);
    }

    #[test]
    fn merge_pass_count_matches_formula() {
        let n = 4096;
        let m = 64;
        let fanout = 8;
        let mut d = random_data(n, 10);
        let mut io = Traffic::ZERO;
        external_merge_sort(&mut d, m, fanout, &mut io);
        // 1 run-formation pass + ceil(log_fanout(n/m)) merge passes.
        let runs = n / m;
        let merge_passes = (runs as f64).log(fanout as f64).ceil() as u64;
        assert_eq!(io.load_msgs, 1 + merge_passes);
        assert_eq!(io.store_words, (1 + merge_passes) * n as u64);
    }
}
