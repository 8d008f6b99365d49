//! Metric arithmetic: medians, sums of fastest item times, the
//! per-backend/per-group engine ledger, matched-set ratios, and failure
//! counting. Pure functions over timings the callers measured, so the
//! arithmetic is unit-tested on its own.

use std::collections::{BTreeMap, BTreeSet};

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Each item's fastest host time over the passes of a run.
///
/// On a shared host a single item (tens of milliseconds) can take twice
/// its usual time when a neighbour is busy, and the busy phases outlast a
/// run; a pass median moves with them. An item's fastest time is the one
/// least disturbed, so the sum of the fastest times estimates one pass on
/// a quiet machine and stays put from run to run.
#[derive(Clone, Debug, PartialEq)]
pub struct BestTimes {
    best: Vec<f64>,
}

impl BestTimes {
    /// Best times for items `0..items`, none recorded yet.
    pub fn new(items: usize) -> BestTimes {
        BestTimes {
            best: vec![f64::INFINITY; items],
        }
    }

    /// Record one timing of `item`.
    pub fn record(&mut self, item: usize, seconds: f64) {
        self.best[item] = self.best[item].min(seconds);
    }

    /// Sum of the items' fastest times; an item never recorded adds 0.
    pub fn pass_s(&self) -> f64 {
        self.best.iter().filter(|s| s.is_finite()).sum()
    }
}

/// `num / den`, or 0 when the denominator is 0 (a metric must stay a
/// finite number even when the layer it divides by did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Attempted and failed operations (cells or replayed streams).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailTally {
    pub attempted: u64,
    pub failed: u64,
}

impl FailTally {
    /// Count one attempt; `ok` is false when it errored or its counts
    /// differ from the reference.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One timed dispatch through the engine.
#[derive(Clone, Debug, PartialEq)]
pub struct CellTiming<'a> {
    pub workload: &'a str,
    pub group: &'a str,
    pub backend: &'a str,
    pub scale: &'a str,
    pub depth: usize,
    /// Host seconds around the registry call.
    pub cell_s: f64,
    /// The report's own `wall_ns`, in seconds (0 when the cell failed).
    pub kernel_s: f64,
    pub attempts: u32,
}

/// A ratio of summed cell time between two backends over the workloads
/// that ran on both, with the base it was taken over.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatchedRatio {
    pub value: f64,
    /// `workload|scale|depth` keys present on both backends.
    pub matched: Vec<String>,
    /// Summed denominator-backend cell seconds over `matched`.
    pub base_s: f64,
}

/// Sum of `cell_s` over `cells` on `num` divided by the same over `den`,
/// restricted to (workload, scale, depth) triples that have a cell on both
/// backends — so a backend a workload lacks cannot skew the ratio.
pub fn matched_ratio(cells: &[CellTiming], num: &str, den: &str) -> MatchedRatio {
    let sums = |backend: &str| -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for c in cells.iter().filter(|c| c.backend == backend) {
            *m.entry(format!("{}|{}|{}", c.workload, c.scale, c.depth))
                .or_insert(0.0) += c.cell_s;
        }
        m
    };
    let (n, d) = (sums(num), sums(den));
    let matched: Vec<String> = n.keys().filter(|k| d.contains_key(*k)).cloned().collect();
    let num_s: f64 = matched.iter().map(|k| n[k]).sum();
    let base_s: f64 = matched.iter().map(|k| d[k]).sum();
    MatchedRatio {
        value: ratio(num_s, base_s),
        matched,
        base_s,
    }
}

/// Per-backend and per-group sums over a pass's cell timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineLedger {
    /// backend -> (cell_s, kernel_s)
    pub by_backend: BTreeMap<String, (f64, f64)>,
    /// group -> cell_s
    pub by_group: BTreeMap<String, f64>,
    pub cell_s: f64,
    pub kernel_s: f64,
    pub attempts: u64,
}

impl EngineLedger {
    pub fn new(cells: &[CellTiming]) -> EngineLedger {
        let mut l = EngineLedger::default();
        for c in cells {
            let e = l
                .by_backend
                .entry(c.backend.to_string())
                .or_insert((0.0, 0.0));
            e.0 += c.cell_s;
            e.1 += c.kernel_s;
            *l.by_group.entry(c.group.to_string()).or_insert(0.0) += c.cell_s;
            l.cell_s += c.cell_s;
            l.kernel_s += c.kernel_s;
            l.attempts += c.attempts as u64;
        }
        l
    }

    pub fn backend_cell_s(&self, b: &str) -> f64 {
        self.by_backend.get(b).map_or(0.0, |e| e.0)
    }

    pub fn backend_kernel_s(&self, b: &str) -> f64 {
        self.by_backend.get(b).map_or(0.0, |e| e.1)
    }

    /// Host time the reports do not account for: staging, report
    /// projection, validation and dispatch around the timed kernels.
    pub fn backend_outside_s(&self, b: &str) -> f64 {
        self.backend_cell_s(b) - self.backend_kernel_s(b)
    }

    pub fn group_cell_s(&self, g: &str) -> f64 {
        self.by_group.get(g).copied().unwrap_or(0.0)
    }

    /// Share of summed cell time spent outside the reported kernels.
    pub fn outside_kernel_frac(&self) -> f64 {
        ratio(self.cell_s - self.kernel_s, self.cell_s)
    }
}

/// Parallel efficiency of a `par_map` pass: summed cell time over
/// `threads × wall`.
pub fn par_efficiency(cell_s: &[f64], threads: usize, wall_s: f64) -> f64 {
    ratio(cell_s.iter().sum(), threads as f64 * wall_s)
}

/// Keys whose counts differ between two passes (or exist in only one).
pub fn count_mismatches(a: &BTreeMap<String, String>, b: &BTreeMap<String, String>) -> Vec<String> {
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        workload: &'static str,
        group: &'static str,
        backend: &'static str,
        depth: usize,
        cell_s: f64,
        kernel_s: f64,
    ) -> CellTiming<'static> {
        CellTiming {
            workload,
            group,
            backend,
            scale: "paper",
            depth,
            cell_s,
            kernel_s,
            attempts: 1,
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_times_sum_each_items_fastest_pass() {
        let mut b = BestTimes::new(3);
        assert_eq!(b.pass_s(), 0.0);
        // Two passes in different orders; item 2 is only seen once.
        for (item, s) in [(0, 1.0), (1, 0.5), (1, 0.25), (0, 2.0), (2, 4.0)] {
            b.record(item, s);
        }
        assert_eq!(b.pass_s(), 5.25);
    }

    #[test]
    fn ratio_of_zero_base_is_zero_not_nan() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn matched_ratio_ignores_workloads_missing_a_backend() {
        let cells = [
            cell("a", "dense", "raw", 1, 1.0, 0.5),
            cell("a", "dense", "simmed", 1, 3.0, 2.0),
            // No raw cell for b: excluded from simmed/raw.
            cell("b", "dense", "simmed", 1, 100.0, 90.0),
            // Depth 2 has no raw partner either.
            cell("a", "dense", "simmed", 2, 50.0, 40.0),
            cell("c", "cdag", "raw", 1, 2.0, 1.0),
            cell("c", "cdag", "simmed", 1, 4.0, 3.0),
        ];
        let r = matched_ratio(&cells, "simmed", "raw");
        assert_eq!(
            r.matched,
            vec!["a|paper|1".to_string(), "c|paper|1".to_string()]
        );
        assert_eq!(r.base_s, 3.0);
        assert_eq!(r.value, 7.0 / 3.0);
        // No pair at all: 0 with an empty base.
        let none = matched_ratio(&cells, "stack", "raw");
        assert!(none.matched.is_empty());
        assert_eq!(none.value, 0.0);
    }

    #[test]
    fn outside_kernel_is_cell_minus_reported_kernel() {
        let cells = [
            cell("a", "dense", "traced", 1, 0.5, 0.1),
            cell("b", "dense", "traced", 1, 0.25, 0.05),
            cell("a", "dense", "raw", 1, 0.1, 0.1),
            cell("n", "nbody", "raw", 1, 0.5, 0.25),
        ];
        let l = EngineLedger::new(&cells);
        assert_eq!(l.backend_cell_s("traced"), 0.75);
        assert!((l.backend_outside_s("traced") - 0.6).abs() < 1e-12);
        assert_eq!(l.backend_outside_s("stack"), 0.0);
        assert_eq!(l.group_cell_s("nbody"), 0.5);
        assert_eq!(l.group_cell_s("extsort"), 0.0);
        assert_eq!(l.attempts, 4);
        // (1.35 - 0.5) / 1.35
        assert!((l.outside_kernel_frac() - 0.85 / 1.35).abs() < 1e-12);
    }

    #[test]
    fn fail_frac_counts_errors_and_mismatches_against_attempts() {
        let mut t = FailTally::default();
        assert_eq!(t.fail_frac(), 0.0);
        for ok in [true, false, true, true, false] {
            t.record(ok);
        }
        assert_eq!(
            t,
            FailTally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(t.fail_frac(), 0.4);
    }

    #[test]
    fn par_efficiency_is_busy_over_capacity() {
        assert_eq!(par_efficiency(&[1.0, 1.0, 2.0], 2, 2.0), 1.0);
        assert_eq!(par_efficiency(&[1.0], 2, 1.0), 0.5);
    }

    #[test]
    fn count_mismatches_reports_changed_and_missing_keys() {
        let a: BTreeMap<String, String> = [("x", "1"), ("y", "2")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut b = a.clone();
        assert!(count_mismatches(&a, &b).is_empty());
        b.insert("y".into(), "3".into());
        b.insert("z".into(), "0".into());
        assert_eq!(
            count_mismatches(&a, &b),
            vec!["y".to_string(), "z".to_string()]
        );
    }
}
