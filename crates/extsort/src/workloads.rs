//! Engine registrations for the §9 sorting workloads.
//!
//! The sorts charge an explicit element-granular [`Traffic`] tally, so
//! both register the `explicit` backend (reads → loads, writes → stores
//! on one boundary) plus `raw` for wall clock. Together they trace the
//! two ends of the conjectured read/write frontier: merge sort does
//! `Θ(n log_M n)` of each, the selection sort exactly `n` writes but
//! `Θ(n²/M)` reads.

use crate::merge::external_merge_sort;
use crate::selection::low_write_sort;
use wa_core::engine::{BackendKind, EngineError, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::{BoundaryTraffic, Traffic, XorShift};

fn problem(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Small => (1 << 14, 256),
        Scale::Paper => (1 << 16, 1024),
    }
}

fn random_data(n: usize) -> Vec<f64> {
    let mut rng = XorShift::new(91);
    (0..n).map(|_| rng.next_unit() * 1e6).collect()
}

fn sort_workload(name: &'static str, description: &'static str, selection: bool) -> Workload {
    let backends = [BackendKind::Raw, BackendKind::Explicit];
    Workload::new(
        name,
        "extsort",
        description,
        &backends,
        move |wa_core::engine::RunCfg { backend, scale, .. }| {
            let (n, m) = problem(scale);
            let mut data = random_data(n);
            let mut io = Traffic::ZERO;
            let (_, ns) = timed(|| {
                if selection {
                    low_write_sort(&mut data, m, &mut io)
                } else {
                    external_merge_sort(&mut data, m, 8, &mut io)
                }
            });
            if data.windows(2).any(|w| w[0] > w[1]) {
                return Err(EngineError::Failed {
                    workload: name.to_string(),
                    message: "output not sorted".to_string(),
                });
            }
            let mut r = RunReport::new(name, backend, scale)
                .config("n", n)
                .config("fast_elems", m);
            if backend == BackendKind::Explicit {
                let mut bt = BoundaryTraffic::new(2);
                *bt.boundary_mut(0) = io;
                r = r
                    .with_boundaries(&bt, &[])
                    .config("passes", io.load_msgs)
                    .config("write_fraction", format!("{:.4}", io.write_fraction()))
                    .note("Traffic projection: element counts, msgs == streams");
            }
            r.wall_ns = ns;
            Ok(r)
        },
    )
}

pub fn workloads() -> Vec<Workload> {
    vec![
        sort_workload(
            "sort-merge",
            "external k-way merge sort: Theta(n log_M n) reads AND writes (I/O optimal)",
            false,
        ),
        sort_workload(
            "sort-selection",
            "low-write multi-pass selection sort: exactly n writes, Theta(n^2/M) reads",
            true,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_sort_attains_the_output_write_bound() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "sort-selection").unwrap();
        let r = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        let (n, _) = problem(Scale::Small);
        assert_eq!(r.writes_to_slow(), n as u64);
        let m = ws.iter().find(|w| w.name() == "sort-merge").unwrap();
        let rm = m.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert!(rm.writes_to_slow() > 2 * r.writes_to_slow());
    }
}
