//! End-to-end proof that the engine's fault-isolation layer works against
//! the *real* registry: injected panics are contained to their cell,
//! injected stalls are cancelled cooperatively (the stall observes the
//! token's deadline on the caller's thread — no thread is left behind),
//! and injected counter corruption is rejected by the report validator —
//! while every untargeted cell of the sweep completes normally.

use std::time::Duration;
use wa_bench::registry::registry;
use wa_core::engine::{BackendKind, EngineError, RunCfg};
use wa_core::fault::FaultPlan;
use wa_core::par::par_map_fallible;
use wa_core::{CancelReason, Scale};

/// The acceptance scenario: one cell panics, one stalls past its
/// deadline, and the sweep still completes every remaining cell, with the
/// two failures recorded under distinct typed error kinds.
#[test]
fn sweep_with_injected_panic_and_stall_completes_all_other_cells() {
    let mut reg = registry();
    reg.set_fault_plan(Some(
        FaultPlan::parse("matmul-wa:panic@1,lu-wa:stall=5000").unwrap(),
    ));
    let timeout = Some(Duration::from_millis(250));

    // Every dense workload that advertises the explicit backend — a real
    // slice of the matrix, driven exactly like `harness sweep`.
    let cells: Vec<String> = reg
        .iter()
        .filter(|w| w.group() == "dense" && w.supports(BackendKind::Explicit))
        .map(|w| w.name().to_string())
        .collect();
    assert!(cells.len() >= 6, "expected a populated dense group");

    let results = par_map_fallible(&cells, 4, |name| {
        let cfg = RunCfg::new(BackendKind::Explicit, Scale::Small).with_timeout(timeout);
        reg.run_cfg(name, cfg)
    });

    let mut kinds = std::collections::BTreeMap::new();
    for (name, res) in cells.iter().zip(&results) {
        // par_map_fallible itself never sees a panic: containment already
        // happened inside the registry dispatch.
        let res = res.as_ref().expect("engine leaked a panic past dispatch");
        match res {
            Ok(r) => assert_eq!(&r.workload, name),
            Err(e) => {
                if name == "lu-wa" {
                    // The stalled cell is cancelled *cooperatively*: the
                    // stall observed the token's passed deadline, so the
                    // error carries the deadline reason.
                    match e {
                        EngineError::Cancelled { reason, .. } => {
                            assert_eq!(*reason, CancelReason::Deadline)
                        }
                        other => panic!("stalled cell must cancel, got {other:?}"),
                    }
                }
                kinds.insert(name.as_str(), e.kind());
            }
        }
    }
    assert_eq!(kinds.get("matmul-wa"), Some(&"panicked"));
    assert_eq!(kinds.get("lu-wa"), Some(&"cancelled"));
    assert_eq!(
        kinds.len(),
        2,
        "only the targeted cells may fail: {kinds:?}"
    );
}

/// A deadline-cancelled attempt must leave no thread behind. The attempt
/// runs on the caller's thread, so after a stalled cell is cancelled no
/// `wa-cell-*` thread (the name a per-cell worker would carry) may be in
/// this process's task list.
#[test]
fn cancelled_worker_threads_join_and_do_not_leak() {
    let mut reg = registry();
    reg.set_fault_plan(Some(FaultPlan::parse("trsm-wa:stall=5000").unwrap()));
    let cfg = RunCfg::new(BackendKind::Explicit, Scale::Small)
        .with_timeout(Some(Duration::from_millis(150)));
    match reg.run_cfg("trsm-wa", cfg) {
        Err(EngineError::Cancelled {
            workload,
            reason,
            elapsed,
            ..
        }) => {
            assert_eq!(workload, "trsm-wa");
            assert_eq!(reason, CancelReason::Deadline);
            assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // run_cfg returned, so no thread of this cell may remain. Only this
    // test runs trsm-wa with a deadline, so the exact name cannot collide
    // with threads of concurrently running tests.
    let leaked: Vec<String> = live_thread_names()
        .into_iter()
        .filter(|n| n == "wa-cell-trsm-wa")
        .collect();
    assert!(leaked.is_empty(), "leaked cell workers: {leaked:?}");
}

/// Every thread name in this process, via /proc (Linux-only, like CI).
fn live_thread_names() -> Vec<String> {
    let mut names = Vec::new();
    for e in std::fs::read_dir("/proc/self/task").unwrap() {
        if let Ok(n) = std::fs::read_to_string(e.unwrap().path().join("comm")) {
            names.push(n.trim().to_string());
        }
    }
    names
}

#[test]
fn injected_panic_carries_its_payload_and_spares_the_next_invocation() {
    let mut reg = registry();
    reg.set_fault_plan(Some(FaultPlan::parse("trsm-wa:panic@1").unwrap()));
    let cfg = RunCfg::new(BackendKind::Explicit, Scale::Small);
    match reg.run_cfg("trsm-wa", cfg) {
        Err(EngineError::Panicked { workload, payload }) => {
            assert_eq!(workload, "trsm-wa");
            assert!(payload.contains("fault-injected"), "{payload}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The fault fired on invocation 1 only; the cell recovers.
    assert!(reg.run_cfg("trsm-wa", cfg).is_ok());
}

#[test]
fn corrupted_counters_are_rejected_by_the_report_validator() {
    // `corrupt` bumps writes_per_level and flops but leaves the boundary
    // traffic alone, so backing-store conservation breaks. The engine
    // validates every attempt's report, so the corruption surfaces as a
    // typed `ReportInvariant` at the faulted cell instead of poisoning a
    // cross-model comparison three tables later.
    let mut reg = registry();
    reg.set_fault_plan(Some(FaultPlan::parse("matmul-wa:corrupt@1").unwrap()));
    match reg.run_cfg("matmul-wa", RunCfg::new(BackendKind::Simmed, Scale::Small)) {
        Err(EngineError::ReportInvariant {
            workload,
            violation,
        }) => {
            assert_eq!(workload, "matmul-wa");
            assert!(
                violation.contains("backing-store conservation"),
                "{violation}"
            );
        }
        other => panic!("expected ReportInvariant, got {other:?}"),
    }
    // The fault fired on invocation 1 only: the next dispatch is clean.
    assert!(reg
        .run_cfg("matmul-wa", RunCfg::new(BackendKind::Simmed, Scale::Small))
        .is_ok());
}

#[test]
fn timeout_limits_do_not_change_a_clean_cells_counters() {
    // A deadline only adds a clock to the attempt's cancel token;
    // counters must be identical to a run without one.
    let reg = registry();
    let inline = reg
        .run_cfg(
            "matmul-wa",
            RunCfg::new(BackendKind::Explicit, Scale::Small),
        )
        .unwrap();
    let watched = reg
        .run_cfg(
            "matmul-wa",
            RunCfg::new(BackendKind::Explicit, Scale::Small)
                .with_timeout(Some(Duration::from_secs(60))),
        )
        .unwrap();
    assert_eq!(inline.writes_per_level, watched.writes_per_level);
    assert_eq!(inline.flops, watched.flops);
}
