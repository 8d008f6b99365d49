//! Trace-output guarantees: the Chrome trace JSON produced by an
//! installed [`wa_core::obs::Recorder`] is schema-valid (required keys,
//! monotone timestamps, balanced Begin/End pairs per thread) and — under
//! the logical clock — byte-deterministic across runs of the same cell.
//! One test function on purpose: the recorder slot is process-global, so
//! concurrent test threads must not share it.

use std::collections::HashMap;
use std::sync::Arc;
use wa_bench::registry::registry;
use wa_core::engine::{BackendKind, RunCfg, Scale};
use wa_core::obs::{self, Clock, Event, EventKind, PhaseRow, Recorder};

/// Run one simmed cell under a fresh logical-clock recorder and return
/// everything it captured.
fn capture(name: &str) -> (String, Vec<Event>, Vec<PhaseRow>) {
    let reg = registry();
    let rec = Arc::new(Recorder::new(Clock::logical()));
    obs::install(rec.clone());
    let (res, _) = reg.run_cfg_traced(
        name,
        RunCfg::with_depth(BackendKind::Simmed, Scale::Small, 1),
    );
    obs::uninstall();
    res.unwrap_or_else(|e| panic!("simmed {name} must succeed: {e}"));
    (rec.to_chrome_json(), rec.events(), rec.take_phase_rows())
}

#[test]
fn trace_json_is_schema_valid_deterministic_and_carries_phase_rows() {
    let (json1, events, phases_mm) = capture("matmul-wa");
    let (json2, _, _) = capture("matmul-wa");

    // Byte-determinism: same cell, logical clock, fresh recorder.
    assert_eq!(json1, json2, "logical-clock traces must be byte-identical");

    // Document shape + per-event required keys.
    assert!(json1.starts_with("{\"traceEvents\":[\n"));
    assert!(json1.ends_with("\n]}\n"));
    let body = &json1["{\"traceEvents\":[\n".len()..json1.len() - "\n]}\n".len()];
    assert!(!body.is_empty(), "trace must not be empty");
    for line in body.lines() {
        let line = line.trim_end_matches(',');
        for key in ["\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            assert!(line.contains(key), "event missing {key}: {line}");
        }
    }

    // Timestamps monotone non-decreasing in emission order; Begin/End
    // balanced per thread with matching names.
    let mut last_ts = 0u64;
    let mut stacks: HashMap<u32, Vec<&str>> = HashMap::new();
    for e in &events {
        assert!(e.ts >= last_ts, "ts must be non-decreasing");
        last_ts = e.ts;
        match &e.kind {
            EventKind::Begin { name, .. } => stacks.entry(e.tid).or_default().push(name),
            EventKind::End { name, .. } => {
                let open = stacks.entry(e.tid).or_default().pop();
                assert_eq!(
                    open.map(str::to_string),
                    Some(name.clone()),
                    "End must close the innermost Begin on its thread"
                );
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    // The engine instrumented this run: attempt + run spans, and the
    // simulator closed its counter tracks.
    let has_span = |want: &str| {
        events.iter().any(|e| {
            matches!(&e.kind, EventKind::Begin { name, cat } if name == want && *cat == "engine")
        })
    };
    assert!(has_span("attempt"), "missing engine attempt span");
    assert!(has_span("run"), "missing engine run span");
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Counter { name, .. } if name == "memsim DRAM")),
        "missing simulator counter track"
    );

    // Per-phase rows reached the recorder for `harness profile`: matmul's
    // kernel marks phases, and the flush write-backs are attributed.
    assert!(!phases_mm.is_empty(), "matmul-wa must report phase rows");
    assert!(
        phases_mm.iter().any(|p| p.phase == "gemm-read"),
        "phases: {:?}",
        phases_mm.iter().map(|p| &p.phase).collect::<Vec<_>>()
    );
    assert!(
        phases_mm.iter().map(|p| p.dram_writes).sum::<u64>() > 0,
        "matmul-wa phases must carry DRAM writes"
    );

    // The Krylov solvers mark their phases through SimIo and name every
    // phase that moves words, so no access is left in "(init)". Every
    // named phase has a row: CA-CG's `gram` and `coef-update` move no
    // words, and their rows carry their wall time.
    let cg: &[&str] = &["residual", "spmv", "dot", "vec-update"];
    let cacg: &[&str] = &["residual", "basis", "gram", "coef-update", "vec-update"];
    let cacg_moving: &[&str] = &["residual", "basis", "vec-update"];
    let tsqr: &[&str] = &["block-qr", "r-write"];
    for (name, phases, moving) in [
        ("cg", cg, cg),
        ("ca-cg", cacg, cacg_moving),
        ("ca-cg-streaming", cacg, cacg_moving),
        ("tsqr-stream", tsqr, tsqr),
    ] {
        let (_, _, rows) = capture(name);
        let seen: Vec<&str> = rows.iter().map(|p| p.phase.as_str()).collect();
        for want in phases {
            assert!(seen.contains(want), "{name} missing phase {want}: {seen:?}");
        }
        for want in moving {
            assert!(
                rows.iter().any(|p| p.phase == *want && p.accesses > 0),
                "{name}: phase {want} moves no words: {seen:?}"
            );
        }
        for p in &rows {
            assert!(
                p.phase == "(flush)" || phases.contains(&p.phase.as_str()),
                "{name}: unexpected phase {} in {seen:?}",
                p.phase
            );
        }
        assert!(rows.iter().map(|p| p.dram_writes).sum::<u64>() > 0);
    }
}
