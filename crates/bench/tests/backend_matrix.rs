//! Registry-driven conformance suite for the workload×backend matrix.
//!
//! Three layers of guarantees, all enumerated from the registry so a cell
//! cannot silently disappear or dodge its obligations:
//!
//! 1. **Snapshot** — the exact set of `(workload, backend, max_depth)`
//!    cells is pinned in `tests/snapshots/registry_cells.txt`. Dropping a
//!    backend (or a workload) is a test failure, not a silent regression;
//!    adding one requires blessing the snapshot
//!    (`UPDATE_SNAPSHOT=1 cargo test -p wa-bench --test backend_matrix`).
//! 2. **Schema** — every cell runs at every depth it advertises and its
//!    [`RunReport`] satisfies the structural invariants (identity echo,
//!    boundary/writes-per-level arity, CSV row arity, JSON keys).
//! 3. **Cross-model agreement** — every workload advertising *both* the
//!    explicit model and the cache simulator declares, at its
//!    registration, how their slow-memory writes relate
//!    ([`wa_core::engine::Agreement`]): exact, exact after a unit factor,
//!    a closed form derived from the block schedule, or anchored at the
//!    slow end for the distributed cells. One loop checks the declaration
//!    on every dual cell at both scales, each `simmed` depth `d` against
//!    `explicit` at `min(d, explicit max depth)`. No tolerance is tuned.
//!
//! Every cell is dispatched through `Registry::run_cfg`, as the harness
//! does: a panic is contained, the report is validated, and a failure
//! names the workload, scale, backend and depth.

use wa_bench::registry::registry;
use wa_core::engine::{BackendKind, EngineError, RunCfg};
use wa_core::report::RunReport;
use wa_core::{Registry, Scale};

/// The cell named the way every failure below names it.
fn cell(name: &str, scale: Scale, backend: BackendKind, depth: usize) -> String {
    format!("{name} @ {scale}, {backend} depth {depth}")
}

/// Dispatch one cell through the registry's guarded path.
fn try_run(
    reg: &Registry,
    name: &str,
    scale: Scale,
    backend: BackendKind,
    depth: usize,
) -> Result<RunReport, EngineError> {
    reg.run_cfg(name, RunCfg::with_depth(backend, scale, depth))
}

/// [`try_run`], failing with the cell's name on any error.
fn run(reg: &Registry, name: &str, scale: Scale, backend: BackendKind, depth: usize) -> RunReport {
    try_run(reg, name, scale, backend, depth)
        .unwrap_or_else(|e| panic!("{}: {e}", cell(name, scale, backend, depth)))
}

/// One line per workload: `name | group | backend:max_depth ...` in
/// registration order — the snapshot of which matrix cells exist.
fn render_cells() -> String {
    let mut out = String::new();
    for w in registry().iter() {
        let backends: Vec<String> = w
            .backends()
            .iter()
            .map(|&b| format!("{}:{}", b.as_str(), w.max_depth(b)))
            .collect();
        out.push_str(&format!(
            "{} | {} | {}\n",
            w.name(),
            w.group(),
            backends.join(" ")
        ));
    }
    out
}

fn snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
        .join("registry_cells.txt")
}

#[test]
fn registry_snapshot_matches_checked_in_cells() {
    let rendered = render_cells();
    let path = snapshot_path();
    if std::env::var("UPDATE_SNAPSHOT").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run UPDATE_SNAPSHOT=1 cargo test -p wa-bench \
             --test backend_matrix to create it",
            path.display()
        )
    });
    assert_eq!(
        on_disk, rendered,
        "the workload×backend matrix changed; if intentional, bless it with \
         UPDATE_SNAPSHOT=1 cargo test -p wa-bench --test backend_matrix"
    );
}

/// Structural invariants every report must satisfy, whatever produced it.
fn check_schema(r: &RunReport, name: &str, group: &str, backend: BackendKind, depth: usize) {
    let ctx = cell(name, r.scale, backend, depth);
    assert_eq!(r.workload, name, "{ctx}: workload echo");
    assert_eq!(r.backend, backend, "{ctx}: backend echo");
    match backend {
        BackendKind::Simmed | BackendKind::Explicit => {
            assert!(!r.boundaries.is_empty(), "{ctx}: boundary traffic");
            assert_eq!(
                r.writes_per_level.len(),
                r.boundaries.len() + 1,
                "{ctx}: one writes-per-level entry per level"
            );
            // The simulator models exactly `depth` cache levels; the
            // explicit side may model fewer (e.g. the Krylov tally's
            // single W12 boundary) but never more than requested. The
            // distributed workloads append one network boundary after
            // the per-rank cache boundaries.
            if backend == BackendKind::Simmed {
                let want = if group == "parallel" {
                    depth + 1
                } else {
                    depth
                };
                assert_eq!(r.boundaries.len(), want, "{ctx}: boundary arity");
            }
        }
        BackendKind::Stack => {
            // The stack backend models exactly one fast↔slow boundary (it
            // is a depth-1 projection) and must carry the capacity curve.
            assert_eq!(r.boundaries.len(), 1, "{ctx}: one projected boundary");
            assert_eq!(
                r.writes_per_level.len(),
                2,
                "{ctx}: one writes-per-level entry per level"
            );
            let curve = r.curve.as_ref().unwrap_or_else(|| panic!("{ctx}: curve"));
            assert!(
                r.to_json().contains("\"curve\":{\"line_words\":"),
                "{ctx}: JSON curve key"
            );
            // Fills are non-increasing in capacity along the default
            // ladder (the stack property, surfaced to every consumer).
            let fills: Vec<u64> = curve
                .points(&curve.default_ladder())
                .iter()
                .map(|p| p.fills)
                .collect();
            assert!(
                fills.windows(2).all(|w| w[0] >= w[1]),
                "{ctx}: fills must be monotone non-increasing, got {fills:?}"
            );
        }
        BackendKind::Raw | BackendKind::Traced => {
            assert!(r.boundaries.is_empty(), "{ctx}: no modeled hierarchy");
        }
    }
    // CSV row arity always matches the header.
    let cols = r.to_csv_row().split(',').count();
    assert_eq!(
        cols,
        RunReport::CSV_HEADER.split(',').count(),
        "{ctx}: CSV arity"
    );
    // JSON carries the stable schema keys.
    let json = r.to_json();
    let mut keys = vec![
        "\"workload\":",
        "\"backend\":",
        "\"scale\":",
        "\"config\":",
        "\"boundaries\":",
        "\"writes_per_level\":",
        "\"flops\":",
        "\"wall_ns\":",
        "\"notes\":",
    ];
    if !r.boundaries.is_empty() {
        keys.extend(["\"load_words\":", "\"store_words\":"]);
    }
    for key in keys {
        assert!(json.contains(key), "{ctx}: JSON missing {key}");
    }
}

#[test]
fn every_cell_runs_at_every_advertised_depth() {
    let reg = registry();
    let mut cells = 0usize;
    for w in reg.iter() {
        for &backend in w.backends() {
            for depth in 1..=w.max_depth(backend) {
                let r = run(&reg, w.name(), Scale::Small, backend, depth);
                check_schema(&r, w.name(), w.group(), backend, depth);
                cells += 1;
            }
        }
        // One past the advertised maximum must be a structured refusal,
        // not a panic or a silently shallow run.
        let backend = w.backends()[0];
        let over = w.max_depth(backend) + 1;
        assert!(
            matches!(
                try_run(&reg, w.name(), Scale::Small, backend, over),
                Err(EngineError::UnsupportedDepth { .. })
            ),
            "{}: must be rejected",
            cell(w.name(), Scale::Small, backend, over)
        );
    }
    assert!(
        cells >= 60,
        "expected a well-filled matrix, got {cells} cells"
    );
}

/// Every dual cell, at both scales and every `simmed` depth, against
/// the relation its workload declares; a workload must declare one
/// exactly when it advertises both `explicit` and `simmed`.
#[test]
fn explicit_and_simmed_writes_agree_on_every_dual_backend_cell() {
    let reg = registry();
    let mut cells = 0usize;
    for w in reg.iter() {
        let dual = w.supports(BackendKind::Explicit) && w.supports(BackendKind::Simmed);
        let declared = w.cross_model();
        assert_eq!(
            dual,
            declared.is_some(),
            "{}: a workload declares a cross-model agreement iff it runs on explicit and simmed",
            w.name()
        );
        let Some(agreement) = declared else { continue };
        let top = w.max_depth(BackendKind::Explicit);
        for scale in [Scale::Small, Scale::Paper] {
            for depth in 1..=w.max_depth(BackendKind::Simmed) {
                let ed = depth.min(top);
                let exp = run(&reg, w.name(), scale, BackendKind::Explicit, ed);
                let sim = run(&reg, w.name(), scale, BackendKind::Simmed, depth);
                agreement.check(&exp, &sim).unwrap_or_else(|e| {
                    let sim_cell = cell(w.name(), scale, BackendKind::Simmed, depth);
                    panic!("{sim_cell} vs explicit depth {ed}: {e}")
                });
                cells += 1;
            }
        }
    }
    assert!(cells >= 60, "expected every dual cell, got {cells}");
}

/// The agreement is meaningful only if the models also agree on the
/// contrast: the non-WA order must write several times the output on
/// each model (n/b = 2 blocks per dimension here, so about 2× the output).
#[test]
fn non_wa_matmul_writes_far_exceed_the_wa_count_on_both_models() {
    let reg = registry();
    for backend in [BackendKind::Explicit, BackendKind::Simmed] {
        let writes = |name| run(&reg, name, Scale::Small, backend, 1).writes_to_slow();
        let (wa, non) = (writes("matmul-wa"), writes("matmul-nonwa"));
        assert!(
            non >= 2 * wa,
            "{}: {non} slow-memory writes vs matmul-wa's {wa}",
            cell("matmul-nonwa", Scale::Small, backend, 1)
        );
    }
}

/// The single-pass stack backend is not an approximation: on every
/// workload that also advertises the cache simulator, its projection at
/// the cell's fast-memory capacity must equal the flushed depth-1
/// simulator *exactly* — words, messages, loads and stores alike — at
/// both scales. No tolerance table: FA-LRU obeys the stack property.
#[test]
fn stack_projection_equals_flushed_simmed_exactly_everywhere() {
    let reg = registry();
    let mut cells = 0usize;
    for w in reg.iter() {
        if !(w.supports(BackendKind::Stack) && w.supports(BackendKind::Simmed)) {
            continue;
        }
        // Parallel stack cells project the *critical rank's* curve while
        // simmed folds a componentwise max over all ranks, so exact
        // equality is not part of their contract (the per-rank equivalence
        // is exercised in `parallel`'s own suites).
        if w.group() == "parallel" {
            continue;
        }
        for scale in [Scale::Small, Scale::Paper] {
            let sim = run(&reg, w.name(), scale, BackendKind::Simmed, 1);
            let stk = run(&reg, w.name(), scale, BackendKind::Stack, 1);
            assert_eq!(
                sim.boundaries[0],
                stk.boundaries[0],
                "{}: projection vs flushed simmed depth 1",
                cell(w.name(), scale, BackendKind::Stack, 1)
            );
            cells += 1;
        }
    }
    assert!(cells >= 30, "expected a well-filled matrix, got {cells}");
}

/// The assembly-accounting pin, end to end through the registry: classic
/// SUMMA at Small (n = 48 on a 4×4 grid) assembles one 12×12 C block per
/// rank, so both backends must report exactly n²/P = 144 NVM store words
/// — nonzero and identical, the issue's acceptance bar.
#[test]
fn summa_assembled_output_is_identical_across_backends() {
    let reg = registry();
    let exp = run(&reg, "summa", Scale::Small, BackendKind::Explicit, 1);
    let sim = run(&reg, "summa", Scale::Small, BackendKind::Simmed, 1);
    assert_eq!(
        exp.boundaries[1].store_words,
        144,
        "{}: NVM stores",
        cell("summa", Scale::Small, BackendKind::Explicit, 1)
    );
    assert_eq!(
        sim.boundaries[sim.boundaries.len() - 2].store_words,
        144,
        "{}: per-rank simulation must charge the same assembled output",
        cell("summa", Scale::Small, BackendKind::Simmed, 1)
    );
}
