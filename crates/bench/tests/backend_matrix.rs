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
//!    explicit model and the cache simulator must appear in [`AGREEMENT`]
//!    with a declared tolerance, and its slow-memory write counts must
//!    agree boundary-by-boundary (counted from the fast end) at every
//!    shared depth and at both scales. WA cells agree exactly
//!    (Propositions 6.1/6.2 with line-aligned blockings); the documented
//!    exceptions are unit conversion (n-body counts particles), line
//!    granularity on triangular outputs (Cholesky), and eager rewrites
//!    coalescing in the simulated cache before reaching slow memory (the
//!    right-looking non-WA orders — the explicit model charges them, LRU
//!    absorbs some; for LU the relation is derived exactly).

use wa_bench::registry::registry;
use wa_core::engine::{BackendKind, RunCfg};
use wa_core::report::RunReport;
use wa_core::Scale;

/// How a cell's explicit and simulated slow-write counts must relate.
#[derive(Clone, Copy, Debug)]
enum Agreement {
    /// Word-for-word equality at every shared boundary.
    Exact,
    /// Equality after converting explicit units (particles) to words.
    ExactTimes(u64),
    /// `|explicit − simmed| ≤ rel · explicit` at every shared boundary.
    Within(f64),
    /// Right-looking blocked LU: the explicit model stores the whole
    /// trailing matrix every panel, `Σ_{i<nb} (n − i·bs)²` words with
    /// `bs = block_for(fast_words)` and `nb = ⌈n/bs⌉`, while the simulated
    /// cache coalesces those rewrites into the `n²`-word output.
    RightLookingLu,
}

/// A numeric config echo of `r`.
fn config_u64(r: &RunReport, key: &str) -> u64 {
    let (_, v) = r
        .config
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{}: no `{key}` in the config echo", r.workload));
    v.parse().unwrap()
}

/// Every workload that advertises both `explicit` and `simmed` MUST have
/// an entry here — the suite fails if one is missing, so growing the
/// matrix forces a conformance decision.
const AGREEMENT: &[(&str, Agreement)] = &[
    ("matmul-wa", Agreement::Exact),
    ("matmul-nonwa", Agreement::Exact),
    ("trsm-wa", Agreement::Exact),
    // Right-looking TRSM eagerly rewrites B panels; under LRU most
    // rewrites coalesce in cache, so the simulator sees ~the output size
    // while the explicit model charges every panel store.
    ("trsm-rl", Agreement::Within(0.45)),
    // Line granularity: lines straddling the diagonal of the triangular
    // output are written back whole, while the explicit model counts
    // triangle words (measured: ≤ 7.3% at small scale, less at paper).
    ("cholesky-wa", Agreement::Within(0.08)),
    ("cholesky-rl", Agreement::Within(0.08)),
    ("lu-wa", Agreement::Exact),
    // Eager trailing updates rewrite blocks the simulated cache still
    // holds; the gap is derived, not tuned.
    ("lu-rl", Agreement::RightLookingLu),
    // The explicit n-body model counts particles, the simulator words.
    (
        "nbody-wa",
        Agreement::ExactTimes(nbody::force::WORDS_PER_BODY as u64),
    ),
    ("cg", Agreement::Exact),
    ("ca-cg", Agreement::Exact),
    ("ca-cg-streaming", Agreement::Exact),
    ("tsqr-stream", Agreement::Exact),
    ("tsqr-store", Agreement::Exact),
];

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
    let ctx = format!("{name} on {backend} depth {depth}");
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
    for key in [
        "\"workload\":",
        "\"backend\":",
        "\"scale\":",
        "\"config\":",
        "\"boundaries\":",
        "\"writes_per_level\":",
        "\"flops\":",
        "\"wall_ns\":",
        "\"notes\":",
    ] {
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
                let r = w
                    .run_cfg(RunCfg::with_depth(backend, Scale::Small, depth))
                    .unwrap_or_else(|e| panic!("{} on {backend} depth {depth}: {e}", w.name()));
                check_schema(&r, w.name(), w.group(), backend, depth);
                cells += 1;
            }
        }
        // One past the advertised maximum must be a structured refusal,
        // not a panic or a silently shallow run.
        let backend = w.backends()[0];
        let over = w.max_depth(backend) + 1;
        assert!(
            w.run_cfg(RunCfg::with_depth(backend, Scale::Small, over))
                .is_err(),
            "{}: depth {over} must be rejected",
            w.name()
        );
    }
    assert!(
        cells >= 60,
        "expected a well-filled matrix, got {cells} cells"
    );
}

/// Slow-memory writes across boundary `i` (counted from the fast end).
fn store_words(r: &RunReport, i: usize) -> u64 {
    r.boundaries[i].writes_to_slow()
}

#[test]
fn explicit_and_simmed_writes_agree_on_every_dual_backend_cell() {
    let reg = registry();
    for w in reg.iter() {
        let dual = w.supports(BackendKind::Explicit) && w.supports(BackendKind::Simmed);
        if !dual {
            continue;
        }
        // The distributed workloads anchor their agreement at the SLOW end
        // (the explicit model's three boundaries and the per-rank
        // simulation's depth+1 don't line up from the fast end); they get
        // their own contract below.
        if w.group() == "parallel" {
            continue;
        }
        let agreement = AGREEMENT
            .iter()
            .find(|(n, _)| *n == w.name())
            .unwrap_or_else(|| {
                panic!(
                    "{} advertises explicit+simmed but has no AGREEMENT entry; \
                     declare its cross-model tolerance",
                    w.name()
                )
            })
            .1;
        let depths = w
            .max_depth(BackendKind::Explicit)
            .min(w.max_depth(BackendKind::Simmed));
        for scale in [Scale::Small, Scale::Paper] {
            for depth in 1..=depths {
                let exp = w
                    .run_cfg(RunCfg::with_depth(BackendKind::Explicit, scale, depth))
                    .unwrap_or_else(|e| panic!("{} explicit: {e}", w.name()));
                let sim = w
                    .run_cfg(RunCfg::with_depth(BackendKind::Simmed, scale, depth))
                    .unwrap_or_else(|e| panic!("{} simmed: {e}", w.name()));
                // Boundaries shared by the two models, anchored at the
                // fast end (the Krylov tally models only W12; the dense
                // multi-level kernels model all of them).
                let shared = exp.boundaries.len().min(sim.boundaries.len());
                assert!(shared >= 1, "{}: no shared boundary", w.name());
                for b in 0..shared {
                    let e = store_words(&exp, b);
                    let s = store_words(&sim, b);
                    let ctx = format!(
                        "{} @ {scale} depth {depth} boundary {b}: explicit {e} vs simmed {s}",
                        w.name()
                    );
                    assert!(e > 0, "{ctx}: explicit writes must be positive");
                    match agreement {
                        Agreement::Exact => assert_eq!(e, s, "{ctx}"),
                        Agreement::ExactTimes(f) => assert_eq!(e * f, s, "{ctx} (×{f})"),
                        Agreement::Within(rel) => {
                            let diff = e.abs_diff(s) as f64 / e as f64;
                            assert!(diff <= rel, "{ctx}: rel diff {diff:.4} > {rel}");
                        }
                        Agreement::RightLookingLu => {
                            let n = config_u64(&exp, "n");
                            let bs = dense::explicit_mm::block_for(config_u64(&exp, "fast_words"))
                                as u64;
                            let eager: u64 = (0..n.div_ceil(bs)).map(|i| (n - i * bs).pow(2)).sum();
                            assert_eq!(e, eager, "{ctx}: explicit rewrites every trailing matrix");
                            assert_eq!(s, n * n, "{ctx}: simmed writes the output once");
                        }
                    }
                }
            }
        }
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
            let sim = w
                .run_cfg(RunCfg::with_depth(BackendKind::Simmed, scale, 1))
                .unwrap_or_else(|e| panic!("{} simmed: {e}", w.name()));
            let stk = w
                .run_cfg(RunCfg::with_depth(BackendKind::Stack, scale, 1))
                .unwrap_or_else(|e| panic!("{} stack: {e}", w.name()));
            assert_eq!(
                sim.boundaries[0],
                stk.boundaries[0],
                "{} @ {scale}: stack projection vs flushed simulator",
                w.name()
            );
            cells += 1;
        }
    }
    assert!(cells >= 30, "expected a well-filled matrix, got {cells}");
}

/// The distributed dual cells, anchored at the SLOW end of each report:
/// the explicit model's boundary 1 (L2↔node-local NVM) must equal the
/// simmed report's second-to-last boundary (LLC↔NVM) word-for-word in
/// *stores* — including the assembled output, which used to be charged as
/// free — and the network boundary (last in both) must agree verbatim.
/// NVM loads carry no contract: a warm simulated cache cold-fills a block
/// once where the explicit model charges every re-read.
#[test]
fn parallel_dual_cells_agree_at_the_slow_end() {
    let reg = registry();
    let mut cells = 0usize;
    for w in reg.iter() {
        if w.group() != "parallel"
            || !(w.supports(BackendKind::Explicit) && w.supports(BackendKind::Simmed))
        {
            continue;
        }
        for scale in [Scale::Small, Scale::Paper] {
            for depth in 1..=w.max_depth(BackendKind::Simmed) {
                let exp = w
                    .run_cfg(RunCfg::with_depth(BackendKind::Explicit, scale, 1))
                    .unwrap_or_else(|e| panic!("{} explicit: {e}", w.name()));
                let sim = w
                    .run_cfg(RunCfg::with_depth(BackendKind::Simmed, scale, depth))
                    .unwrap_or_else(|e| panic!("{} simmed depth {depth}: {e}", w.name()));
                let ctx = format!("{} @ {scale} depth {depth}", w.name());
                let nvm_e = exp.boundaries[1];
                let nvm_s = sim.boundaries[sim.boundaries.len() - 2];
                assert!(nvm_e.store_words > 0, "{ctx}: NVM stores must be positive");
                assert_eq!(
                    nvm_e.store_words, nvm_s.store_words,
                    "{ctx}: NVM stores (explicit vs per-rank simulation)"
                );
                assert_eq!(
                    exp.boundaries[2],
                    *sim.boundaries.last().unwrap(),
                    "{ctx}: network boundary"
                );
                cells += 1;
            }
        }
    }
    assert!(cells >= 20, "expected all parallel dual cells, got {cells}");
}

/// The assembly-accounting pin, end to end through the registry: classic
/// SUMMA at Small (n = 48 on a 4×4 grid) assembles one 12×12 C block per
/// rank, so both backends must report exactly n²/P = 144 NVM store words
/// — nonzero and identical, the issue's acceptance bar.
#[test]
fn summa_assembled_output_is_identical_across_backends() {
    let reg = registry();
    let w = reg.get("summa").expect("summa is registered");
    let exp = w
        .run_cfg(RunCfg::new(BackendKind::Explicit, Scale::Small))
        .unwrap();
    let sim = w
        .run_cfg(RunCfg::new(BackendKind::Simmed, Scale::Small))
        .unwrap();
    assert_eq!(exp.boundaries[1].store_words, 144);
    assert_eq!(
        sim.boundaries[sim.boundaries.len() - 2].store_words,
        144,
        "per-rank simulation must charge the same assembled output"
    );
}

#[test]
fn agreement_table_has_no_stale_entries() {
    let reg = registry();
    for (name, _) in AGREEMENT {
        let w = reg
            .get(name)
            .unwrap_or_else(|| panic!("AGREEMENT names unknown workload {name}"));
        assert!(
            w.supports(BackendKind::Explicit) && w.supports(BackendKind::Simmed),
            "{name} no longer advertises both explicit and simmed; prune the entry"
        );
    }
}
