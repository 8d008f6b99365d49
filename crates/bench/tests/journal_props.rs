//! Property tests for the sweep journal's cell identity: the config hash
//! must be stable across `RunCfg` construction order, re-serialization
//! round trips, and timeout changes — otherwise `--resume` would
//! silently re-run (or worse, silently skip) cells. Records written in
//! an older schema must still count on `--resume`.

use proptest::prelude::*;
use std::time::Duration;
use wa_bench::sweep::completed_cells;
use wa_core::engine::{fnv1a64, BackendKind, RunCfg, Scale};

fn backend_from(i: usize) -> BackendKind {
    BackendKind::ALL[i % BackendKind::ALL.len()]
}

fn scale_from(b: bool) -> Scale {
    if b {
        Scale::Small
    } else {
        Scale::Paper
    }
}

const WORKLOADS: &[&str] = &[
    "matmul-wa",
    "matmul-nonwa",
    "cholesky-wa",
    "lu-rl",
    "cg",
    "tsqr-stream",
    "nbody-wa",
    "extsort",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Re-serialization round trip: key → parse → rebuild → same key and
    /// same hash.
    #[test]
    fn hash_survives_reserialization(
        bi in 0usize..4,
        small in any::<bool>(),
        depth in 1usize..4,
        wi in 0usize..8,
    ) {
        let workload = WORKLOADS[wi];
        let cfg = RunCfg::with_depth(backend_from(bi), scale_from(small), depth);
        let key = cfg.cell_key(workload);
        let (w2, cfg2) = RunCfg::parse_cell_key(&key).unwrap();
        prop_assert_eq!(w2.as_str(), workload);
        prop_assert_eq!(cfg2.cell_key(workload), key.clone());
        prop_assert_eq!(cfg2.config_hash(workload), cfg.config_hash(workload));
        // And a second round trip is a fixed point.
        let (_, cfg3) = RunCfg::parse_cell_key(&cfg2.cell_key(workload)).unwrap();
        prop_assert_eq!(cfg3.config_hash(workload), cfg.config_hash(workload));
    }

    /// Field order / construction path must not matter: building the same
    /// scenario through different constructors and literal orders yields
    /// one hash.
    #[test]
    fn hash_ignores_construction_order(
        bi in 0usize..4,
        small in any::<bool>(),
        depth in 1usize..4,
        wi in 0usize..8,
    ) {
        let workload = WORKLOADS[wi];
        let (backend, scale) = (backend_from(bi), scale_from(small));
        let a = RunCfg::with_depth(backend, scale, depth);
        let b = RunCfg { depth, scale, backend, timeout: None };
        let mut c = RunCfg::new(backend, scale);
        c.depth = depth;
        prop_assert_eq!(a.config_hash(workload), b.config_hash(workload));
        prop_assert_eq!(a.config_hash(workload), c.config_hash(workload));
    }

    /// The timeout is execution policy, not identity: any deadline
    /// hashes identically, so journals written under one deadline resume
    /// under another.
    #[test]
    fn hash_ignores_limits(
        bi in 0usize..4,
        small in any::<bool>(),
        depth in 1usize..4,
        timeout_ms in 0u64..10_000,
    ) {
        let base = RunCfg::with_depth(backend_from(bi), scale_from(small), depth);
        let timeout = if timeout_ms == 0 { None } else { Some(Duration::from_millis(timeout_ms)) };
        let limited = base.with_timeout(timeout);
        prop_assert_eq!(limited.config_hash("matmul-wa"), base.config_hash("matmul-wa"));
        prop_assert_eq!(limited.cell_key("matmul-wa"), base.cell_key("matmul-wa"));
    }

    /// Distinct cells get distinct hashes (across the whole scenario
    /// space this sweep can address — small enough to demand no
    /// collisions outright).
    #[test]
    fn distinct_cells_hash_distinctly(
        bi in 0usize..4,
        bj in 0usize..4,
        small_i in any::<bool>(),
        small_j in any::<bool>(),
        di in 1usize..4,
        dj in 1usize..4,
        wi in 0usize..8,
        wj in 0usize..8,
    ) {
        let a = RunCfg::with_depth(backend_from(bi), scale_from(small_i), di);
        let b = RunCfg::with_depth(backend_from(bj), scale_from(small_j), dj);
        let (wa, wb) = (WORKLOADS[wi], WORKLOADS[wj]);
        prop_assume!(a.cell_key(wa) != b.cell_key(wb));
        prop_assert!(a.config_hash(wa) != b.config_hash(wb));
    }
}

/// A journal line in the schema that carried `attempts` (and, before
/// that, `retries_used`), with a valid checksum.
fn old_schema_line(key: &str, status: &str, attempts: u32, retries: Option<u32>) -> String {
    let retries = retries.map_or(String::new(), |r| format!("\"retries_used\":{r},"));
    let body = format!(
        "{{\"key\":\"{key}\",\"workload\":\"matmul-wa\",\"backend\":\"explicit\",\
         \"scale\":\"small\",\"depth\":1,\"status\":\"{status}\",\"attempts\":{attempts},\
         {retries}\"wall_ns\":42,\"wall_ms\":0.000,\"error\":null"
    );
    let crc = fnv1a64(body.as_bytes());
    format!("{body},\"crc\":\"{crc:016x}\"}}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `--resume` reads only `key`, `status` and `crc`: records that
    /// still carry `attempts` (and `retries_used`) count as written.
    #[test]
    fn resume_accepts_records_that_carry_attempts(
        cells in prop::collection::vec((0u64..1 << 40, any::<bool>(), 0u32..4, any::<bool>()), 1..8),
    ) {
        let dir = std::env::temp_dir().join(format!("wa-journal-old-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let lines: Vec<String> = cells
            .iter()
            .map(|&(key, ok, attempts, retries)| {
                let status = if ok { "ok" } else { "panicked" };
                old_schema_line(&format!("{key:x}"), status, attempts, retries.then_some(0))
            })
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let map = completed_cells(&path).unwrap();
        for &(key, ..) in &cells {
            // The last record of a key wins.
            let last = cells.iter().rev().find(|c| c.0 == key).unwrap();
            let want = if last.1 { "ok" } else { "panicked" };
            prop_assert_eq!(map.get(&format!("{key:x}")).map(String::as_str), Some(want));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
