//! CLI-level tests of `harness sweep`'s failure semantics: documented
//! exit codes, the per-cell `status` column, the incremental JSONL
//! journal, and `--resume` re-running only failed/missing cells.
//!
//! These drive the real binary (`CARGO_BIN_EXE_harness`), so they pin the
//! contract scripts and CI see, not just the library behavior.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_harness"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wa-sweep-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The small, fast sweep slice all these tests use.
fn sweep_args(journal: &Path) -> Vec<String> {
    [
        "sweep",
        "--group",
        "dense",
        "--backend",
        "explicit",
        "--csv",
        "--journal",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([journal.display().to_string()])
    .collect()
}

#[test]
fn clean_sweep_exits_zero_with_ok_status_column() {
    let dir = tmp_dir("clean");
    let journal = dir.join("j.jsonl");
    let out = harness().args(sweep_args(&journal)).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let csv = stdout(&out);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(header.ends_with(",status"), "{header}");
    let rows: Vec<&str> = lines.collect();
    assert!(rows.len() >= 6, "{csv}");
    for row in &rows {
        assert!(row.ends_with(",ok"), "{row}");
        assert_eq!(
            row.split(',').count(),
            header.split(',').count(),
            "CSV arity: {row}"
        );
    }
    assert!(journal.exists(), "sweep must journal unconditionally");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn faulted_sweep_exits_nonzero_journals_failures_and_resumes() {
    let dir = tmp_dir("faulted");
    let journal = dir.join("j.jsonl");

    // Pass 1: one injected panic + one injected stall (with a deadline
    // shorter than the stall). The process must survive, run every other
    // cell, exit 1, and journal both failures with distinct typed kinds.
    let out = harness()
        .args(sweep_args(&journal))
        .args([
            "--fault-plan",
            "matmul-wa:panic@1,lu-wa:stall=5000",
            "--timeout",
            "1.0",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a sweep with failed cells must exit 1; stderr: {}",
        stderr(&out)
    );
    let csv = stdout(&out);
    assert!(
        csv.lines()
            .any(|l| l.starts_with("matmul-wa,") && l.ends_with(",panicked")),
        "{csv}"
    );
    assert!(
        csv.lines()
            .any(|l| l.starts_with("lu-wa,") && l.ends_with(",cancelled")),
        "stalled cells are cancelled cooperatively: {csv}"
    );
    let ok_rows = csv.lines().filter(|l| l.ends_with(",ok")).count();
    assert!(ok_rows >= 4, "untargeted cells must complete: {csv}");
    let j = std::fs::read_to_string(&journal).unwrap();
    assert!(j.contains("\"status\":\"panicked\""), "{j}");
    assert!(j.contains("\"status\":\"cancelled\""), "{j}");

    // Pass 2: --resume without faults re-runs ONLY the two failed cells
    // and exits 0; the journal ends up all-ok.
    let out = harness()
        .args(sweep_args(&journal))
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let csv = stdout(&out);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 2, "resume must re-run only failed cells: {csv}");
    assert!(rows.iter().all(|r| r.ends_with(",ok")), "{csv}");
    assert!(
        rows.iter().any(|r| r.starts_with("matmul-wa,"))
            && rows.iter().any(|r| r.starts_with("lu-wa,")),
        "{csv}"
    );
    assert!(
        stderr(&out).contains("resume: skipping"),
        "{}",
        stderr(&out)
    );

    // Pass 3: resuming a fully-ok journal runs nothing and exits 0.
    let out = harness()
        .args(sweep_args(&journal))
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        stderr(&out).contains("nothing left to run"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fail_fast_skips_later_cells_and_resume_picks_them_up() {
    let dir = tmp_dir("failfast");
    let journal = dir.join("j.jsonl");
    // Single-threaded so ordering is deterministic: matmul-wa (the first
    // dense explicit cell) panics, everything after it is skipped.
    let out = harness()
        .args(sweep_args(&journal))
        .args([
            "--fault-plan",
            "matmul-wa:panic@1",
            "--fail-fast",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("skipped"), "{err}");
    let journaled = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(journaled, 1, "only the failed cell may be journaled");

    // Resume re-runs the failed cell and every skipped (missing) cell.
    let out = harness()
        .args(sweep_args(&journal))
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let rows = stdout(&out).lines().count() - 1;
    assert!(rows >= 6, "skipped cells must re-run on resume, got {rows}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mid-file bit flip fails the record's FNV-1a checksum, so `--resume`
/// treats the cell as missing and re-runs exactly it. A record in the
/// older schema, which carried `attempts` and `retries_used` fields,
/// still counts as done when its checksum holds.
#[test]
fn journal_bit_flip_fails_the_checksum_and_resume_reruns_that_cell() {
    let dir = tmp_dir("bitflip");
    let journal = dir.join("j.jsonl");
    let out = harness().args(sweep_args(&journal)).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    // Flip one byte inside a mid-file record (not a torn tail): the
    // second line's status field.
    let j = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<String> = j.lines().map(str::to_string).collect();
    assert!(lines.len() >= 3, "{j}");
    let flipped = lines[1].replacen("\"status\":\"ok\"", "\"status\":\"oj\"", 1);
    assert_ne!(flipped, lines[1], "expected an ok record to corrupt");
    let victim = lines[1]
        .split("\"workload\":\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    lines[1] = flipped;
    // Rewrite the third record in the older schema, with a valid crc.
    let (body, _) = lines[2].rsplit_once(",\"crc\":\"").unwrap();
    let body = body.replacen(
        ",\"wall_ns\":",
        ",\"attempts\":1,\"retries_used\":0,\"wall_ns\":",
        1,
    );
    assert!(
        body.contains("\"status\":\"ok\",\"attempts\":1,\"retries_used\":0,"),
        "{body}"
    );
    let crc = wa_core::engine::fnv1a64(body.as_bytes());
    lines[2] = format!("{body},\"crc\":\"{crc:016x}\"}}");
    std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

    // The flipped record still *parses* — only the checksum catches it.
    let out = harness()
        .args(sweep_args(&journal))
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let csv = stdout(&out);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(
        rows.len(),
        1,
        "exactly the checksum-failed cell re-runs, not the older-schema one: {csv}"
    );
    assert!(rows[0].starts_with(&format!("{victim},")), "{csv}");
    assert!(rows[0].ends_with(",ok"), "{csv}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite 6 (the CI smoke, pinned as a test too): SIGINT mid-sweep
/// cancels the in-flight cell, flushes the journal, and exits the
/// documented resumable code 130; `--resume` then completes only the
/// unfinished cells.
#[test]
fn sigint_mid_sweep_exits_resumable_and_resume_completes_the_rest() {
    let dir = tmp_dir("sigint");
    let journal = dir.join("j.jsonl");
    // Single-threaded so the journal order is deterministic: the first
    // cells complete, then lu-wa stalls long enough to be interrupted.
    let child = harness()
        .args(sweep_args(&journal))
        .args(["--fault-plan", "lu-wa:stall=30000", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Wait until at least one cell is journaled, so resume has both
    // completed cells to skip and missing cells to run.
    let t0 = std::time::Instant::now();
    while std::fs::read_to_string(&journal)
        .map(|s| s.lines().count())
        .unwrap_or(0)
        < 1
    {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "sweep never journaled a cell"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let killed = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(130),
        "SIGINT must exit the documented resumable code; stderr: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("interrupted"), "{}", stderr(&out));
    assert!(stderr(&out).contains("--resume"), "{}", stderr(&out));
    let completed_before: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"status\":\"ok\""))
        .map(|l| {
            l.split("\"workload\":\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect();
    assert!(!completed_before.is_empty());

    // Resume (no fault plan) completes only the unfinished cells.
    let out = harness()
        .args(sweep_args(&journal))
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let csv = stdout(&out);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert!(!rows.is_empty(), "the interrupted cells must re-run: {csv}");
    assert!(rows.iter().all(|r| r.ends_with(",ok")), "{csv}");
    for done in &completed_before {
        assert!(
            !rows.iter().any(|r| r.starts_with(&format!("{done},"))),
            "cell {done} completed before the interrupt and must not re-run: {csv}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn curve_sweep_journals_stack_cells_with_stable_keys_and_resumes() {
    let dir = tmp_dir("curve");
    let journal = dir.join("j.jsonl");
    // Pass 1: a --curve sweep is an ordinary sweep over stack-backend
    // cells — CSV status column, JSONL journal, exit 0.
    let args: Vec<String> = [
        "sweep",
        "--group",
        "krylov",
        "--curve",
        "--csv",
        "--journal",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([journal.display().to_string()])
    .collect();
    let out = harness().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let csv = stdout(&out);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 5, "five krylov stack cells: {csv}");
    for row in &rows {
        assert!(
            row.contains(",stack,"),
            "curve cells run the stack backend: {row}"
        );
        assert!(row.ends_with(",ok"), "{row}");
    }
    let j1 = std::fs::read_to_string(&journal).unwrap();
    assert!(j1.contains("\"backend\":\"stack\""), "{j1}");
    let keys = |j: &str| -> Vec<String> {
        let mut ks: Vec<String> = j
            .lines()
            .map(|l| {
                let k = l
                    .split("\"key\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap();
                assert_eq!(k.len(), 16, "config-hash key: {l}");
                k.to_string()
            })
            .collect();
        ks.sort();
        ks
    };

    // Pass 2: --resume recomputes the same config-hash keys, so a fully
    // ok journal means nothing re-runs.
    let out = harness().args(&args).arg("--resume").output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("nothing left to run"),
        "{}",
        stderr(&out)
    );

    // Pass 3: a fresh journal of the same sweep carries identical keys —
    // the hash is a function of the cell config, not the run.
    let journal2 = dir.join("j2.jsonl");
    let args2: Vec<String> = args[..args.len() - 1]
        .iter()
        .cloned()
        .chain([journal2.display().to_string()])
        .collect();
    let out = harness().args(&args2).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let j2 = std::fs::read_to_string(&journal2).unwrap();
    assert_eq!(keys(&j1), keys(&j2), "cell keys must be stable across runs");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_subcommand_contains_panics_and_exits_one() {
    let out = harness()
        .args([
            "run",
            "matmul-wa",
            "--backend",
            "explicit",
            "--fault-plan",
            "matmul-wa:panic@1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("panicked"), "{}", stderr(&out));
}

/// `--reuse` carries one histogram on both backends: a sequential cell's
/// simulator and a parallel cell's critical rank (picked by the same rule
/// on `simmed` and `stack`).
#[test]
fn run_reuse_reports_the_same_histogram_on_simmed_and_stack() {
    let hist = |workload: &str, backend: &str| {
        let out = harness()
            .args(["run", workload, "--backend", backend, "--reuse", "--json"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let json = stdout(&out);
        let key = "\"reuse_hist\":\"";
        let start = json
            .find(key)
            .unwrap_or_else(|| panic!("{workload} {backend}: no reuse_hist in {json}"));
        let rest = &json[start + key.len()..];
        rest[..rest.find('"').unwrap()].to_string()
    };
    for workload in ["fft", "summa"] {
        let simmed = hist(workload, "simmed");
        assert!(simmed.starts_with("cold="), "{workload}: {simmed}");
        assert_eq!(simmed, hist(workload, "stack"), "{workload}");
    }
}

#[test]
fn degenerate_flags_are_usage_errors() {
    for args in [
        vec!["sweep", "--timeout", "0"],
        vec!["sweep", "--timeout", "nope"],
        vec!["sweep", "--fault-plan", "matmul-wa:explode"],
        vec!["run", "matmul-wa", "--timeout", "0"],
        vec!["sweep", "--curve", "--backend", "simmed"],
        vec!["curve"],
        vec!["curve", "nonesuch"],
        vec!["curve", "nbody-symmetric"], // explicit-only: no stack cell
        vec!["curve", "matmul-wa", "--geometric", "0:5:3"],
        vec!["curve", "matmul-wa", "--geometric", "64:32:3"],
        vec!["curve", "matmul-wa", "--capacities", "12,nope"],
        vec!["exp", "wa-optimal", "--scale", "papr"],
        vec!["exp", "wa-optimal", "--policy", "belady"],
    ] {
        let out = harness().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

/// Each subcommand takes only its own flags: anything else exits 2
/// before any cell runs, and `--help`/`-h` prints the usage and exits 0
/// without running (no sweep, no journal).
#[test]
fn unknown_arguments_are_usage_errors_and_help_exits_zero() {
    let dir = tmp_dir("flags");
    // Each case with the argument the error must name.
    for (args, bad) in [
        (vec!["sweep", "--thread", "1"], "--thread"),
        (vec!["sweep", "--group", "dense", "--jsn"], "--jsn"),
        (vec!["sweep", "extra"], "extra"),
        (vec!["run", "matmul-wa", "--scales", "paper"], "--scales"),
        (vec!["run", "matmul-wa", "extra"], "extra"),
        (vec!["run", "matmul-wa", "--backend"], "--backend"), // no value
        (vec!["profile", "matmul-wa", "--json"], "--json"),
        (vec!["curve", "matmul-wa", "--threads", "2"], "--threads"),
        // Capacity flags are checked before the stack run: a deadline no
        // run meets must not turn a bad flag into a cancelled cell.
        (
            vec!["curve", "fft", "--capacities", "0", "--timeout", "0.000001"],
            "--capacities",
        ),
        (
            vec!["curve", "fft", "--geometric", "1:1000:100000"],
            "--geometric",
        ),
        (vec!["list", "--csv"], "--csv"),
        (vec!["list", "--json", "--markdown"], "--markdown"),
        (vec!["sweep", "--depth", "0"], "--depth"),
        (vec!["run", "matmul-wa", "--depth", "0"], "--depth"),
        (vec!["sweep", "--threads", "0"], "--threads"),
        (vec!["sweep", "--retries", "1"], "--retries"),
        (vec!["sweep", "--mem-budget", "64M"], "--mem-budget"),
        (vec!["run", "matmul-wa", "--degrade"], "--degrade"),
        (vec!["exp", "wa-optimal", "--threads", "2"], "--threads"),
        (
            vec![
                "run",
                "matmul-wa",
                "--backend",
                "explicit",
                "--scale",
                "small",
                "--scale",
                "paper",
                "--json",
            ],
            "--scale",
        ),
        (
            vec![
                "run",
                "matmul-wa",
                "--backend",
                "explicit",
                "--timeout",
                "1e300",
            ],
            "--timeout",
        ),
    ] {
        let out = harness().current_dir(&dir).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(bad), "{args:?}: {}", stderr(&out));
    }
    // A usage error stops a sweep before its journal opens.
    assert!(!dir.join("sweep.journal.jsonl").exists());
    for args in [
        vec!["sweep", "--help"],
        vec!["sweep", "--group", "dense", "-h"],
        vec!["run", "matmul-wa", "--help"],
        vec!["curve", "-h"],
        vec!["--help"],
    ] {
        let out = harness().current_dir(&dir).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "{args:?} ran something");
    }
    assert!(
        !dir.join("sweep.journal.jsonl").exists(),
        "`sweep --help` must not sweep"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `harness list --json` prints one object per registry workload, in
/// registry order, carrying the registry's name, group and backends.
#[test]
fn list_json_has_one_object_per_workload_in_registry_order() {
    let out = harness().args(["list", "--json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let json = text.trim();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    let reg = wa_bench::registry::registry();
    assert_eq!(json.matches("{\"name\":").count(), reg.len());
    let mut rest = json;
    for w in reg.iter() {
        let backends: Vec<String> = w
            .backends()
            .iter()
            .map(|b| format!("\"{}\"", b.as_str()))
            .collect();
        let head = format!(
            "{{\"name\":\"{}\",\"group\":\"{}\",\"backends\":[{}],",
            w.name(),
            w.group(),
            backends.join(",")
        );
        let at = rest
            .find(&head)
            .unwrap_or_else(|| panic!("`{}` missing or out of registry order", w.name()));
        rest = &rest[at + head.len()..];
    }
}
