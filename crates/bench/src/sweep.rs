//! Sweep journaling: the crash-safe record behind `harness sweep`'s
//! `--resume` and per-cell `status` reporting.
//!
//! Each completed cell — success *or* typed failure — appends one JSON
//! line to the journal, flushed immediately, so a killed sweep loses at
//! most the cells still in flight. Lines are keyed by the cell's stable
//! config hash ([`wa_core::RunCfg::config_hash`], hex), which excludes
//! the timeout: re-running with a different `--timeout` resumes the same
//! journal. On `--resume`, cells whose *last* journaled
//! status is `ok` are skipped; failed and missing cells re-run, and their
//! new outcomes append (last record wins).
//!
//! Line schema (stable field order):
//!
//! ```json
//! {"key":"9f..","workload":"matmul-wa","backend":"explicit","scale":"small",
//!  "depth":1,"status":"ok","wall_ns":123456,"wall_ms":0.123,
//!  "error":null,"crc":"0123456789abcdef"}
//! ```
//!
//! `status` is `ok` or an [`wa_core::EngineError::kind`] tag
//! (`panicked`, `cancelled`, `report-invariant`, `failed`, …). `crc` is the
//! FNV-1a-64 hash (16 hex digits) of the record *without* the crc field:
//! a record whose checksum fails to verify — a bit flip, not just a torn
//! tail — is treated as missing on `--resume`, so the cell re-runs.
//! Resume reads only `key`, `status` and `crc`, so a line carrying fields
//! this schema no longer writes (`attempts`, `retries_used`) still counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use wa_core::engine::{BackendKind, Scale};
use wa_core::report::json_string;

/// One journaled cell outcome.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Hex-encoded stable config hash — the resume key.
    pub key: String,
    pub workload: String,
    pub backend: BackendKind,
    pub scale: Scale,
    pub depth: usize,
    /// `ok` or an `EngineError::kind` tag.
    pub status: String,
    /// Median wall time of the successful run; 0 on failure.
    pub wall_ns: u128,
    /// Rendered error for failed cells.
    pub error: Option<String>,
}

impl CellOutcome {
    /// One JSONL line, stable field order, no trailing newline. The final
    /// `crc` field is the FNV-1a-64 hash of everything before it (the
    /// record body up to and including `"error":…`), so readers can
    /// detect mid-file corruption, not just torn tails.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut body = format!("{{\"key\":\"{}\",\"workload\":", self.key);
        json_string(&mut body, &self.workload);
        let _ = write!(
            body,
            ",\"backend\":\"{}\",\"scale\":\"{}\",\"depth\":{},\"status\":",
            self.backend.as_str(),
            self.scale.as_str(),
            self.depth,
        );
        json_string(&mut body, &self.status);
        let _ = write!(
            body,
            ",\"wall_ns\":{},\"wall_ms\":{:.3},\"error\":",
            self.wall_ns,
            self.wall_ns as f64 / 1e6,
        );
        match &self.error {
            None => body.push_str("null"),
            Some(e) => json_string(&mut body, e),
        }
        let crc = wa_core::engine::fnv1a64(body.as_bytes());
        format!("{body},\"crc\":\"{crc:016x}\"}}")
    }
}

/// Verify a journal line's trailing `crc` field against the body it
/// covers. Returns false for lines without a crc (pre-checksum journals
/// are conservatively re-run) and for any mismatch.
fn crc_ok(line: &str) -> bool {
    let Some(idx) = line.rfind(",\"crc\":\"") else {
        return false;
    };
    let body = &line[..idx];
    let rest = &line[idx + ",\"crc\":\"".len()..];
    let Some(hex) = rest.strip_suffix("\"}") else {
        return false;
    };
    let Ok(stored) = u64::from_str_radix(hex, 16) else {
        return false;
    };
    wa_core::engine::fnv1a64(body.as_bytes()) == stored
}

/// Extract the value of a simple string field (`"name":"value"`) from one
/// journal line. Key and status values never contain escapes, so plain
/// slicing suffices for resume bookkeeping.
fn extract_str_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let tag = format!("\"{field}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Read a journal, returning each cell key's *last* recorded status.
/// Malformed lines (a torn write from a killed sweep) and lines whose
/// trailing checksum fails to verify (a mid-file bit flip) are skipped,
/// so the cells they named re-run on `--resume`.
pub fn completed_cells(path: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    let f = BufReader::new(File::open(path)?);
    for line in f.lines() {
        let line = line?;
        if !crc_ok(&line) {
            continue;
        }
        if let (Some(key), Some(status)) = (
            extract_str_field(&line, "key"),
            extract_str_field(&line, "status"),
        ) {
            map.insert(key.to_string(), status.to_string());
        }
    }
    Ok(map)
}

/// Append-mode journal writer shared across sweep worker threads; every
/// [`Journal::record`] writes one line and flushes it to disk.
pub struct Journal {
    w: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Open `path` for journaling. `append = false` truncates (a fresh
    /// sweep); `append = true` extends an existing journal (`--resume`).
    pub fn open(path: &Path, append: bool) -> std::io::Result<Journal> {
        let f = OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        Ok(Journal {
            w: Mutex::new(BufWriter::new(f)),
        })
    }

    /// Append one outcome and flush, so the line survives a process kill.
    pub fn record(&self, o: &CellOutcome) -> std::io::Result<()> {
        let mut w = self.w.lock().unwrap();
        writeln!(w, "{}", o.to_jsonl())?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(key: &str, status: &str, error: Option<&str>) -> CellOutcome {
        CellOutcome {
            key: key.to_string(),
            workload: "matmul-wa".to_string(),
            backend: BackendKind::Explicit,
            scale: Scale::Small,
            depth: 1,
            status: status.to_string(),
            wall_ns: 42,
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn jsonl_line_is_stable_and_escaped() {
        let line = outcome("abc123", "panicked", Some("oh \"no\"\nnewline")).to_jsonl();
        assert!(line.starts_with("{\"key\":\"abc123\",\"workload\":\"matmul-wa\""));
        assert!(line.contains("\"status\":\"panicked\""));
        assert!(line.contains("\"status\":\"panicked\",\"wall_ns\":42,"));
        assert!(line.contains("\"wall_ms\":0.000"));
        assert!(line.contains("\\\"no\\\"\\nnewline"));
        let ok = outcome("abc123", "ok", None).to_jsonl();
        assert!(ok.contains("\"error\":null,\"crc\":\""));
        assert!(ok.ends_with("\"}"));
    }

    #[test]
    fn crc_verifies_and_rejects_flips() {
        let line = outcome("abc123", "ok", None).to_jsonl();
        assert!(crc_ok(&line), "freshly written line must verify");
        // A single-character flip in the body invalidates the checksum.
        let flipped = line.replacen("\"status\":\"ok\"", "\"status\":\"oj\"", 1);
        assert_ne!(line, flipped);
        assert!(!crc_ok(&flipped));
        // Lines without a crc (legacy journals) are conservatively
        // treated as unverified.
        assert!(!crc_ok("{\"key\":\"k\",\"status\":\"ok\",\"error\":null}"));
        // A corrupted crc field itself also fails.
        let bad_crc = line[..line.len() - 3].to_string() + "zz\"}";
        assert!(!crc_ok(&bad_crc));
    }

    #[test]
    fn journal_round_trips_last_status_wins() {
        let dir = std::env::temp_dir().join(format!("wa-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        {
            let j = Journal::open(&path, false).unwrap();
            j.record(&outcome("k1", "panicked", Some("boom"))).unwrap();
            j.record(&outcome("k2", "ok", None)).unwrap();
        }
        {
            // Resume appends; k1 recovers.
            let j = Journal::open(&path, true).unwrap();
            j.record(&outcome("k1", "ok", None)).unwrap();
        }
        // A torn final line must not poison the parse.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":\"k3\",\"work").unwrap();
        }
        let map = completed_cells(&path).unwrap();
        assert_eq!(map.get("k1").map(String::as_str), Some("ok"));
        assert_eq!(map.get("k2").map(String::as_str), Some("ok"));
        assert!(!map.contains_key("k3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncating_open_discards_old_journal() {
        let dir = std::env::temp_dir().join(format!("wa-journal-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        Journal::open(&path, false)
            .unwrap()
            .record(&outcome("old", "ok", None))
            .unwrap();
        Journal::open(&path, false)
            .unwrap()
            .record(&outcome("new", "ok", None))
            .unwrap();
        let map = completed_cells(&path).unwrap();
        assert!(!map.contains_key("old"));
        assert!(map.contains_key("new"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
