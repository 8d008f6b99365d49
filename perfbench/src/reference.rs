//! Reference counts: the canonical count string of every cell and replay,
//! stored in `reference/counts.tsv` and regenerated with
//! `--regen-reference`. A pass whose counts differ from these fails, so a
//! faster program that drifts from the reference shows as a failure, not
//! as a gain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wa_core::RunReport;

/// Config echoes that describe how a cell was invoked, not what it
/// computed.
const EXCLUDED_CONFIG: [&str; 2] = ["repeat", "attempts"];

/// Where the reference lives: next to this package's manifest, so the
/// benchmark finds it from any working directory.
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join("counts.tsv")
}

/// The counts of a report that must not change: per-boundary traffic,
/// `writes_per_level`, `flops`, and every integer-valued config entry.
/// Wall time and non-integer config echoes are left out.
pub fn canonical(r: &RunReport) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("b=");
    for (i, t) in r.boundaries.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        let _ = write!(
            s,
            "{}/{}/{}/{}",
            t.load_words, t.load_msgs, t.store_words, t.store_msgs
        );
    }
    s.push_str(" w=");
    let wpl: Vec<String> = r.writes_per_level.iter().map(u64::to_string).collect();
    s.push_str(&wpl.join("/"));
    let _ = write!(s, " f={} c=", r.flops);
    let mut first = true;
    for (k, v) in &r.config {
        if EXCLUDED_CONFIG.contains(&k.as_str()) || v.parse::<i128>().is_err() {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{k}:{v}");
    }
    s
}

/// Ordered `key -> counts` table.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    pub entries: Vec<(String, String)>,
    index: BTreeMap<String, usize>,
}

impl Reference {
    pub fn from_entries(entries: Vec<(String, String)>) -> Reference {
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (k.clone(), i))
            .collect();
        Reference { entries, index }
    }

    /// Parse the tab-separated `key<TAB>counts` format; `#` lines are
    /// comments.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('\t')
                .ok_or_else(|| format!("reference line {}: no tab separator", n + 1))?;
            entries.push((k.to_string(), v.to_string()));
        }
        let r = Reference::from_entries(entries);
        if r.index.len() != r.entries.len() {
            return Err("reference has duplicate keys".into());
        }
        Ok(r)
    }

    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        Reference::parse(&text)
    }

    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Reference counts for perfbench (key<TAB>counts); regenerate with\n\
             # cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-reference\n",
        );
        for (k, v) in &self.entries {
            let _ = writeln!(s, "{k}\t{v}");
        }
        s
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.index.get(key).map(|&i| self.entries[i].1.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::{BackendKind, BoundaryTraffic, Scale};

    #[test]
    fn canonical_keeps_counts_and_drops_wall_time_and_echoes() {
        let mut bt = BoundaryTraffic::new(2);
        bt.boundary_mut(0).load(64);
        bt.boundary_mut(0).store(8);
        let mut r = RunReport::new("w", BackendKind::Simmed, Scale::Paper)
            .config("n", 192)
            .config("capacities_words", "1280/5120")
            .config("repeat", 5)
            .config("attempts", 2)
            .config("memo_hits", 7)
            .with_boundaries(&bt, &[]);
        r.flops = 3;
        r.wall_ns = 123_456;
        let c = canonical(&r);
        assert_eq!(c, "b=64/1/8/1 w=64/8 f=3 c=n:192,memo_hits:7");
        r.wall_ns = 1;
        assert_eq!(canonical(&r), c, "wall time is not a count");
    }

    #[test]
    fn reference_round_trips_and_rejects_malformed_lines() {
        let r = Reference::from_entries(vec![
            ("a|raw|paper|1".into(), "b= w= f=0 c=n:1".into()),
            ("replay|fft|traffic".into(), "x".into()),
        ]);
        let back = Reference::parse(&r.render()).unwrap();
        assert_eq!(back.entries, r.entries);
        assert_eq!(back.get("replay|fft|traffic"), Some("x"));
        assert!(Reference::parse("no tab here\n").is_err());
        assert!(Reference::parse("k\t1\nk\t2\n").is_err());
    }
}
