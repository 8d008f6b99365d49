//! `RunReport` — the uniform result type every backend projects into.
//!
//! The repo measures the paper's algorithms two ways (explicit block
//! movement and simulated caches) plus two auxiliary modes (raw execution,
//! trace recording). Historically each produced its own ad-hoc numbers;
//! `RunReport` is the common currency: per-boundary [`Traffic`], words
//! written into each level, flop count, wall time, and a config echo —
//! serialized to a stable JSON schema by [`RunReport::to_json`] so sweeps
//! are machine-readable without a serde dependency.

use crate::curve::CapacityCurve;
use crate::engine::{BackendKind, Scale};
use crate::traffic::{BoundaryTraffic, Traffic};

/// Run `f`, returning its value and the elapsed wall time in nanoseconds
/// (the number every backend stores in [`RunReport::wall_ns`]).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t0 = std::time::Instant::now();
    let v = f();
    (v, t0.elapsed().as_nanos())
}

/// Median of a set of wall times (lower-middle for even counts, the
/// harness's `--repeat` convention). Returns 0 for an empty slice.
pub fn median_wall_ns(walls: &[u128]) -> u128 {
    if walls.is_empty() {
        return 0;
    }
    let mut s = walls.to_vec();
    s.sort_unstable();
    s[(s.len() - 1) / 2]
}

/// Uniform result of one workload execution on one backend.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Registry name of the workload (e.g. `matmul-wa`).
    pub workload: String,
    /// Backend that produced the numbers.
    pub backend: BackendKind,
    /// Scale the workload ran at.
    pub scale: Scale,
    /// Config echo: ordered key/value pairs (problem size, block sizes,
    /// hierarchy capacities, policy, …) so a report is self-describing.
    pub config: Vec<(String, String)>,
    /// Traffic per hierarchy boundary (index 0 = fastest boundary, e.g.
    /// L1↔L2; the last entry is the boundary to the backing store).
    /// Empty for backends that do not model a hierarchy (e.g. `raw`).
    ///
    /// **Unit note for the message counters.** `load_msgs`/`store_msgs`
    /// count *block transfers*, one per contiguous run, not words. For
    /// the cache simulator a block is a line (msgs = lines moved); for
    /// the explicit kernels it is one `load`/`store` call; for the
    /// tally-based crates (`krylov`, `extsort`) it is one vector/matrix
    /// *stream* — e.g. one CG iteration is 12 load messages and 4 store
    /// messages however long the vectors are. Before the batched-run API
    /// (PR 4) those crates reported the word-granular fiction
    /// `msgs == words`; reports from the two eras are not comparable on
    /// the `msgs` columns. A hand-computed CG iteration pinning today's
    /// meaning lives in `krylov::cg::tests`.
    pub boundaries: Vec<Traffic>,
    /// Words written *into* level `i+1` (1-indexed levels; the last entry
    /// is the backing store). Derived from boundary traffic plus any
    /// local (R2) writes the model recorded. Empty when `boundaries` is.
    pub writes_per_level: Vec<u64>,
    /// Arithmetic operations (0 when the backend does not count them).
    pub flops: u64,
    /// Wall-clock time of the measured section, nanoseconds.
    pub wall_ns: u128,
    /// Free-form remarks (tolerances, mapping caveats, trace stats).
    pub notes: Vec<String>,
    /// Per-capacity projection from the `stack` backend; `None` for every
    /// other backend. Serialized as a trailing `"curve"` key (sampled at
    /// [`CapacityCurve::default_ladder`]) only when present, so the JSON
    /// schema of the existing backends is unchanged.
    pub curve: Option<CapacityCurve>,
}

impl RunReport {
    pub fn new(workload: impl Into<String>, backend: BackendKind, scale: Scale) -> Self {
        RunReport {
            workload: workload.into(),
            backend,
            scale,
            config: Vec::new(),
            boundaries: Vec::new(),
            writes_per_level: Vec::new(),
            flops: 0,
            wall_ns: 0,
            notes: Vec::new(),
            curve: None,
        }
    }

    /// Append a config echo entry (insertion order is preserved in JSON).
    pub fn config(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.config.push((key.into(), value.to_string()));
        self
    }

    pub fn note(mut self, s: impl Into<String>) -> Self {
        self.notes.push(s.into());
        self
    }

    /// Install per-boundary traffic and the per-level write decomposition
    /// from a [`BoundaryTraffic`] plus per-level local (R2) writes.
    /// `local_writes` is indexed by level−1 and may be empty.
    pub fn with_boundaries(mut self, bt: &BoundaryTraffic, local_writes: &[u64]) -> Self {
        let nb = bt.num_boundaries();
        self.boundaries = (0..nb).map(|i| bt.boundary(i)).collect();
        self.writes_per_level = (1..=nb + 1)
            .map(|lvl| bt.writes_into_level(lvl) + local_writes.get(lvl - 1).copied().unwrap_or(0))
            .collect();
        self
    }

    /// Structural invariants every well-formed report satisfies, checked
    /// by the engine after every attempt (so a corrupted report surfaces
    /// as a typed `ReportInvariant` error at the cell that produced it,
    /// not as a silent cross-model disagreement three tables later):
    ///
    /// * `writes_per_level` has exactly one entry per level
    ///   (boundaries + 1) when both are present;
    /// * backing-store conservation: words written into the last level
    ///   equal the stores across the last boundary — no model records
    ///   local writes to the backing store;
    /// * each interior level receives at least the writes its neighbor
    ///   boundaries deliver (local R2 writes only add);
    /// * an attached capacity curve is monotone (fills non-increasing,
    ///   hits non-decreasing in capacity) and conserves write-backs
    ///   (`dram_writes = writebacks + flush_writebacks` at every point).
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.boundaries.is_empty() && !self.writes_per_level.is_empty() {
            let nb = self.boundaries.len();
            if self.writes_per_level.len() != nb + 1 {
                return Err(format!(
                    "writes_per_level has {} entries for {} boundaries (want {})",
                    self.writes_per_level.len(),
                    nb,
                    nb + 1
                ));
            }
            // Writes delivered into level `lvl` (1-indexed) by boundary
            // traffic alone: loads across boundary lvl-1 + stores across
            // boundary lvl-2.
            let delivered = |lvl: usize| -> u64 {
                let mut w = 0;
                if lvl <= nb {
                    w += self.boundaries[lvl - 1].load_words;
                }
                if lvl >= 2 {
                    w += self.boundaries[lvl - 2].store_words;
                }
                w
            };
            let last = self.writes_per_level[nb];
            let stored = self.boundaries[nb - 1].store_words;
            if last != stored {
                return Err(format!(
                    "backing-store conservation: writes_per_level[{nb}] = {last} \
                     but the last boundary stores {stored} words"
                ));
            }
            for lvl in 1..=nb {
                let have = self.writes_per_level[lvl - 1];
                let need = delivered(lvl);
                if have < need {
                    return Err(format!(
                        "level {lvl} records {have} writes but its boundaries \
                         deliver {need} words"
                    ));
                }
            }
        }
        if let Some(curve) = &self.curve {
            let ladder = curve.default_ladder();
            let mut prev: Option<crate::curve::CurvePoint> = None;
            for &c in &ladder {
                let p = curve.at(c);
                if p.dram_writes_lines() != p.writebacks + p.flush_writebacks {
                    return Err(format!(
                        "curve at {c} words: dram_writes {} != writebacks {} + flush {}",
                        p.dram_writes_lines(),
                        p.writebacks,
                        p.flush_writebacks
                    ));
                }
                if let Some(q) = &prev {
                    if p.fills > q.fills {
                        return Err(format!(
                            "curve not monotone: fills grow {} -> {} from {} to {c} words",
                            q.fills, p.fills, q.capacity_words
                        ));
                    }
                    if p.hits < q.hits {
                        return Err(format!(
                            "curve not monotone: hits shrink {} -> {} from {} to {c} words",
                            q.hits, p.hits, q.capacity_words
                        ));
                    }
                }
                prev = Some(p);
            }
        }
        Ok(())
    }

    /// Total words moved across the slowest boundary (e.g. LLC↔DRAM).
    pub fn slow_traffic(&self) -> Traffic {
        self.boundaries.last().copied().unwrap_or(Traffic::ZERO)
    }

    /// Words written to the backing store (the paper's headline metric).
    pub fn writes_to_slow(&self) -> u64 {
        self.slow_traffic().writes_to_slow()
    }

    /// Serialize to the stable JSON schema. Keys are emitted in a fixed
    /// order; `config` is an object preserving insertion order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        field_str(&mut s, "workload", &self.workload);
        s.push(',');
        field_str(&mut s, "backend", self.backend.as_str());
        s.push(',');
        field_str(&mut s, "scale", self.scale.as_str());
        s.push(',');
        json_key(&mut s, "config");
        s.push('{');
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            field_str(&mut s, k, v);
        }
        s.push('}');
        s.push(',');
        json_key(&mut s, "boundaries");
        s.push('[');
        for (i, t) in self.boundaries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            field_u64(&mut s, "load_words", t.load_words);
            s.push(',');
            field_u64(&mut s, "load_msgs", t.load_msgs);
            s.push(',');
            field_u64(&mut s, "store_words", t.store_words);
            s.push(',');
            field_u64(&mut s, "store_msgs", t.store_msgs);
            s.push(',');
            field_u64(&mut s, "writes_to_fast", t.writes_to_fast());
            s.push(',');
            field_u64(&mut s, "writes_to_slow", t.writes_to_slow());
            s.push('}');
        }
        s.push(']');
        s.push(',');
        json_key(&mut s, "writes_per_level");
        s.push('[');
        for (i, w) in self.writes_per_level.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&w.to_string());
        }
        s.push(']');
        s.push(',');
        field_u64(&mut s, "flops", self.flops);
        s.push(',');
        json_key(&mut s, "wall_ns");
        s.push_str(&self.wall_ns.to_string());
        s.push(',');
        json_key(&mut s, "notes");
        s.push('[');
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_string(&mut s, n);
        }
        s.push(']');
        if let Some(curve) = &self.curve {
            s.push(',');
            json_key(&mut s, "curve");
            s.push_str(&curve.to_json(&curve.default_ladder()));
        }
        s.push('}');
        s
    }

    /// Header row for [`RunReport::to_csv_row`] (the `harness sweep
    /// --csv` schema, consumed by the paper-figure pipelines).
    pub const CSV_HEADER: &'static str = "workload,backend,scale,wall_ns,flops,load_words,\
         load_msgs,store_words,store_msgs,writes_to_slow,write_fraction";

    /// One CSV row: identity, wall time, and the slowest-boundary traffic
    /// (the LLC↔DRAM numbers the paper plots). Workload names are
    /// kebab-case identifiers, so no quoting is needed.
    pub fn to_csv_row(&self) -> String {
        let t = self.slow_traffic();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{:.6}",
            self.workload,
            self.backend.as_str(),
            self.scale.as_str(),
            self.wall_ns,
            self.flops,
            t.load_words,
            t.load_msgs,
            t.store_words,
            t.store_msgs,
            t.writes_to_slow(),
            t.write_fraction(),
        )
    }

    /// Human-readable one-screen rendering for non-`--json` output.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {} [{} @ {}] ==",
            self.workload,
            self.backend.as_str(),
            self.scale.as_str()
        );
        for (k, v) in &self.config {
            let _ = writeln!(s, "  {k}: {v}");
        }
        for (i, t) in self.boundaries.iter().enumerate() {
            let _ = writeln!(s, "  boundary L{}/L{}: {}", i + 1, i + 2, t);
        }
        if !self.writes_per_level.is_empty() {
            let levels: Vec<String> = self
                .writes_per_level
                .iter()
                .enumerate()
                .map(|(i, w)| format!("L{}={w}", i + 1))
                .collect();
            let _ = writeln!(s, "  writes into levels: {}", levels.join(" "));
        }
        let _ = writeln!(
            s,
            "  flops: {}  wall: {:.3} ms",
            self.flops,
            self.wall_ns as f64 / 1e6
        );
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        s
    }
}

fn json_key(s: &mut String, k: &str) {
    json_string(s, k);
    s.push(':');
}

fn field_str(s: &mut String, k: &str, v: &str) {
    json_key(s, k);
    json_string(s, v);
}

fn field_u64(s: &mut String, k: &str, v: u64) {
    json_key(s, k);
    s.push_str(&v.to_string());
}

/// Append `v` to `s` as a quoted JSON string (quotes, backslash and
/// control characters escaped). Every JSON writer in the workspace —
/// reports, Chrome traces, sweep journals, `harness list --json` — uses
/// this one escaper.
pub fn json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::BoundaryTraffic;

    fn sample() -> RunReport {
        let mut bt = BoundaryTraffic::new(3);
        bt.boundary_mut(0).load(100);
        bt.boundary_mut(0).store(10);
        bt.boundary_mut(1).load(500);
        RunReport::new("matmul-wa", BackendKind::Explicit, Scale::Small)
            .config("n", 64)
            .config("block", 8)
            .with_boundaries(&bt, &[7, 0, 0])
            .note("unit test")
    }

    #[test]
    fn json_has_stable_field_order_and_escapes() {
        let mut r = sample();
        r.flops = 42;
        r.notes.push("quote \" backslash \\ done".to_string());
        let j = r.to_json();
        assert!(j.starts_with(
            "{\"workload\":\"matmul-wa\",\"backend\":\"explicit\",\"scale\":\"small\","
        ));
        assert!(j.contains("\"config\":{\"n\":\"64\",\"block\":\"8\"}"));
        assert!(j.contains("\"writes_per_level\":[107,510,0]"));
        assert!(j.contains("\"flops\":42"));
        assert!(j.contains("quote \\\" backslash \\\\ done"));
    }

    #[test]
    fn curve_key_is_emitted_only_when_present() {
        let mut r = sample();
        assert!(!r.to_json().contains("\"curve\""));
        r.curve = Some(crate::curve::CapacityCurve {
            line_words: 8,
            word_accesses: 3,
            line_touches: 3,
            repeats: 2,
            cold: 1,
            footprint_lines: 1,
            ..Default::default()
        });
        let j = r.to_json();
        // Appended after notes, so the pinned prefix schema is untouched.
        assert!(j.contains("],\"curve\":{\"line_words\":8,"));
        assert!(j.ends_with("}]}}"));
    }

    #[test]
    fn writes_per_level_matches_boundary_semantics() {
        let r = sample();
        // L1: 100 loaded across boundary 0 + 7 local = 107.
        // L2: 500 loaded across boundary 1 + 10 stored across boundary 0.
        // L3: nothing stored across boundary 1.
        assert_eq!(r.writes_per_level, vec![107, 510, 0]);
        assert_eq!(r.writes_to_slow(), 0);
        assert_eq!(r.slow_traffic().load_words, 500);
    }

    #[test]
    fn csv_row_matches_header_arity_and_slow_boundary() {
        let mut r = sample();
        r.wall_ns = 1234;
        r.flops = 9;
        let header_cols = RunReport::CSV_HEADER.split(',').count();
        let row = r.to_csv_row();
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), header_cols);
        assert_eq!(cols[0], "matmul-wa");
        assert_eq!(cols[3], "1234");
        // Slowest boundary of sample(): load 500, store 0.
        assert_eq!(cols[5], "500");
        assert_eq!(cols[9], "0");
    }

    #[test]
    fn median_wall_is_lower_middle() {
        assert_eq!(median_wall_ns(&[]), 0);
        assert_eq!(median_wall_ns(&[7]), 7);
        assert_eq!(median_wall_ns(&[9, 1, 5]), 5);
        assert_eq!(median_wall_ns(&[4, 1, 9, 5]), 4);
    }

    #[test]
    fn render_text_mentions_all_sections() {
        let t = sample().render_text();
        assert!(t.contains("matmul-wa"));
        assert!(t.contains("boundary L1/L2"));
        assert!(t.contains("writes into levels"));
    }
}
