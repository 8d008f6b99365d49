//! The benchmark's own in-memory span recorder. Spans are taken around
//! the calls the benchmark makes into each layer (never inside the
//! program), kept in memory, and written once as Chrome trace-event JSON
//! that Perfetto opens.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    tid: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Small stable id of the calling thread (1 = the first thread to record).
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; returns its value and its host seconds.
    pub fn time<R>(&self, name: &str, cat: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let v = f();
        let dur = start.elapsed();
        let span = Span {
            name: name.to_string(),
            cat,
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            tid: tid(),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        (v, dur.as_secs_f64())
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, plus
    /// `otherData` carrying the run's ledger as string pairs.
    pub fn to_chrome_json(&self, other: &[(String, String)]) -> String {
        let spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span");
        let mut s = String::with_capacity(spans.len() * 112 + 256);
        s.push_str("{\"traceEvents\":[");
        for (i, e) in spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                json_str(&e.name),
                e.cat,
                e.start_us,
                e.dur_us,
                e.tid
            );
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in other.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n{}:{}", json_str(k), json_str(v));
        }
        s.push_str("\n}}\n");
        s
    }
}

/// Time `f`, inside a span when tracing; returns its value and seconds.
pub fn layer<R>(
    tr: Option<&Tracer>,
    name: &str,
    cat: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tr {
        Some(t) => t.time(name, cat, f),
        None => {
            let t0 = Instant::now();
            let v = f();
            (v, t0.elapsed().as_secs_f64())
        }
    }
}

/// Quote and escape a JSON string.
pub fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_serialize_as_complete_events() {
        let t = Tracer::new();
        let (v, secs) = t.time("cell \"x\"", "engine", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let j = t.to_chrome_json(&[("base".into(), "a|paper|1".into())]);
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"name\":\"cell \\\"x\\\"\",\"cat\":\"engine\",\"ph\":\"X\""));
        assert!(j.contains("\"otherData\":{\n\"base\":\"a|paper|1\""));
    }
}
