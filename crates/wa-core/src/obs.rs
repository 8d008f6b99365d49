//! Zero-cost-when-off observability: a span/event recorder the engine,
//! the memory simulator's probes, and the harness all share.
//!
//! A [`Recorder`] collects timestamped events — `B`/`E` span pairs,
//! instants, and counter samples — in memory, and serializes them as
//! Chrome trace-event JSON ([`Recorder::to_chrome_json`]) that Perfetto
//! and `chrome://tracing` open directly. Recording is opt-in per run:
//! the harness [`install`]s a recorder, instrumented code checks the
//! one-atomic-load [`is_active`] flag (or goes through the free
//! functions, which no-op when nothing is installed), and the harness
//! [`uninstall`]s to harvest. With no recorder installed the entire
//! layer costs one relaxed atomic load per instrumentation site.
//!
//! Timestamps come from an injected [`Clock`]: wall time (microseconds,
//! the Chrome convention) for profiling, or a logical tick counter for
//! byte-deterministic traces (same cell, same binary → same bytes; the
//! trace tests pin this). The timestamp is read *inside* the event-list
//! lock, so the emitted stream is monotonically non-decreasing in `ts`
//! under either clock — a property the schema tests also pin.
//!
//! Thread ids are assigned per recorder in first-use order (main thread
//! of a single-threaded run = 0), keeping ids stable across runs even
//! though the OS recycles native thread ids.

use crate::report::json_string;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Injected time source for a [`Recorder`].
pub enum Clock {
    /// Microseconds since the recorder was created (Chrome's `ts` unit).
    Wall(Instant),
    /// A logical tick per event — deterministic across runs.
    Logical(AtomicU64),
}

impl Clock {
    pub fn wall() -> Clock {
        Clock::Wall(Instant::now())
    }

    pub fn logical() -> Clock {
        Clock::Logical(AtomicU64::new(0))
    }

    fn now(&self) -> u64 {
        match self {
            Clock::Wall(t0) => t0.elapsed().as_micros() as u64,
            Clock::Logical(t) => t.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// What one recorded [`Event`] is.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// Span open (`ph:"B"`).
    Begin { name: String, cat: &'static str },
    /// Span close (`ph:"E"`); carries the name for viewer robustness.
    End { name: String, cat: &'static str },
    /// Point event (`ph:"i"`, thread-scoped).
    Instant { name: String, cat: &'static str },
    /// Counter sample (`ph:"C"`): one track, one or more stacked series.
    Counter {
        name: String,
        series: Vec<(String, u64)>,
    },
}

/// One recorded event. `ts` is clock units ([`Clock`]), `tid` the
/// recorder-assigned thread id.
#[derive(Clone, Debug)]
pub struct Event {
    pub ts: u64,
    pub tid: u32,
    pub kind: EventKind,
}

/// One per-phase simulator row, pushed by `memsim`'s report adapter so
/// `harness profile` can render a table without re-parsing the trace.
/// `fills`/`writebacks` are per level, fastest first, in lines.
#[derive(Clone, Debug, Default)]
pub struct PhaseRow {
    pub phase: String,
    pub wall_ns: u128,
    /// Simulator accesses attributed to the phase (words touched).
    pub accesses: u64,
    pub fills: Vec<u64>,
    pub writebacks: Vec<u64>,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

struct TidAssign {
    map: HashMap<ThreadId, u32>,
    next: u32,
}

/// In-memory event collector. Cheap to share (`Arc`); all methods take
/// `&self`.
pub struct Recorder {
    clock: Clock,
    reuse: bool,
    events: Mutex<Vec<Event>>,
    tids: Mutex<TidAssign>,
    phases: Mutex<Vec<PhaseRow>>,
}

impl Recorder {
    pub fn new(clock: Clock) -> Recorder {
        Recorder {
            clock,
            reuse: false,
            events: Mutex::new(Vec::new()),
            tids: Mutex::new(TidAssign {
                map: HashMap::new(),
                next: 0,
            }),
            phases: Mutex::new(Vec::new()),
        }
    }

    /// Request the reuse-distance histogram from every simulated cell
    /// run while this recorder is installed: `simmed` tees its accesses
    /// into a Mattson stack (more expensive), `stack` already has one.
    pub fn with_reuse(mut self) -> Recorder {
        self.reuse = true;
        self
    }

    pub(crate) fn wants_reuse(&self) -> bool {
        self.reuse
    }

    fn tid(&self) -> u32 {
        let mut t = self.tids.lock().unwrap();
        let id = std::thread::current().id();
        if let Some(&v) = t.map.get(&id) {
            return v;
        }
        let v = t.next;
        t.next += 1;
        t.map.insert(id, v);
        v
    }

    fn push(&self, kind: EventKind) {
        let tid = self.tid();
        let mut ev = self.events.lock().unwrap();
        // Read the clock inside the lock: list order == ts order.
        let ts = self.clock.now();
        ev.push(Event { ts, tid, kind });
    }

    pub(crate) fn begin(&self, name: &str, cat: &'static str) {
        self.push(EventKind::Begin {
            name: name.to_string(),
            cat,
        });
    }

    pub(crate) fn end(&self, name: &str, cat: &'static str) {
        self.push(EventKind::End {
            name: name.to_string(),
            cat,
        });
    }

    pub(crate) fn instant(&self, name: &str, cat: &'static str) {
        self.push(EventKind::Instant {
            name: name.to_string(),
            cat,
        });
    }

    pub fn counter(&self, name: &str, series: &[(&str, u64)]) {
        self.push(EventKind::Counter {
            name: name.to_string(),
            series: series.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Open a span closed by the returned guard's drop (panic-safe: an
    /// unwind through the guard still emits the `E`).
    pub(crate) fn span(self: &Arc<Self>, name: &str, cat: &'static str) -> SpanGuard {
        self.begin(name, cat);
        SpanGuard {
            inner: Some((Arc::clone(self), name.to_string(), cat)),
        }
    }

    pub fn push_phase_rows(&self, rows: Vec<PhaseRow>) {
        self.phases.lock().unwrap().extend(rows);
    }

    pub fn take_phase_rows(&self) -> Vec<PhaseRow> {
        std::mem::take(&mut self.phases.lock().unwrap())
    }

    pub fn num_events(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Snapshot of the recorded events (tests / ad-hoc inspection).
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Serialize as Chrome trace-event JSON (object form, `traceEvents`
    /// array), one event per line. Opens in Perfetto / chrome://tracing.
    pub fn to_chrome_json(&self) -> String {
        let ev = self.events.lock().unwrap();
        let mut s = String::with_capacity(ev.len() * 96 + 32);
        s.push_str("{\"traceEvents\":[");
        for (i, e) in ev.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n{\"name\":");
            let (EventKind::Begin { name, .. }
            | EventKind::End { name, .. }
            | EventKind::Instant { name, .. }
            | EventKind::Counter { name, .. }) = &e.kind;
            json_string(&mut s, name);
            let _ = match &e.kind {
                EventKind::Begin { cat, .. } => write!(s, ",\"cat\":\"{cat}\",\"ph\":\"B\""),
                EventKind::End { cat, .. } => write!(s, ",\"cat\":\"{cat}\",\"ph\":\"E\""),
                EventKind::Instant { cat, .. } => {
                    write!(s, ",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\"")
                }
                EventKind::Counter { .. } => write!(s, ",\"cat\":\"obs\",\"ph\":\"C\""),
            };
            let _ = write!(s, ",\"ts\":{},\"pid\":1,\"tid\":{}", e.ts, e.tid);
            if let EventKind::Counter { series, .. } = &e.kind {
                s.push_str(",\"args\":{");
                for (j, (k, v)) in series.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    json_string(&mut s, k);
                    let _ = write!(s, ":{v}");
                }
                s.push('}');
            }
            s.push('}');
        }
        s.push_str("\n]}\n");
        s
    }
}

/// RAII span: emits the matching `E` on drop. A disabled guard (no
/// recorder installed at open) is a no-op.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    inner: Option<(Arc<Recorder>, String, &'static str)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, name, cat)) = self.inner.take() {
            rec.end(&name, cat);
        }
    }
}

// ---- global install point -------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<Recorder>>> {
    static S: OnceLock<Mutex<Option<Arc<Recorder>>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

/// Install `rec` as the process-wide recorder. Instrumentation routed
/// through the free functions starts landing in it immediately.
pub fn install(rec: Arc<Recorder>) {
    *slot().lock().unwrap() = Some(rec);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Remove and return the installed recorder (if any); instrumentation
/// goes back to no-ops.
pub fn uninstall() -> Option<Arc<Recorder>> {
    ACTIVE.store(false, Ordering::SeqCst);
    slot().lock().unwrap().take()
}

/// One relaxed atomic load: is a recorder installed? The fast gate every
/// instrumentation site checks first.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The installed recorder, if any.
pub fn active() -> Option<Arc<Recorder>> {
    if !is_active() {
        return None;
    }
    slot().lock().unwrap().clone()
}

/// Did the harness ask for the reuse-distance histogram?
pub fn reuse_requested() -> bool {
    active().map(|r| r.wants_reuse()).unwrap_or(false)
}

/// Open a span against the installed recorder (no-op guard when off).
pub fn span(name: &str, cat: &'static str) -> SpanGuard {
    match active() {
        Some(r) => r.span(name, cat),
        None => SpanGuard { inner: None },
    }
}

/// Emit an instant event (no-op when off).
pub(crate) fn instant(name: &str, cat: &'static str) {
    if let Some(r) = active() {
        r.instant(name, cat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_traces_are_deterministic() {
        let run = || {
            let rec = Arc::new(Recorder::new(Clock::logical()));
            {
                let _outer = rec.span("outer", "test");
                rec.instant("tick", "test");
                let _inner = rec.span("inner", "test");
                rec.counter("c", &[("x", 7), ("y", 9)]);
            }
            rec.to_chrome_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same events, same bytes");
        assert!(a.contains("\"ph\":\"B\""));
        assert!(a.contains("\"args\":{\"x\":7,\"y\":9}"));
    }

    #[test]
    fn spans_balance_and_ts_is_monotone() {
        let rec = Arc::new(Recorder::new(Clock::wall()));
        for i in 0..5 {
            let _g = rec.span(&format!("s{i}"), "test");
            rec.instant("in-span", "test");
        }
        let ev = rec.events();
        assert_eq!(ev.len(), 15);
        let mut depth = 0i64;
        let mut last = 0u64;
        for e in &ev {
            assert!(e.ts >= last, "ts must be non-decreasing");
            last = e.ts;
            match e.kind {
                EventKind::Begin { .. } => depth += 1,
                EventKind::End { .. } => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "every B has an E");
    }

    #[test]
    fn guard_closes_span_on_panic() {
        let rec = Arc::new(Recorder::new(Clock::logical()));
        let r2 = Arc::clone(&rec);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _g = r2.span("doomed", "test");
            panic!("boom");
        }));
        let ev = rec.events();
        assert_eq!(ev.len(), 2);
        assert!(matches!(ev[1].kind, EventKind::End { .. }));
    }

    #[test]
    fn tids_assigned_in_first_use_order() {
        let rec = Arc::new(Recorder::new(Clock::logical()));
        rec.instant("main-first", "test");
        let r2 = Arc::clone(&rec);
        std::thread::spawn(move || r2.instant("worker", "test"))
            .join()
            .unwrap();
        rec.instant("main-again", "test");
        let ev = rec.events();
        assert_eq!(ev[0].tid, 0);
        assert_eq!(ev[1].tid, 1);
        assert_eq!(ev[2].tid, 0);
    }

    #[test]
    fn names_are_json_escaped() {
        let rec = Arc::new(Recorder::new(Clock::logical()));
        rec.instant("quote\"back\\slash", "test");
        let json = rec.to_chrome_json();
        assert!(json.contains("quote\\\"back\\\\slash"));
    }

    #[test]
    fn global_install_routes_and_uninstall_stops() {
        // The one test that touches process-global state; other tests in
        // this binary use recorder-local APIs only, so concurrent test
        // threads may add events here (engine tests run instrumented) —
        // assert only on events this test emits.
        let rec = Arc::new(Recorder::new(Clock::wall()));
        install(Arc::clone(&rec));
        assert!(is_active());
        {
            let _g = span("global-span", "obs-test");
            instant("global-instant", "obs-test");
            rec.counter("global-counter", &[("v", 1)]);
        }
        let got = uninstall().expect("a recorder was installed");
        assert!(Arc::ptr_eq(&got, &rec));
        assert!(!is_active());
        assert!(active().is_none());
        let before = rec.num_events();
        instant("after-uninstall", "obs-test");
        assert_eq!(rec.num_events(), before, "uninstalled: no new events");
        let mine: Vec<Event> = rec
            .events()
            .into_iter()
            .filter(|e| match &e.kind {
                EventKind::Begin { cat, .. }
                | EventKind::End { cat, .. }
                | EventKind::Instant { cat, .. } => *cat == "obs-test",
                EventKind::Counter { name, .. } => name == "global-counter",
            })
            .collect();
        assert_eq!(mine.len(), 4, "B, instant, counter, E");
    }
}
