//! The execution-engine layer: backends, scales, the [`Workload`] type,
//! and the [`Registry`] the harness drives.
//!
//! Every algorithm variant in the workspace registers once (name, group,
//! supported backends, run function). The harness then offers a uniform
//! surface — `harness list`, `harness run <workload> --backend <b>` — and
//! cross-model checks can programmatically run the *same* workload on the
//! explicit-movement model and the cache simulator and compare
//! [`crate::report::RunReport`]s.

use crate::fault::{FaultKind, FaultPlan};
use crate::report::RunReport;
use crate::traffic::Traffic;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// How a workload executes and how its traffic is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Plain execution on raw memory: numerics + wall clock, no traffic.
    Raw,
    /// Every access walks the multi-level cache simulator; boundary
    /// traffic is derived from fill/victim counters.
    Simmed,
    /// Accesses are recorded to an address trace; the report carries
    /// trace statistics (length, distinct lines).
    Traced,
    /// The algorithm issues explicit block `load`/`store` operations whose
    /// word counts are exact (the paper's Sections 2/4 accounting).
    Explicit,
    /// Single-pass Mattson stack simulation: the same access stream as
    /// `Simmed`, but projected into exact FA-LRU fills/write-backs for
    /// *every* capacity at once (a [`crate::curve::CapacityCurve`]).
    Stack,
}

impl BackendKind {
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Raw => "raw",
            BackendKind::Simmed => "simmed",
            BackendKind::Traced => "traced",
            BackendKind::Explicit => "explicit",
            BackendKind::Stack => "stack",
        }
    }

    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "raw" => Some(BackendKind::Raw),
            "simmed" | "sim" => Some(BackendKind::Simmed),
            "traced" | "trace" => Some(BackendKind::Traced),
            "explicit" => Some(BackendKind::Explicit),
            "stack" => Some(BackendKind::Stack),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Problem-size scale. The geometry mapping (cache capacities, matrix
/// dimensions) lives with the crates that own those notions; this enum is
/// just the shared selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Fast default: L3 capacity ÷256 vs. the paper's Xeon (L1/L2 stay at
    /// the ÷64 floor), dimensions ÷16.
    Small,
    /// Reference scale: capacities ÷64, dimensions ÷8.
    Paper,
}

impl Scale {
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Hierarchy depths the engine will even consider dispatching. No
/// workload models more than 3 levels today; anything past this cap is a
/// typo'd config, rejected at the registry boundary before a kernel can
/// trip over it.
pub(crate) const MAX_DEPTH_CAP: usize = 8;

/// One execution scenario: backend, scale, and — for the traffic-counting
/// backends — the modeled hierarchy depth, plus an optional deadline.
///
/// `depth` is the number of explicit/simulated cache levels between the
/// processor and the backing store: 1 is the classical two-level model of
/// the paper's Section 2 (one boundary), 3 is the full Xeon-style
/// L1/L2/L3/DRAM hierarchy (three boundaries). Backends that do not model
/// a hierarchy (`raw`, `traced`) ignore it; workloads advertise what they
/// can model through [`Workload::max_depth`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunCfg {
    pub backend: BackendKind,
    pub scale: Scale,
    pub depth: usize,
    /// Wall-clock deadline of the dispatch; `None` (the default) waits
    /// forever. The attempt is cancelled at its first checkpoint after
    /// the deadline (see [`crate::cancel`]). It never changes what a
    /// workload computes, so [`RunCfg::cell_key`] leaves it out: a
    /// journal written under one timeout resumes cleanly under another.
    pub timeout: Option<Duration>,
}

impl RunCfg {
    /// The default scenario: depth 1 (the two-level model), no deadline.
    pub fn new(backend: BackendKind, scale: Scale) -> Self {
        RunCfg::with_depth(backend, scale, 1)
    }

    pub fn with_depth(backend: BackendKind, scale: Scale, depth: usize) -> Self {
        RunCfg {
            backend,
            scale,
            depth,
            timeout: None,
        }
    }

    /// Builder form for attaching a deadline to a scenario.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Canonical identity of the (workload, scenario) cell: the fields
    /// that determine the *result*, serialized in one fixed order. The
    /// timeout is execution policy, not identity, and is excluded — the
    /// same cell under a different timeout is the same cell.
    pub fn cell_key(&self, workload: &str) -> String {
        format!(
            "{workload}|{}|{}|{}",
            self.backend.as_str(),
            self.scale.as_str(),
            self.depth
        )
    }

    /// Parse a [`RunCfg::cell_key`] back into `(workload, cfg)` — the
    /// round-trip the sweep journal's stability property test exercises.
    pub fn parse_cell_key(key: &str) -> Option<(String, RunCfg)> {
        let mut parts = key.split('|');
        let workload = parts.next()?.to_string();
        let backend = BackendKind::parse(parts.next()?)?;
        let scale = Scale::parse(parts.next()?)?;
        let depth: usize = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some((workload, RunCfg::with_depth(backend, scale, depth)))
    }

    /// Stable 64-bit hash of [`RunCfg::cell_key`] (FNV-1a). Deterministic
    /// across processes and field construction order — the journal key.
    pub fn config_hash(&self, workload: &str) -> u64 {
        fnv1a64(self.cell_key(workload).as_bytes())
    }

    /// Reject degenerate scenarios with typed errors before dispatch:
    /// depth 0 or past [`MAX_DEPTH_CAP`], or a zero timeout.
    /// Workload-relative depth limits (`max_depth`) are still checked by
    /// the workload itself.
    pub(crate) fn validate(&self, workload: &str) -> Result<(), EngineError> {
        let invalid = |field: &'static str, value: String, reason: &str| {
            Err(EngineError::InvalidConfig {
                workload: workload.to_string(),
                field,
                value,
                reason: reason.to_string(),
            })
        };
        if self.depth == 0 {
            return invalid("depth", "0".into(), "hierarchy depth is 1-based");
        }
        if self.depth > MAX_DEPTH_CAP {
            return invalid(
                "depth",
                self.depth.to_string(),
                "exceeds the engine-wide depth cap",
            );
        }
        if self.timeout == Some(Duration::ZERO) {
            return invalid("timeout", "0".into(), "a zero deadline can never be met");
        }
        Ok(())
    }
}

/// FNV-1a over bytes: tiny, dependency-free, stable across platforms.
/// Public because the sweep journal reuses it as the per-record checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a run could not produce a report.
#[derive(Clone, Debug)]
pub enum EngineError {
    UnknownWorkload {
        name: String,
    },
    UnsupportedBackend {
        workload: String,
        backend: BackendKind,
        supported: Vec<BackendKind>,
    },
    UnsupportedDepth {
        workload: String,
        backend: BackendKind,
        depth: usize,
        max: usize,
    },
    /// A scenario field failed `RunCfg::validate` at the engine boundary.
    InvalidConfig {
        workload: String,
        field: &'static str,
        value: String,
        reason: String,
    },
    /// The dispatch panicked; the payload was contained by the engine.
    Panicked {
        workload: String,
        payload: String,
    },
    /// A checkpoint saw the attempt's [`crate::cancel::CancelToken`]
    /// cancelled — its deadline passed or the process was interrupted —
    /// and the attempt unwound cooperatively. `after_accesses` is the
    /// observing clock's word count at that checkpoint.
    Cancelled {
        workload: String,
        reason: crate::cancel::CancelReason,
        after_accesses: u64,
        elapsed: Duration,
    },
    /// The attempt produced a report that failed
    /// [`RunReport::validate`]'s structural invariants.
    ReportInvariant {
        workload: String,
        violation: String,
    },
    Failed {
        workload: String,
        message: String,
    },
}

impl EngineError {
    /// Short machine-readable kind tag — the sweep journal/CSV `status`
    /// vocabulary (`ok` is the success tag alongside these).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::UnknownWorkload { .. } => "unknown-workload",
            EngineError::UnsupportedBackend { .. } => "unsupported-backend",
            EngineError::UnsupportedDepth { .. } => "unsupported-depth",
            EngineError::InvalidConfig { .. } => "invalid-config",
            EngineError::Panicked { .. } => "panicked",
            EngineError::Cancelled { .. } => "cancelled",
            EngineError::ReportInvariant { .. } => "report-invariant",
            EngineError::Failed { .. } => "failed",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownWorkload { name } => {
                write!(f, "unknown workload `{name}` (try `harness list`)")
            }
            EngineError::UnsupportedBackend {
                workload,
                backend,
                supported,
            } => {
                let names: Vec<&str> = supported.iter().map(|b| b.as_str()).collect();
                write!(
                    f,
                    "workload `{workload}` does not support backend `{backend}` (supported: {})",
                    names.join(", ")
                )
            }
            EngineError::UnsupportedDepth {
                workload,
                backend,
                depth,
                max,
            } => {
                write!(
                    f,
                    "workload `{workload}` on `{backend}` models hierarchy depths 1..={max}, \
                     not {depth}"
                )
            }
            EngineError::InvalidConfig {
                workload,
                field,
                value,
                reason,
            } => {
                write!(
                    f,
                    "invalid config for `{workload}`: {field} = {value} ({reason})"
                )
            }
            EngineError::Panicked { workload, payload } => {
                write!(f, "workload `{workload}` panicked: {payload}")
            }
            EngineError::Cancelled {
                workload,
                reason,
                after_accesses,
                elapsed,
            } => {
                write!(
                    f,
                    "workload `{workload}` cancelled ({}) after {after_accesses} accesses, \
                     {:.1} ms",
                    reason.as_str(),
                    elapsed.as_secs_f64() * 1e3
                )
            }
            EngineError::ReportInvariant {
                workload,
                violation,
            } => {
                write!(
                    f,
                    "workload `{workload}` report invariant violated: {violation}"
                )
            }
            EngineError::Failed { workload, message } => {
                write!(f, "workload `{workload}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// How a workload's `explicit` and `simmed` slow-memory writes relate:
/// the paper's two independent counts of one algorithm, declared where
/// the workload registers (see [`Workload::agreement`]).
#[derive(Clone, Copy, Debug)]
pub enum Agreement {
    /// Equal stores at every boundary the two reports share, counted from
    /// the fast end (Propositions 6.1/6.2 with line-aligned blockings).
    Exact,
    /// [`Agreement::Exact`] after multiplying the explicit count by a unit
    /// factor (n-body counts particles, the simulator words).
    ExactTimes(u64),
    /// A closed form of the explicit report's config echo: the
    /// `(explicit, simmed)` stores at the backing-store boundary, for
    /// orders whose two counts differ by a derived amount.
    Derived(fn(&RunReport) -> (u64, u64)),
    /// Distributed cells, anchored at the slow end: equal stores at the
    /// NVM boundary (second-to-last) and a verbatim network boundary
    /// (last), whatever the number of per-rank cache levels above them.
    SlowEnd,
}

impl Agreement {
    /// Check `explicit` against `simmed`: every compared count must be
    /// positive and equal. The error names the first that is not.
    pub fn check(self, explicit: &RunReport, simmed: &RunReport) -> Result<(), String> {
        let (e, s) = (&explicit.boundaries, &simmed.boundaries);
        let same = |what: &str, a: u64, b: u64| {
            if a > 0 && a == b {
                Ok(())
            } else {
                Err(format!("{what}: {a} vs {b}"))
            }
        };
        match self {
            Agreement::Exact => Agreement::ExactTimes(1).check(explicit, simmed),
            Agreement::ExactTimes(f) => {
                let shared = e.len().min(s.len());
                if shared == 0 {
                    return Err("no boundary shared by the two reports".to_string());
                }
                (0..shared).try_for_each(|b| {
                    let what = format!("boundary {b} stores, explicit ×{f} vs simmed");
                    same(&what, e[b].store_words * f, s[b].store_words)
                })
            }
            Agreement::Derived(form) => {
                let (want_e, want_s) = form(explicit);
                same("explicit vs closed form", explicit.writes_to_slow(), want_e)?;
                same("simmed vs closed form", simmed.writes_to_slow(), want_s)
            }
            Agreement::SlowEnd => {
                let nvm = |t: &[Traffic]| t.len().checked_sub(2).map_or(0, |i| t[i].store_words);
                same("NVM stores, explicit vs simmed", nvm(e), nvm(s))?;
                if e.last() != s.last() {
                    let (ne, ns) = (e.last(), s.last());
                    return Err(format!("network: explicit {ne:?} vs simmed {ns:?}"));
                }
                Ok(())
            }
        }
    }
}

/// One registered algorithm variant: its registry data, its per-backend
/// depth limits, its cross-model [`Agreement`] and its run closure.
pub struct Workload {
    name: &'static str,
    group: &'static str,
    description: &'static str,
    backends: Vec<BackendKind>,
    /// `(backend, max depth)` overrides; backends not listed model depth 1.
    depths: Vec<(BackendKind, usize)>,
    agreement: Option<Agreement>,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn(RunCfg) -> Result<RunReport, EngineError> + Send + Sync>,
}

impl Workload {
    /// A workload from its registry data and its run closure. It models
    /// depth 1 on every backend until [`Workload::depth`] says otherwise.
    pub fn new(
        name: &'static str,
        group: &'static str,
        description: &'static str,
        backends: &[BackendKind],
        run: impl Fn(RunCfg) -> Result<RunReport, EngineError> + Send + Sync + 'static,
    ) -> Workload {
        Workload {
            name,
            group,
            description,
            backends: backends.to_vec(),
            depths: Vec::new(),
            agreement: None,
            run: Box::new(run),
        }
    }

    /// Model hierarchies up to `max` cache levels deep on `backend`.
    pub fn depth(mut self, backend: BackendKind, max: usize) -> Workload {
        self.depths.push((backend, max));
        self
    }

    /// Declare how this workload's `explicit` and `simmed` slow-memory
    /// writes relate. Every workload that runs on both must declare one.
    pub fn agreement(mut self, agreement: Agreement) -> Workload {
        self.agreement = Some(agreement);
        self
    }

    /// The declared cross-model relation, if any.
    pub fn cross_model(&self) -> Option<Agreement> {
        self.agreement
    }

    /// Registry name, unique, kebab-case (e.g. `matmul-wa`).
    pub fn name(&self) -> &str {
        self.name
    }

    /// Owning group — by convention the crate name (`dense`, `nbody`, …).
    pub fn group(&self) -> &str {
        self.group
    }

    /// One-line description (paper artifact it reproduces).
    pub fn description(&self) -> &str {
        self.description
    }

    /// Backends this workload can execute on.
    pub fn backends(&self) -> &[BackendKind] {
        &self.backends
    }

    /// Deepest hierarchy this workload can model on `backend` (number of
    /// cache levels between the processor and the backing store). Most
    /// workloads model the classical two-level setting only (depth 1).
    pub fn max_depth(&self, backend: BackendKind) -> usize {
        self.depths
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|(_, d)| *d)
            .unwrap_or(1)
    }

    /// Execute the scenario described by `cfg`.
    pub fn run_cfg(&self, cfg: RunCfg) -> Result<RunReport, EngineError> {
        if !self.supports(cfg.backend) {
            return Err(EngineError::UnsupportedBackend {
                workload: self.name.to_string(),
                backend: cfg.backend,
                supported: self.backends.clone(),
            });
        }
        let max = self.max_depth(cfg.backend);
        if cfg.depth < 1 || cfg.depth > max {
            return Err(EngineError::UnsupportedDepth {
                workload: self.name.to_string(),
                backend: cfg.backend,
                depth: cfg.depth,
                max,
            });
        }
        (self.run)(cfg)
    }

    /// Execute on `backend` at `scale` in the two-level model (depth 1).
    pub fn run(&self, backend: BackendKind, scale: Scale) -> Result<RunReport, EngineError> {
        self.run_cfg(RunCfg::new(backend, scale))
    }

    pub fn supports(&self, backend: BackendKind) -> bool {
        self.backends.contains(&backend)
    }
}

/// Name-indexed collection of workloads. Registration order is preserved
/// for listing; lookup is by exact name.
///
/// Dispatch through [`Registry::run_cfg`] is *fault-isolated*: every run
/// is one attempt on the caller's thread under `catch_unwind` (a
/// panicking workload becomes [`EngineError::Panicked`], not a process
/// abort), and the scenario's [`RunCfg::timeout`] rides in the attempt's
/// cancel token. An installed [`FaultPlan`] injects faults inside this
/// guarded path. A failed cell is re-run by dispatching it again, as
/// `harness sweep --resume` does.
#[derive(Default)]
pub struct Registry {
    order: Vec<String>,
    by_name: BTreeMap<String, Workload>,
    fault_plan: Option<FaultPlan>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register one workload. Panics on a duplicate name: duplicates are
    /// always a programming error in the registering crate.
    pub fn register(&mut self, w: Workload) {
        let name = w.name().to_string();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate workload registration: {name}"
        );
        self.order.push(name.clone());
        self.by_name.insert(name, w);
    }

    /// Install a deterministic fault-injection plan; every subsequent
    /// dispatch consults it. `None` clears it.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Register a whole batch (the per-crate `workloads()` vectors).
    pub fn register_all(&mut self, ws: Vec<Workload>) {
        for w in ws {
            self.register(w);
        }
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Workload> {
        self.by_name.get(name)
    }

    /// Workloads in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Workload> {
        self.order.iter().map(|n| &self.by_name[n])
    }

    /// Run `name` on `backend` at `scale` in the two-level model.
    pub fn run(
        &self,
        name: &str,
        backend: BackendKind,
        scale: Scale,
    ) -> Result<RunReport, EngineError> {
        self.run_cfg(name, RunCfg::new(backend, scale))
    }

    /// Run `name` under the full scenario `cfg` (backend, scale, depth,
    /// timeout) with fault isolation. See [`Registry::run_cfg_traced`].
    pub fn run_cfg(&self, name: &str, cfg: RunCfg) -> Result<RunReport, EngineError> {
        self.run_cfg_traced(name, cfg).0
    }

    /// Fault-isolated dispatch, also reporting how many attempts were
    /// made: 1 once dispatch began, 0 for a config error caught before it.
    ///
    /// The one attempt applies an injected fault (if a plan is installed
    /// and a rule fires) inside the guarded section, runs under
    /// `catch_unwind`, is cancelled at its first checkpoint after
    /// `cfg.timeout` when one is set, and checks the report with
    /// [`RunReport::validate`].
    pub fn run_cfg_traced(&self, name: &str, cfg: RunCfg) -> (Result<RunReport, EngineError>, u32) {
        let Some(w) = self.by_name.get(name) else {
            return (
                Err(EngineError::UnknownWorkload {
                    name: name.to_string(),
                }),
                0,
            );
        };
        if let Err(e) = cfg.validate(name) {
            return (Err(e), 0);
        }
        let _attempt_span = crate::obs::span("attempt", "engine");
        let fault = self.fault_plan.as_ref().and_then(|p| p.on_invocation(name));
        (run_guarded(w, name, cfg, fault), 1)
    }
}

/// Trace-instant name for an injected fault.
fn fault_tag(f: FaultKind) -> &'static str {
    match f {
        FaultKind::Panic => "fault:panic",
        FaultKind::Stall(_) => "fault:stall",
        FaultKind::Corrupt => "fault:corrupt",
    }
}

/// One guarded attempt on the caller's thread: install a fresh cancel
/// token carrying the attempt's deadline, inject the fault, run the
/// workload, and convert an unwind into [`EngineError::Cancelled`] (a
/// checkpoint saw the token cancelled) or [`EngineError::Panicked`].
/// The deadline counts from `t0`, and a checkpoint only reports it once
/// it has passed, so a deadline cancel never reports less than its
/// deadline.
fn run_guarded(
    w: &Workload,
    name: &str,
    cfg: RunCfg,
    fault: Option<FaultKind>,
) -> Result<RunReport, EngineError> {
    let t0 = Instant::now();
    // A deadline too far away to represent is no deadline.
    let token = match cfg.timeout.and_then(|d| t0.checked_add(d)) {
        Some(deadline) => crate::cancel::CancelToken::with_deadline(deadline),
        None => crate::cancel::CancelToken::new(),
    };
    let _guard = crate::cancel::install(token);
    crate::cancel::silence_cancellation_unwinds();
    let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // The guard closes the span on every exit from this closure,
        // including the unwind of an (injected or genuine) panic.
        let _run_span = crate::obs::span("run", "engine");
        if let Some(f) = fault {
            crate::obs::instant(fault_tag(f), "engine");
        }
        match fault {
            Some(FaultKind::Panic) => panic!("fault-injected panic in `{name}`"),
            // A cooperative stall: observes the cancel token in 10 ms
            // slices, so a stalled cell yields `Cancelled` under a
            // deadline.
            Some(FaultKind::Stall(d)) => crate::cancel::sleep_cooperatively(d),
            Some(FaultKind::Corrupt) | None => {}
        }
        let mut r = w.run_cfg(cfg)?;
        if fault == Some(FaultKind::Corrupt) {
            crate::fault::corrupt_report(&mut r);
        }
        r.validate()
            .map_err(|violation| EngineError::ReportInvariant {
                workload: name.to_string(),
                violation,
            })?;
        Ok(r)
    }));
    match unwound {
        Ok(inner) => inner,
        Err(payload) => {
            if let Some(c) = payload.downcast_ref::<crate::cancel::CancellationUnwind>() {
                return Err(EngineError::Cancelled {
                    workload: name.to_string(),
                    reason: c.reason,
                    after_accesses: c.after_accesses,
                    elapsed: t0.elapsed(),
                });
            }
            Err(EngineError::Panicked {
                workload: name.to_string(),
                payload: crate::par::panic_payload_message(payload),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(name: &'static str) -> Workload {
        Workload::new(
            name,
            "test",
            "a test workload",
            &[BackendKind::Raw],
            move |cfg| Ok(RunReport::new(name, cfg.backend, cfg.scale)),
        )
    }

    #[test]
    fn agreement_check_names_each_kind_of_mismatch() {
        let rep = |stores: &[u64]| RunReport {
            boundaries: stores
                .iter()
                .map(|&w| Traffic {
                    store_words: w,
                    ..Traffic::ZERO
                })
                .collect(),
            ..RunReport::new("w", BackendKind::Explicit, Scale::Small)
        };
        let err = |a: Agreement, e: &[u64], s: &[u64]| a.check(&rep(e), &rep(s)).unwrap_err();
        assert!(Agreement::Exact.check(&rep(&[3, 5]), &rep(&[3])).is_ok());
        assert!(err(Agreement::Exact, &[3, 5], &[3, 6]).contains("boundary 1"));
        assert!(err(Agreement::Exact, &[0], &[0]).contains("0 vs 0"));
        assert!(err(Agreement::Exact, &[], &[1]).contains("no boundary"));
        assert!(Agreement::ExactTimes(4)
            .check(&rep(&[2]), &rep(&[8]))
            .is_ok());
        let form = Agreement::Derived(|r| (r.writes_to_slow(), 9));
        assert!(form.check(&rep(&[5]), &rep(&[9])).is_ok());
        assert!(err(form, &[5], &[8]).contains("simmed vs closed form: 8 vs 9"));
        assert!(Agreement::SlowEnd
            .check(&rep(&[1, 4, 7]), &rep(&[2, 9, 4, 7]))
            .is_ok());
        assert!(err(Agreement::SlowEnd, &[1, 4, 7], &[5, 7]).contains("NVM"));
        assert!(err(Agreement::SlowEnd, &[1, 4, 7], &[4, 8]).contains("network"));
    }

    #[test]
    fn register_lookup_run() {
        let mut r = Registry::new();
        r.register(dummy("w1"));
        r.register(dummy("w2"));
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.iter().map(|w| w.name().to_string()).collect::<Vec<_>>(),
            ["w1", "w2"]
        );
        let rep = r.run("w1", BackendKind::Raw, Scale::Small).unwrap();
        assert_eq!(rep.workload, "w1");
    }

    #[test]
    fn unsupported_backend_lists_supported() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        let (res, attempts) = r.run_cfg_traced("w", RunCfg::new(BackendKind::Simmed, Scale::Small));
        let msg = res.unwrap_err().to_string();
        assert!(msg.contains("does not support"), "{msg}");
        assert!(msg.contains("raw"), "{msg}");
        assert_eq!(
            attempts, 1,
            "the workload itself refuses, inside the attempt"
        );
    }

    #[test]
    fn unknown_workload_is_reported() {
        let r = Registry::new();
        assert!(matches!(
            r.run("nope", BackendKind::Raw, Scale::Small),
            Err(EngineError::UnknownWorkload { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate workload registration")]
    fn duplicate_names_panic() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        r.register(dummy("w"));
    }

    #[test]
    fn depth_defaults_to_one_and_overrides_apply() {
        let w = Workload::new(
            "deep",
            "test",
            "a depth-aware workload",
            &[BackendKind::Raw, BackendKind::Simmed],
            |cfg| Ok(RunReport::new("deep", cfg.backend, cfg.scale).config("depth", cfg.depth)),
        )
        .depth(BackendKind::Simmed, 3);
        assert_eq!(w.max_depth(BackendKind::Raw), 1);
        assert_eq!(w.max_depth(BackendKind::Simmed), 3);
        // In-range depth runs; the report sees the requested depth.
        let r = w
            .run_cfg(RunCfg::with_depth(BackendKind::Simmed, Scale::Small, 3))
            .unwrap();
        assert!(r.config.iter().any(|(k, v)| k == "depth" && v == "3"));
        // Out-of-range depth is a structured error naming the maximum.
        let err = w
            .run_cfg(RunCfg::with_depth(BackendKind::Raw, Scale::Small, 2))
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnsupportedDepth {
                depth: 2,
                max: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("depths 1..=1"), "{err}");
        // run() is the depth-1 scenario.
        assert!(w.run(BackendKind::Simmed, Scale::Small).is_ok());
    }

    #[test]
    fn registry_contains_workload_panics() {
        let mut r = Registry::new();
        r.register(Workload::new(
            "bomb",
            "test",
            "panics on dispatch",
            &[BackendKind::Raw],
            |_| panic!("kernel exploded at depth 7"),
        ));
        let err = r.run("bomb", BackendKind::Raw, Scale::Small).unwrap_err();
        match &err {
            EngineError::Panicked { workload, payload } => {
                assert_eq!(workload, "bomb");
                assert!(payload.contains("kernel exploded"), "{payload}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(err.kind(), "panicked");
    }

    #[test]
    fn degenerate_configs_are_rejected_at_the_boundary() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        let base = RunCfg::new(BackendKind::Raw, Scale::Small);
        for (cfg, field) in [
            (RunCfg { depth: 0, ..base }, "depth"),
            (
                RunCfg {
                    depth: MAX_DEPTH_CAP + 1,
                    ..base
                },
                "depth",
            ),
            (base.with_timeout(Some(Duration::ZERO)), "timeout"),
        ] {
            let (res, attempts) = r.run_cfg_traced("w", cfg);
            match res {
                Err(EngineError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
            assert_eq!(attempts, 0, "invalid configs must never dispatch");
        }
        // Unknown workloads still win over field validation context-wise.
        assert!(matches!(
            r.run_cfg("nope", RunCfg { depth: 0, ..base }),
            Err(EngineError::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn cell_key_round_trips_and_hash_ignores_limits() {
        let cfg = RunCfg::with_depth(BackendKind::Simmed, Scale::Paper, 3);
        let key = cfg.cell_key("matmul-wa");
        assert_eq!(key, "matmul-wa|simmed|paper|3");
        let (w, parsed) = RunCfg::parse_cell_key(&key).unwrap();
        assert_eq!(w, "matmul-wa");
        assert_eq!(
            parsed.config_hash("matmul-wa"),
            cfg.config_hash("matmul-wa")
        );
        // The timeout is execution policy, not cell identity.
        let limited = cfg.with_timeout(Some(Duration::from_secs(1)));
        assert_eq!(
            limited.config_hash("matmul-wa"),
            cfg.config_hash("matmul-wa")
        );
        // Different cells hash differently (FNV over distinct keys).
        assert_ne!(
            cfg.config_hash("matmul-wa"),
            cfg.config_hash("matmul-nonwa")
        );
        assert!(RunCfg::parse_cell_key("garbage").is_none());
        assert!(RunCfg::parse_cell_key("w|raw|small|1|extra").is_none());
    }

    #[test]
    fn fault_plan_injects_panic_stall_and_corruption() {
        use crate::fault::{FaultPlan, CORRUPTION_OFFSET};
        let mut r = Registry::new();
        r.register(Workload::new(
            "victim",
            "test",
            "healthy unless a fault fires",
            &[BackendKind::Raw],
            |cfg| {
                let mut rep = RunReport::new("victim", cfg.backend, cfg.scale);
                rep.flops = 100;
                Ok(rep)
            },
        ));
        r.set_fault_plan(Some(
            FaultPlan::parse("victim:panic@1,victim:corrupt@2").unwrap(),
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small);
        // Invocation 1: injected panic, contained.
        assert!(matches!(
            r.run_cfg("victim", cfg),
            Err(EngineError::Panicked { .. })
        ));
        // Invocation 2: corrupted counters, marked by a note.
        let rep = r.run_cfg("victim", cfg).unwrap();
        assert_eq!(rep.flops, 100 + CORRUPTION_OFFSET);
        assert!(rep.notes.iter().any(|n| n.contains("fault-injected")));
        // Invocation 3: clean again.
        let rep = r.run_cfg("victim", cfg).unwrap();
        assert_eq!(rep.flops, 100);
    }

    #[test]
    fn cooperative_cancellation_joins_and_reports_accesses() {
        // The workload spins on `cancel::tick`, never finishing on its
        // own. The first checkpoint after the deadline sees the token
        // cancelled and unwinds, so the dispatch returns quickly with
        // `Cancelled` on the caller's thread, not after the (absent)
        // natural end of the run.
        let mut r = Registry::new();
        r.register(Workload::new(
            "spinner",
            "test",
            "ticks forever until cancelled",
            &[BackendKind::Raw],
            |_cfg| loop {
                crate::cancel::tick(1);
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_timeout(Some(Duration::from_millis(50)));
        let t0 = Instant::now();
        let err = r.run_cfg("spinner", cfg).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancelled attempt did not return promptly"
        );
        match err {
            EngineError::Cancelled {
                reason,
                after_accesses,
                elapsed,
                ..
            } => {
                assert_eq!(reason, crate::cancel::CancelReason::Deadline);
                assert!(after_accesses > 0, "accesses-at-cancel must be recorded");
                assert!(elapsed >= Duration::from_millis(50));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(err.kind(), "cancelled");
    }

    #[test]
    fn interrupt_outranks_a_passed_deadline() {
        // The workload sleeps past its deadline without a checkpoint, then
        // fires its token as interrupted: the first checkpoint after that
        // sees both, and the interrupt wins, so Ctrl-C never reads as a
        // deadline. (The process-wide epoch is exercised in its own test
        // binary, `tests/interrupt.rs`.)
        let mut r = Registry::new();
        r.register(Workload::new(
            "late",
            "test",
            "interrupted after its deadline passed",
            &[BackendKind::Raw],
            |_cfg| {
                std::thread::sleep(Duration::from_millis(20));
                crate::cancel::current()
                    .expect("the engine installs a token")
                    .cancel(crate::cancel::CancelReason::Interrupt);
                loop {
                    crate::cancel::tick(1);
                }
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_timeout(Some(Duration::from_millis(1)));
        match r.run_cfg("late", cfg) {
            Err(EngineError::Cancelled { reason, .. }) => {
                assert_eq!(reason, crate::cancel::CancelReason::Interrupt)
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn invalid_reports_surface_as_typed_invariant_errors() {
        use crate::traffic::Traffic;
        // Conservation-violating report: the backing level claims fewer
        // writes than the last boundary stores into it.
        let mut r = Registry::new();
        r.register(Workload::new(
            "liar",
            "test",
            "reports inconsistent counters",
            &[BackendKind::Raw],
            |cfg| {
                let mut rep = RunReport::new("liar", cfg.backend, cfg.scale);
                let mut t = Traffic::ZERO;
                t.load(100);
                t.store(40);
                rep.boundaries = vec![t];
                rep.writes_per_level = vec![100, 39]; // 39 ≠ 40 stored
                Ok(rep)
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small);
        match r.run_cfg("liar", cfg) {
            Err(EngineError::ReportInvariant { violation, .. }) => {
                assert!(violation.contains("conservation"), "{violation}");
            }
            other => panic!("expected ReportInvariant, got {other:?}"),
        }
    }

    #[test]
    fn backend_and_scale_round_trip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.as_str()), Some(b));
        }
        for s in [Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(s.as_str()), Some(s));
        }
        assert_eq!(BackendKind::parse("bogus"), None);
    }
}
