//! perfbench — end-to-end and per-layer host-time benchmark of the
//! write-avoiding workspace. See `README.md` next to this package for the
//! workloads, the metrics and how to read the trace.
//!
//! ```text
//! perfbench --workload <paper-sweep|small-sweep|sim-replay> --seed N --seconds S --trace 0|1
//! perfbench --regen-reference
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to stderr.

mod ledger;
mod procmem;
mod reference;
mod replay;
mod trace;

use ledger::{
    count_mismatches, matched_ratio, median, par_efficiency, ratio, BestTimes, CellTiming,
    EngineLedger, FailTally,
};
use reference::{canonical, Reference};
use replay::{reference_key, replay, Path, Replayed, Stream};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{json_str, layer, Tracer};
use wa_bench::registry::registry;
use wa_core::{BackendKind, Registry, RunCfg, Scale, XorShift};

/// `setup_s` is the median of set-ups repeated in bursts: one burst of at
/// least this many after the warm-up pass and one of at least
/// `SETUP_BURST` after every measured pass. A burst also goes on until it
/// has lasted `SETUP_BURST_MIN_S`, so a sub-millisecond set-up yields
/// dozens of samples even when a run has only a few passes. The first
/// set-up of a burst runs with cold caches and is not counted. Spreading
/// bursts over the run matters on a shared host, where a few milliseconds
/// of back-to-back set-ups all land in whatever fast or slow phase the
/// machine is in.
const SETUP_BURST_FIRST: usize = 5;
const SETUP_BURST: usize = 3;
const SETUP_BURST_MIN_S: f64 = 0.005;

/// Replay passes whose per-path medians feed the traced run's rates.
const TRACED_REPLAY_PASSES: usize = 3;

const BACKENDS: [&str; 5] = ["raw", "simmed", "traced", "explicit", "stack"];
const GROUPS: [&str; 6] = ["dense", "cdag", "krylov", "nbody", "extsort", "parallel"];
const STREAMS: [&str; 2] = ["matmul-wa", "fft"];

/// One printed metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// What a run reports: the failure tally and its metrics.
type RunResult = Result<(FailTally, Vec<Metric>), String>;

/// The end-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics (`--trace 1`), name and unit, in output order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for kind in ["cell_s", "kernel_s", "outside_kernel_s"] {
        for b in BACKENDS {
            m.push((format!("engine.{kind}.{b}"), "s"));
        }
    }
    m.push(("engine.outside_kernel_frac".into(), "frac"));
    for g in GROUPS {
        m.push((format!("engine.cell_s.group.{g}"), "s"));
    }
    m.push(("engine.attempts".into(), "count"));
    for r in ["simmed_vs_raw", "stack_vs_simmed", "traced_vs_simmed"] {
        m.push((format!("engine.ratio.{r}"), "ratio"));
    }
    for r in ["validate_s", "to_json_s", "to_csv_s"] {
        m.push((format!("report.{r}"), "s"));
    }
    m.push(("registry.build_s".into(), "s"));
    for (prefix, unit) in [
        ("memsim.d1.maccess_per_s", "Maccess/s"),
        ("memsim.d3.maccess_per_s", "Maccess/s"),
        ("memsim.memo_hit_frac", "frac"),
        ("stack.maccess_per_s", "Maccess/s"),
        ("stack.curve_s", "s"),
        ("stack.vs_memsim", "ratio"),
        ("traced.maccess_per_s", "Maccess/s"),
        ("traffic.maccess_per_s", "Maccess/s"),
    ] {
        for s in STREAMS {
            m.push((format!("{prefix}.{s}"), unit));
        }
    }
    m.push(("par.wall_s".into(), "s"));
    m.push(("par.efficiency".into(), "frac"));
    m.push(("par.longest_cell_s".into(), "s"));
    m.push(("bench.trace_overhead_frac".into(), "frac"));
    m
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    SmallSweep,
    SimReplay,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-sweep" => Some(Workload::PaperSweep),
            "small-sweep" => Some(Workload::SmallSweep),
            "sim-replay" => Some(Workload::SimReplay),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::SmallSweep => "small-sweep",
            Workload::SimReplay => "sim-replay",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Regen,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv == ["--regen-reference"] {
        return Ok(Mode::Regen);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or("--workload must be paper-sweep, small-sweep or sim-replay")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// One registry cell the benchmark dispatches.
struct Cell {
    key: String,
    workload: String,
    group: String,
    cfg: RunCfg,
}

/// Everything built before the first timed call.
struct Setup {
    reg: Registry,
    /// Host seconds of `registry()`.
    registry_s: f64,
    refs: Reference,
    cells: Vec<Cell>,
    streams: Vec<Stream>,
}

/// The registry cells a workload dispatches, taken from the reference so
/// the cell set stays fixed even if the registry grows.
fn cells_for(w: Workload, reg: &Registry, refs: &Reference) -> Vec<Cell> {
    let want = |wl: &str, cfg: &RunCfg| match w {
        Workload::PaperSweep => cfg.scale == Scale::Paper,
        Workload::SmallSweep => cfg.scale == Scale::Small,
        // The engine's own cells for the replayed streams, which only the
        // traced run dispatches (for its engine ledger).
        Workload::SimReplay => cfg.scale == Scale::Paper && STREAMS.contains(&wl),
    };
    refs.entries
        .iter()
        .filter_map(|(key, _)| RunCfg::parse_cell_key(key).map(|(wl, cfg)| (key, wl, cfg)))
        .filter(|(_, wl, cfg)| want(wl, cfg))
        .map(|(key, wl, cfg)| Cell {
            key: key.clone(),
            group: reg.get(&wl).map_or("?", |w| w.group()).to_string(),
            workload: wl,
            cfg,
        })
        .collect()
}

fn setup(w: Workload, tr: Option<&Tracer>, traced: bool) -> Result<Setup, String> {
    let (reg, registry_s) = layer(tr, "registry()", "registry", registry);
    let (refs, _) = layer(tr, "reference load", "reference", || {
        Reference::load(&reference::default_path())
    });
    let refs = refs?;
    let cells = cells_for(w, &reg, &refs);
    if cells.is_empty() {
        return Err(format!("the reference lists no cells for {}", w.as_str()));
    }
    let streams = if w == Workload::SimReplay || traced {
        vec![
            layer(tr, "record matmul-wa", "record", replay::record_matmul_wa).0,
            layer(tr, "record fft", "record", replay::record_fft).0,
        ]
    } else {
        Vec::new()
    };
    Ok(Setup {
        reg,
        registry_s,
        refs,
        cells,
        streams,
    })
}

/// The order of measured pass `pass` (from 1) under seed `seed`: a
/// deterministic permutation of `0..n`.
fn permutation(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = XorShift::new(seed ^ (pass as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.next_below(i + 1));
    }
    v
}

/// The outcome of one dispatched cell.
struct CellResult<'a> {
    idx: usize,
    /// Host seconds of the whole cell: dispatch, validation, serialization.
    host_s: f64,
    /// Canonical counts of the report, projected after the timing stopped.
    counts: Result<String, String>,
    timing: CellTiming<'a>,
}

/// Host seconds of the report-layer calls of one pass.
#[derive(Default)]
struct ReportTimes {
    validate_s: f64,
    to_json_s: f64,
    to_csv_s: f64,
}

/// Dispatch one cell and do what a sweep does with its report: validate
/// it and serialize it as JSON and CSV.
fn run_cell<'a>(
    s: &'a Setup,
    idx: usize,
    tr: Option<&Tracer>,
    rt: &mut ReportTimes,
) -> CellResult<'a> {
    let c = &s.cells[idx];
    let t0 = Instant::now();
    let ((res, attempts), cell_s) = layer(tr, &c.key, "engine", || {
        s.reg.run_cfg_traced(&c.workload, c.cfg)
    });
    let report = res.map_err(|e| e.to_string()).and_then(|r| {
        let (valid, v_s) = layer(tr, "validate", "report", || r.validate());
        let (json, j_s) = layer(tr, "to_json", "report", || r.to_json());
        let (csv, c_s) = layer(tr, "to_csv", "report", || r.to_csv_row());
        black_box((json, csv));
        rt.validate_s += v_s;
        rt.to_json_s += j_s;
        rt.to_csv_s += c_s;
        valid.map(|_| r)
    });
    let host_s = t0.elapsed().as_secs_f64();
    let kernel_s = report.as_ref().map_or(0.0, |r| r.wall_ns as f64 / 1e9);
    CellResult {
        idx,
        host_s,
        counts: report.as_ref().map(canonical).map_err(Clone::clone),
        timing: CellTiming {
            workload: &c.workload,
            group: &c.group,
            backend: c.cfg.backend.as_str(),
            scale: c.cfg.scale.as_str(),
            depth: c.cfg.depth,
            cell_s,
            kernel_s,
            attempts,
        },
    }
}

/// One pass. `wall_s` sums the items' own host seconds, so the
/// benchmark's bookkeeping between items is not counted.
struct SweepPass<'a> {
    wall_s: f64,
    peak_mb: f64,
    results: Vec<CellResult<'a>>,
    report_times: ReportTimes,
}

fn sweep_pass<'a>(
    s: &'a Setup,
    order: &[usize],
    tr: Option<&Tracer>,
    track_peak: bool,
) -> SweepPass<'a> {
    let mut rt = ReportTimes::default();
    let mut peak_mb: f64 = 0.0;
    let results: Vec<CellResult<'a>> = order
        .iter()
        .map(|&i| {
            if track_peak {
                procmem::begin_item();
            }
            let r = run_cell(s, i, tr, &mut rt);
            if track_peak {
                peak_mb = peak_mb.max(procmem::peak_rss_mb());
            }
            r
        })
        .collect();
    SweepPass {
        wall_s: results.iter().map(|r| r.host_s).sum(),
        peak_mb,
        results,
        report_times: rt,
    }
}

/// Checks every pass's counts byte for byte against the reference. The
/// reference does not depend on the seed, so passes in different orders
/// that all pass produced byte-identical counts.
#[derive(Default)]
struct Checker {
    tally: FailTally,
}

impl Checker {
    /// Record one pass: `(key, counts or error)` per attempted item.
    fn pass(&mut self, refs: &Reference, items: Vec<(String, Result<String, String>)>) {
        for (key, got) in items {
            let ok = match got {
                Ok(c) if refs.get(&key) == Some(c.as_str()) => true,
                Ok(c) => {
                    eprintln!(
                        "{key}: counts differ from the reference:\n  got {c}\n  ref {}",
                        refs.get(&key).unwrap_or("(missing)")
                    );
                    false
                }
                Err(e) => {
                    eprintln!("{key} failed: {e}");
                    false
                }
            };
            self.tally.record(ok);
        }
    }

    /// Record a single check outside any pass.
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("check failed: {what}");
        }
        self.tally.record(ok);
    }
}

fn sweep_items(s: &Setup, pass: &SweepPass) -> Vec<(String, Result<String, String>)> {
    pass.results
        .iter()
        .map(|r| (s.cells[r.idx].key.clone(), r.counts.clone()))
        .collect()
}

/// The ten replay jobs: every stream through every path.
fn replay_jobs(s: &Setup) -> Vec<(usize, Path)> {
    (0..s.streams.len())
        .flat_map(|i| Path::ALL.map(|p| (i, p)))
        .collect()
}

struct ReplayPass {
    wall_s: f64,
    peak_mb: f64,
    results: Vec<(usize, Path, Replayed)>,
}

fn replay_pass(
    s: &Setup,
    jobs: &[(usize, Path)],
    order: &[usize],
    tr: Option<&Tracer>,
    track_peak: bool,
) -> ReplayPass {
    let mut peak_mb: f64 = 0.0;
    let results: Vec<(usize, Path, Replayed)> = order
        .iter()
        .map(|&j| {
            let (i, p) = jobs[j];
            if track_peak {
                procmem::begin_item();
            }
            let r = replay(&s.streams[i], p, tr);
            if track_peak {
                peak_mb = peak_mb.max(procmem::peak_rss_mb());
            }
            (i, p, r)
        })
        .collect();
    ReplayPass {
        wall_s: results.iter().map(|(_, _, r)| r.run_s + r.curve_s).sum(),
        peak_mb,
        results,
    }
}

/// Each replay's counts, or an error when the trace or the traffic tally
/// missed some of the stream's word accesses.
fn replay_items(s: &Setup, pass: &ReplayPass) -> Vec<(String, Result<String, String>)> {
    pass.results
        .iter()
        .map(|(i, p, r)| {
            let st = &s.streams[*i];
            let counts = match r.words_seen {
                Some(w) if w != st.accesses => Err(format!(
                    "saw {w} word accesses of the stream's {}",
                    st.accesses
                )),
                _ => Ok(r.counts.clone()),
            };
            (reference_key(st, *p), counts)
        })
        .collect()
}

/// The replay must be the program's own stream: the depth-1 replay equals
/// the engine's `simmed` cell and the stack replay its `stack` cell.
fn tie_check(s: &Setup, pass: &ReplayPass, chk: &mut Checker) {
    for (i, p, r) in &pass.results {
        let backend = match p {
            Path::MemsimD1 => BackendKind::Simmed,
            Path::Stack => BackendKind::Stack,
            _ => continue,
        };
        let name = s.streams[*i].name;
        let key = RunCfg::new(backend, Scale::Paper).cell_key(name);
        let ok = match (
            s.reg.run_cfg(name, RunCfg::new(backend, Scale::Paper)),
            &r.report,
        ) {
            (Ok(engine), Some(replayed)) => engine.boundaries == replayed.boundaries,
            _ => false,
        };
        chk.check(&format!("replay {} {} equals {key}", name, p.as_str()), ok);
    }
}

/// The warm-up pass: every cell (or replay) once in reference order,
/// checked but not timed. It settles lazy state before the timed passes,
/// and it is where peak memory is measured: the heap is trimmed and the
/// high-water mark reset before each item, so an item's peak does not
/// depend on which items ran before it, and the fixed order keeps it
/// independent of the seed. Returns the largest item peak in MiB.
fn warm_up(s: &Setup, w: Workload, chk: &mut Checker) -> f64 {
    if w == Workload::SimReplay {
        let jobs = replay_jobs(s);
        let order: Vec<usize> = (0..jobs.len()).collect();
        let p = replay_pass(s, &jobs, &order, None, true);
        chk.pass(&s.refs, replay_items(s, &p));
        tie_check(s, &p, chk);
        p.peak_mb
    } else {
        let order: Vec<usize> = (0..s.cells.len()).collect();
        let p = sweep_pass(s, &order, None, true);
        chk.pass(&s.refs, sweep_items(s, &p));
        p.peak_mb
    }
}

/// Untraced run: set-up, the warm-up pass, then seeded passes until
/// `seconds` elapse, with bursts of repeated set-ups between them.
fn run_end_to_end(a: &Args) -> RunResult {
    let s = setup(a.workload, None, false)?;
    let mut chk = Checker::default();
    let peak_mb = warm_up(&s, a.workload, &mut chk);
    let mut setup_s = Vec::new();
    let mut setup_burst = |reps: usize| -> Result<(), String> {
        let burst = Instant::now();
        let mut k = 0;
        while k < reps || burst.elapsed().as_secs_f64() < SETUP_BURST_MIN_S {
            let t0 = Instant::now();
            let again = setup(a.workload, None, false)?;
            if k > 0 {
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            drop(black_box(again));
            k += 1;
        }
        Ok(())
    };
    setup_burst(SETUP_BURST_FIRST)?;
    let budget = Duration::from_secs_f64(a.seconds);
    let mut walls = Vec::new();
    let t0 = Instant::now();
    let jobs = replay_jobs(&s);
    let mut best = BestTimes::new(if a.workload == Workload::SimReplay {
        jobs.len()
    } else {
        s.cells.len()
    });
    let mut pass = 1;
    while walls.len() < 2 || t0.elapsed() < budget {
        if a.workload == Workload::SimReplay {
            let order = permutation(jobs.len(), a.seed, pass);
            let p = replay_pass(&s, &jobs, &order, None, false);
            for (&j, (_, _, r)) in order.iter().zip(&p.results) {
                best.record(j, r.run_s + r.curve_s);
            }
            walls.push(p.wall_s);
            chk.pass(&s.refs, replay_items(&s, &p));
        } else {
            let p = sweep_pass(&s, &permutation(s.cells.len(), a.seed, pass), None, false);
            for r in &p.results {
                best.record(r.idx, r.host_s);
            }
            walls.push(p.wall_s);
            chk.pass(&s.refs, sweep_items(&s, &p));
        }
        setup_burst(SETUP_BURST)?;
        pass += 1;
    }
    eprintln!(
        "{}: {} measured passes, best-item pass {} s, pass walls {walls:?} s, peak {peak_mb} MiB, {} set-ups {setup_s:?} s",
        a.workload.as_str(),
        walls.len(),
        best.pass_s(),
        setup_s.len(),
    );
    let values = [best.pass_s(), median(&setup_s), peak_mb];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    Ok((chk.tally, metrics))
}

/// Per-layer values of one traced run, by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, f64>,
    /// Human-readable notes (ratio bases) for stderr and the trace file.
    notes: Vec<(String, String)>,
}

impl Layers {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    fn engine(&mut self, cells: &[CellTiming], rt: &ReportTimes) {
        let l = EngineLedger::new(cells);
        for b in BACKENDS {
            self.set(format!("engine.cell_s.{b}"), l.backend_cell_s(b));
            self.set(format!("engine.kernel_s.{b}"), l.backend_kernel_s(b));
            self.set(
                format!("engine.outside_kernel_s.{b}"),
                l.backend_outside_s(b),
            );
        }
        self.set("engine.outside_kernel_frac", l.outside_kernel_frac());
        for g in GROUPS {
            self.set(format!("engine.cell_s.group.{g}"), l.group_cell_s(g));
        }
        self.set("engine.attempts", l.attempts as f64);
        for (name, num, den) in [
            ("simmed_vs_raw", "simmed", "raw"),
            ("stack_vs_simmed", "stack", "simmed"),
            ("traced_vs_simmed", "traced", "simmed"),
        ] {
            let r = matched_ratio(cells, num, den);
            self.set(format!("engine.ratio.{name}"), r.value);
            self.notes.push((
                format!("engine.ratio.{name}.base"),
                format!(
                    "{den} cell time {:.6} s over {} workload(s) with both cells: {}",
                    r.base_s,
                    r.matched.len(),
                    r.matched.join(" ")
                ),
            ));
        }
        self.set("report.validate_s", rt.validate_s);
        self.set("report.to_json_s", rt.to_json_s);
        self.set("report.to_csv_s", rt.to_csv_s);
        self.notes.push((
            "engine.cells".into(),
            format!(
                "{} cells, {:.6} s in cells, {:.6} s reported by kernels",
                cells.len(),
                l.cell_s,
                l.kernel_s
            ),
        ));
    }

    /// Rates from the per-job medians of several traced replay passes.
    fn replay(&mut self, s: &Setup, passes: &[ReplayPass]) {
        let med = |i: usize, p: Path, f: &dyn Fn(&Replayed) -> f64| -> f64 {
            let xs: Vec<f64> = passes
                .iter()
                .flat_map(|pp| pp.results.iter())
                .filter(|(j, q, _)| *j == i && *q == p)
                .map(|(_, _, r)| f(r))
                .collect();
            median(&xs)
        };
        for (i, st) in s.streams.iter().enumerate() {
            let rate = |p: Path| ratio(st.accesses as f64 / 1e6, med(i, p, &|r| r.run_s));
            let n = st.name;
            self.set(format!("memsim.d1.maccess_per_s.{n}"), rate(Path::MemsimD1));
            self.set(format!("memsim.d3.maccess_per_s.{n}"), rate(Path::MemsimD3));
            self.set(
                format!("memsim.memo_hit_frac.{n}"),
                med(i, Path::MemsimD1, &|r| {
                    ratio(r.memo.0 as f64, (r.memo.0 + r.memo.1) as f64)
                }),
            );
            self.set(format!("stack.maccess_per_s.{n}"), rate(Path::Stack));
            let curve_s = med(i, Path::Stack, &|r| r.curve_s);
            self.set(format!("stack.curve_s.{n}"), curve_s);
            self.set(
                format!("stack.vs_memsim.{n}"),
                ratio(
                    med(i, Path::Stack, &|r| r.run_s) + curve_s,
                    med(i, Path::MemsimD1, &|r| r.run_s),
                ),
            );
            self.set(format!("traced.maccess_per_s.{n}"), rate(Path::Traced));
            self.set(format!("traffic.maccess_per_s.{n}"), rate(Path::Traffic));
            self.notes.push((
                format!("stream.{n}"),
                format!(
                    "{} runs, {} word accesses, {:.1}% writes",
                    st.runs.len(),
                    st.accesses,
                    100.0 * st.write_frac()
                ),
            ));
        }
    }
}

/// One pass over the cells of `s` through `par_map` on up to two threads.
/// Returns `(wall_s, efficiency, longest_cell_s)`.
fn par_pass(s: &Setup, tr: &Tracer, chk: &mut Checker) -> (f64, f64, f64) {
    let threads = wa_core::par::default_threads(s.cells.len()).min(2);
    let idx: Vec<usize> = (0..s.cells.len()).collect();
    let t0 = Instant::now();
    let timed = wa_core::par::par_map(&idx, threads, |&i| {
        tr.time(&s.cells[i].key, "par", || {
            run_cell(s, i, None, &mut ReportTimes::default())
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let times: Vec<f64> = timed.iter().map(|(_, t)| *t).collect();
    let results = timed.into_iter().map(|(r, _)| r).collect();
    let pass = SweepPass {
        wall_s,
        peak_mb: 0.0,
        results,
        report_times: ReportTimes::default(),
    };
    chk.pass(&s.refs, sweep_items(s, &pass));
    let longest = times.iter().copied().fold(0.0, f64::max);
    (wall_s, par_efficiency(&times, threads, wall_s), longest)
}

fn cell_timings<'a>(p: &SweepPass<'a>) -> Vec<CellTiming<'a>> {
    p.results.iter().map(|r| r.timing.clone()).collect()
}

/// Where the traced run writes its trace: beside the executable, inside
/// the build directory.
fn trace_path(a: &Args) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-seed{}.json", a.workload.as_str(), a.seed)))
}

/// Traced run: the warm-up pass, traced passes with a span and a timing
/// around every call into a layer, an untraced pass to take the tracing
/// overhead against, then a `par_map` pass.
fn run_traced(a: &Args) -> RunResult {
    let tr = Tracer::new();
    let s = tr
        .time("setup", "bench", || setup(a.workload, Some(&tr), true))
        .0?;
    let mut chk = Checker::default();
    let mut layers = Layers::default();
    layers.set("registry.build_s", s.registry_s);
    let jobs = replay_jobs(&s);
    let traced_replays = |chk: &mut Checker| -> Vec<ReplayPass> {
        (0..TRACED_REPLAY_PASSES)
            .map(|k| {
                let order = permutation(jobs.len(), a.seed, k + 1);
                let p = tr
                    .time("replay pass", "bench", || {
                        replay_pass(&s, &jobs, &order, Some(&tr), false)
                    })
                    .0;
                chk.pass(&s.refs, replay_items(&s, &p));
                p
            })
            .collect()
    };
    let traced_sweep = |chk: &mut Checker, pass: usize| -> SweepPass<'_> {
        let order = permutation(s.cells.len(), a.seed, pass);
        let p = tr
            .time("sweep pass", "bench", || {
                sweep_pass(&s, &order, Some(&tr), false)
            })
            .0;
        chk.pass(&s.refs, sweep_items(&s, &p));
        p
    };
    // The untraced pass the overhead is taken against comes after the
    // traced ones, so neither is the process's first.
    warm_up(&s, a.workload, &mut chk);
    let (untraced_s, traced_s) = if a.workload == Workload::SimReplay {
        let passes = traced_replays(&mut chk);
        layers.replay(&s, &passes);
        let e = traced_sweep(&mut chk, 1);
        layers.engine(&cell_timings(&e), &e.report_times);
        let order = permutation(jobs.len(), a.seed, TRACED_REPLAY_PASSES + 1);
        let u = replay_pass(&s, &jobs, &order, None, false);
        chk.pass(&s.refs, replay_items(&s, &u));
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        (u.wall_s, median(&walls))
    } else {
        let t = traced_sweep(&mut chk, 1);
        layers.engine(&cell_timings(&t), &t.report_times);
        layers.replay(&s, &traced_replays(&mut chk));
        let u = sweep_pass(&s, &permutation(s.cells.len(), a.seed, 2), None, false);
        chk.pass(&s.refs, sweep_items(&s, &u));
        (u.wall_s, t.wall_s)
    };
    let (par_wall, par_eff, par_longest) = tr
        .time("par pass", "bench", || par_pass(&s, &tr, &mut chk))
        .0;
    layers.set("par.wall_s", par_wall);
    layers.set("par.efficiency", par_eff);
    layers.set("par.longest_cell_s", par_longest);
    layers.set(
        "bench.trace_overhead_frac",
        ratio(traced_s - untraced_s, untraced_s),
    );
    layers.notes.push((
        "bench.trace_overhead_frac.base".into(),
        format!("untraced pass {untraced_s:.6} s, traced pass {traced_s:.6} s"),
    ));

    let metrics: Vec<Metric> = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = *layers
                .values
                .get(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, v, unit)
        })
        .collect();
    let mut other: Vec<(String, String)> = vec![
        ("workload".into(), a.workload.as_str().into()),
        ("seed".into(), a.seed.to_string()),
    ];
    other.extend(layers.notes.iter().cloned());
    other.extend(
        metrics
            .iter()
            .map(|(n, v, u)| (n.clone(), format!("{v} {u}"))),
    );
    let path = trace_path(a)?;
    std::fs::write(&path, tr.to_chrome_json(&other))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for (k, v) in &layers.notes {
        eprintln!("{k}: {v}");
    }
    eprintln!("trace written to {}", path.display());
    Ok((chk.tally, metrics))
}

/// Every registry cell of the two sweeps: depth 1 at paper scale, depths
/// 1 to 3 at small scale.
fn all_cells(reg: &Registry) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (scale, max_depth) in [(Scale::Paper, 1), (Scale::Small, 3)] {
        for w in reg.iter() {
            for &b in w.backends() {
                for depth in 1..=w.max_depth(b).min(max_depth) {
                    let cfg = RunCfg::with_depth(b, scale, depth);
                    cells.push(Cell {
                        key: cfg.cell_key(w.name()),
                        workload: w.name().to_string(),
                        group: w.group().to_string(),
                        cfg,
                    });
                }
            }
        }
    }
    cells
}

/// Rebuild `reference/counts.tsv` from the program at hand. Every cell
/// and replay runs twice, in two different orders, and must agree.
fn regen_reference() -> Result<(), String> {
    let reg = registry();
    let cells = all_cells(&reg);
    let s = Setup {
        reg,
        registry_s: 0.0,
        refs: Reference::default(),
        cells,
        streams: vec![replay::record_matmul_wa(), replay::record_fft()],
    };
    let jobs = replay_jobs(&s);
    let mut runs: Vec<BTreeMap<String, String>> = Vec::new();
    for pass in 0..2 {
        let mut counts = BTreeMap::new();
        let sweep = sweep_pass(&s, &permutation(s.cells.len(), 0, pass), None, false);
        let replays = replay_pass(&s, &jobs, &permutation(jobs.len(), 0, pass), None, false);
        for (key, got) in sweep_items(&s, &sweep)
            .into_iter()
            .chain(replay_items(&s, &replays))
        {
            counts.insert(key.clone(), got.map_err(|e| format!("{key}: {e}"))?);
        }
        runs.push(counts);
    }
    let differ = count_mismatches(&runs[0], &runs[1]);
    if !differ.is_empty() {
        return Err(format!(
            "counts are not deterministic: {}",
            differ.join(", ")
        ));
    }
    let keys = s
        .cells
        .iter()
        .map(|c| c.key.clone())
        .chain(jobs.iter().map(|&(i, p)| reference_key(&s.streams[i], p)));
    let entries = keys.map(|k| {
        let v = runs[0][&k].clone();
        (k, v)
    });
    let refs = Reference::from_entries(entries.collect());
    let path = reference::default_path();
    std::fs::write(&path, refs.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} entries to {}", refs.entries.len(), path.display());
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(t: FailTally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-sweep|small-sweep|sim-replay> --seed N \
                 --seconds S --trace 0|1\n       perfbench --regen-reference"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Regen => regen_reference().map(|_| None),
        Mode::Run(a) if a.trace => run_traced(&a).map(Some),
        Mode::Run(a) => run_end_to_end(&a).map(Some),
    };
    match outcome {
        Ok(Some((tally, metrics))) => {
            eprintln!(
                "attempted {}, failed {} (fail_frac {})",
                tally.attempted,
                tally.failed,
                tally.fail_frac()
            );
            println!("{}", result_json(tally, &metrics));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let p = permutation(50, 7, 0);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(p, permutation(50, 7, 0));
        assert_ne!(p, permutation(50, 8, 0));
        assert_ne!(p, permutation(50, 7, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse_args(&args(
            "--workload sim-replay --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(matches!(
            ok,
            Mode::Run(Args {
                workload: Workload::SimReplay,
                seed: 3,
                trace: true,
                ..
            })
        ));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper-sweep --seed 1 --seconds 0 --trace 0",
            "--workload paper-sweep --seed 1 --seconds 1 --trace 2",
            "--workload paper-sweep --seconds 1 --trace 0",
            "--workload paper-sweep --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let t = FailTally {
            attempted: 4,
            failed: 1,
        };
        let j = result_json(t, &[("wall_s".into(), 1.25, "s")]);
        assert_eq!(
            j,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        names.extend(per_layer_metrics());
        for (name, unit) in &names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\":").count(), names.len());
    }
}
