//! Registry-driven experiment harness.
//!
//! ```text
//! harness list [--json|--markdown]
//!     Enumerate every registered workload (name, group, backends);
//!     --markdown emits the README workload×backend support table.
//!
//! harness run <workload> [--backend B] [--scale S] [--depth D] [--json]
//!             [--trace out.json] [--trace-clock wall|logical] [--reuse]
//!     Execute one workload on one backend and print its RunReport.
//!     B: raw | simmed | traced | explicit | stack (default: the
//!     workload's first declared backend). S: small | paper (default
//!     small). D: modeled hierarchy depth for traffic-counting backends
//!     (default 1). --trace writes a Chrome trace-event JSON (engine
//!     spans, simulator counter tracks) openable in Perfetto /
//!     chrome://tracing. --reuse adds the Mattson reuse-distance
//!     histogram (`reuse_hist`) to simmed and stack reports.
//!
//! harness profile <workload> [--backend B] [--scale S] [--depth D] [--reuse]
//!     Run one cell with the simulator probe attached and print the
//!     per-phase table: accesses, per-level fills/write-backs, DRAM
//!     lines, memo hit rate, wall time per kernel-marked phase.
//!
//! harness curve <workload> [--capacities a,b,c|--geometric lo:hi:steps]
//!               [--scale S] [--json|--csv]
//!     One stack-backend pass over the workload's access stream, then
//!     project exact FA-LRU fills/write-backs at every requested
//!     capacity (words). Default ladder: powers of two from one line to
//!     the footprint. The trace is simulated ONCE regardless of how many
//!     capacities are asked for (Mattson stack distances).
//!
//! harness sweep [--group G] [--backend B] [--scale S] [--depth D]
//!               [--threads N] [--curve] [--json|--csv]
//!     Run every (workload, backend) scenario — optionally filtered by
//!     group or backend, restricted at depth D > 1 to the cells that
//!     model that depth — in parallel across N worker threads (default:
//!     available parallelism). `--json` emits a JSON array of RunReports.
//!     `--curve` sweeps only the stack-backend cells: each workload's
//!     whole capacity curve from a single pass instead of per-capacity
//!     re-runs.
//!
//! harness exp <command> [--scale small|paper] [--policy P]
//!     The paper-artifact reproductions (figures/tables); `exp all` runs
//!     everything. Commands: fig2 fig5 lru-props table1 table2 theorem4
//!     lu-parallel ksm bounds wa-optimal sorting model1.
//! ```
//!
//! Every `--json` report uses the stable [`wa_core::report::RunReport`]
//! schema regardless of backend, so explicit-vs-simulated comparisons are
//! a diff of two JSON documents.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wa_bench::registry::registry;
use wa_bench::scale::Repl;
use wa_bench::sweep::{completed_cells, CellOutcome, Journal};
use wa_bench::{bounds_exp, fig2, fig5, ksm, lu_par, props, sorting, tables, theorem4, waopt};
use wa_core::engine::{BackendKind, EngineError, RunCfg, RunLimits, Workload};
use wa_core::fault::FaultPlan;
use wa_core::obs::{self, Clock, PhaseRow, Recorder};
use wa_core::par::{default_threads, par_map};
use wa_core::report::{json_string, median_wall_ns, RunReport};
use wa_core::{CostParams, Registry, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    check_flags(cmd, rest);
    match cmd {
        "list" => list(
            &registry(),
            has_flag(rest, "--json"),
            has_flag(rest, "--markdown"),
        ),
        "run" => run(&faulted_registry(rest), rest),
        "profile" => profile(&faulted_registry(rest), rest),
        "curve" => curve(&faulted_registry(rest), rest),
        "sweep" => sweep(&faulted_registry(rest), rest),
        "exp" => exp(rest),
        "help" | "--help" | "-h" => usage(0),
        other => {
            eprintln!("unknown command `{other}`");
            usage(2);
        }
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage:\n  harness list [--json|--markdown]\n  harness run <workload> [--backend B] [--scale S] [--depth D] [--repeat N] [--timeout SECS] [--retries N]\n                [--mem-budget BYTES] [--degrade]\n                [--trace PATH] [--trace-clock wall|logical] [--reuse] [--json]\n  harness profile <workload> [--backend B] [--scale S] [--depth D] [--reuse] [--trace-clock wall|logical]\n                [--timeout SECS] [--retries N] [--mem-budget BYTES] [--degrade]\n  harness curve <workload> [--capacities W,W,...|--geometric LO:HI:STEPS] [--scale S] [--repeat N] [--json|--csv]\n                [--timeout SECS] [--retries N] [--mem-budget BYTES] [--degrade]\n  harness sweep [--group G] [--backend B] [--scale S] [--depth D] [--threads N] [--repeat N]\n                [--timeout SECS] [--retries N] [--mem-budget BYTES] [--degrade]\n                [--fail-fast] [--journal PATH] [--resume]\n                [--metrics PATH] [--curve] [--json|--csv]\n  harness exp <command> [--scale small|paper] [--policy P]   (exp all = every paper artifact)\n\n  --depth D        hierarchy depth (cache levels) for traffic-counting backends; default 1\n  --capacities W,… curve only: comma-separated fast-memory capacities in words\n  --geometric L:H:S curve only: S capacities (2..=4096) geometrically spaced from L to H words\n  --curve          sweep only: stack-backend cells only — every workload's full capacity\n                   curve from one simulation pass (no per-capacity re-runs)\n  --repeat N       run each scenario N times; the report carries the median wall time\n  --timeout SECS   per-attempt wall-clock deadline (float seconds): the cell is `cancelled`\n                   at its first cancel checkpoint after the deadline\n  --retries N      re-attempt panicked/deadline-cancelled/report-invariant/retriable cells\n                   N times (deterministic backoff); an interrupt is never retried\n  --mem-budget B   per-cell footprint budget in bytes (K/M/G suffixes); over-budget\n                   cells are rejected as invalid-config before they run\n  --degrade        with --mem-budget: downgrade over-budget cells (depth->1, scale->small,\n                   backend->traced) instead of rejecting; substitutions are noted in the report\n  --trace PATH     run only: write a Chrome trace-event JSON (engine spans + simulator\n                   counter tracks); open in Perfetto or chrome://tracing\n  --trace-clock C  wall (default, microseconds) or logical (deterministic event ticks)\n  --reuse          run/profile: also report the reuse-distance histogram (simmed, stack)\n  --fail-fast      sweep only: stop scheduling new cells after the first failure\n  --journal PATH   sweep only: per-cell JSONL journal (default sweep.journal.jsonl)\n  --resume         sweep only: skip cells the journal already records as ok; append new outcomes\n  --metrics PATH   sweep only: write a JSON rollup (failure counts per kind, retry and\n                   wall-time totals, cache-memo rates)\n  --fault-plan S   deterministic fault injection, e.g. `matmul-wa:panic@1,lu-wa:stall=2000`\n                   (also via env WA_FAULT_PLAN); kinds: panic | corrupt | stall=MS\n  --csv            sweep only: one CSV row per scenario (RunReport::CSV_HEADER +\n                   wall_ms,retries_used,status)\n  --markdown       list only: the README workload×backend support table\n\n  --help, -h       print this text; any other argument a command does not take is a\n                   usage error\n\nexit codes: 0 = all cells ok, 1 = at least one cell failed, 2 = usage/config error,\n            130 = interrupted (SIGINT): journal flushed, resume with `sweep --resume`"
    );
    std::process::exit(code);
}

/// Flags every cell-running subcommand takes: its limits and fault plan.
const LIMIT_FLAGS: [&str; 4] = ["--timeout", "--retries", "--mem-budget", "--fault-plan"];

/// The arguments subcommand `cmd` accepts: how many leading positionals
/// (a workload or experiment name), its switches, and its flags that
/// take a value. `None` for an unknown command.
type Accepted = (usize, &'static [&'static str], Vec<&'static str>);

fn accepted_args(cmd: &str) -> Option<Accepted> {
    let limited = |values: &[&'static str]| [values, &LIMIT_FLAGS[..]].concat();
    Some(match cmd {
        "list" => (0, &["--json", "--markdown"], vec![]),
        "run" => (
            1,
            &["--reuse", "--json", "--degrade"],
            limited(&[
                "--backend",
                "--scale",
                "--depth",
                "--repeat",
                "--trace",
                "--trace-clock",
            ]),
        ),
        "profile" => (
            1,
            &["--reuse", "--degrade"],
            limited(&["--backend", "--scale", "--depth", "--trace-clock"]),
        ),
        "curve" => (
            1,
            &["--json", "--csv", "--degrade"],
            limited(&["--capacities", "--geometric", "--scale", "--repeat"]),
        ),
        "sweep" => (
            0,
            &[
                "--curve",
                "--json",
                "--csv",
                "--degrade",
                "--fail-fast",
                "--resume",
            ],
            limited(&[
                "--group",
                "--backend",
                "--scale",
                "--depth",
                "--threads",
                "--repeat",
                "--journal",
                "--metrics",
            ]),
        ),
        "exp" => (1, &[], vec!["--scale", "--policy"]),
        "help" | "--help" | "-h" => (0, &[], vec![]),
        _ => return None,
    })
}

/// Print usage (exit 0) on `--help`/`-h`, and reject (exit 2) any
/// argument `cmd` does not take, a flag missing its value, a flag given
/// twice, or a stray positional: an ignored typo such as `--thread 1`
/// would silently run with the default, and a repeated `--scale` with
/// its first value.
fn check_flags(cmd: &str, args: &[String]) {
    let Some((positionals, switches, values)) = accepted_args(cmd) else {
        return;
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--help" || a == "-h" {
            usage(0);
        }
        if values.contains(&a) || switches.contains(&a) {
            if seen.contains(&a) {
                eprintln!("`{a}` given more than once (see `harness --help`)");
                std::process::exit(2);
            }
            seen.push(a);
        }
        if values.contains(&a) {
            if i + 1 == args.len() {
                eprintln!("`{a}` needs a value (see `harness --help`)");
                std::process::exit(2);
            }
            i += 1;
        } else if !switches.contains(&a) && (i >= positionals || a.starts_with('-')) {
            eprintln!("unknown argument `{a}` for `harness {cmd}` (see `harness --help`)");
            std::process::exit(2);
        }
        i += 1;
    }
}

/// The workspace registry, with the `--fault-plan` / `WA_FAULT_PLAN`
/// injection plan installed when one is given. A malformed spec is a
/// usage error: silently ignoring a typo'd plan would fake coverage.
fn faulted_registry(args: &[String]) -> Registry {
    let spec = flag_value(args, "--fault-plan")
        .map(str::to_string)
        .or_else(|| std::env::var("WA_FAULT_PLAN").ok());
    let mut reg = registry();
    if let Some(spec) = spec {
        match FaultPlan::parse(&spec) {
            Ok(plan) => reg.set_fault_plan(Some(plan)),
            Err(e) => {
                eprintln!("bad fault plan: {e}");
                std::process::exit(2);
            }
        }
    }
    reg
}

/// Parse a byte size with an optional K/M/G suffix (binary multiples),
/// e.g. `65536`, `512K`, `64M`, `2G`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(mult).filter(|&b| b > 0)
}

/// Parse `--timeout SECS` (float), `--retries N`, `--mem-budget BYTES`
/// (K/M/G suffixes) and `--degrade` into [`RunLimits`].
fn parse_limits(args: &[String]) -> RunLimits {
    let timeout = flag_value(args, "--timeout").map(|s| {
        let secs = s.parse::<f64>().ok().filter(|&secs| secs > 0.0);
        match secs.and_then(|secs| Duration::try_from_secs_f64(secs).ok()) {
            Some(timeout) => timeout,
            None => {
                eprintln!("bad --timeout `{s}` (expected seconds > 0 and below 2^64)");
                std::process::exit(2);
            }
        }
    });
    let retries = match flag_value(args, "--retries") {
        None => 0,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad --retries `{s}` (expected a non-negative integer)");
            std::process::exit(2);
        }),
    };
    let mut limits = RunLimits::new(timeout, retries);
    limits.mem_budget = flag_value(args, "--mem-budget").map(|s| match parse_size(s) {
        Some(bytes) => bytes,
        None => {
            eprintln!("bad --mem-budget `{s}` (expected bytes, optionally with K/M/G)");
            std::process::exit(2);
        }
    });
    limits.degrade = has_flag(args, "--degrade");
    if limits.degrade && limits.mem_budget.is_none() {
        eprintln!("--degrade requires --mem-budget");
        std::process::exit(2);
    }
    limits
}

/// Parse `--repeat N` (default 1).
fn parse_repeat(args: &[String]) -> usize {
    match flag_value(args, "--repeat") {
        None => 1,
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("bad --repeat `{s}` (expected a positive integer)");
                std::process::exit(2);
            }
        },
    }
}

/// Run one scenario `repeat` times through the registry's fault-isolated
/// dispatch; the returned report is the last run's with the *median* wall
/// time over all runs (echoed in config when repeated), so sweep timings
/// are stable against scheduler noise. Also returns the total dispatch
/// attempts consumed (retries included) and the number of dispatches made
/// — `attempts − dispatches` is the retry count the cell actually burned.
fn run_repeated(
    reg: &Registry,
    name: &str,
    cfg: RunCfg,
    repeat: usize,
) -> (Result<RunReport, EngineError>, u32, u32) {
    let mut walls = Vec::with_capacity(repeat);
    let mut last = None;
    let mut total_attempts = 0u32;
    let mut dispatches = 0u32;
    for _ in 0..repeat {
        let (res, attempts) = reg.run_cfg_traced(name, cfg);
        dispatches += 1;
        total_attempts += attempts;
        match res {
            Ok(r) => {
                walls.push(r.wall_ns);
                last = Some(r);
            }
            Err(e) => return (Err(e), total_attempts, dispatches),
        }
    }
    let mut r = last.expect("repeat >= 1");
    r.wall_ns = median_wall_ns(&walls);
    if repeat > 1 {
        r = r.config("repeat", repeat);
    }
    if total_attempts > repeat as u32 {
        r = r.config("attempts", total_attempts);
    }
    (Ok(r), total_attempts, dispatches)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_scale(args: &[String]) -> Scale {
    match flag_value(args, "--scale") {
        None => Scale::Small,
        Some(s) => Scale::parse(s).unwrap_or_else(|| {
            eprintln!("bad --scale `{s}` (small | paper)");
            std::process::exit(2);
        }),
    }
}

fn parse_backend(args: &[String]) -> Option<BackendKind> {
    flag_value(args, "--backend").map(|s| {
        BackendKind::parse(s).unwrap_or_else(|| {
            eprintln!("bad --backend `{s}` (raw | simmed | traced | explicit | stack)");
            std::process::exit(2);
        })
    })
}

/// Backend cell for the markdown support table: `✓` (depth 1) or `✓³`
/// (models hierarchies up to that depth); empty when unsupported.
fn md_cell(w: &Workload, b: BackendKind) -> String {
    if !w.supports(b) {
        return String::new();
    }
    match w.max_depth(b) {
        1 => "✓".to_string(),
        d => format!("✓{}", superscript(d)),
    }
}

fn superscript(d: usize) -> char {
    match d {
        2 => '²',
        3 => '³',
        _ => '⁺',
    }
}

fn list(reg: &Registry, json: bool, markdown: bool) {
    if markdown {
        println!("| workload | group | raw | simmed | traced | explicit | stack |");
        println!("|----------|-------|:---:|:------:|:------:|:--------:|:-----:|");
        for w in reg.iter() {
            println!(
                "| `{}` | {} | {} | {} | {} | {} | {} |",
                w.name(),
                w.group(),
                md_cell(w, BackendKind::Raw),
                md_cell(w, BackendKind::Simmed),
                md_cell(w, BackendKind::Traced),
                md_cell(w, BackendKind::Explicit),
                md_cell(w, BackendKind::Stack),
            );
        }
        return;
    }
    if json {
        let mut s = String::from("[");
        for (i, w) in reg.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let backends: Vec<String> = w
                .backends()
                .iter()
                .map(|b| format!("\"{}\"", b.as_str()))
                .collect();
            s.push_str("{\"name\":");
            json_string(&mut s, w.name());
            s.push_str(",\"group\":");
            json_string(&mut s, w.group());
            s.push_str(&format!(
                ",\"backends\":[{}],\"description\":",
                backends.join(",")
            ));
            json_string(&mut s, w.description());
            s.push('}');
        }
        s.push(']');
        println!("{s}");
        return;
    }
    println!(
        "{:<18} {:<9} {:<28} description",
        "workload", "group", "backends"
    );
    for w in reg.iter() {
        let backends: Vec<&str> = w.backends().iter().map(|b| b.as_str()).collect();
        println!(
            "{:<18} {:<9} {:<28} {}",
            w.name(),
            w.group(),
            backends.join(","),
            w.description()
        );
    }
    println!("\n{} workloads registered", reg.len());
}

/// Build and install a recorder for `--trace`/`profile`; returns the
/// handle the caller drains after the run.
fn install_recorder(args: &[String]) -> Arc<Recorder> {
    let clock = match flag_value(args, "--trace-clock") {
        None | Some("wall") => Clock::wall(),
        Some("logical") => Clock::logical(),
        Some(other) => {
            eprintln!("bad --trace-clock `{other}` (wall | logical)");
            std::process::exit(2);
        }
    };
    let mut rec = Recorder::new(clock);
    if has_flag(args, "--reuse") {
        rec = rec.with_reuse();
    }
    let rec = Arc::new(rec);
    obs::install(rec.clone());
    rec
}

fn run(reg: &Registry, args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("`harness run` needs a workload name (see `harness list`)");
        std::process::exit(2);
    };
    let Some(w) = reg.get(name) else {
        eprintln!("unknown workload `{name}` (see `harness list`)");
        std::process::exit(2);
    };
    let backend = parse_backend(args).unwrap_or_else(|| w.backends()[0]);
    let scale = parse_scale(args);
    let depth = parse_depth(args);
    let trace_path = flag_value(args, "--trace").map(std::path::PathBuf::from);
    let rec = (trace_path.is_some() || has_flag(args, "--reuse")).then(|| install_recorder(args));
    let cfg = RunCfg::with_depth(backend, scale, depth).with_limits(parse_limits(args));
    let res = run_repeated(reg, name, cfg, parse_repeat(args)).0;
    if rec.is_some() {
        obs::uninstall();
    }
    // Write the trace on success *and* failure: a trace of the run that
    // panicked or was cancelled is exactly the one worth looking at.
    if let (Some(path), Some(rec)) = (&trace_path, &rec) {
        match std::fs::write(path, rec.to_chrome_json()) {
            Ok(()) => eprintln!("trace: {} events -> {}", rec.num_events(), path.display()),
            Err(e) => {
                eprintln!("cannot write trace {} ({e})", path.display());
                std::process::exit(2);
            }
        }
    }
    match res {
        Ok(report) => {
            if has_flag(args, "--json") {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// `harness profile <workload>`: run one cell with the observer installed
/// and print the per-phase table the simulator's probe collected — writes
/// (fills/write-backs) per level, DRAM traffic, memo rates, wall time —
/// or, for `--backend stack`, the Mattson stack's work counters.
fn profile(reg: &Registry, args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("`harness profile` needs a workload name (see `harness list`)");
        std::process::exit(2);
    };
    let Some(w) = reg.get(name) else {
        eprintln!("unknown workload `{name}` (see `harness list`)");
        std::process::exit(2);
    };
    let backend = parse_backend(args).unwrap_or(BackendKind::Simmed);
    if !w.supports(backend) {
        eprintln!(
            "`{name}` does not support backend `{}` (see `harness list`)",
            backend.as_str()
        );
        std::process::exit(2);
    }
    let scale = parse_scale(args);
    let depth = parse_depth(args);
    let rec = install_recorder(args);
    let cfg = RunCfg::with_depth(backend, scale, depth).with_limits(parse_limits(args));
    let res = run_repeated(reg, name, cfg, 1).0;
    obs::uninstall();
    let report = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let rows = rec.take_phase_rows();
    println!(
        "== profile {name} ({}, {}, depth {}) ==",
        backend.as_str(),
        scale.as_str(),
        depth
    );
    if !rows.is_empty() {
        print_phase_table(&rows);
        if let Some(series) = last_counter(&rec, memsim::MEMSIM_WORK_TRACK) {
            println!("\ncache simulator work counters:");
            print_counters(series);
        }
    } else if let Some(series) = last_counter(&rec, memsim::STACK_COUNTER_TRACK) {
        println!("stack simulator work counters:");
        print_counters(series);
    } else if backend == BackendKind::Simmed {
        println!(
            "no phase data: `{name}` runs one simulator per rank and reports \
             their max-per-rank fold, which has no single per-phase table"
        );
    } else {
        println!(
            "no phase data: the `{}` backend runs without the cache \
             simulator's probe (try --backend simmed)",
            backend.as_str()
        );
    }
    if let Some((_, hist)) = report.config.iter().find(|(k, _)| k == "reuse_hist") {
        println!("\nreuse-distance histogram (lines): {hist}");
    }
}

/// The last sample of the counter track `track`, if the cell reported
/// one under the recorder.
fn last_counter(rec: &Recorder, track: &str) -> Option<Vec<(String, u64)>> {
    rec.events().into_iter().rev().find_map(|e| match e.kind {
        obs::EventKind::Counter { name, series } if name == track => Some(series),
        _ => None,
    })
}

fn print_counters(series: Vec<(String, u64)>) {
    for (k, v) in series {
        println!("  {k:<18} {v:>12}");
    }
}

/// Render the per-phase probe table: one row per phase, per-level fill and
/// write-back line counts, DRAM lines, memo hit rate, wall time.
fn print_phase_table(rows: &[PhaseRow]) {
    let levels = rows.iter().map(|r| r.fills.len()).max().unwrap_or(0);
    let mut header = format!("{:<14} {:>9} {:>12}", "phase", "wall_ms", "accesses");
    for l in 0..levels {
        header.push_str(&format!(
            " {:>10} {:>10}",
            format!("L{}fill", l + 1),
            format!("L{}wb", l + 1)
        ));
    }
    header.push_str(&format!(
        " {:>10} {:>10} {:>8}",
        "dram_rd", "dram_wr", "memo%"
    ));
    println!("{header}");
    let mut total = PhaseRow {
        phase: "total".to_string(),
        wall_ns: 0,
        accesses: 0,
        fills: vec![0; levels],
        writebacks: vec![0; levels],
        dram_reads: 0,
        dram_writes: 0,
        memo_hits: 0,
        memo_misses: 0,
    };
    for r in rows {
        print_phase_row(r, levels);
        total.wall_ns += r.wall_ns;
        total.accesses += r.accesses;
        for (t, v) in total.fills.iter_mut().zip(&r.fills) {
            *t += v;
        }
        for (t, v) in total.writebacks.iter_mut().zip(&r.writebacks) {
            *t += v;
        }
        total.dram_reads += r.dram_reads;
        total.dram_writes += r.dram_writes;
        total.memo_hits += r.memo_hits;
        total.memo_misses += r.memo_misses;
    }
    println!("{}", "-".repeat(37 + 22 * levels + 30));
    print_phase_row(&total, levels);
}

fn print_phase_row(r: &PhaseRow, levels: usize) {
    let memo = r.memo_hits + r.memo_misses;
    let rate = if memo == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", 100.0 * r.memo_hits as f64 / memo as f64)
    };
    let mut line = format!(
        "{:<14} {:>9.3} {:>12}",
        r.phase,
        r.wall_ns as f64 / 1e6,
        r.accesses
    );
    for l in 0..levels {
        line.push_str(&format!(
            " {:>10} {:>10}",
            r.fills.get(l).copied().unwrap_or(0),
            r.writebacks.get(l).copied().unwrap_or(0)
        ));
    }
    line.push_str(&format!(
        " {:>10} {:>10} {:>8}",
        r.dram_reads, r.dram_writes, rate
    ));
    println!("{line}");
}

/// Most capacities `--geometric` may ask for: far more points than any
/// curve plot needs, and small enough that a typo'd STEPS cannot ask the
/// allocator for an unbounded ladder.
const MAX_GEOMETRIC_STEPS: u64 = 4096;

/// Parse the `curve` capacity list: `--capacities a,b,c` (words) or
/// `--geometric lo:hi:steps`; `None` means the curve's default ladder.
fn parse_capacities(args: &[String]) -> Option<Vec<u64>> {
    if let Some(spec) = flag_value(args, "--capacities") {
        let caps: Vec<u64> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .ok()
                    .filter(|&c| c > 0)
                    .unwrap_or_else(|| {
                        eprintln!("bad --capacities `{spec}` (comma-separated positive words)");
                        std::process::exit(2);
                    })
            })
            .collect();
        return Some(caps);
    }
    if let Some(spec) = flag_value(args, "--geometric") {
        let bad = || -> ! {
            eprintln!(
                "bad --geometric `{spec}` \
                 (LO:HI:STEPS with 0 < LO <= HI, 2 <= STEPS <= {MAX_GEOMETRIC_STEPS})"
            );
            std::process::exit(2);
        };
        let parts: Vec<u64> = spec
            .split(':')
            .map(|s| s.trim().parse::<u64>().unwrap_or_else(|_| bad()))
            .collect();
        let [lo, hi, steps] = parts[..] else { bad() };
        if lo == 0 || hi < lo || !(2..=MAX_GEOMETRIC_STEPS).contains(&steps) {
            bad();
        }
        let ratio = (hi as f64 / lo as f64).powf(1.0 / (steps - 1) as f64);
        let mut caps: Vec<u64> = (0..steps)
            .map(|i| (lo as f64 * ratio.powi(i as i32)).round() as u64)
            .collect();
        *caps.last_mut().expect("steps >= 2") = hi;
        caps.dedup();
        return Some(caps);
    }
    None
}

/// `harness curve <workload>`: one stack-backend pass, projected at every
/// requested capacity. The kernel runs once however many capacities are
/// asked for — that is the point of the Mattson stack backend.
fn curve(reg: &Registry, args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("`harness curve` needs a workload name (see `harness list`)");
        std::process::exit(2);
    };
    let Some(w) = reg.get(name) else {
        eprintln!("unknown workload `{name}` (see `harness list`)");
        std::process::exit(2);
    };
    if !w.supports(BackendKind::Stack) {
        eprintln!(
            "`{name}` does not support the stack backend (see `harness list`); \
             only access-driven workloads can be stack-simulated"
        );
        std::process::exit(2);
    }
    let scale = parse_scale(args);
    // Every flag is checked before the (possibly paper-scale) stack run.
    let caps = parse_capacities(args);
    let cfg = RunCfg::with_depth(BackendKind::Stack, scale, 1).with_limits(parse_limits(args));
    let report = match run_repeated(reg, name, cfg, parse_repeat(args)).0 {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let curve = report
        .curve
        .as_ref()
        .expect("stack-backend reports always carry a curve");
    let caps = caps.unwrap_or_else(|| curve.default_ladder());
    if has_flag(args, "--json") {
        println!("{}", curve.to_json(&caps));
        return;
    }
    if has_flag(args, "--csv") {
        println!(
            "capacity_words,capacity_lines,fills,writebacks,flush_writebacks,\
             dram_reads_lines,dram_writes_lines,hits,misses"
        );
        for p in curve.points(&caps) {
            println!(
                "{},{},{},{},{},{},{},{},{}",
                p.capacity_words,
                p.capacity_lines,
                p.fills,
                p.writebacks,
                p.flush_writebacks,
                p.dram_reads_lines(),
                p.dram_writes_lines(),
                p.hits,
                p.misses
            );
        }
        return;
    }
    println!(
        "== capacity curve: {name} ({}, one stack pass, {} word accesses over {} lines) ==",
        scale.as_str(),
        curve.word_accesses,
        curve.footprint_lines
    );
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "cap_words", "cap_lines", "fills", "writebacks", "flush_wb", "dram_rd", "dram_wr", "miss%"
    );
    for p in curve.points(&caps) {
        let miss = if curve.word_accesses == 0 {
            0.0
        } else {
            100.0 * p.misses as f64 / curve.word_accesses as f64
        };
        println!(
            "{:>14} {:>10} {:>12} {:>12} {:>10} {:>12} {:>12} {:>8.3}",
            p.capacity_words,
            p.capacity_lines,
            p.fills,
            p.writebacks,
            p.flush_writebacks,
            p.dram_reads_lines(),
            p.dram_writes_lines(),
            miss
        );
    }
}

/// Parse `--depth D` (default 1, the two-level model).
fn parse_depth(args: &[String]) -> usize {
    match flag_value(args, "--depth") {
        None => 1,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad --depth `{s}` (expected a positive integer)");
            std::process::exit(2);
        }),
    }
}

/// One cell of a sweep: a (workload, backend) pair plus its full
/// scenario config and journal key.
struct Scenario<'a> {
    name: &'a str,
    backend: BackendKind,
    cfg: RunCfg,
    key: String,
}

/// What one sweep cell produced: its journaled outcome plus the report
/// (successes only). `None` when `--fail-fast` skipped the cell.
type CellResult = Option<(CellOutcome, Option<RunReport>)>;

fn sweep(reg: &Registry, args: &[String]) {
    let scale = parse_scale(args);
    // --curve restricts the sweep to stack-backend cells: one pass per
    // workload yields its whole capacity curve, so there is nothing to
    // gain from re-running the same cell at other simulated capacities.
    let only_backend = match (parse_backend(args), has_flag(args, "--curve")) {
        (Some(b), true) if b != BackendKind::Stack => {
            eprintln!("--curve sweeps the stack backend; drop --backend or pass --backend stack");
            std::process::exit(2);
        }
        (_, true) => Some(BackendKind::Stack),
        (b, false) => b,
    };
    let only_group = flag_value(args, "--group");
    let json = has_flag(args, "--json");
    let csv = has_flag(args, "--csv");
    let repeat = parse_repeat(args);
    let depth = parse_depth(args);
    let limits = parse_limits(args);
    let fail_fast = has_flag(args, "--fail-fast");
    let resume = has_flag(args, "--resume");
    let journal_path =
        std::path::PathBuf::from(flag_value(args, "--journal").unwrap_or("sweep.journal.jsonl"));
    if json && csv {
        eprintln!("--json and --csv are mutually exclusive");
        std::process::exit(2);
    }

    // Cells a previous run of this sweep already completed successfully
    // (journal keyed by the limits-independent config hash).
    let done = if resume {
        match completed_cells(&journal_path) {
            Ok(map) => map,
            Err(e) => {
                eprintln!(
                    "--resume: cannot read journal {} ({e})",
                    journal_path.display()
                );
                std::process::exit(2);
            }
        }
    } else {
        Default::default()
    };

    // At depth > 1 the sweep covers exactly the cells that model that
    // depth (running the rest at a shallower depth would silently mix
    // hierarchies in one table).
    let mut resumed = 0usize;
    let scenarios: Vec<Scenario> = reg
        .iter()
        .filter(|w| only_group.is_none_or(|g| w.group() == g))
        .flat_map(|w| {
            w.backends()
                .iter()
                .filter(|b| only_backend.is_none_or(|ob| ob == **b))
                .filter(|&&b| w.max_depth(b) >= depth)
                .map(move |&backend| {
                    let cfg = RunCfg::with_depth(backend, scale, depth).with_limits(limits);
                    let key = format!("{:016x}", cfg.config_hash(w.name()));
                    Scenario {
                        name: w.name(),
                        backend,
                        cfg,
                        key,
                    }
                })
                .collect::<Vec<_>>()
        })
        .filter(|s| {
            let ok_already = done.get(&s.key).map(String::as_str) == Some("ok");
            resumed += ok_already as usize;
            !ok_already
        })
        .collect();
    if resumed > 0 {
        eprintln!("resume: skipping {resumed} cells already journaled ok");
    }
    if scenarios.is_empty() {
        if resume && resumed > 0 {
            eprintln!("resume: nothing left to run");
            return;
        }
        eprintln!("no scenarios match the given filters");
        std::process::exit(2);
    }

    let journal = Journal::open(&journal_path, resume).unwrap_or_else(|e| {
        eprintln!("cannot open journal {} ({e})", journal_path.display());
        std::process::exit(2);
    });

    let threads = match flag_value(args, "--threads") {
        None => default_threads(scenarios.len()),
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad --threads `{s}` (expected a positive integer)");
            std::process::exit(2);
        }),
    };
    eprintln!(
        "sweeping {} scenarios at scale {} depth {} on {} threads (journal: {})",
        scenarios.len(),
        scale,
        depth,
        threads,
        journal_path.display()
    );

    // Cells run in parallel; each journals its outcome the moment it
    // finishes, so a killed sweep loses only the in-flight cells. With
    // --fail-fast, the first failure stops *scheduling* (in-flight cells
    // drain); skipped cells stay out of the journal and re-run on resume.
    // On a terminal, a live progress line tracks completion and ETA.
    //
    // Ctrl-C is cooperative: the first SIGINT bumps the process interrupt
    // epoch, which cancels every in-flight cell (they journal as
    // `cancelled`), stops scheduling new ones, and exits 130 after the
    // journal is flushed — `--resume` picks up exactly there. A second
    // SIGINT exits immediately.
    wa_core::cancel::install_sigint_handler();
    let gen0 = wa_core::cancel::process_generation();
    let abort = AtomicBool::new(false);
    let live = std::io::stderr().is_terminal();
    let done = AtomicUsize::new(0);
    let failed_cells = AtomicUsize::new(0);
    let started = Instant::now();
    let total = scenarios.len();
    let results: Vec<CellResult> = par_map(&scenarios, threads, |s| {
        if (fail_fast && abort.load(Ordering::Relaxed)) || wa_core::cancel::interrupted_since(gen0)
        {
            // Unstarted cells stay out of the journal, so they re-run on
            // --resume.
            return None;
        }
        let (res, attempts, dispatches) = run_repeated(reg, s.name, s.cfg, repeat);
        let outcome = CellOutcome {
            key: s.key.clone(),
            workload: s.name.to_string(),
            backend: s.backend,
            scale,
            depth,
            status: res
                .as_ref()
                .map_or_else(|e| e.kind().to_string(), |_| "ok".to_string()),
            attempts,
            retries_used: attempts.saturating_sub(dispatches),
            wall_ns: res.as_ref().map_or(0, |r| r.wall_ns),
            error: res.as_ref().err().map(|e| e.to_string()),
        };
        if let Err(e) = journal.record(&outcome) {
            eprintln!("journal write failed for {}: {e}", s.name);
        }
        if res.is_err() {
            failed_cells.fetch_add(1, Ordering::Relaxed);
            if fail_fast {
                abort.store(true, Ordering::Relaxed);
            }
        }
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        if live {
            let f = failed_cells.load(Ordering::Relaxed);
            let eta = started.elapsed().as_secs_f64() / d as f64 * (total - d) as f64;
            eprint!("\r[sweep] {d}/{total} done, {f} failed, ETA {eta:.0}s   ");
        }
        Some((outcome, res.ok()))
    });
    if live {
        eprintln!();
    }

    let mut failures = 0usize;
    let mut skipped = 0usize;
    if csv {
        println!("{},wall_ms,retries_used,status", RunReport::CSV_HEADER);
    } else if json {
        print!("[");
    }
    let mut first = true;
    for cell in &results {
        let Some((outcome, report)) = cell else {
            skipped += 1;
            continue;
        };
        let failed = outcome.status != "ok";
        failures += failed as usize;
        let wall_ms = outcome.wall_ns as f64 / 1e6;
        if csv {
            match report {
                Some(r) => println!(
                    "{},{:.3},{},{}",
                    r.to_csv_row(),
                    wall_ms,
                    outcome.retries_used,
                    outcome.status
                ),
                None => {
                    // Same arity as the header: identity, 8 empty metric
                    // columns + empty wall_ms, then retries and status
                    // (status stays the last column).
                    let empties = ",".repeat(9);
                    println!(
                        "{},{},{}{},{},{}",
                        outcome.workload,
                        outcome.backend.as_str(),
                        scale.as_str(),
                        empties,
                        outcome.retries_used,
                        outcome.status
                    );
                }
            }
        } else if json {
            if !first {
                print!(",");
            }
            first = false;
            let body = match report {
                Some(r) => format!("\"report\":{}", r.to_json()),
                None => {
                    let mut e = String::from("\"error\":");
                    json_string(&mut e, outcome.error.as_deref().unwrap_or(""));
                    e
                }
            };
            print!(
                "{{\"workload\":\"{}\",\"backend\":\"{}\",\"scale\":\"{}\",\"depth\":{},\
                 \"status\":\"{}\",\"attempts\":{},\"retries_used\":{},\"wall_ms\":{wall_ms:.3},\
                 {body}}}",
                outcome.workload,
                outcome.backend.as_str(),
                scale.as_str(),
                depth,
                outcome.status,
                outcome.attempts,
                outcome.retries_used
            );
        } else if let Some(r) = report {
            print!("{}", r.render_text());
        }
        if failed {
            eprintln!(
                "FAIL {} on {} [{}]: {}",
                outcome.workload,
                outcome.backend,
                outcome.status,
                outcome.error.as_deref().unwrap_or("")
            );
        }
    }
    if json {
        println!("]");
    }
    if let Some(path) = flag_value(args, "--metrics") {
        let json = metrics_rollup(&results, skipped);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write metrics {path} ({e})");
            std::process::exit(2);
        }
        eprintln!("metrics rollup -> {path}");
    }
    eprintln!(
        "sweep complete: {} ok, {} failed, {} skipped{}",
        results.len() - failures - skipped,
        failures,
        skipped,
        if resumed > 0 {
            format!(" ({resumed} resumed as ok)")
        } else {
            String::new()
        }
    );
    if wa_core::cancel::interrupted_since(gen0) {
        eprintln!(
            "interrupted: journal flushed to {}; re-run with --resume to finish the rest",
            journal_path.display()
        );
        std::process::exit(wa_core::cancel::INTERRUPT_EXIT_CODE);
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Aggregate a sweep's outcomes into the `--metrics` JSON rollup:
/// per-status cell counts, attempt/retry totals, wall-time total, and the
/// simulator's last-line-memo hit rate summed over every simmed report.
fn metrics_rollup(results: &[CellResult], skipped: usize) -> String {
    let mut status_counts: std::collections::BTreeMap<&str, u64> = Default::default();
    let (mut ok, mut failed) = (0u64, 0u64);
    let (mut attempts_total, mut retries_total) = (0u64, 0u64);
    let mut wall_ns_total = 0u128;
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    for cell in results.iter().flatten() {
        let (outcome, report) = cell;
        *status_counts.entry(outcome.status.as_str()).or_insert(0) += 1;
        if outcome.status == "ok" {
            ok += 1;
        } else {
            failed += 1;
        }
        attempts_total += outcome.attempts as u64;
        retries_total += outcome.retries_used as u64;
        wall_ns_total += outcome.wall_ns;
        if let Some(r) = report {
            for (k, v) in &r.config {
                match (k.as_str(), v.parse::<u64>()) {
                    ("memo_hits", Ok(n)) => memo_hits += n,
                    ("memo_misses", Ok(n)) => memo_misses += n,
                    _ => {}
                }
            }
        }
    }
    let statuses: Vec<String> = status_counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let memo_total = memo_hits + memo_misses;
    let memo_rate = if memo_total == 0 {
        0.0
    } else {
        memo_hits as f64 / memo_total as f64
    };
    format!(
        "{{\"cells\":{},\"ok\":{ok},\"failed\":{failed},\"skipped\":{skipped},\
         \"status_counts\":{{{}}},\"attempts_total\":{attempts_total},\
         \"retries_total\":{retries_total},\"wall_ms_total\":{:.3},\
         \"memo_hits\":{memo_hits},\"memo_misses\":{memo_misses},\
         \"memo_hit_rate\":{memo_rate:.6}}}\n",
        ok + failed,
        statuses.join(","),
        wall_ns_total as f64 / 1e6
    )
}

/// The legacy paper-artifact commands, verbatim from the pre-registry
/// dispatcher (they print hand-formatted tables rather than RunReports).
fn exp(args: &[String]) {
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let scale = parse_scale(args);
    let repl = match flag_value(args, "--policy") {
        None => Repl::FaLru,
        Some(s) => Repl::parse(s).unwrap_or_else(|| {
            eprintln!("bad --policy `{s}` (lru | clock)");
            std::process::exit(2);
        }),
    };

    let run = |c: &str| match c {
        "fig2" => fig2::run_figure(scale, repl),
        "fig5" => fig5::run_figure(scale, repl),
        "lru-props" => props::run(128, 24),
        "table1" => {
            let cp = CostParams::nvm_cluster();
            tables::table1(1e5, 4096.0, 4.0, 16.0, &cp);
        }
        "table2" => {
            let cp = CostParams::nvm_cluster();
            tables::table2(1e6, 65536.0, 8.0, &cp);
            tables::measured_comparison(48, 64, 4, 48);
        }
        "theorem4" => theorem4::run(64, 16, 48),
        "lu-parallel" => lu_par::run(64, 16, 4),
        "ksm" => ksm::run(32, 8, 10),
        "bounds" => {
            bounds_exp::fft_table(&[1 << 10, 1 << 12, 1 << 14], 256);
            bounds_exp::strassen_table(&[32, 64], 384);
            bounds_exp::theorem1_table();
        }
        "wa-optimal" => waopt::run(24),
        "sorting" => sorting::run(4096, 64),
        "model1" => {
            use parallel::machine::Machine;
            use parallel::model1::{summa_hoarded, summa_local_wa};
            use wa_core::Mat;
            let (n, q) = (64usize, 4usize);
            let a = Mat::random(n, n, 51);
            let b = Mat::random(n, n, 52);
            let mut m1 = Machine::new(q * q, CostParams::nvm_cluster());
            let (_, step) = summa_local_wa(&mut m1, &a, &b, q, 1 << 20);
            let mut m2 = Machine::new(q * q, CostParams::nvm_cluster());
            let (_, hoard) = summa_hoarded(&mut m2, &a, &b, q, 1 << 20);
            println!(
                "\n== Model 1 (n={n}, P={}): writes to L2 from L1 vs W1 ==",
                q * q
            );
            println!(
                "{:<22} {:>12} {:>8} {:>14}",
                "variant", "L1->L2 words", "W1", "L2 words needed"
            );
            println!(
                "{:<22} {:>12} {:>8} {:>14}",
                "SUMMA + local WA", step.l2_writes_from_l1, step.w1, step.l2_capacity_needed
            );
            println!(
                "{:<22} {:>12} {:>8} {:>14}",
                "SUMMA hoarded panels", hoard.l2_writes_from_l1, hoard.w1, hoard.l2_capacity_needed
            );
            println!("the bound is attainable only with ~sqrt(P) times the L2 capacity (paper: 'likely not realistic')");
        }
        other => {
            eprintln!("unknown experiment `{other}`; see `harness help`");
            std::process::exit(2);
        }
    };

    if cmd == "all" {
        for c in [
            "wa-optimal",
            "bounds",
            "lru-props",
            "fig2",
            "fig5",
            "table1",
            "table2",
            "theorem4",
            "lu-parallel",
            "ksm",
            "sorting",
            "model1",
        ] {
            run(c);
        }
    } else {
        run(cmd);
    }
}
