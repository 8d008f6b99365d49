//! Engine registrations for the Section 7 distributed-memory models.
//!
//! The [`Machine`] counts per-node L1↔L2 / L2↔L3 / network words — an
//! explicit model. The critical path (max-per-node counters) maps onto a
//! three-boundary hierarchy: boundary 0 = L1↔L2, boundary 1 = L2↔L3 (the
//! NVM writes the paper bounds as `W1`), boundary 2 = network (recv =
//! load, send = store — the "slow memory" of a node is the rest of the
//! machine, the Model 1 reading). `raw` runs the same model and reports
//! wall time plus the cost-model critical time.
//!
//! The same kernels also run on a machine carrying one [`Sink`] per
//! rank: `simmed` (one [`MemSim`] cache hierarchy per rank over
//! node-local NVM; `--depth 2` adds a rank-private L1), `traced`
//! (word-granular per-rank [`TraceTally`]s), and — for the matmul family
//! — `stack` (a Mattson capacity curve from the critical rank). Simulated
//! reports fold max-per-rank boundaries and append the network boundary
//! last, so the NVM write agreement with `explicit` is checked at each
//! report's *final cache boundary* (explicit: index 1; simmed: index
//! `depth-1`... second-to-last) — see `crates/bench/tests/backend_matrix.rs`.
//!
//! Every registration is one row of a small algorithm table; one runner,
//! `on_machine`, builds the machine the backend needs, runs the algorithm
//! (monomorphized per sink), checks the exactness premise and projects
//! the report.

use crate::cannon::cannon;
use crate::lu::{parallel_lu, LunpVariant};
use crate::machine::{Machine, Staging};
use crate::mm25d::{mm25d, Mm25Config};
use crate::summa::{summa, summa_l3_ool2};
use memsim::{MemSim, Sink, StackSim, TraceTally};
use wa_core::engine::{BackendKind, EngineError, RunCfg, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::{BoundaryTraffic, CostParams, Mat, Traffic};

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Small => 48,
        Scale::Paper => 96,
    }
}

/// Rank-private L1 capacity (words) modeled when `--depth 2`.
pub(crate) const RANK_L1_WORDS: usize = 256;

/// Rank-private last-level cache capacity (words) above the node-local
/// NVM. Deliberately larger than any rank's working set here
/// ([`Machine::heap_words`] stays far below it, and `check_heap`
/// refuses a run where it does not), so the only NVM stores the rank
/// simulator observes are the explicit write-backs the kernels issue —
/// the no-capacity-eviction premise of the exact explicit↔simmed
/// NVM-write agreement.
pub(crate) const RANK_L2_WORDS: usize = 65_536;

/// Per-rank cache capacities for a simmed run at `depth` levels,
/// fastest first, ending at the level backed by node-local NVM.
fn sim_caps(depth: usize) -> Vec<usize> {
    match depth {
        1 => vec![RANK_L2_WORDS],
        _ => vec![RANK_L1_WORDS, RANK_L2_WORDS],
    }
}

/// Footprint estimate shared by the distributed-matmul workloads: the
/// global n×n operands/result plus the per-node tile replicas the
/// [`Machine`] stages (≤ 2× replication in the 2.5D variant), with slack.
fn parallel_footprint(scale: Scale, _depth: usize) -> u64 {
    let n = dim(scale) as u64;
    8 * n * n * 8
}

/// The critical-path time under the machine's cost model, as echoed.
fn critical_time<S: Sink>(m: &Machine<S>) -> String {
    format!("{:.6e}", m.critical_time())
}

/// The critical-path network counters as a boundary (recv = load, send =
/// store — the "slow memory" of a node is the rest of the machine).
fn network<S: Sink>(m: &Machine<S>) -> Traffic {
    let c = m.max_counters();
    Traffic {
        load_words: c.net_recv_words,
        load_msgs: c.net_recv_msgs,
        store_words: c.net_send_words,
        store_msgs: c.net_send_msgs,
    }
}

/// Project critical-path node counters onto the report hierarchy.
fn machine_report(name: &str, scale: Scale, m: &Machine) -> RunReport {
    let c = m.max_counters();
    let mut bt = BoundaryTraffic::new(4);
    *bt.boundary_mut(0) = Traffic {
        load_words: c.l2_read_words,
        load_msgs: c.l2_read_msgs,
        store_words: c.l2_write_words,
        store_msgs: c.l2_write_msgs,
    };
    *bt.boundary_mut(1) = Traffic {
        load_words: c.l3_read_words,
        load_msgs: c.l3_read_msgs,
        store_words: c.l3_write_words,
        store_msgs: c.l3_write_msgs,
    };
    *bt.boundary_mut(2) = network(m);
    let mut r = RunReport::new(name, BackendKind::Explicit, scale)
        .with_boundaries(&bt, &[])
        .config("p", m.p())
        .config("critical_time_model_s", critical_time(m))
        .note("critical-path (max per node) counters; boundary 2 is the network");
    r.flops = c.flops;
    r
}

/// Project the per-rank cache simulation onto the report hierarchy:
/// boundaries `0..depth` are the max-per-rank simulated cache boundaries
/// (the last of them LLC↔node-local-NVM), and one network boundary is
/// appended after them (recv = load, send = store), mirroring the
/// explicit layout's slow end. NVM *stores* are exact by construction
/// (every counter-model write is a store + clwb replay of whole lines);
/// NVM loads are cold-fill granular — a block re-read the explicit model
/// charges twice fills once in a warm cache — so loads carry no
/// cross-backend contract. Under `--reuse` the critical rank's teed stack
/// supplies the histogram, picked like the `stack` backend's rank.
fn machine_sim_report(
    name: &str,
    scale: Scale,
    m: &Machine<MemSim>,
    depth: usize,
    caps: &[usize],
) -> RunReport {
    let sim = m.sim_boundaries();
    let mut bt = BoundaryTraffic::new(sim.len() + 2);
    for (i, t) in sim.iter().enumerate() {
        *bt.boundary_mut(i) = *t;
    }
    *bt.boundary_mut(sim.len()) = network(m);
    let caps: Vec<String> = caps.iter().map(|c| c.to_string()).collect();
    let mut r = RunReport::new(name, BackendKind::Simmed, scale)
        .with_boundaries(&bt, &[])
        .config("p", m.p())
        .config("depth", depth)
        .config("rank_caps_words", caps.join("/"))
        .config("heap_words_per_rank", m.heap_words())
        .config("critical_time_model_s", critical_time(m))
        .note(
            "per-rank cache simulation, max-per-rank fold; last boundary is the \
             network, second-to-last is LLC<->node-local NVM",
        );
    if let Some((_, stack)) = m.reuse_critical(RANK_L2_WORDS) {
        r = r.config("reuse_hist", stack.curve().render_reuse());
    }
    r.flops = m.max_counters().flops;
    r
}

/// Project the per-rank trace tallies: no boundary traffic (a trace has
/// no hierarchy), max-per-rank statistics in the config echo.
fn machine_trace_report(name: &str, scale: Scale, m: &Machine<TraceTally>) -> RunReport {
    let (words, writes, lines) = m.max_trace_stats();
    let mut r = RunReport::new(name, BackendKind::Traced, scale)
        .config("p", m.p())
        .config("trace_words", words)
        .config("trace_writes", writes)
        .config("trace_distinct_lines", lines)
        .config("heap_words_per_rank", m.heap_words())
        .config("critical_time_model_s", critical_time(m))
        .note("per-rank replay tallies, max-per-rank fold");
    r.flops = m.max_counters().flops;
    r
}

/// Project the critical rank's Mattson curve at [`RANK_L2_WORDS`] — the
/// same capacity the simmed backend's LLC models.
fn machine_stack_report(name: &str, scale: Scale, m: &Machine<StackSim>) -> RunReport {
    let (rank, sim) = m.stack_critical(RANK_L2_WORDS);
    let r = RunReport::new(name, BackendKind::Stack, scale);
    let mut r = memsim::stack_report(sim, RANK_L2_WORDS, r)
        .config("p", m.p())
        .config("critical_rank", rank)
        .config("heap_words_per_rank", m.heap_words())
        .config("critical_time_model_s", critical_time(m))
        .note("capacity curve of the critical rank (largest projected write-backs)");
    r.flops = m.max_counters().flops;
    r
}

/// The exactness premise of the explicit↔simmed NVM-write agreement: the
/// rank heap must fit in [`RANK_L2_WORDS`], or capacity evictions would
/// add NVM stores the counter model never charges.
fn check_heap<S: Sink>(name: &str, m: &Machine<S>) -> Result<(), EngineError> {
    if m.heap_words() <= RANK_L2_WORDS {
        return Ok(());
    }
    Err(EngineError::Failed {
        workload: name.to_string(),
        message: format!(
            "rank heap {} words exceeds RANK_L2_WORDS = {RANK_L2_WORDS}: capacity \
             evictions would break the exact NVM-write agreement",
            m.heap_words()
        ),
    })
}

/// Grid side of the 2D algorithms: a 4×4 rank grid.
const Q: usize = 4;
/// L2 capacity (words) SUMMAL3ooL2 computes its tiles in.
const OOL2_M2: u64 = 48;
/// Replication factor of the 2.5D matmul.
const MM25D_C: usize = 2;

/// Every backend a distributed algorithm can run on, `stack` last.
const BACKENDS: [BackendKind; 5] = [
    BackendKind::Raw,
    BackendKind::Simmed,
    BackendKind::Traced,
    BackendKind::Explicit,
    BackendKind::Stack,
];

/// The registered distributed algorithms.
#[derive(Clone, Copy)]
enum Alg {
    Summa,
    SummaOol2,
    Cannon,
    Mm25d,
    Lu,
}

/// Registration order: name, description, algorithm.
const ALGS: [(&str, &str, Alg); 5] = [
    (
        "summa",
        "classic SUMMA with L2 staging: 2n^2/sqrt(P) network words, no NVM traffic (7.1)",
        Alg::Summa,
    ),
    (
        "summa-ool2",
        "SUMMAL3ooL2 (Model 2.2): tiles computed entirely in L2, attains W1 = n^2/P NVM writes",
        Alg::SummaOol2,
    ),
    (
        "cannon",
        "Cannon's algorithm with L2 staging: same W1, lower network volume",
        Alg::Cannon,
    ),
    (
        "mm25d",
        "2.5D matmul (c=2 replication): trades memory for W2 = n^2/sqrt(Pc) network words",
        Alg::Mm25d,
    ),
    (
        "lu-parallel",
        "LL-LUNP: left-looking parallel LU, the WA order of 7.2",
        Alg::Lu,
    ),
];

impl Alg {
    /// Ranks of the machine the algorithm runs on.
    fn ranks(self) -> usize {
        match self {
            Alg::Mm25d => 18,
            _ => 16,
        }
    }

    fn backends(self) -> &'static [BackendKind] {
        match self {
            // lu-parallel skips `stack`: its replay is dominated by
            // in-place NVM block rewrites whose capacity curve adds
            // nothing over `simmed`, and keeping one non-universal
            // workload exercises the unsupported-backend error path with
            // the *current* supported list.
            Alg::Lu => &BACKENDS[..4],
            _ => &BACKENDS,
        }
    }

    /// Run the algorithm at problem size `n` on `m`, checking the result
    /// against the sequential reference; returns the kernel's wall time.
    fn run<S: Sink>(self, name: &str, m: &mut Machine<S>, n: usize) -> Result<u128, EngineError> {
        match self {
            Alg::Summa => matmul(name, m, n, (101, 102), |m, a, b| {
                summa(m, a, b, Q, n / Q, Staging::L2)
            }),
            Alg::SummaOol2 => matmul(name, m, n, (108, 109), |m, a, b| {
                summa_l3_ool2(m, a, b, Q, OOL2_M2)
            }),
            Alg::Cannon => matmul(name, m, n, (103, 104), |m, a, b| {
                cannon(m, a, b, Q, Staging::L2)
            }),
            Alg::Mm25d => {
                let cfg = Mm25Config {
                    p: self.ranks(),
                    c: MM25D_C,
                    at: Staging::L3,
                    ool2: false,
                    m2: 48,
                };
                matmul(name, m, n, (105, 106), |m, a, b| mm25d(m, a, b, cfg))
            }
            Alg::Lu => {
                let mut a = Mat::random(n, n, 107);
                for i in 0..n {
                    a[(i, i)] = a[(i, i)].abs() + n as f64;
                }
                let (_, ns) = timed(|| parallel_lu(m, &mut a, 4, LunpVariant::LeftLooking));
                Ok(ns)
            }
        }
    }

    /// The config keys echoed after the machine's own.
    fn echo(self, n: usize) -> Vec<(&'static str, String)> {
        let n = ("n", n.to_string());
        match self {
            Alg::Summa | Alg::Cannon => vec![n, ("q", Q.to_string())],
            Alg::SummaOol2 => vec![n, ("q", Q.to_string()), ("m2_words", OOL2_M2.to_string())],
            Alg::Mm25d => vec![n, ("c", MM25D_C.to_string())],
            Alg::Lu => vec![n],
        }
    }
}

/// Multiply two seeded random `n×n` matrices with `kernel` on `m` and
/// check the product; returns the kernel's wall time.
fn matmul<S: Sink>(
    name: &str,
    m: &mut Machine<S>,
    n: usize,
    (seed_a, seed_b): (u64, u64),
    kernel: impl FnOnce(&mut Machine<S>, &Mat, &Mat) -> Mat,
) -> Result<u128, EngineError> {
    let a = Mat::random(n, n, seed_a);
    let b = Mat::random(n, n, seed_b);
    let (got, ns) = timed(|| kernel(m, &a, &b));
    let err = got.max_abs_diff(&a.matmul_ref(&b));
    if err > 1e-8 {
        return Err(EngineError::Failed {
            workload: name.to_string(),
            message: format!("numeric mismatch: {err:.3e}"),
        });
    }
    Ok(ns)
}

/// Run one cell: build the machine `cfg.backend` needs (counters only, or
/// one sink per rank), run `alg` on it, and project the report.
fn on_machine(name: &'static str, alg: Alg, cfg: RunCfg) -> Result<RunReport, EngineError> {
    let RunCfg {
        backend,
        scale,
        depth,
        ..
    } = cfg;
    let (p, cost) = (alg.ranks(), CostParams::nvm_cluster());
    match backend {
        BackendKind::Explicit => drive(name, alg, scale, Machine::new(p, cost), |m| {
            machine_report(name, scale, m)
        }),
        BackendKind::Raw => drive(name, alg, scale, Machine::new(p, cost), |m| {
            RunReport::new(name, backend, scale)
                .config("p", m.p())
                .config("critical_time_model_s", critical_time(m))
        }),
        BackendKind::Simmed => {
            let caps = sim_caps(depth);
            let m = Machine::with_sinks(p, cost, || MemSim::stacked_lru(&caps));
            drive(name, alg, scale, m, |m| {
                machine_sim_report(name, scale, m, depth, &caps)
            })
        }
        BackendKind::Traced => {
            let m = Machine::with_sinks(p, cost, TraceTally::default);
            drive(name, alg, scale, m, |m| {
                machine_trace_report(name, scale, m)
            })
        }
        BackendKind::Stack => {
            let m = Machine::with_sinks(p, cost, StackSim::new);
            drive(name, alg, scale, m, |m| {
                machine_stack_report(name, scale, m)
            })
        }
    }
}

/// Run `alg` on `m`, check the exactness premise, project the machine
/// with `report` and append the algorithm's config echo.
fn drive<S: Sink>(
    name: &str,
    alg: Alg,
    scale: Scale,
    mut m: Machine<S>,
    report: impl FnOnce(&Machine<S>) -> RunReport,
) -> Result<RunReport, EngineError> {
    let n = dim(scale);
    let ns = alg.run(name, &mut m, n)?;
    check_heap(name, &m)?;
    let mut r = report(&m);
    for (k, v) in alg.echo(n) {
        r = r.config(k, v);
    }
    r.wall_ns = ns;
    Ok(r)
}

pub fn workloads() -> Vec<Workload> {
    let depths = [(BackendKind::Simmed, 2)];
    ALGS.iter()
        .map(|&(name, description, alg)| {
            Workload::new(
                name,
                "parallel",
                description,
                alg.backends(),
                &depths,
                parallel_footprint,
                move |cfg| on_machine(name, alg, cfg),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The W1 bound SUMMA's report should attain.
    fn w1_words(n: usize, p: usize) -> u64 {
        (n * n / p) as u64
    }

    #[test]
    fn every_parallel_workload_runs_on_each_declared_backend() {
        for w in workloads() {
            for &b in w.backends() {
                w.run(b, Scale::Small)
                    .unwrap_or_else(|e| panic!("{} on {b}: {e}", w.name()));
            }
        }
    }

    #[test]
    fn summa_ool2_report_attains_w1_on_the_nvm_boundary() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "summa-ool2").unwrap();
        let r = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        // Boundary 1 is L2<->L3 (NVM): stores must equal W1 = n^2/P.
        assert_eq!(r.boundaries[1].store_words, w1_words(dim(Scale::Small), 16));
    }

    /// Regression: the unsupported-backend error must enumerate the
    /// *current* supported list. When the simulated backends landed this
    /// message still said `raw, explicit` — a stale hardcoded list in the
    /// old `finish()` — sending users of `lu-parallel --backend stack`
    /// to backends that "didn't exist".
    #[test]
    fn unsupported_backend_error_lists_the_current_backends() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "lu-parallel").unwrap();
        let err = w.run(BackendKind::Stack, Scale::Small).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("supported: raw, simmed, traced, explicit"),
            "{msg}"
        );
        assert!(!msg.contains("stack,"), "{msg}");
    }

    /// The exactness premise is checked in every build: a rank heap one
    /// line over [`RANK_L2_WORDS`] is a typed error, not a debug-only
    /// assertion.
    #[test]
    fn rank_heap_over_the_llc_is_an_engine_error() {
        let mut m = Machine::new(1, CostParams::nvm_cluster());
        m.alloc(RANK_L2_WORDS);
        assert!(check_heap("t", &m).is_ok());
        m.alloc(memsim::LINE_WORDS);
        let err = check_heap("t", &m).unwrap_err();
        assert!(matches!(err, EngineError::Failed { .. }), "{err}");
        assert!(err.to_string().contains("RANK_L2_WORDS"), "{err}");
    }

    /// A rank sink only observes the replay: on every workload, at both
    /// scales and every advertised backend and depth, the counter model's
    /// critical time, flops and network boundary are what the explicit
    /// backend reports.
    #[test]
    fn rank_sinks_never_change_the_counter_model() {
        let time = |r: &RunReport| {
            let (_, v) = r
                .config
                .iter()
                .find(|(k, _)| k == "critical_time_model_s")
                .unwrap();
            v.clone()
        };
        for w in workloads() {
            for scale in [Scale::Small, Scale::Paper] {
                let e = w.run(BackendKind::Explicit, scale).unwrap();
                for &b in w.backends() {
                    for depth in 1..=w.max_depth(b) {
                        let r = w.run_cfg(RunCfg::with_depth(b, scale, depth)).unwrap();
                        let ctx = format!("{} {scale} {b} depth {depth}", w.name());
                        assert_eq!(time(&r), time(&e), "{ctx}: critical time");
                        if b != BackendKind::Raw {
                            assert_eq!(r.flops, e.flops, "{ctx}: flops");
                        }
                        if matches!(b, BackendKind::Explicit | BackendKind::Simmed) {
                            assert_eq!(r.boundaries.last(), e.boundaries.get(2), "{ctx}: network");
                        }
                    }
                }
            }
        }
    }

    /// The tentpole contract: on every parallel workload the simmed
    /// report's NVM boundary (second-to-last; the last is the network)
    /// charges exactly the words the explicit counter model does, and the
    /// network boundaries agree verbatim.
    #[test]
    fn explicit_and_simmed_agree_on_nvm_writes_and_network() {
        for w in workloads() {
            for scale in [Scale::Small, Scale::Paper] {
                let e = w.run(BackendKind::Explicit, scale).unwrap();
                let s = w.run(BackendKind::Simmed, scale).unwrap();
                let nvm_e = &e.boundaries[1];
                let nvm_s = &s.boundaries[s.boundaries.len() - 2];
                assert_eq!(
                    nvm_e.store_words,
                    nvm_s.store_words,
                    "{} {scale}: NVM writes",
                    w.name()
                );
                let net_e = &e.boundaries[2];
                let net_s = s.boundaries.last().unwrap();
                assert_eq!(net_e, net_s, "{} {scale}: network boundary", w.name());
            }
        }
    }

    /// The node-local-NVM scenario of the issue: `summa --backend simmed
    /// --depth 2` models a rank-private L1 above the LLC above NVM, and
    /// the assembled-output writes still hit NVM exactly once.
    #[test]
    fn summa_simmed_depth2_keeps_the_nvm_writes_exact() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "summa").unwrap();
        let r = w
            .run_cfg(RunCfg::with_depth(BackendKind::Simmed, Scale::Small, 2))
            .unwrap();
        // L1<->L2, L2<->NVM, network.
        assert_eq!(r.boundaries.len(), 3);
        assert_eq!(r.boundaries[1].store_words, 144);
        // The L1 boundary saw real replay traffic.
        assert!(r.boundaries[0].load_words > 0);
    }

    /// The stack backend projects the critical rank's curve at the same
    /// capacity the simmed LLC models, so its boundary-0 write-backs can
    /// never undercut the flushed working set.
    #[test]
    fn matmul_workloads_run_on_traced_and_stack() {
        for name in ["summa", "summa-ool2", "cannon", "mm25d"] {
            let ws = workloads();
            let w = ws.iter().find(|w| w.name() == name).unwrap();
            let t = w.run(BackendKind::Traced, Scale::Small).unwrap();
            assert!(
                t.config.iter().any(|(k, v)| k == "trace_words" && v != "0"),
                "{name}: trace stats missing"
            );
            let s = w.run(BackendKind::Stack, Scale::Small).unwrap();
            assert!(s.curve.is_some(), "{name}: stack report carries no curve");
            assert!(s.config.iter().any(|(k, _)| k == "critical_rank"));
        }
    }

    /// Hand-computed pin for the assembly-charging fix. At Small scale
    /// classic SUMMA runs n = 48 on a 4×4 grid: every rank owns one
    /// 12×12 block of C, so assembling the distributed output writes
    /// 12·12 = 144 words = n²/P to each rank's NVM — the paper's trivial
    /// lower bound W1 ≥ n²/P. Before the fix this report said 0 (assembly
    /// was charged as free), which no real machine can do.
    #[test]
    fn classic_summa_explicit_report_charges_assembled_output() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "summa").unwrap();
        let r = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert_eq!(r.boundaries[1].store_words, 144);
        assert_eq!(r.boundaries[1].store_words, w1_words(dim(Scale::Small), 16));
        // L2 staging still reads nothing from NVM: the fix charges output
        // writes, not phantom operand loads.
        assert_eq!(r.boundaries[1].load_words, 0);
    }
}
