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
//! Since the per-rank simulation landed, the same kernels also run on
//! `simmed` (one [`memsim::MemSim`] cache hierarchy per rank over
//! node-local NVM; `--depth 2` adds a rank-private L1), `traced`
//! (word-granular per-rank trace tallies), and — for the matmul family —
//! `stack` (a Mattson capacity curve from the critical rank). Simulated
//! reports fold max-per-rank boundaries and append the network boundary
//! last, so the NVM write agreement with `explicit` is checked at each
//! report's *final cache boundary* (explicit: index 1; simmed: index
//! `depth-1`... second-to-last) — see `crates/bench/tests/backend_matrix.rs`.

use crate::cannon::cannon;
use crate::lu::{parallel_lu, LunpVariant};
use crate::machine::{Machine, SimKind, Staging};
use crate::mm25d::{mm25d, Mm25Config};
use crate::summa::{summa, summa_l3_ool2};
use wa_core::engine::{BackendKind, EngineError, FnWorkload, RunCfg, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::{BoundaryTraffic, CostParams, Mat, Traffic};

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Small => 48,
        Scale::Paper => 96,
    }
}

/// Rank-private L1 capacity (words) modeled when `--depth 2`.
pub const RANK_L1_WORDS: usize = 256;

/// Rank-private last-level cache capacity (words) above the node-local
/// NVM. Deliberately larger than any rank's working set here
/// ([`Machine::heap_words`] stays far below it), so the only NVM stores
/// the rank simulator observes are the explicit write-backs the kernels
/// issue — the no-capacity-eviction premise of the exact explicit↔simmed
/// NVM-write agreement.
pub const RANK_L2_WORDS: usize = 65_536;

/// Per-rank cache capacities for a simmed run at `depth` levels,
/// fastest first, ending at the level backed by node-local NVM.
fn sim_caps(depth: usize) -> Vec<usize> {
    match depth {
        1 => vec![RANK_L2_WORDS],
        _ => vec![RANK_L1_WORDS, RANK_L2_WORDS],
    }
}

/// A machine wired for `backend`: counters only (`raw`/`explicit`) or
/// counters plus one per-rank simulator.
fn build_machine(p: usize, backend: BackendKind, depth: usize) -> Machine {
    let cost = CostParams::nvm_cluster();
    match backend {
        BackendKind::Simmed => Machine::with_sims(p, cost, SimKind::Simmed, &sim_caps(depth)),
        BackendKind::Traced => Machine::with_sims(p, cost, SimKind::Traced, &[]),
        BackendKind::Stack => Machine::with_sims(p, cost, SimKind::Stack, &[RANK_L2_WORDS]),
        _ => Machine::new(p, cost),
    }
}

/// Footprint estimate shared by the distributed-matmul workloads: the
/// global n×n operands/result plus the per-node tile replicas the
/// [`Machine`] stages (≤ 2× replication in the 2.5D variant), with slack.
fn parallel_footprint(scale: Scale, _depth: usize) -> u64 {
    let n = dim(scale) as u64;
    8 * n * n * 8
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
    *bt.boundary_mut(2) = Traffic {
        load_words: c.net_recv_words,
        load_msgs: c.net_recv_msgs,
        store_words: c.net_send_words,
        store_msgs: c.net_send_msgs,
    };
    let mut r = RunReport::new(name, BackendKind::Explicit, scale)
        .with_boundaries(&bt, &[])
        .config("p", m.p())
        .config(
            "critical_time_model_s",
            format!("{:.6e}", m.critical_time()),
        )
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
/// cross-backend contract.
fn machine_sim_report(name: &str, scale: Scale, m: &Machine, depth: usize) -> RunReport {
    let sim = m.sim_boundaries().expect("simmed machine has rank sims");
    let c = m.max_counters();
    let mut bt = BoundaryTraffic::new(sim.len() + 2);
    for (i, t) in sim.iter().enumerate() {
        *bt.boundary_mut(i) = *t;
    }
    *bt.boundary_mut(sim.len()) = Traffic {
        load_words: c.net_recv_words,
        load_msgs: c.net_recv_msgs,
        store_words: c.net_send_words,
        store_msgs: c.net_send_msgs,
    };
    let caps: Vec<String> = m.rank_caps().iter().map(|c| c.to_string()).collect();
    let mut r = RunReport::new(name, BackendKind::Simmed, scale)
        .with_boundaries(&bt, &[])
        .config("p", m.p())
        .config("depth", depth)
        .config("rank_caps_words", caps.join("/"))
        .config("heap_words_per_rank", m.heap_words())
        .config(
            "critical_time_model_s",
            format!("{:.6e}", m.critical_time()),
        )
        .note(
            "per-rank cache simulation, max-per-rank fold; last boundary is the \
             network, second-to-last is LLC<->node-local NVM",
        );
    r.flops = c.flops;
    r
}

/// Project the per-rank trace tallies: no boundary traffic (a trace has
/// no hierarchy), max-per-rank statistics in the config echo.
fn machine_trace_report(name: &str, scale: Scale, m: &Machine) -> RunReport {
    let (words, writes, lines) = m
        .max_trace_stats()
        .expect("traced machine has rank tallies");
    let c = m.max_counters();
    let mut r = RunReport::new(name, BackendKind::Traced, scale)
        .config("p", m.p())
        .config("trace_words", words)
        .config("trace_writes", writes)
        .config("trace_distinct_lines", lines)
        .config("heap_words_per_rank", m.heap_words())
        .config(
            "critical_time_model_s",
            format!("{:.6e}", m.critical_time()),
        )
        .note("per-rank replay tallies, max-per-rank fold");
    r.flops = c.flops;
    r
}

/// Project the critical rank's Mattson curve at [`RANK_L2_WORDS`] — the
/// same capacity the simmed backend's LLC models.
fn machine_stack_report(name: &str, scale: Scale, m: &Machine) -> RunReport {
    let (rank, sim) = m.stack_critical().expect("stack machine has rank sims");
    let c = m.max_counters();
    let r = RunReport::new(name, BackendKind::Stack, scale);
    let mut r = memsim::stack_report(sim, RANK_L2_WORDS, r)
        .config("p", m.p())
        .config("critical_rank", rank)
        .config("heap_words_per_rank", m.heap_words())
        .config(
            "critical_time_model_s",
            format!("{:.6e}", m.critical_time()),
        )
        .note("capacity curve of the critical rank (largest projected write-backs)");
    r.flops = c.flops;
    r
}

fn check(name: &str, got: &Mat, want: &Mat) -> Result<(), EngineError> {
    if got.max_abs_diff(want) > 1e-8 {
        return Err(EngineError::Failed {
            workload: name.to_string(),
            message: format!("numeric mismatch: {:.3e}", got.max_abs_diff(want)),
        });
    }
    Ok(())
}

fn finish(
    name: &str,
    cfg: RunCfg,
    machine: &Machine,
    ns: u128,
    extra: &[(&str, String)],
) -> Result<RunReport, EngineError> {
    // The simmed caps must dominate the rank-local layout, or capacity
    // evictions would break the exact NVM-store agreement.
    debug_assert!(
        machine.heap_words() <= RANK_L2_WORDS,
        "{name}: rank heap {} exceeds RANK_L2_WORDS",
        machine.heap_words()
    );
    let RunCfg {
        backend,
        scale,
        depth,
        ..
    } = cfg;
    let mut r = match backend {
        BackendKind::Explicit => machine_report(name, scale, machine),
        BackendKind::Raw => RunReport::new(name, backend, scale)
            .config("p", machine.p())
            .config(
                "critical_time_model_s",
                format!("{:.6e}", machine.critical_time()),
            ),
        BackendKind::Simmed => machine_sim_report(name, scale, machine, depth),
        BackendKind::Traced => machine_trace_report(name, scale, machine),
        BackendKind::Stack => machine_stack_report(name, scale, machine),
    };
    for (k, v) in extra {
        r = r.config(*k, v);
    }
    r.wall_ns = ns;
    Ok(r)
}

pub fn workloads() -> Vec<Box<dyn Workload>> {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    // lu-parallel skips `stack`: its replay is dominated by in-place NVM
    // block rewrites whose capacity curve adds nothing over `simmed`, and
    // keeping one non-universal workload exercises the unsupported-backend
    // error path with the *current* supported list.
    let lu_backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
    ];
    let depths = [(BackendKind::Simmed, 2)];
    vec![
        FnWorkload::boxed(
            "summa",
            "parallel",
            "classic SUMMA with L2 staging: 2n^2/sqrt(P) network words, no NVM traffic (7.1)",
            &backends,
            &depths,
            parallel_footprint,
            move |cfg| {
                let RunCfg {
                    backend,
                    scale,
                    depth,
                    ..
                } = cfg;
                let n = dim(scale);
                let q = 4;
                let a = Mat::random(n, n, 101);
                let b = Mat::random(n, n, 102);
                let mut m = build_machine(q * q, backend, depth);
                let (got, ns) = timed(|| summa(&mut m, &a, &b, q, n / q, Staging::L2));
                check("summa", &got, &a.matmul_ref(&b))?;
                finish(
                    "summa",
                    cfg,
                    &m,
                    ns,
                    &[("n", n.to_string()), ("q", q.to_string())],
                )
            },
        ),
        FnWorkload::boxed(
            "summa-ool2",
            "parallel",
            "SUMMAL3ooL2 (Model 2.2): tiles computed entirely in L2, attains W1 = n^2/P NVM writes",
            &backends,
            &depths,
            parallel_footprint,
            move |cfg| {
                let RunCfg {
                    backend,
                    scale,
                    depth,
                    ..
                } = cfg;
                let n = dim(scale);
                let (q, m2) = (4usize, 48u64);
                let a = Mat::random(n, n, 108);
                let b = Mat::random(n, n, 109);
                let mut m = build_machine(q * q, backend, depth);
                let (got, ns) = timed(|| summa_l3_ool2(&mut m, &a, &b, q, m2));
                check("summa-ool2", &got, &a.matmul_ref(&b))?;
                finish(
                    "summa-ool2",
                    cfg,
                    &m,
                    ns,
                    &[
                        ("n", n.to_string()),
                        ("q", q.to_string()),
                        ("m2_words", m2.to_string()),
                    ],
                )
            },
        ),
        FnWorkload::boxed(
            "cannon",
            "parallel",
            "Cannon's algorithm with L2 staging: same W1, lower network volume",
            &backends,
            &depths,
            parallel_footprint,
            move |cfg| {
                let RunCfg {
                    backend,
                    scale,
                    depth,
                    ..
                } = cfg;
                let n = dim(scale);
                let q = 4;
                let a = Mat::random(n, n, 103);
                let b = Mat::random(n, n, 104);
                let mut m = build_machine(q * q, backend, depth);
                let (got, ns) = timed(|| cannon(&mut m, &a, &b, q, Staging::L2));
                check("cannon", &got, &a.matmul_ref(&b))?;
                finish(
                    "cannon",
                    cfg,
                    &m,
                    ns,
                    &[("n", n.to_string()), ("q", q.to_string())],
                )
            },
        ),
        FnWorkload::boxed(
            "mm25d",
            "parallel",
            "2.5D matmul (c=2 replication): trades memory for W2 = n^2/sqrt(Pc) network words",
            &backends,
            &depths,
            parallel_footprint,
            move |run_cfg| {
                let RunCfg {
                    backend,
                    scale,
                    depth,
                    ..
                } = run_cfg;
                let n = dim(scale);
                let (p, c) = (18usize, 2usize);
                let a = Mat::random(n, n, 105);
                let b = Mat::random(n, n, 106);
                let cfg = Mm25Config {
                    p,
                    c,
                    at: Staging::L3,
                    ool2: false,
                    m2: 48,
                };
                let mut m = build_machine(p, backend, depth);
                let (got, ns) = timed(|| mm25d(&mut m, &a, &b, cfg));
                check("mm25d", &got, &a.matmul_ref(&b))?;
                finish(
                    "mm25d",
                    run_cfg,
                    &m,
                    ns,
                    &[("n", n.to_string()), ("c", c.to_string())],
                )
            },
        ),
        FnWorkload::boxed(
            "lu-parallel",
            "parallel",
            "LL-LUNP: left-looking parallel LU, the WA order of 7.2",
            &lu_backends,
            &depths,
            parallel_footprint,
            move |cfg| {
                let RunCfg {
                    backend,
                    scale,
                    depth,
                    ..
                } = cfg;
                let n = dim(scale);
                let mut a = Mat::random(n, n, 107);
                for i in 0..n {
                    a[(i, i)] = a[(i, i)].abs() + n as f64;
                }
                let mut m = build_machine(16, backend, depth);
                let (_, ns) = timed(|| parallel_lu(&mut m, &mut a, 4, LunpVariant::LeftLooking));
                finish("lu-parallel", cfg, &m, ns, &[("n", n.to_string())])
            },
        ),
    ]
}

/// Exposed for tests: the W1 bound SUMMA's report should attain.
pub fn w1_words(n: usize, p: usize) -> u64 {
    (n * n / p) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

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
