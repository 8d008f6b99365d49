//! Engine registrations for the Krylov solvers (Section 8).
//!
//! CG and CA-CG charge their slow-memory traffic through one [`SimIo`],
//! generic over the backend's [`Sink`]:
//!
//! * `explicit` — the hand-counted [`Traffic`] tally at vector
//!   granularity (the paper's `W12`) on a single fast↔slow boundary, one
//!   message per vector/matrix stream;
//! * `simmed` — the *same* run stream replayed through a stack of
//!   fully-associative true-LRU cache levels ([`MemSim`]); the fastest
//!   level is the scale's `M₁`, so the tally and the simulator's first
//!   boundary count the same writes (each workload declares
//!   [`Agreement::Exact`]).
//!   Depths 2 and 3 stack larger levels below `M₁` without changing the
//!   `M₁` boundary;
//! * `stack` — the stream through the Mattson [`StackSim`]: its `M₁`
//!   projection plus the whole capacity curve.
//!
//! `raw` runs the same solve on the tally and reports wall time only. The
//! streaming TSQR building block (§8's Arnoldi remark) registers the same
//! way.

use crate::cacg::{ca_cg, CaCgOptions};
use crate::cg::cg;
use crate::counter::SimIo;
use crate::stencil::laplacian_2d;
use crate::tsqr::tsqr_r;
use memsim::xeon::XeonGeometry;
use memsim::{MemSim, Policy, Sink, StackSim};
use wa_core::engine::{Agreement, BackendKind, EngineError, RunCfg, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::{Traffic, XorShift};

fn grid(scale: Scale) -> usize {
    match scale {
        Scale::Small => 24,
        Scale::Paper => 48,
    }
}

/// Fast-memory capacity `M₁` (words) of the Krylov models at `scale` —
/// the scale's L1, far below the vector length `n = grid²` (the §8
/// regime `n ≫ M₁`).
fn m1_words(scale: Scale) -> usize {
    XeonGeometry::for_scale(scale, Policy::Lru).l1_words
}

/// The `simmed` hierarchy: `depth` fully-associative true-LRU levels with
/// `M₁` on top. Deeper levels grow 8×/32× but stay below the problem
/// footprint, so every level still streams.
fn sim_hier(scale: Scale, depth: usize) -> MemSim {
    let m1 = m1_words(scale);
    let mults = [1usize, 8, 32];
    let caps: Vec<usize> = mults[..depth].iter().map(|&f| m1 * f).collect();
    MemSim::stacked_lru(&caps)
}

/// The backends every Krylov workload registers.
const BACKENDS: [BackendKind; 4] = [
    BackendKind::Raw,
    BackendKind::Explicit,
    BackendKind::Simmed,
    BackendKind::Stack,
];

/// Project a finished run: `raw` reports wall time only; every other
/// backend projects through its sink at `M₁` (the explicit tally onto one
/// boundary, the flushed cache simulator, the stack's curve).
fn project<S: Sink>(io: SimIo<S>, base: RunReport) -> RunReport {
    let m1 = m1_words(base.scale);
    match base.backend {
        BackendKind::Raw => base,
        BackendKind::Explicit => io
            .report(m1, base)
            .note("Traffic projection: vector-granular runs, msgs == block transfers"),
        _ => io.report(m1, base),
    }
}

/// Solve the grid-`g` model problem with CG (`opts == None`) or CA-CG,
/// charging `io`, and project the report; `wall_ns` is the solve's time.
fn solve<S: Sink>(
    name: &'static str,
    cfg: RunCfg,
    opts: &Option<CaCgOptions>,
    mut io: SimIo<S>,
) -> Result<RunReport, EngineError> {
    let g = grid(cfg.scale);
    let a = laplacian_2d(g, g, 0.1);
    let b = vec![1.0; a.rows];
    let x0 = vec![0.0; a.rows];
    let (res, ns) = timed(|| match opts {
        None => cg(&a, &b, &x0, 1e-10, 4 * g * g, &mut io),
        Some(o) => ca_cg(&a, &b, &x0, o, &mut io),
    });
    if res.residual > 1e-6 {
        return Err(EngineError::Failed {
            workload: name.to_string(),
            message: format!("solver stagnated: residual {:.3e}", res.residual),
        });
    }
    let base = RunReport::new(name, cfg.backend, cfg.scale)
        .config("iters", res.iters)
        .config("residual", format!("{:.3e}", res.residual));
    let mut r = project(io, base);
    r.wall_ns = ns;
    Ok(r)
}

fn solver_workload(
    name: &'static str,
    description: &'static str,
    opts: Option<CaCgOptions>, // None = plain CG
) -> Workload {
    Workload::new(name, "krylov", description, &BACKENDS, move |cfg| {
        let RunCfg { scale, depth, .. } = cfg;
        let g = grid(scale);
        let mut r = match cfg.backend {
            BackendKind::Raw | BackendKind::Explicit => {
                solve(name, cfg, &opts, SimIo::new(Traffic::ZERO))?
            }
            BackendKind::Simmed => solve(name, cfg, &opts, SimIo::new(sim_hier(scale, depth)))?
                .note("boundary 0 (fast side M1) is the tally's W12 boundary"),
            BackendKind::Stack => solve(name, cfg, &opts, SimIo::new(StackSim::new()))?,
            other => unreachable!("{name} does not declare {other}"),
        };
        r = r.config("grid", format!("{g}x{g}"));
        if cfg.backend == BackendKind::Simmed {
            r = r.config("depth", depth);
        }
        Ok(r)
    })
    .depth(BackendKind::Simmed, 3)
    .agreement(Agreement::Exact)
}

/// Run [`tsqr_r`] over `nblocks` deterministic 64×8 row blocks, charging
/// `io`, and project the report; `wall_ns` is the factorization's time.
fn tsqr<S: Sink>(name: &'static str, cfg: RunCfg, store: bool, mut io: SimIo<S>) -> RunReport {
    let s = 8usize;
    let rpb = 64usize;
    let nblocks = match cfg.scale {
        Scale::Small => 16,
        Scale::Paper => 64,
    };
    // Deterministic, recomputable row blocks (the streaming premise: the
    // generator can replay any block).
    let gen = |b: usize| {
        let mut rng = XorShift::new(97 + b as u64);
        (0..rpb * s).map(|_| rng.next_unit() - 0.5).collect()
    };
    let (_, ns) = timed(|| tsqr_r(nblocks, rpb, s, gen, store, &mut io));
    let base = RunReport::new(name, cfg.backend, cfg.scale)
        .config("n", nblocks * rpb)
        .config("s", s)
        .config("store", store);
    let mut r = project(io, base);
    r.wall_ns = ns;
    r
}

/// Streaming / storing tall-skinny QR (the §8 Arnoldi building block):
/// `nblocks` row blocks of 64×8, blocks regenerated on demand.
fn tsqr_workload(name: &'static str, description: &'static str, store: bool) -> Workload {
    Workload::new(name, "krylov", description, &BACKENDS, move |cfg| {
        Ok(match cfg.backend {
            BackendKind::Raw | BackendKind::Explicit => {
                tsqr(name, cfg, store, SimIo::new(Traffic::ZERO))
            }
            BackendKind::Simmed => {
                tsqr(name, cfg, store, SimIo::new(sim_hier(cfg.scale, cfg.depth)))
                    .config("depth", cfg.depth)
                    .note("boundary 0 (fast side M1) is the tally's boundary")
            }
            BackendKind::Stack => tsqr(name, cfg, store, SimIo::new(StackSim::new())),
            other => unreachable!("{name} does not declare {other}"),
        })
    })
    .depth(BackendKind::Simmed, 3)
    .agreement(Agreement::Exact)
}

pub fn workloads() -> Vec<Workload> {
    vec![
        solver_workload(
            "cg",
            "conjugate gradients: ~4n slow-memory writes per iteration (8.1)",
            None,
        ),
        solver_workload(
            "ca-cg",
            "s-step CA-CG with stored basis: fewer write phases per s steps",
            Some(CaCgOptions {
                streaming: false,
                ..CaCgOptions::default()
            }),
        ),
        solver_workload(
            "ca-cg-streaming",
            "streaming CA-CG: basis recomputed, writes ~2n per s steps (8.3)",
            Some(CaCgOptions {
                streaming: true,
                ..CaCgOptions::default()
            }),
        ),
        tsqr_workload(
            "tsqr-stream",
            "streaming TSQR: row blocks regenerated, only the s*s R factor is written (8)",
            false,
        ),
        tsqr_workload(
            "tsqr-store",
            "storing TSQR: row blocks written back, Theta(n*s) writes",
            true,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_cacg_writes_fewer_words_than_cg() {
        let ws = workloads();
        let get = |n: &str| {
            ws.iter()
                .find(|w| w.name() == n)
                .unwrap()
                .run(BackendKind::Explicit, Scale::Small)
                .unwrap()
        };
        let cg = get("cg");
        let st = get("ca-cg-streaming");
        // Normalize by conventional iterations (echoed in config).
        let iters = |r: &RunReport| {
            r.config
                .iter()
                .find(|(k, _)| k == "iters")
                .unwrap()
                .1
                .parse::<f64>()
                .unwrap()
        };
        let wps_cg = cg.writes_to_slow() as f64 / iters(&cg);
        let wps_st = st.writes_to_slow() as f64 / iters(&st);
        assert!(
            wps_st < wps_cg,
            "streaming CA-CG writes/step {wps_st} !< CG {wps_cg}"
        );
    }
}
