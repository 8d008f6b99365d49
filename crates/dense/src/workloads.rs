//! Engine registrations for the dense kernels.
//!
//! Each paper algorithm variant registers once; the run function projects
//! whichever backend was requested into a [`RunReport`]. Every algorithm
//! has one block schedule (`mm_schedule`, `trsm_schedule`,
//! `cholesky_schedule`, `lu_schedule`). The `explicit` arm runs it with
//! an empty body, from shapes alone; the other four stage the matrices
//! and hand the access-driven kernel — the same schedule with the block
//! kernels as its body — to [`memsim::run_on_backend`]:
//!
//! * `explicit` — the Algorithm 1–3 block schedules (plus the §7.2 LU
//!   orders) charging a two-level [`ExplicitHier`] whose fast memory is
//!   the scale's L3, at the explicit block size `√(M/3)`; no matrix is
//!   built;
//! * `simmed` — the access-driven kernels through a fully-associative
//!   true-LRU L3-sized simulator (the Propositions 6.1/6.2 setting),
//!   flushed before reporting so end-of-run dirty state is charged;
//! * `raw` — the same access-driven kernels on raw memory (wall clock);
//! * `traced` — the access stream's length, writes and distinct 8-word
//!   lines, tallied as it runs ([`memsim::TraceTally`]; no trace is
//!   stored);
//! * `stack` — the single-pass Mattson stack simulator: one run of the
//!   access-driven kernel yields exact FA-LRU fills and write-backs at
//!   *every* capacity (a [`wa_core::CapacityCurve`]); the report's
//!   boundary echoes the L3-sized projection so it agrees byte-for-byte
//!   with flushed `simmed`.
//!
//! Geometry: fast memory `M` = the scale's L3 words; the matrix dimension
//! is `2·b_sim` where `b_sim = ⌊√(M/5)⌋` rounded down to a whole number
//! of lines, so block edges align with cache lines and the simulated
//! write-backs are exactly the output size for WA orders (Prop 6.1).
//!
//! `matmul-wa` additionally models hierarchy depths 2 and 3 (see
//! [`deep_geometry`]): the explicit cell charges [`mm_schedule`] through
//! every level and the simulator stacks one fully-associative LRU level
//! per depth, on *identical* line-aligned blockings with Prop-6.2 slack,
//! so the per-boundary write counts of the two models are directly
//! comparable at every level.

use crate::cholesky::{blocked_cholesky, CholVariant};
use crate::desc::alloc_layout;
use crate::explicit_cholesky::{self, cholesky_schedule};
use crate::explicit_lu::{self, lu_schedule};
use crate::explicit_mm::{block_for, mm_schedule};
use crate::explicit_trsm::{self, trsm_schedule};
use crate::lu::{blocked_lu, LuVariant};
use crate::matmul::multilevel::{ml_matmul, RecOrder};
use crate::matmul::{blocked_matmul, co_matmul, LoopOrder};
use crate::trsm::{blocked_trsm, TrsmVariant};
use memsim::xeon::XeonGeometry;
use memsim::{explicit_report, run_on_backend, ExplicitHier, Kernel, Mem, RawMem};
use wa_core::engine::{Agreement, BackendKind, EngineError, RunCfg, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::Mat;

/// Fast-memory capacity (words) for the two-level models at `scale`.
pub fn fast_words(scale: Scale) -> usize {
    XeonGeometry::for_scale(scale, memsim::Policy::Lru).l3_words
}

/// Simulated block size: largest whole-line block with five copies
/// resident (Prop 6.1 head-room), and the matrix dimension `n = 2b`.
pub fn sim_block_and_dim(scale: Scale) -> (usize, usize) {
    let m = fast_words(scale);
    let b = ((((m / 5) as f64).sqrt()) as usize / 8 * 8).max(8);
    (b, 2 * b)
}

/// Geometry for the depth-`d` (d ≥ 2) cross-model hierarchies: per-level
/// block sizes (smallest first, line-aligned, doubling per level), level
/// capacities in words with Proposition-6.2 slack (five blocks per
/// level), and the matrix dimension `n = 2·b_top`. Both the explicit
/// multi-level kernel and the stacked-LRU simulator run this exact
/// blocking, which is what makes their per-boundary counts comparable.
pub fn deep_geometry(scale: Scale, depth: usize) -> (Vec<usize>, Vec<u64>, usize) {
    assert!(depth >= 1);
    let b0: usize = match scale {
        Scale::Small => 8,
        Scale::Paper => 16,
    };
    let blocks: Vec<usize> = (0..depth).map(|s| b0 << s).collect();
    let caps: Vec<u64> = blocks.iter().map(|&b| 5 * (b * b) as u64).collect();
    let n = 2 * blocks[depth - 1];
    (blocks, caps, n)
}

/// Stage three matrices into a fresh memory, returning `(descs, data)`.
fn stage(mats: &[&Mat]) -> (Vec<crate::MatDesc>, Vec<f64>) {
    let shapes: Vec<(usize, usize)> = mats.iter().map(|m| (m.rows(), m.cols())).collect();
    let (d, words) = alloc_layout(&shapes);
    let mut raw = RawMem::new(words);
    for (desc, m) in d.iter().zip(mats) {
        desc.store_mat(&mut raw, m);
    }
    (d, raw.data)
}

fn base_report(name: &str, backend: BackendKind, scale: Scale, n: usize) -> RunReport {
    RunReport::new(name, backend, scale)
        .config("n", n)
        .config("fast_words", fast_words(scale))
}

/// An `explicit` cell: `schedule` charges `h` from the problem's shapes
/// alone, timed, and the counts become the report.
fn explicit_cell(
    name: &str,
    scale: Scale,
    n: usize,
    mut h: ExplicitHier,
    schedule: impl FnOnce(&mut ExplicitHier),
) -> RunReport {
    let (_, ns) = timed(|| schedule(&mut h));
    let mut r = explicit_report(&h, base_report(name, BackendKind::Explicit, scale, n));
    r.wall_ns = ns;
    r
}

/// `(n, explicit block size)` from a dense explicit report's config echo.
fn echo_shape(r: &RunReport) -> (usize, usize) {
    let echo = |key: &str| -> usize {
        let v = r.config.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        v.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{}: no numeric `{key}` echo", r.workload))
    };
    (echo("n"), block_for(echo("fast_words") as u64))
}

/// A two-level model whose fast memory is the scale's L3, and the
/// explicit block size `√(M/3)` for it.
fn two_level(scale: Scale) -> (ExplicitHier, usize) {
    let m = fast_words(scale) as u64;
    (ExplicitHier::two_level(m), block_for(m))
}

/// The depth ≥ 2 `simmed` kernel: the multi-level recursion over the
/// descriptors, blocks largest first. A struct rather than a closure so
/// the kernel stays monomorphized on the simulated store.
struct DeepMatmul {
    d: Vec<crate::MatDesc>,
    big_first: Vec<usize>,
}

impl Kernel for DeepMatmul {
    fn run<M: Mem>(self, mem: &mut M) {
        let d = &self.d;
        let (top, rest) = (RecOrder::COuter, RecOrder::COuter);
        ml_matmul(mem, d[0], d[1], d[2], &self.big_first, top, rest);
    }
}

/// The depth ≥ 2 scenarios of `matmul-wa`: explicit multi-level recursion
/// vs the stacked-LRU simulator, on identical blockings.
fn run_matmul_wa_deep(cfg: RunCfg) -> Result<RunReport, EngineError> {
    let RunCfg {
        backend,
        scale,
        depth,
        ..
    } = cfg;
    let (blocks, caps, n) = deep_geometry(scale, depth);
    let blocks_echo = blocks
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join("/");
    let big_first: Vec<usize> = blocks.iter().rev().copied().collect();
    match backend {
        BackendKind::Explicit => {
            let mut sizes = caps.clone();
            sizes.push(u64::MAX);
            let h = ExplicitHier::new(&sizes);
            let wa = (LoopOrder::Ijk, LoopOrder::Ijk);
            let r = explicit_cell("matmul-wa", scale, n, h, |h| {
                mm_schedule((n, n, n), &big_first, wa, h, |_, _, _| {})
            });
            Ok(r.config("depth", depth).config("blocks", &blocks_echo))
        }
        BackendKind::Simmed => {
            let a = Mat::random(n, n, 11);
            let b = Mat::random(n, n, 12);
            let c0 = Mat::zeros(n, n);
            let (d, data) = stage(&[&a, &b, &c0]);
            let caps: Vec<usize> = caps.iter().map(|&w| w as usize).collect();
            let base = base_report("matmul-wa", backend, scale, n);
            let r = run_on_backend(backend, base, data, &caps, DeepMatmul { d, big_first });
            Ok(r.config("depth", depth).config("blocks", &blocks_echo))
        }
        // Workload::run_cfg rejects depth > max_depth before the
        // closure runs, and only explicit/simmed advertise depth > 1.
        other => unreachable!("depth {depth} advertised only for explicit/simmed, got {other}"),
    }
}

/// Matmul workloads: WA (`k` innermost) and non-WA (`k` outermost) blocked
/// orders, plus the cache-oblivious recursion.
fn matmul_workload(
    name: &'static str,
    description: &'static str,
    order: Option<LoopOrder>, // None = cache-oblivious
) -> Workload {
    let backends = if order.is_some() {
        vec![
            BackendKind::Raw,
            BackendKind::Simmed,
            BackendKind::Traced,
            BackendKind::Explicit,
            BackendKind::Stack,
        ]
    } else {
        vec![
            BackendKind::Raw,
            BackendKind::Simmed,
            BackendKind::Traced,
            BackendKind::Stack,
        ]
    };
    let w = Workload::new(name, "dense", description, &backends, move |cfg| {
        let RunCfg { backend, scale, .. } = cfg;
        if cfg.depth > 1 {
            return run_matmul_wa_deep(cfg);
        }
        let (bsize, n) = sim_block_and_dim(scale);
        if backend == BackendKind::Explicit {
            let order = order.expect("explicit requires a loop order");
            let (h, bs) = two_level(scale);
            let r = explicit_cell(name, scale, n, h, |h| {
                mm_schedule((n, n, n), &[bs], (order, order), h, |_, _, _| {})
            });
            return Ok(r.config("order", format!("{order:?}")));
        }
        let a = Mat::random(n, n, 11);
        let b = Mat::random(n, n, 12);
        let c0 = Mat::zeros(n, n);
        let (d, data) = stage(&[&a, &b, &c0]);
        let base = base_report(name, backend, scale, n);
        let caps = [fast_words(scale)];
        let kernel = |mem: &mut &mut dyn Mem| match order {
            Some(o) => blocked_matmul(mem, d[0], d[1], d[2], bsize, o),
            None => co_matmul(mem, d[0], d[1], d[2], 16),
        };
        let r = run_on_backend(backend, base, data, &caps, kernel);
        Ok(r.config("block", bsize))
    });
    // Only the WA order has a multi-level explicit cell (§4.1 induction)
    // to compare the stacked simulator against.
    match order {
        Some(LoopOrder::Ijk) => w
            .depth(BackendKind::Explicit, 3)
            .depth(BackendKind::Simmed, 3)
            .agreement(Agreement::Exact),
        Some(_) => w.agreement(Agreement::Exact),
        None => w,
    }
}

pub fn workloads() -> Vec<Workload> {
    vec![
        matmul_workload(
            "matmul-wa",
            "Algorithm 1 blocked matmul, WA order (k innermost): stores = output size",
            Some(LoopOrder::Ijk),
        ),
        matmul_workload(
            "matmul-nonwa",
            "blocked matmul, non-WA order (k outermost): stores = (n/b) x output size",
            Some(LoopOrder::Kij),
        ),
        matmul_workload(
            "matmul-co",
            "cache-oblivious recursive matmul (Frigo et al.): CA but provably not WA (Thm 3)",
            None,
        ),
        trsm_workload(
            "trsm-wa",
            "Algorithm 2 TRSM, WA order: stores = output size exactly",
            true,
        ),
        trsm_workload(
            "trsm-rl",
            "right-looking TRSM: eager updates rewrite B every panel",
            false,
        ),
        cholesky_workload(
            "cholesky-wa",
            "Algorithm 3 left-looking Cholesky (write-avoiding)",
            true,
        ),
        cholesky_workload(
            "cholesky-rl",
            "right-looking Cholesky: eager Schur updates are write-heavy",
            false,
        ),
        lu_workload(
            "lu-wa",
            "left-looking blocked LU (no pivoting), the WA order of section 7.2",
            LuVariant::LeftLooking,
        ),
        lu_workload(
            "lu-rl",
            "right-looking blocked LU (no pivoting), eager trailing updates",
            LuVariant::RightLooking,
        ),
    ]
}

fn trsm_workload(name: &'static str, description: &'static str, wa: bool) -> Workload {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    Workload::new(
        name,
        "dense",
        description,
        &backends,
        move |RunCfg { backend, scale, .. }| {
            let (bsize, n) = sim_block_and_dim(scale);
            let variant = if wa {
                TrsmVariant::WriteAvoiding
            } else {
                TrsmVariant::RightLooking
            };
            if backend == BackendKind::Explicit {
                let (h, bs) = two_level(scale);
                return Ok(explicit_cell(name, scale, n, h, |h| {
                    trsm_schedule((n, n), bs, variant, h, |_| {})
                }));
            }
            let t = Mat::random_upper_triangular(n, 21);
            let x = Mat::random(n, n, 22);
            let rhs = t.matmul_ref(&x);
            let (d, data) = stage(&[&t, &rhs]);
            let base = base_report(name, backend, scale, n);
            let caps = [fast_words(scale)];
            let r = run_on_backend(backend, base, data, &caps, |mem: &mut &mut dyn Mem| {
                blocked_trsm(mem, d[0], d[1], bsize, variant)
            });
            Ok(r.config("block", bsize))
        },
    )
    // The right-looking order stores every block row above each solved
    // one; LRU holds them until the output is written back once.
    .agreement(if wa {
        Agreement::Exact
    } else {
        Agreement::Derived(|r| {
            let (n, bs) = echo_shape(r);
            (explicit_trsm::rl_store_words(n, bs), (n * n) as u64)
        })
    })
}

fn cholesky_workload(name: &'static str, description: &'static str, wa: bool) -> Workload {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    Workload::new(
        name,
        "dense",
        description,
        &backends,
        move |RunCfg { backend, scale, .. }| {
            let (bsize, n) = sim_block_and_dim(scale);
            let variant = if wa {
                CholVariant::LeftLooking
            } else {
                CholVariant::RightLooking
            };
            if backend == BackendKind::Explicit {
                let (h, bs) = two_level(scale);
                return Ok(explicit_cell(name, scale, n, h, |h| {
                    cholesky_schedule(n, bs, variant, h, |_| {})
                }));
            }
            let spd = Mat::random_spd(n, 31);
            let (d, data) = stage(&[&spd]);
            let base = base_report(name, backend, scale, n);
            let caps = [fast_words(scale)];
            let r = run_on_backend(backend, base, data, &caps, |mem: &mut &mut dyn Mem| {
                blocked_cholesky(mem, d[0], bsize, variant)
            });
            Ok(r.config("block", bsize))
        },
    )
    // The explicit model counts triangle words; the flushed cache writes
    // back every line the lower triangle touches, diagonal lines whole.
    .agreement(Agreement::Derived(if wa {
        |r| cholesky_stores(r, CholVariant::LeftLooking)
    } else {
        |r| cholesky_stores(r, CholVariant::RightLooking)
    }))
}

/// The Cholesky cells' `(explicit, simmed)` stores: the schedule's closed
/// form, and the words of the lines holding the lower triangle (each row
/// starts a line, `n` being a whole number of lines).
fn cholesky_stores(r: &RunReport, variant: CholVariant) -> (u64, u64) {
    let (n, bs) = echo_shape(r);
    let lw = memsim::LINE_WORDS;
    let lines: usize = (1..=n).map(|k| k.div_ceil(lw)).sum();
    (
        explicit_cholesky::store_words(n, bs, variant),
        (lw * lines) as u64,
    )
}

fn lu_workload(name: &'static str, description: &'static str, variant: LuVariant) -> Workload {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    Workload::new(
        name,
        "dense",
        description,
        &backends,
        move |RunCfg { backend, scale, .. }| {
            let (bsize, n) = sim_block_and_dim(scale);
            if backend == BackendKind::Explicit {
                let (h, bs) = two_level(scale);
                return Ok(explicit_cell(name, scale, n, h, |h| {
                    lu_schedule(n, bs, variant, h, |_| {})
                }));
            }
            let a = Mat::random_diagdom(n, 41);
            let (d, data) = stage(&[&a]);
            let base = base_report(name, backend, scale, n);
            let caps = [fast_words(scale)];
            let r = run_on_backend(backend, base, data, &caps, |mem: &mut &mut dyn Mem| {
                blocked_lu(mem, d[0], bsize, variant)
            });
            Ok(r.config("block", bsize))
        },
    )
    // Eager trailing updates rewrite blocks the simulated cache still
    // holds, so it writes the `n²`-word output once.
    .agreement(match variant {
        LuVariant::LeftLooking => Agreement::Exact,
        LuVariant::RightLooking => Agreement::Derived(|r| {
            let (n, bs) = echo_shape(r);
            (explicit_lu::rl_store_words(n, bs), (n * n) as u64)
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_matmul_explicit_and_simmed_store_the_output_size() {
        let reg: Vec<Workload> = workloads();
        let w = reg.iter().find(|w| w.name() == "matmul-wa").unwrap();
        let (_, n) = sim_block_and_dim(Scale::Small);
        let out = (n * n) as u64;
        let exp = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert_eq!(exp.writes_to_slow(), out);
        let sim = w.run(BackendKind::Simmed, Scale::Small).unwrap();
        assert_eq!(sim.writes_to_slow(), out);
    }

    #[test]
    fn explicit_lu_ll_stores_the_output_and_agrees_with_simmed() {
        let reg: Vec<Workload> = workloads();
        let w = reg.iter().find(|w| w.name() == "lu-wa").unwrap();
        let (_, n) = sim_block_and_dim(Scale::Small);
        let out = (n * n) as u64;
        let exp = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert_eq!(exp.writes_to_slow(), out);
        let sim = w.run(BackendKind::Simmed, Scale::Small).unwrap();
        assert_eq!(sim.writes_to_slow(), out);
    }

    #[test]
    fn deep_matmul_boundary_counts_agree_at_every_level() {
        let reg: Vec<Workload> = workloads();
        let w = reg.iter().find(|w| w.name() == "matmul-wa").unwrap();
        for depth in [2usize, 3] {
            let exp = w
                .run_cfg(RunCfg::with_depth(
                    BackendKind::Explicit,
                    Scale::Small,
                    depth,
                ))
                .unwrap();
            let sim = w
                .run_cfg(RunCfg::with_depth(BackendKind::Simmed, Scale::Small, depth))
                .unwrap();
            assert_eq!(exp.boundaries.len(), depth);
            assert_eq!(sim.boundaries.len(), depth);
            for b in 0..depth {
                assert_eq!(
                    exp.boundaries[b].store_words, sim.boundaries[b].store_words,
                    "depth {depth} boundary {b}"
                );
            }
            // The slowest boundary stores exactly the output.
            let (_, _, n) = deep_geometry(Scale::Small, depth);
            assert_eq!(exp.writes_to_slow(), (n * n) as u64);
        }
    }
}
