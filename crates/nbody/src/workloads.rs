//! Engine registrations for the N-body kernels (Algorithm 4 and the §4.4
//! symmetric variant).
//!
//! Unit note: the *explicit* model counts **particles** (the paper's "L1
//! and L2 can store M₁ and M₂ particles"), while the cache-simulated
//! backend counts **words** with [`crate::force::WORDS_PER_BODY`] words
//! per body. The reports echo `units` in their config so the cross-model
//! tests can convert (`words ≈ particles × WORDS_PER_BODY` for the force
//! output, which dominates slow-memory writes).

use crate::explicit::{kbody_schedule, nbody_wa_schedule};
use crate::force::{Particle, WORDS_PER_BODY};
use crate::simmed::{simmed_nbody_wa, store_cloud};
use crate::symmetric::nbody_symmetric_schedule;
use memsim::xeon::XeonGeometry;
use memsim::{explicit_report, run_on_backend, ExplicitHier, Kernel, Mem, RawMem};
use wa_core::engine::{BackendKind, Scale, Workload};
use wa_core::report::{timed, RunReport};

/// Fast memory in *particles* for the two-level model at `scale`, and the
/// particle count `N = 3 × M_particles` (so the cloud is several blocks).
/// The capacity is capped well below the scale's L3: the O(N²) pairwise
/// sweep through the word-level simulator would otherwise dominate every
/// sweep, and the WA effects under study depend only on the N/M ratio.
fn particles_geometry(scale: Scale) -> (u64, usize) {
    let words = XeonGeometry::for_scale(scale, memsim::Policy::Lru).l3_words;
    let cap = match scale {
        Scale::Small => 512,
        Scale::Paper => 1024,
    };
    let m_particles = ((words / WORDS_PER_BODY) as u64).min(cap);
    (m_particles, 3 * m_particles as usize)
}

fn base(name: &str, backend: BackendKind, scale: Scale, n: usize) -> RunReport {
    RunReport::new(name, backend, scale).config("n_particles", n)
}

/// Footprint estimate shared by the n-body workloads: the particle cloud
/// plus the force output, doubled for slack (every variant's N is bounded
/// by [`particles_geometry`]'s).
fn nbody_footprint(scale: Scale, _depth: usize) -> u64 {
    let (_, n) = particles_geometry(scale);
    2 * (n as u64) * (WORDS_PER_BODY as u64 + 3) * 8
}

/// An `explicit` cell: the block schedule alone, run with an empty body
/// on `n` particles over a two-level model of `m` particles. Every count
/// is the schedule's, so no cloud is built and no force is evaluated;
/// the full kernels (`explicit_nbody_wa`, `explicit_nbody_symmetric`,
/// `explicit_kbody_wa`) run the same schedule with the force body, and
/// their reference tests check that arithmetic.
fn explicit_run(
    name: &str,
    scale: Scale,
    (m, n): (u64, usize),
    schedule: impl FnOnce(usize, &mut ExplicitHier),
) -> RunReport {
    let mut h = ExplicitHier::two_level(m);
    let (_, ns) = timed(|| schedule(n, &mut h));
    let mut r = explicit_report(&h, base(name, BackendKind::Explicit, scale, n))
        .config("units", "particles")
        .config("m_particles", m)
        .note("block schedule only: forces are not evaluated (the reference tests check the arithmetic)");
    r.wall_ns = ns;
    r
}

/// The access-driven WA (N,2)-body kernel. A struct rather than a
/// closure so it stays monomorphized on each backend's store: through
/// `&mut dyn Mem` its raw kernel runs about a fifth slower at paper scale.
struct NbodyWa {
    n: usize,
    b: usize,
}

impl Kernel for NbodyWa {
    fn run<M: Mem>(self, mem: &mut M) {
        simmed_nbody_wa(mem, self.n, self.b);
    }
}

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "nbody-wa",
            "nbody",
            "Algorithm 4 blocked (N,2)-body: N + N^2/b loads, N stores (the output)",
            &[
                BackendKind::Raw,
                BackendKind::Simmed,
                BackendKind::Explicit,
                BackendKind::Stack,
            ],
            &[],
            nbody_footprint,
            |wa_core::engine::RunCfg { backend, scale, .. }| match backend {
                BackendKind::Explicit => Ok(explicit_run(
                    "nbody-wa",
                    scale,
                    particles_geometry(scale),
                    |n, h| nbody_wa_schedule(n, h, |_, _| {}),
                )),
                _ => {
                    let (m, n) = particles_geometry(scale);
                    // The explicit model places blocks by hand, so b = M/3
                    // fills fast memory exactly. True LRU needs the
                    // Proposition 6.2 capacity slack — about five resident
                    // blocks — or the force lines are evicted once per
                    // j-block and write-backs inflate ~(N/b)×.
                    let b = ((m / 5) as usize).max(1);
                    let p = Particle::random_cloud(n, 61);
                    // Stage the cloud outside the measured simulator so
                    // setup stores do not dirty the caches (cold start).
                    let mut raw = RawMem::new(2 * n * WORDS_PER_BODY);
                    store_cloud(&mut raw, &p);
                    // The simulated cache equals the explicit model's fast
                    // memory, converted to words.
                    let words = m as usize * WORDS_PER_BODY;
                    let base = base("nbody-wa", backend, scale, n);
                    let r = run_on_backend(backend, base, raw.data, &[words], NbodyWa { n, b });
                    Ok(r.config("units", "words")
                        .config("words_per_body", WORDS_PER_BODY)
                        .config("block_particles", b))
                }
            },
        ),
        Workload::new(
            "nbody-symmetric",
            "nbody",
            "symmetric (Newton 3rd law) N-body: half the flops, Theta(N^2/b) stores (4.4)",
            &[BackendKind::Explicit],
            &[],
            nbody_footprint,
            |wa_core::engine::RunCfg { scale, .. }| {
                Ok(explicit_run(
                    "nbody-symmetric",
                    scale,
                    particles_geometry(scale),
                    |n, h| nbody_symmetric_schedule(n, h, |_, _| {}),
                ))
            },
        ),
        Workload::new(
            "kbody-3",
            "nbody",
            "(N,3)-body with b = M/4 blocks: WA generalization of Algorithm 4",
            &[BackendKind::Explicit],
            &[],
            nbody_footprint,
            |wa_core::engine::RunCfg { scale, .. }| {
                // A shrunk cloud, N = 3·(M/8), sized for the O(N^3) kernel.
                let (m, _) = particles_geometry(scale);
                let m = (m / 8).max(4);
                Ok(explicit_run(
                    "kbody-3",
                    scale,
                    (m, 3 * m as usize),
                    |n, h| kbody_schedule(n, h, |_, _, _| {}),
                ))
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nbody_workload_runs_on_each_declared_backend() {
        for w in workloads() {
            for &b in w.backends() {
                let r = w
                    .run(b, Scale::Small)
                    .unwrap_or_else(|e| panic!("{} on {b}: {e}", w.name()));
                assert_eq!(r.workload, w.name());
            }
        }
    }

    #[test]
    fn wa_nbody_explicit_stores_equal_output_particles() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "nbody-wa").unwrap();
        let (_, n) = particles_geometry(Scale::Small);
        let r = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert_eq!(r.writes_to_slow(), n as u64);
    }
}
