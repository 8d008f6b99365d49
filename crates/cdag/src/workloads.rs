//! Engine registrations for the bounded-reuse CDAG kernels (Theorem 2 /
//! Corollaries 2–3): FFT and Strassen. Neither admits a write-avoiding
//! reordering — the point of running them through the same engine as the
//! WA kernels is to watch `writes_to_slow` track total traffic instead of
//! the output size.

use crate::fft::{fft_mem, Complex};
use crate::strassen::{strassen_mem, strassen_scratch_words};
use dense::desc::alloc_layout;
use memsim::xeon::XeonGeometry;
use memsim::{memsim_report, stack_report, Mem, MemSim, RawMem, SimMem, StackMem, TallyMem};
use wa_core::engine::{BackendKind, EngineError, FnWorkload, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::Mat;

fn l3_words(scale: Scale) -> usize {
    XeonGeometry::for_scale(scale, memsim::Policy::Lru).l3_words
}

fn l3_sim(m: usize) -> MemSim {
    MemSim::single_level_lru(m)
}

/// Shared three-backend runner over a staged data vector.
fn run_backend(
    name: &'static str,
    backend: BackendKind,
    scale: Scale,
    data: Vec<f64>,
    kernel: impl Fn(&mut &mut dyn Mem),
) -> Result<RunReport, EngineError> {
    let base = |backend| RunReport::new(name, backend, scale).config("fast_words", l3_words(scale));
    match backend {
        BackendKind::Raw => {
            let mut mem = RawMem::from_vec(data);
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem)));
            let mut r = base(backend);
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Simmed => {
            let mut mem = SimMem::from_vec(data, l3_sim(l3_words(scale)));
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem)));
            mem.sim.flush();
            let mut r = memsim_report(&mem.sim, base(backend))
                .note("flushed: end-of-run dirty lines charged to DRAM");
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Stack => {
            let mut mem = StackMem::from_vec(data);
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem)));
            let mut r = stack_report(&mem.sim, l3_words(scale), base(backend));
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Traced => {
            let mut mem = TallyMem::from_vec(data);
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem)));
            let mut r = base(backend)
                .config("trace_len", mem.tally.words())
                .config("trace_writes", mem.tally.writes());
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Explicit => Err(EngineError::UnsupportedBackend {
            workload: name.to_string(),
            backend,
            supported: vec![
                BackendKind::Raw,
                BackendKind::Simmed,
                BackendKind::Traced,
                BackendKind::Stack,
            ],
        }),
    }
}

pub fn workloads() -> Vec<Box<dyn Workload>> {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Stack,
    ];
    vec![
        FnWorkload::boxed_sized(
            "fft",
            "cdag",
            "radix-2 Cooley-Tukey FFT: bounded reuse, writes within O(1) of reads (Cor 2)",
            &backends,
            &[],
            |scale, _| {
                let n: u64 = match scale {
                    Scale::Small => 1 << 13,
                    Scale::Paper => 1 << 15,
                };
                2 * n * 8
            },
            |wa_core::engine::RunCfg { backend, scale, .. }| {
                // Signal larger than fast memory so the butterflies spill.
                let n = match scale {
                    Scale::Small => 1 << 13,
                    Scale::Paper => 1 << 15,
                };
                let mut data = vec![0.0; 2 * n];
                for i in 0..n {
                    let c = Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.2).cos());
                    data[2 * i] = c.re;
                    data[2 * i + 1] = c.im;
                }
                run_backend("fft", backend, scale, data, |mem| fft_mem(mem, 0, n))
                    .map(|r| r.config("n", n))
            },
        ),
        FnWorkload::boxed_sized(
            "strassen",
            "cdag",
            "Strassen matmul: max reuse 4, so writes are Omega(flops/M^(log2 7 - 1)) (Cor 3)",
            &backends,
            &[],
            |scale, _| {
                let n: usize = match scale {
                    Scale::Small => 64,
                    Scale::Paper => 128,
                };
                (3 * n * n + strassen_scratch_words(n)) as u64 * 8
            },
            |wa_core::engine::RunCfg { backend, scale, .. }| {
                let n = match scale {
                    Scale::Small => 64,
                    Scale::Paper => 128,
                };
                let cutoff = 16;
                let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
                let scratch0 = words;
                let total = words + strassen_scratch_words(n);
                let mut raw = RawMem::new(total);
                d[0].store_mat(&mut raw, &Mat::random(n, n, 81));
                d[1].store_mat(&mut raw, &Mat::random(n, n, 82));
                let data = raw.data;
                run_backend("strassen", backend, scale, data, move |mem| {
                    strassen_mem(mem, d[0], d[1], d[2], scratch0, cutoff)
                })
                .map(|r| r.config("n", n).config("cutoff", cutoff))
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cdag_workload_runs_on_each_declared_backend() {
        for w in workloads() {
            for &b in w.backends() {
                w.run(b, Scale::Small)
                    .unwrap_or_else(|e| panic!("{} on {b}: {e}", w.name()));
            }
        }
    }

    #[test]
    fn fft_writes_track_traffic_not_output() {
        let ws = workloads();
        let w = ws.iter().find(|w| w.name() == "fft").unwrap();
        let r = w.run(BackendKind::Simmed, Scale::Small).unwrap();
        let t = r.slow_traffic();
        // Not write-avoiding: writes are a constant fraction of traffic,
        // far above the output size (2n words = n/4 lines of 2^13 signal).
        assert!(t.store_words * 3 > t.load_words, "{t}");
    }
}
