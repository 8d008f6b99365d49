//! Engine registrations for the bounded-reuse CDAG kernels (Theorem 2 /
//! Corollaries 2–3): FFT and Strassen. Neither admits a write-avoiding
//! reordering — the point of running them through the same engine as the
//! WA kernels is to watch `writes_to_slow` track total traffic instead of
//! the output size.

use crate::fft::{fft_mem, Complex};
use crate::strassen::{strassen_mem, strassen_scratch_words};
use dense::desc::alloc_layout;
use dense::workloads::fast_words;
use memsim::{run_on_backend, Kernel, Mem, RawMem};
use wa_core::engine::{BackendKind, Scale, Workload};
use wa_core::report::RunReport;
use wa_core::Mat;

/// Run `kernel` over the staged `data` on `backend` against the scale's
/// L3-sized fast memory.
fn run_cdag(
    name: &str,
    backend: BackendKind,
    scale: Scale,
    data: Vec<f64>,
    kernel: impl Kernel,
) -> RunReport {
    let base = RunReport::new(name, backend, scale).config("fast_words", fast_words(scale));
    let mut r = run_on_backend(backend, base, data, &[fast_words(scale)], kernel);
    // The cdag cells' frozen reference counts predate the distinct-line
    // tally, so their traced reports keep echoing length and writes only.
    r.config.retain(|(k, _)| k != "trace_distinct_lines");
    r
}

pub fn workloads() -> Vec<Workload> {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Stack,
    ];
    vec![
        Workload::new(
            "fft",
            "cdag",
            "radix-2 Cooley-Tukey FFT: bounded reuse, writes within O(1) of reads (Cor 2)",
            &backends,
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
                let r = run_cdag("fft", backend, scale, data, |mem: &mut &mut dyn Mem| {
                    fft_mem(mem, 0, n)
                });
                Ok(r.config("n", n))
            },
        ),
        Workload::new(
            "strassen",
            "cdag",
            "Strassen matmul: max reuse 4, so writes are Omega(flops/M^(log2 7 - 1)) (Cor 3)",
            &backends,
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
                let kernel =
                    |mem: &mut &mut dyn Mem| strassen_mem(mem, d[0], d[1], d[2], scratch0, cutoff);
                let r = run_cdag("strassen", backend, scale, raw.data, kernel);
                Ok(r.config("n", n).config("cutoff", cutoff))
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

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
