//! The one backend layer the access-driven kernels run through.
//!
//! Every simulated count in the workspace comes from the same four steps:
//! stage the data, wrap it in a simulator-backed [`Mem`], time the
//! kernel, and project the simulator onto a [`RunReport`]. This module
//! holds those steps once:
//!
//! * [`Sink`] — the access-counting surface behind [`SimMem`], with one
//!   projection onto a report. [`MemSim`] (`simmed`), [`StackSim`]
//!   (`stack`) and [`TraceTally`] (`traced`) implement it by forwarding
//!   to their inherent methods; the explicit tally [`Traffic`] implements
//!   it address-blind, and `()` is the sink that counts nothing;
//! * [`Kernel`] — the kernel a runner drives. Closures over
//!   `&mut &mut dyn Mem` implement it; a caller whose kernel is generic
//!   over `M: Mem` implements it on a small struct and stays
//!   monomorphized per backend;
//! * [`run_on_backend`] — builds the per-backend `Mem` (raw, simmed,
//!   traced or stack), times the kernel and returns the projected report.

use crate::hierarchy::MemSim;
use crate::mem::{Mem, RawMem, SimMem};
use crate::report::{memsim_report, stack_report};
use crate::stack::StackSim;
use crate::tally::TraceTally;
use wa_core::engine::BackendKind;
use wa_core::report::{timed, RunReport};
use wa_core::{BoundaryTraffic, Traffic};

/// An access counter a [`SimMem`] drives: one simulator or tally per
/// backend, plus its projection onto a [`RunReport`].
pub trait Sink {
    /// Record reads of every word of `[addr, addr + words)`.
    fn read_range(&mut self, addr: usize, words: usize);
    /// Record writes to every word of `[addr, addr + words)`.
    fn write_range(&mut self, addr: usize, words: usize);

    /// Record a read of the word at `addr`.
    #[inline]
    fn read(&mut self, addr: usize) {
        self.read_range(addr, 1);
    }

    /// Record a write of the word at `addr`.
    #[inline]
    fn write(&mut self, addr: usize) {
        self.write_range(addr, 1);
    }

    /// Persist `[addr, addr + words)` to the backing store (clwb-style).
    /// No-op unless the sink tracks dirty lines.
    fn writeback_range(&mut self, _addr: usize, _words: usize) {}

    /// Mark a profiling phase boundary (see [`crate::probe::Probe`]).
    /// No-op unless the sink profiles phases.
    fn phase(&mut self, _name: &'static str) {}

    /// Append this sink's counters to `base`. `fast_words` is the
    /// fastest level's capacity, where a capacity-independent sink
    /// projects its boundary.
    fn report(&mut self, fast_words: usize, base: RunReport) -> RunReport;
}

impl Sink for MemSim {
    #[inline]
    fn read_range(&mut self, addr: usize, words: usize) {
        MemSim::read_range(self, addr, words);
    }

    #[inline]
    fn write_range(&mut self, addr: usize, words: usize) {
        MemSim::write_range(self, addr, words);
    }

    #[inline]
    fn read(&mut self, addr: usize) {
        MemSim::read(self, addr);
    }

    #[inline]
    fn write(&mut self, addr: usize) {
        MemSim::write(self, addr);
    }

    #[inline]
    fn writeback_range(&mut self, addr: usize, words: usize) {
        MemSim::writeback_range(self, addr, words);
    }

    #[inline]
    fn phase(&mut self, name: &'static str) {
        MemSim::phase(self, name);
    }

    /// Flush, so end-of-run dirty lines are charged, then project every
    /// boundary.
    fn report(&mut self, _fast_words: usize, base: RunReport) -> RunReport {
        self.flush();
        memsim_report(self, base).note("flushed: end-of-run dirty lines charged down to DRAM")
    }
}

impl Sink for StackSim {
    #[inline]
    fn read_range(&mut self, addr: usize, words: usize) {
        StackSim::read_range(self, addr, words);
    }

    #[inline]
    fn write_range(&mut self, addr: usize, words: usize) {
        StackSim::write_range(self, addr, words);
    }

    #[inline]
    fn read(&mut self, addr: usize) {
        StackSim::read(self, addr);
    }

    #[inline]
    fn write(&mut self, addr: usize) {
        StackSim::write(self, addr);
    }

    /// The curve's projection at `fast_words`; no flush is needed, since
    /// [`StackSim::curve`] folds end-of-trace dirty state itself.
    fn report(&mut self, fast_words: usize, base: RunReport) -> RunReport {
        stack_report(self, fast_words, base)
    }
}

impl Sink for TraceTally {
    #[inline]
    fn read_range(&mut self, addr: usize, words: usize) {
        TraceTally::read_range(self, addr, words);
    }

    #[inline]
    fn write_range(&mut self, addr: usize, words: usize) {
        TraceTally::write_range(self, addr, words);
    }

    /// The trace echo: length, writes and distinct lines.
    fn report(&mut self, _fast_words: usize, base: RunReport) -> RunReport {
        base.config("trace_len", self.words())
            .config("trace_writes", self.writes())
            .config("trace_distinct_lines", self.distinct_lines())
    }
}

/// The explicit tally, address-blind: each non-empty run is one message
/// across its single fast↔slow boundary ([`Traffic::load_run`] and
/// [`Traffic::store_run`]).
impl Sink for Traffic {
    #[inline]
    fn read_range(&mut self, _addr: usize, words: usize) {
        self.load_run(words as u64);
    }

    #[inline]
    fn write_range(&mut self, _addr: usize, words: usize) {
        self.store_run(words as u64);
    }

    /// The tally on one boundary: loads are reads from slow memory,
    /// stores writes to it.
    fn report(&mut self, _fast_words: usize, base: RunReport) -> RunReport {
        let mut bt = BoundaryTraffic::new(2);
        *bt.boundary_mut(0) = *self;
        base.with_boundaries(&bt, &[])
    }
}

/// The sink that counts nothing: the counters-only distributed machine.
impl Sink for () {
    #[inline]
    fn read_range(&mut self, _addr: usize, _words: usize) {}

    #[inline]
    fn write_range(&mut self, _addr: usize, _words: usize) {}

    fn report(&mut self, _fast_words: usize, base: RunReport) -> RunReport {
        base
    }
}

/// A kernel [`run_on_backend`] drives once over the staged memory.
pub trait Kernel {
    fn run<M: Mem>(self, mem: &mut M);
}

/// Closures see every backend through one `&mut dyn Mem`.
impl<F: FnOnce(&mut &mut dyn Mem)> Kernel for F {
    fn run<M: Mem>(self, mem: &mut M) {
        self(&mut (mem as &mut dyn Mem));
    }
}

/// Run `kernel` over `data` on `backend` and return `base` with the
/// backend's counters appended and `wall_ns` set to the kernel's time.
/// `caps` are the simulated cache capacities in words, fastest first:
/// `simmed` stacks one fully-associative LRU level per entry, and
/// `stack` projects at `caps[0]`.
///
/// # Panics
///
/// On [`BackendKind::Explicit`], which counts block moves by hand and
/// has no [`Mem`] backend.
pub fn run_on_backend(
    backend: BackendKind,
    base: RunReport,
    data: Vec<f64>,
    caps: &[usize],
    kernel: impl Kernel,
) -> RunReport {
    match backend {
        BackendKind::Raw => {
            let mut mem = RawMem::from_vec(data);
            let (_, ns) = timed(|| kernel.run(&mut mem));
            let mut r = base;
            r.wall_ns = ns;
            r
        }
        BackendKind::Simmed => run_sink(MemSim::stacked_lru(caps), caps, base, data, kernel),
        BackendKind::Traced => {
            run_sink(TraceTally::with_span(data.len()), caps, base, data, kernel)
        }
        BackendKind::Stack => run_sink(StackSim::new(), caps, base, data, kernel),
        BackendKind::Explicit => panic!("the explicit backend has no Mem to run a kernel on"),
    }
}

fn run_sink<S: Sink>(
    sink: S,
    caps: &[usize],
    base: RunReport,
    data: Vec<f64>,
    kernel: impl Kernel,
) -> RunReport {
    let mut mem = SimMem::from_vec(data, sink);
    let (_, ns) = timed(|| kernel.run(&mut mem));
    let mut r = mem.sim.report(caps[0], base);
    r.wall_ns = ns;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::engine::Scale;

    /// Words of the toy kernel's input `x` and output `y`.
    const N: usize = 64;

    /// `y += 2x` with `x` at `[0, N)` and `y` at `[N, 2N)`: per-word
    /// loads of `x`, runs over `y`, then a run reading `y` back into
    /// `out`. Touches 4N words and writes N.
    fn toy(mem: &mut &mut dyn Mem, out: &mut Vec<f64>) {
        let mut y = vec![0.0; N];
        mem.ld_run(N, &mut y);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi += 2.0 * mem.ld(i);
        }
        mem.st_run(N, &y);
        mem.phase("readback");
        out.resize(N, 0.0);
        mem.ld_run(N, out);
    }

    fn run_toy(backend: BackendKind) -> (RunReport, Vec<f64>) {
        let data: Vec<f64> = (0..2 * N).map(|i| i as f64).collect();
        let base = RunReport::new("toy", backend, Scale::Small).config("n", N);
        let mut out = Vec::new();
        // Two lines of fast memory, so the kernel evicts dirty lines.
        let r = run_on_backend(backend, base, data, &[16], |mem: &mut &mut dyn Mem| {
            toy(mem, &mut out)
        });
        (r, out)
    }

    fn config<'a>(r: &'a RunReport, key: &str) -> &'a str {
        let (_, v) = r.config.iter().find(|(k, _)| k == key).unwrap();
        v
    }

    #[test]
    fn runner_drives_one_kernel_through_every_mem_backend() {
        let backends = [
            BackendKind::Raw,
            BackendKind::Simmed,
            BackendKind::Traced,
            BackendKind::Stack,
        ];
        let runs: Vec<(RunReport, Vec<f64>)> = backends.iter().map(|&b| run_toy(b)).collect();
        let expect: Vec<f64> = (0..N).map(|i| (N + i) as f64 + 2.0 * i as f64).collect();
        for ((r, out), b) in runs.iter().zip(backends) {
            assert_eq!(out, &expect, "{b}: kernel output");
            assert_eq!(r.backend, b);
            // The caller's base keys come first; backend keys follow.
            assert_eq!(r.config[0].0, "n", "{b}: {:?}", r.config);
            assert_eq!(r.config.len() > 1, b != BackendKind::Raw, "{b}");
        }
        let (simmed, stack, traced) = (&runs[1].0, &runs[3].0, &runs[2].0);
        assert_eq!(stack.boundaries, simmed.boundaries);
        assert!(simmed.writes_to_slow() > 0);
        assert_eq!(config(traced, "trace_len"), (4 * N).to_string());
        assert_eq!(config(traced, "trace_writes"), N.to_string());
        assert_eq!(
            config(traced, "trace_distinct_lines"),
            (2 * N / 8).to_string()
        );
    }
}
