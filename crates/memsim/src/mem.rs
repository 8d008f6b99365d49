//! The access abstraction instrumented kernels are generic over.
//!
//! Kernels in `dense`, `cdag` and `nbody` are written once against
//! [`Mem`] and run unchanged on three stores:
//!
//! * [`RawMem`] — plain `Vec<f64>` access: used for numeric verification
//!   and wall-clock benchmarks. Its only instrumentation is the cancel
//!   checkpoint its runs tick;
//! * [`SimMem`] — every access drives a [`Sink`] *and* performs the
//!   arithmetic, so counts come from real executions with verified
//!   outputs. The sink is the cache simulator ([`crate::MemSim`],
//!   `simmed`), the Mattson stack ([`crate::StackSim`], `stack`) or the
//!   streaming tally ([`crate::TraceTally`], `traced`);
//! * [`TraceMem`] — records the `(address, is_write)` stream for offline
//!   analysis (Belady simulation, CDAG reuse statistics).
//!
//! [`crate::backend::run_on_backend`] picks the store per engine backend.

use crate::backend::Sink;
use crate::hierarchy::MemSim;
use wa_core::cancel::CancelPoll;

/// Word-addressed memory with read/write instrumentation hooks.
///
/// The bulk accessors `ld_run`/`st_run` describe one *run* of consecutive
/// words. Their default implementations fall back to the per-word hooks
/// (so every backend observes the identical word stream), but [`RawMem`]
/// overrides them with `memcpy` and [`SimMem`] routes them through its
/// sink's run-granular [`Sink::read_range`]/[`Sink::write_range`] (for
/// the cache simulator, the line-granular [`MemSim::read_range`] fast
/// path) — which is where the order-of-magnitude simulation speedup
/// of the instrumented kernels comes from.
pub trait Mem {
    /// Load the word at `addr`.
    fn ld(&mut self, addr: usize) -> f64;
    /// Store `v` at `addr`.
    fn st(&mut self, addr: usize, v: f64);

    /// Load the run `[addr, addr + out.len())` into `out`.
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.ld(addr + i);
        }
    }

    /// Store `src` over the run `[addr, addr + src.len())`.
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        for (i, &v) in src.iter().enumerate() {
            self.st(addr + i, v);
        }
    }

    /// Number of words of backing storage.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark a profiling phase boundary (see [`crate::probe::Probe`]).
    /// No-op by default, so kernels can mark phases unconditionally;
    /// [`SimMem`] routes it to its sink.
    fn phase(&mut self, _name: &'static str) {}
}

/// Forwarding impl so code generic over `M: Mem` can also run through a
/// `&mut dyn Mem` (pass `&mut mem_ref`): the engine's workload runners use
/// this to hand one closure all four backends.
impl<M: Mem + ?Sized> Mem for &mut M {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        (**self).ld(addr)
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        (**self).st(addr, v)
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        (**self).ld_run(addr, out)
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        (**self).st_run(addr, src)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn phase(&mut self, name: &'static str) {
        (**self).phase(name)
    }
}

/// Uncounted backing store. Its runs (`ld_run`/`st_run`) tick the words
/// they move on a cancel checkpoint, so a raw cell honors its deadline;
/// the per-word `ld`/`st` stay bare.
pub struct RawMem {
    pub data: Vec<f64>,
    /// Words moved by runs so far: the clock `cancel` is checked on.
    run_words: u64,
    cancel: CancelPoll,
}

impl RawMem {
    pub fn new(words: usize) -> Self {
        RawMem::from_vec(vec![0.0; words])
    }

    pub fn from_vec(data: Vec<f64>) -> Self {
        RawMem {
            data,
            run_words: 0,
            cancel: CancelPoll::new(),
        }
    }

    #[inline]
    fn tick(&mut self, words: usize) {
        self.run_words += words as u64;
        self.cancel.at(self.run_words);
    }
}

impl Mem for RawMem {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        self.data[addr]
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        self.data[addr] = v;
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        self.tick(out.len());
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.tick(src.len());
        self.data[addr..addr + src.len()].copy_from_slice(src);
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

/// Simulator-backed store: every access drives the sink `S` (by default
/// the cache simulator) and the data.
pub struct SimMem<S = MemSim> {
    pub data: Vec<f64>,
    pub sim: S,
}

impl<S: Sink> SimMem<S> {
    pub fn new(words: usize, sim: S) -> Self {
        SimMem {
            data: vec![0.0; words],
            sim,
        }
    }

    pub fn from_vec(data: Vec<f64>, sim: S) -> Self {
        SimMem { data, sim }
    }
}

impl<S: Sink> Mem for SimMem<S> {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        self.sim.read(addr);
        self.data[addr]
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        self.sim.write(addr);
        self.data[addr] = v;
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        self.sim.read_range(addr, out.len());
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.sim.write_range(addr, src.len());
        self.data[addr..addr + src.len()].copy_from_slice(src);
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn phase(&mut self, name: &'static str) {
        self.sim.phase(name);
    }
}

/// One recorded access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub addr: usize,
    pub is_write: bool,
}

/// Trace-recording backing store.
pub struct TraceMem {
    pub data: Vec<f64>,
    pub trace: Vec<Access>,
}

impl TraceMem {
    pub fn new(words: usize) -> Self {
        TraceMem {
            data: vec![0.0; words],
            trace: Vec::new(),
        }
    }

    pub fn from_vec(data: Vec<f64>) -> Self {
        TraceMem {
            data,
            trace: Vec::new(),
        }
    }
}

impl Mem for TraceMem {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        wa_core::cancel::tick(1);
        self.trace.push(Access {
            addr,
            is_write: false,
        });
        self.data[addr]
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        wa_core::cancel::tick(1);
        self.trace.push(Access {
            addr,
            is_write: true,
        });
        self.data[addr] = v;
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::policy::Policy;

    fn run_kernel<M: Mem>(m: &mut M) -> f64 {
        // A toy kernel: y[i] = x[i] * 2 with x at 0..4, y at 4..8.
        let mut acc = 0.0;
        for i in 0..4 {
            let v = m.ld(i) * 2.0;
            m.st(4 + i, v);
            acc += v;
        }
        acc
    }

    #[test]
    fn raw_and_sim_agree_numerically() {
        let input = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        let mut raw = RawMem::from_vec(input.clone());
        let sim = MemSim::two_level(CacheConfig {
            capacity_words: 16,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        });
        let mut simm = SimMem::from_vec(input, sim);
        assert_eq!(run_kernel(&mut raw), run_kernel(&mut simm));
        assert_eq!(raw.data, simm.data);
        assert!(simm.sim.llc().hits + simm.sim.llc().misses == 8);
    }

    #[test]
    fn trace_records_in_order() {
        let mut t = TraceMem::new(8);
        t.st(0, 1.0);
        let _ = t.ld(0);
        assert_eq!(
            t.trace,
            vec![
                Access {
                    addr: 0,
                    is_write: true
                },
                Access {
                    addr: 0,
                    is_write: false
                },
            ]
        );
    }
}
