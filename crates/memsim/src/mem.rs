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
//! Every store pays per run, not per word: a run costs one cancel tick
//! and one bulk step of its store (a `memcpy`, one sink call, one trace
//! extension), however many words it moves.
//!
//! [`crate::backend::run_on_backend`] picks the store per engine backend.

use crate::backend::Sink;
use crate::hierarchy::MemSim;
use wa_core::cancel::CancelPoll;

/// Word-addressed memory with read/write instrumentation hooks.
///
/// The bulk accessors `ld_run`/`st_run` describe one *run* of consecutive
/// words, and every store implements them itself: there is no per-word
/// default, so no store falls back to word-at-a-time on a run. A run must
/// leave the store as the per-word `ld`/`st` loop over its words would
/// (same data, same observed word stream); [`RawMem`] moves it with
/// `memcpy`, [`SimMem`] routes it through its sink's run-granular
/// [`Sink::read_range`]/[`Sink::write_range`] (for the cache simulator,
/// the line-granular [`MemSim::read_range`] fast path — which is where
/// the order-of-magnitude simulation speedup of the instrumented kernels
/// comes from) and [`TraceMem`] records it with one trace extension.
pub trait Mem {
    /// Load the word at `addr`.
    fn ld(&mut self, addr: usize) -> f64;
    /// Store `v` at `addr`.
    fn st(&mut self, addr: usize, v: f64);

    /// Load the run `[addr, addr + out.len())` into `out`.
    fn ld_run(&mut self, addr: usize, out: &mut [f64]);

    /// Store `src` over the run `[addr, addr + src.len())`.
    fn st_run(&mut self, addr: usize, src: &[f64]);

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
///
/// Packed to 9 bytes (no padding after `is_write`), which halves a
/// recorded trace's memory and bandwidth. A packed field may be
/// misaligned, so read the fields by value (`a.addr`, `a.is_write`),
/// never by reference: `&a.addr` does not compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, packed)]
pub struct Access {
    pub addr: usize,
    pub is_write: bool,
}

/// Trace-recording backing store. Each word a kernel moves becomes one
/// [`Access`]; a run is recorded with one cancel tick and one trace
/// extension.
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

    /// Record the run `[addr, addr + words)`: the words the per-word
    /// loop would tick and push, in one tick and one extension.
    #[inline]
    fn record(&mut self, addr: usize, words: usize, is_write: bool) {
        wa_core::cancel::tick(words as u64);
        self.trace
            .extend((addr..addr + words).map(|addr| Access { addr, is_write }));
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

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        self.record(addr, out.len(), false);
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.record(addr, src.len(), true);
        self.data[addr..addr + src.len()].copy_from_slice(src);
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
    use proptest::prelude::*;
    use wa_core::cancel::{self, CancelReason, CancelToken, CancellationUnwind, CHECK_INTERVAL};

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

    #[test]
    fn access_records_are_nine_bytes() {
        assert_eq!(std::mem::size_of::<Access>(), 9);
    }

    /// The word-at-a-time recorder: a [`TraceMem`] whose runs are the
    /// per-word `ld`/`st` loop over their words.
    struct WordTrace(TraceMem);

    impl Mem for WordTrace {
        fn ld(&mut self, addr: usize) -> f64 {
            self.0.ld(addr)
        }

        fn st(&mut self, addr: usize, v: f64) {
            self.0.st(addr, v)
        }

        fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self.0.ld(addr + i);
            }
        }

        fn st_run(&mut self, addr: usize, src: &[f64]) {
            for (i, &v) in src.iter().enumerate() {
                self.0.st(addr + i, v);
            }
        }

        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// One step of a recorder test: `(kind, addr, words)`, where kind 0
    /// is `ld`, 1 `st`, 2 `ld_run` and 3 `st_run`.
    type Step = (u8, usize, usize);

    /// Run `steps` on `m` under a fresh cancel token, returning the sum
    /// of the loaded values and the words the thread-local cancel clock
    /// advanced by. The clock is read by firing the token and ticking one
    /// check interval, which checks at once and unwinds with the clock.
    fn drive<M: Mem>(m: &mut M, steps: &[Step]) -> (f64, u64) {
        let token = CancelToken::new();
        let _guard = cancel::install(token.clone());
        let mut sum = 0.0;
        let mut buf = Vec::new();
        for (k, &(kind, addr, words)) in steps.iter().enumerate() {
            let v = k as f64 + 0.5;
            match kind {
                0 => sum += m.ld(addr),
                1 => m.st(addr, v),
                2 => {
                    buf.resize(words, 0.0);
                    m.ld_run(addr, &mut buf);
                    sum += buf.iter().sum::<f64>();
                }
                _ => {
                    buf.clear();
                    buf.extend((0..words).map(|i| v + i as f64));
                    m.st_run(addr, &buf);
                }
            }
        }
        token.cancel(CancelReason::Deadline);
        let unwound = std::panic::catch_unwind(|| cancel::tick(CHECK_INTERVAL)).unwrap_err();
        let c = unwound
            .downcast_ref::<CancellationUnwind>()
            .expect("typed cancellation payload");
        (sum, c.after_accesses - CHECK_INTERVAL)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `TraceMem`'s runs record exactly what the per-word loop does:
        /// the same trace and data, and the same words on the cancel
        /// clock, zero-length runs included.
        #[test]
        fn trace_runs_match_a_word_at_a_time_recorder(
            spec in prop::collection::vec((0u8..4, 0usize..64, 0usize..24), 0..60),
        ) {
            const WORDS: usize = 96;
            let steps: Vec<Step> = spec
                .iter()
                .map(|&(kind, addr, words)| (kind, addr, words.min(WORDS - addr)))
                .collect();
            let mut word = WordTrace(TraceMem::new(WORDS));
            let mut runs = TraceMem::new(WORDS);
            let (word_sum, word_ticks) = drive(&mut word, &steps);
            let (run_sum, run_ticks) = drive(&mut runs, &steps);
            prop_assert_eq!(runs.trace, word.0.trace);
            prop_assert_eq!(runs.data, word.0.data);
            prop_assert_eq!(run_sum, word_sum);
            prop_assert_eq!(run_ticks, word_ticks);
            prop_assert_eq!(run_ticks, runs.trace.len() as u64);
        }
    }
}
