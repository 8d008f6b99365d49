//! Slow-memory traffic charging for the Krylov kernels.
//!
//! Explicit-model convention of §8: the matrix and all n-vectors reside in
//! slow memory (n ≫ M₁); scalars and every O(s)×O(s) object live in fast
//! memory for free. Kernels charge reads and writes of vector/matrix
//! streams as they move them — each charge is one *run* (one block
//! transfer) over that stream's nominal slow-memory span.
//!
//! The kernels are generic over [`IoSink`], which has two substrates:
//!
//! * [`IoTally`] — the hand-counted explicit model: word/message totals
//!   on a single fast↔slow boundary (the paper's `W12`), recorded through
//!   the batched [`Traffic`] API (so `msgs` means block transfers, not
//!   words);
//! * [`SimIo`] — the *same* run stream replayed through a
//!   [`memsim::Sink`]: the multi-level cache simulator
//!   ([`memsim::MemSim`], the `simmed` backend, whose line-granular
//!   write-backs the cross-model tests compare against the tally) or the
//!   single-pass Mattson stack simulator ([`memsim::StackSim`], the
//!   `stack` backend, exact FA-LRU fills and write-backs for every
//!   capacity at once).

use memsim::Sink;
use wa_core::report::RunReport;
use wa_core::{AccessRun, Traffic};

/// The charging surface the Krylov kernels drive. Addresses are *nominal*
/// slow-memory word spans (each vector/matrix stream owns a line-aligned
/// range); the tally ignores them, the simulator caches them.
pub trait IoSink {
    /// Charge one read run of `words` words starting at `addr`.
    fn read_at(&mut self, addr: usize, words: usize);
    /// Charge one write run of `words` words starting at `addr`.
    fn write_at(&mut self, addr: usize, words: usize);
    /// Charge `n` floating-point operations.
    fn flop(&mut self, n: usize);
    /// Charge a batch of access runs.
    fn run(&mut self, runs: &[AccessRun]) {
        for r in runs {
            if r.is_write {
                self.write_at(r.addr, r.words);
            } else {
                self.read_at(r.addr, r.words);
            }
        }
    }

    /// Mark a profiling phase boundary (see [`memsim::Probe`]). No-op on
    /// the tally; [`SimIo`] routes it to its sink.
    fn phase(&mut self, _name: &'static str) {}
}

/// Slow-memory traffic of a Krylov solve (the `W12` of the paper's §8),
/// kept as a one-boundary [`Traffic`]: `load_*` = reads from slow memory,
/// `store_*` = writes to slow memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTally {
    /// Word and message counts across the fast↔slow boundary.
    pub traffic: Traffic,
    /// Floating-point operations.
    pub flops: u64,
}

impl IoTally {
    /// Charge one read run of `words` words from slow memory.
    pub fn read(&mut self, words: usize) {
        self.traffic.load_run(words as u64);
    }

    /// Charge one write run of `words` words to slow memory.
    pub fn write(&mut self, words: usize) {
        self.traffic.store_run(words as u64);
    }

    /// Charge a batch of access runs (the bulk API).
    pub fn run(&mut self, runs: &[AccessRun]) {
        self.traffic.run(runs);
    }

    /// Words read from slow memory.
    pub fn reads(&self) -> u64 {
        self.traffic.load_words
    }

    /// Words written to slow memory.
    pub fn writes(&self) -> u64 {
        self.traffic.store_words
    }

    pub fn flop(&mut self, n: usize) {
        self.flops += n as u64;
    }

    /// Writes per "CG-step equivalent" given `steps` conventional
    /// iterations' worth of progress.
    pub fn writes_per_step(&self, steps: usize) -> f64 {
        self.writes() as f64 / steps.max(1) as f64
    }
}

impl IoSink for IoTally {
    fn read_at(&mut self, _addr: usize, words: usize) {
        self.read(words);
    }

    fn write_at(&mut self, _addr: usize, words: usize) {
        self.write(words);
    }

    fn flop(&mut self, n: usize) {
        self.flops += n as u64;
    }

    fn run(&mut self, runs: &[AccessRun]) {
        self.traffic.run(runs);
    }
}

impl std::ops::AddAssign for IoTally {
    fn add_assign(&mut self, o: IoTally) {
        self.traffic += o.traffic;
        self.flops += o.flops;
    }
}

/// [`IoSink`] that replays the kernel's run stream through a simulator
/// sink — the Krylov `simmed` ([`memsim::MemSim`]) and `stack`
/// ([`memsim::StackSim`]) backends.
pub struct SimIo<S> {
    pub sim: S,
    pub flops: u64,
}

impl<S: Sink> SimIo<S> {
    pub fn new(sim: S) -> Self {
        SimIo { sim, flops: 0 }
    }

    /// Project the run onto `base` through the sink (flushing the cache
    /// simulator; the stack at `m1_words`) and record the flops.
    pub fn report(mut self, m1_words: usize, base: RunReport) -> RunReport {
        let mut r = self.sim.report(m1_words, base);
        r.flops = self.flops;
        r
    }
}

impl<S: Sink> IoSink for SimIo<S> {
    fn read_at(&mut self, addr: usize, words: usize) {
        self.sim.read_range(addr, words);
    }

    fn write_at(&mut self, addr: usize, words: usize) {
        self.sim.write_range(addr, words);
    }

    fn flop(&mut self, n: usize) {
        self.flops += n as u64;
    }

    fn phase(&mut self, name: &'static str) {
        self.sim.phase(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates() {
        let mut t = IoTally::default();
        t.read(10);
        t.write(4);
        t.flop(100);
        let mut u = IoTally::default();
        u.read(1);
        u += t;
        assert_eq!(u.reads(), 11);
        assert_eq!(u.writes(), 4);
        assert_eq!(u.flops, 100);
        assert_eq!(t.writes_per_step(2), 2.0);
    }

    #[test]
    fn each_charge_is_one_message() {
        let mut t = IoTally::default();
        t.read(1000);
        t.read(1000);
        t.write(500);
        t.read(0); // empty: not a transfer
        assert_eq!(t.traffic.load_msgs, 2);
        assert_eq!(t.traffic.store_msgs, 1);
        t.run(&[AccessRun::read(0, 8), AccessRun::write(8, 8)]);
        assert_eq!(t.traffic.load_msgs, 3);
        assert_eq!(t.traffic.store_msgs, 2);
        assert_eq!(t.reads(), 2008);
        assert_eq!(t.writes(), 508);
    }
}
