//! Slow-memory traffic charging for the Krylov kernels.
//!
//! Explicit-model convention of §8: the matrix and all n-vectors reside in
//! slow memory (n ≫ M₁); scalars and every O(s)×O(s) object live in fast
//! memory for free. Kernels charge reads and writes of vector/matrix
//! streams as they move them — each charge is one *run* (one block
//! transfer) over that stream's nominal slow-memory span.
//!
//! The kernels charge a [`SimIo`] over any [`memsim::Sink`]:
//!
//! * [`wa_core::Traffic`] — the hand-counted explicit model: word/message
//!   totals on a single fast↔slow boundary (the paper's `W12`), so `msgs`
//!   means block transfers, not words;
//! * [`memsim::MemSim`] — the multi-level cache simulator (the `simmed`
//!   backend, whose line-granular write-backs the cross-model tests
//!   compare against the tally);
//! * [`memsim::StackSim`] — the single-pass Mattson stack simulator (the
//!   `stack` backend, exact FA-LRU fills and write-backs for every
//!   capacity at once).

use memsim::Sink;
use wa_core::report::RunReport;
use wa_core::AccessRun;

/// The charging surface the Krylov kernels drive: a [`Sink`] plus a flop
/// count. Addresses are *nominal* slow-memory word spans (each
/// vector/matrix stream owns a line-aligned range); the explicit tally
/// ignores them, the simulators cache them.
pub struct SimIo<S> {
    pub sim: S,
    pub flops: u64,
}

impl<S: Sink> SimIo<S> {
    pub fn new(sim: S) -> Self {
        SimIo { sim, flops: 0 }
    }

    /// Charge one read run of `words` words starting at `addr`.
    pub(crate) fn read_at(&mut self, addr: usize, words: usize) {
        self.sim.read_range(addr, words);
    }

    /// Charge one write run of `words` words starting at `addr`.
    pub(crate) fn write_at(&mut self, addr: usize, words: usize) {
        self.sim.write_range(addr, words);
    }

    /// Charge a batch of access runs.
    pub(crate) fn run(&mut self, runs: &[AccessRun]) {
        for r in runs {
            if r.is_write {
                self.write_at(r.addr, r.words);
            } else {
                self.read_at(r.addr, r.words);
            }
        }
    }

    /// Charge `n` floating-point operations.
    pub(crate) fn flop(&mut self, n: usize) {
        self.flops += n as u64;
    }

    /// Mark a profiling phase boundary (see [`memsim::Probe`]); a no-op
    /// unless the sink profiles phases.
    pub(crate) fn phase(&mut self, name: &'static str) {
        self.sim.phase(name);
    }

    /// Project the run onto `base` through the sink (the tally on one
    /// boundary, the flushed cache simulator, the stack at `m1_words`)
    /// and record the flops.
    pub(crate) fn report(mut self, m1_words: usize, base: RunReport) -> RunReport {
        let mut r = self.sim.report(m1_words, base);
        r.flops = self.flops;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::Traffic;

    #[test]
    fn each_charge_is_one_message() {
        let mut t = SimIo::new(Traffic::ZERO);
        t.read_at(0, 1000);
        t.read_at(1000, 1000);
        t.write_at(0, 500);
        t.read_at(0, 0); // empty: not a transfer
        t.flop(100);
        assert_eq!(t.sim.load_msgs, 2);
        assert_eq!(t.sim.store_msgs, 1);
        t.run(&[AccessRun::read(0, 8), AccessRun::write(8, 8)]);
        assert_eq!(t.sim.load_msgs, 3);
        assert_eq!(t.sim.store_msgs, 2);
        assert_eq!(t.sim.load_words, 2008);
        assert_eq!(t.sim.store_words, 508);
        assert_eq!(t.flops, 100);
    }
}
