//! Event-counting distributed machine.
//!
//! Each node carries counters for the five boundaries of Figure 1's
//! architecture: network send/receive (attached to L2), L3↔L2 (NVM read /
//! NVM write), and L2↔L1. Algorithms charge counters as they move real
//! data; [`Machine::critical_time`] folds the *maximum* per-node counters
//! through a [`wa_core::CostParams`] — the critical-path convention of the
//! communication-avoiding literature.
//!
//! Beyond the explicit counters, [`Machine::with_sinks`] attaches one
//! [`Sink`] *per rank* — a [`MemSim`] cache hierarchy over node-local
//! NVM (`simmed`), a streaming [`TraceTally`] (`traced`), or a Mattson
//! [`StackSim`] (`stack`) — and the kernels replay each rank's local
//! accesses through it via `Machine::rank_mem` (a [`Mem`] adapter).
//! The machine is generic over the sink, so the per-rank replay stays
//! monomorphized; the counters-only `Machine` (sink `()`) skips it. The
//! max-per-rank folds are typed impl blocks, one per sink. Addresses
//! come from the symmetric bump allocator [`Machine::alloc`]: every rank
//! allocates the same line-aligned layout, so one address names the same
//! buffer in every rank's private memory.
//! Network payloads land through [`Machine::sim_write`] at the receiver
//! ("charge what the network delivers") and NVM-staged data additionally
//! crosses to the backing store via [`Machine::sim_writeback`]
//! (clwb-style, [`Sink::writeback_range`]).
//!
//! Every counter charge (`Machine::transfer`, `Machine::l3_read`,
//! `Machine::l3_write`, `Machine::local_wa_gemm`) ticks the words it
//! charges on the cancel clock ([`wa_core::cancel::tick`]), so a
//! counters-only run honors its deadline like a simulated one.

use memsim::{memsim_boundaries, Mem, MemSim, Sink, StackSim, TraceTally, LINE_WORDS};
use std::cmp::Reverse;
use wa_core::{CostParams, Traffic};

/// Where a node's operands live, controlling which boundaries a network
/// transfer also crosses (paper Models 2.1 / 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staging {
    /// Operands staged in L2 (DRAM): network transfers touch only L2.
    L2,
    /// Operands staged in L3 (NVM): every send reads L3, every receive
    /// writes L3.
    L3,
}

/// Per-node traffic counters (words and messages per boundary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    pub net_send_words: u64,
    pub net_send_msgs: u64,
    pub net_recv_words: u64,
    pub net_recv_msgs: u64,
    /// L3 → L2 (NVM read).
    pub l3_read_words: u64,
    pub l3_read_msgs: u64,
    /// L2 → L3 (NVM write).
    pub l3_write_words: u64,
    pub l3_write_msgs: u64,
    /// L2 → L1.
    pub l2_read_words: u64,
    pub l2_read_msgs: u64,
    /// L1 → L2.
    pub l2_write_words: u64,
    pub l2_write_msgs: u64,
    pub flops: u64,
}

impl NodeCounters {
    /// Interprocessor words (max of send/recv, the usual critical-path
    /// measure for balanced algorithms).
    pub fn net_words(&self) -> u64 {
        self.net_send_words.max(self.net_recv_words)
    }

    /// Time under `cost` (network counted once at the max of send/recv).
    pub fn time(&self, c: &CostParams) -> f64 {
        let net_msgs = self.net_send_msgs.max(self.net_recv_msgs) as f64;
        c.alpha_nw * net_msgs
            + c.beta_nw * self.net_words() as f64
            + c.alpha_32 * self.l3_read_msgs as f64
            + c.beta_32 * self.l3_read_words as f64
            + c.alpha_23 * self.l3_write_msgs as f64
            + c.beta_23 * self.l3_write_words as f64
            + c.alpha_21 * self.l2_read_msgs as f64
            + c.beta_21 * self.l2_read_words as f64
            + c.alpha_12 * self.l2_write_msgs as f64
            + c.beta_12 * self.l2_write_words as f64
    }
}

impl std::ops::AddAssign for NodeCounters {
    fn add_assign(&mut self, o: NodeCounters) {
        self.net_send_words += o.net_send_words;
        self.net_send_msgs += o.net_send_msgs;
        self.net_recv_words += o.net_recv_words;
        self.net_recv_msgs += o.net_recv_msgs;
        self.l3_read_words += o.l3_read_words;
        self.l3_read_msgs += o.l3_read_msgs;
        self.l3_write_words += o.l3_write_words;
        self.l3_write_msgs += o.l3_write_msgs;
        self.l2_read_words += o.l2_read_words;
        self.l2_read_msgs += o.l2_read_msgs;
        self.l2_write_words += o.l2_write_words;
        self.l2_write_msgs += o.l2_write_msgs;
        self.flops += o.flops;
    }
}

/// The machine: `p` nodes of counters plus the cost parameters, and
/// optionally one [`Sink`] per rank (see [`Machine::with_sinks`]).
pub struct Machine<S: Sink = ()> {
    pub cost: CostParams,
    nodes: Vec<NodeCounters>,
    /// One sink per rank when simulating; empty for counters-only runs.
    sinks: Vec<S>,
    /// Symmetric bump-allocator top (words). Every rank shares one layout.
    heap: usize,
}

impl Machine {
    /// A counters-only machine of `p` nodes: the sim calls are no-ops.
    pub fn new(p: usize, cost: CostParams) -> Self {
        Machine {
            cost,
            nodes: vec![NodeCounters::default(); p],
            sinks: Vec::new(),
            heap: 0,
        }
    }
}

impl<S: Sink> Machine<S> {
    /// A machine whose `p` ranks each carry a private sink from `sink`:
    /// a [`MemSim`] over node-local NVM (`simmed`), a [`TraceTally`]
    /// (`traced`) or a [`StackSim`] (`stack`).
    pub fn with_sinks(p: usize, cost: CostParams, sink: impl FnMut() -> S) -> Self {
        Machine {
            cost,
            nodes: vec![NodeCounters::default(); p],
            sinks: std::iter::repeat_with(sink).take(p).collect(),
            heap: 0,
        }
    }

    pub(crate) fn has_sims(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Allocate `words` of rank-local storage in *every* rank's private
    /// address space (the algorithms here are symmetric: all ranks hold
    /// congruent buffers). Line-aligned so staged block transfers map to
    /// whole-line simulator traffic. Valid — and cheap — without sims, so
    /// kernels can allocate unconditionally.
    pub fn alloc(&mut self, words: usize) -> usize {
        let addr = self.heap;
        self.heap += words.div_ceil(LINE_WORDS) * LINE_WORDS;
        addr
    }

    /// Replay a read of `[addr, addr + words)` on `rank`'s sink.
    pub fn sim_read(&mut self, rank: usize, addr: usize, words: usize) {
        if words == 0 {
            return;
        }
        if let Some(s) = self.sinks.get_mut(rank) {
            s.read_range(addr, words);
        }
    }

    /// Replay a write of `[addr, addr + words)` on `rank`'s sink.
    pub fn sim_write(&mut self, rank: usize, addr: usize, words: usize) {
        if words == 0 {
            return;
        }
        if let Some(s) = self.sinks.get_mut(rank) {
            s.write_range(addr, words);
        }
    }

    /// Persist `[addr, addr + words)` from `rank`'s caches to its
    /// node-local NVM ([`Sink::writeback_range`]). This is how the
    /// simulated backends observe the explicit model's L2→L3 charges: an
    /// NVM-staged receive or an output-block store is a write into cache
    /// *plus* a write-back of exactly those lines. Only [`MemSim`] acts
    /// on it: traces carry no dirtiness, and the stack's projection uses
    /// flushed semantics by construction.
    pub fn sim_writeback(&mut self, rank: usize, addr: usize, words: usize) {
        if let Some(s) = self.sinks.get_mut(rank) {
            s.writeback_range(addr, words);
        }
    }

    /// A [`Mem`] view of `rank`'s sink, for replaying local compute
    /// through the same trait the sequential kernels use. Replay-only:
    /// loads return 0.0 and stores discard values — the numerics live in
    /// the algorithms' global matrices (verified against the sequential
    /// reference); only the access stream is observed here.
    pub(crate) fn rank_mem(&mut self, rank: usize) -> RankMem<'_, S> {
        RankMem { m: self, rank }
    }

    pub(crate) fn p(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn node_mut(&mut self, i: usize) -> &mut NodeCounters {
        &mut self.nodes[i]
    }

    /// Charge a point-to-point transfer of `words` from `src` to `dst`
    /// with the given staging at each end. `src_addr`/`dst_addr` name the
    /// payload buffers in each rank's private address space: the sender
    /// replays a read of its buffer, the receiver replays the landing
    /// write ("charge what the network delivers"), and an L3-staged
    /// receive additionally persists the landed lines to NVM — exactly
    /// the words the counter model charges.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        words: u64,
        src_at: Staging,
        dst_at: Staging,
        src_addr: usize,
        dst_addr: usize,
    ) {
        wa_core::cancel::tick(words);
        {
            let s = &mut self.nodes[src];
            if src_at == Staging::L3 {
                s.l3_read_words += words;
                s.l3_read_msgs += 1;
            }
            s.net_send_words += words;
            s.net_send_msgs += 1;
        }
        {
            let d = &mut self.nodes[dst];
            d.net_recv_words += words;
            d.net_recv_msgs += 1;
            if dst_at == Staging::L3 {
                d.l3_write_words += words;
                d.l3_write_msgs += 1;
            }
        }
        if self.has_sims() {
            self.sim_read(src, src_addr, words as usize);
            self.sim_write(dst, dst_addr, words as usize);
            if dst_at == Staging::L3 {
                self.sim_writeback(dst, dst_addr, words as usize);
            }
        }
    }

    /// Charge node `i` for an NVM read of `words` (L3 → L2).
    pub(crate) fn l3_read(&mut self, i: usize, words: u64) {
        wa_core::cancel::tick(words);
        let n = &mut self.nodes[i];
        n.l3_read_words += words;
        n.l3_read_msgs += 1;
    }

    /// Charge node `i` for an NVM write of `words` (L2 → L3).
    pub(crate) fn l3_write(&mut self, i: usize, words: u64) {
        wa_core::cancel::tick(words);
        let n = &mut self.nodes[i];
        n.l3_write_words += words;
        n.l3_write_msgs += 1;
    }

    /// [`Machine::l3_read`] plus the simulator replay: `rank` reads
    /// `[addr, addr + words)` of NVM-resident data into cache.
    pub(crate) fn l3_read_at(&mut self, i: usize, addr: usize, words: u64) {
        self.l3_read(i, words);
        self.sim_read(i, addr, words as usize);
    }

    /// [`Machine::l3_write`] plus the simulator replay: `rank` stores
    /// `[addr, addr + words)` and persists it to NVM. The store + clwb
    /// pair makes the simulated NVM cost exact by construction: the lines
    /// just dirtied are precisely the lines written back, so the
    /// simulator charges the same `words` the counter model does
    /// (line-aligned buffers assumed — [`Machine::alloc`] guarantees it).
    pub(crate) fn l3_write_at(&mut self, i: usize, addr: usize, words: u64) {
        self.l3_write(i, words);
        self.sim_write(i, addr, words as usize);
        self.sim_writeback(i, addr, words as usize);
    }

    /// Charge node `i` for materializing `words` of final output at
    /// `addr` to its slow level (NVM). Every distributed algorithm must
    /// write its share of the result to slow memory — the paper's trivial
    /// lower bound `W1 ≥ n²/P` counts exactly this traffic — so assembly
    /// is charged regardless of where intermediate operands were staged.
    /// Algorithms whose last writing action already put the final block
    /// in NVM (summa-ool2's tile stores, LU's in-place block writes) must
    /// not call this as well.
    pub(crate) fn assemble_output(&mut self, i: usize, addr: usize, words: u64) {
        self.l3_write_at(i, addr, words);
    }

    /// Words allocated per rank so far (diagnostics; the simmed caps must
    /// dominate this for the no-capacity-eviction exactness argument).
    pub(crate) fn heap_words(&self) -> usize {
        self.heap
    }

    /// Charge node `i` for a local GEMM of shape `m×k×l` run with the
    /// sequential WA algorithm on an L1 of `m1` words: L2→L1 reads
    /// `ml + 2mkl/√(M1/3)`, L1→L2 writes `ml` (Algorithm 1's counts).
    pub(crate) fn local_wa_gemm(&mut self, i: usize, m: u64, k: u64, l: u64, m1: u64) {
        let b = (((m1 / 3) as f64).sqrt().floor() as u64).max(1);
        let n = &mut self.nodes[i];
        let reads = m * l + 2 * m * k * l / b;
        wa_core::cancel::tick(reads + m * l);
        n.l2_read_words += reads;
        n.l2_read_msgs += reads / b.max(1) + 1;
        n.l2_write_words += m * l;
        n.l2_write_msgs += m * l / b.max(1) + 1;
        n.flops += 2 * m * k * l;
    }

    /// Max per-node counters (the critical-path aggregate).
    pub fn max_counters(&self) -> NodeCounters {
        let mut out = NodeCounters::default();
        for n in &self.nodes {
            out.net_send_words = out.net_send_words.max(n.net_send_words);
            out.net_send_msgs = out.net_send_msgs.max(n.net_send_msgs);
            out.net_recv_words = out.net_recv_words.max(n.net_recv_words);
            out.net_recv_msgs = out.net_recv_msgs.max(n.net_recv_msgs);
            out.l3_read_words = out.l3_read_words.max(n.l3_read_words);
            out.l3_read_msgs = out.l3_read_msgs.max(n.l3_read_msgs);
            out.l3_write_words = out.l3_write_words.max(n.l3_write_words);
            out.l3_write_msgs = out.l3_write_msgs.max(n.l3_write_msgs);
            out.l2_read_words = out.l2_read_words.max(n.l2_read_words);
            out.l2_read_msgs = out.l2_read_msgs.max(n.l2_read_msgs);
            out.l2_write_words = out.l2_write_words.max(n.l2_write_words);
            out.l2_write_msgs = out.l2_write_msgs.max(n.l2_write_msgs);
            out.flops = out.flops.max(n.flops);
        }
        out
    }

    /// Critical-path time estimate under this machine's cost parameters.
    pub fn critical_time(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.time(&self.cost))
            .fold(0.0, f64::max)
    }
}

impl Machine<MemSim> {
    /// `rank`'s simulated boundary traffic, fastest boundary first; the
    /// last entry is LLC↔NVM ([`memsim_boundaries`]).
    pub fn sim_boundaries_of(&self, rank: usize) -> Vec<Traffic> {
        memsim_boundaries(&self.sinks[rank])
    }

    /// Componentwise max of [`Machine::sim_boundaries_of`] over all ranks
    /// — the critical-path fold, matching [`Machine::max_counters`].
    pub fn sim_boundaries(&self) -> Vec<Traffic> {
        let mut out = self.sim_boundaries_of(0);
        for rank in 1..self.p() {
            for (a, t) in out.iter_mut().zip(self.sim_boundaries_of(rank)) {
                a.load_words = a.load_words.max(t.load_words);
                a.load_msgs = a.load_msgs.max(t.load_msgs);
                a.store_words = a.store_words.max(t.store_words);
                a.store_msgs = a.store_msgs.max(t.store_msgs);
            }
        }
        out
    }

    /// The critical rank's teed reuse stack ([`MemSim::reuse`]), picked
    /// by `critical_rank` at `cap_words`; `None` unless the ranks' probes
    /// tee into a stack.
    pub(crate) fn reuse_critical(&self, cap_words: usize) -> Option<(usize, &StackSim)> {
        let stacks: Option<Vec<&StackSim>> = self.sinks.iter().map(MemSim::reuse).collect();
        Some(critical_rank(&stacks?, cap_words))
    }
}

impl Machine<TraceTally> {
    /// Max-per-rank `(words, writes, distinct_lines)` of the traced
    /// replay (each component maxed independently, the critical-path
    /// convention).
    pub(crate) fn max_trace_stats(&self) -> (u64, u64, u64) {
        self.sinks.iter().fold((0, 0, 0), |(w, s, l), t| {
            (
                w.max(t.words()),
                s.max(t.writes()),
                l.max(t.distinct_lines()),
            )
        })
    }
}

impl Machine<StackSim> {
    /// The critical rank's stack simulator at `cap_words` (`critical_rank`).
    pub(crate) fn stack_critical(&self, cap_words: usize) -> (usize, &StackSim) {
        let stacks: Vec<&StackSim> = self.sinks.iter().collect();
        critical_rank(&stacks, cap_words)
    }
}

/// The critical rank among per-rank stacks: the one whose projected
/// write-backs (then fills) at `cap_words` are largest, lowest rank on
/// ties — deterministic, and for the symmetric algorithms here every
/// rank's curve is identical anyway. Both the `stack` backend and the
/// `simmed` backend's teed reuse stacks pick their rank here.
fn critical_rank<'a>(stacks: &[&'a StackSim], cap_words: usize) -> (usize, &'a StackSim) {
    let rank = (0..stacks.len())
        .max_by_key(|&r| {
            let p = stacks[r].curve().at(cap_words as u64);
            (p.dram_writes_lines(), p.fills, Reverse(r))
        })
        .expect("a machine has at least one rank");
    (rank, stacks[rank])
}

/// A [`Mem`] view of one rank's sink ([`Machine::rank_mem`]).
/// Replay-only: loads yield 0.0 and stores discard values; only the
/// address stream reaches the sink.
pub(crate) struct RankMem<'a, S: Sink> {
    m: &'a mut Machine<S>,
    rank: usize,
}

impl<S: Sink> Mem for RankMem<'_, S> {
    fn ld(&mut self, addr: usize) -> f64 {
        self.m.sim_read(self.rank, addr, 1);
        0.0
    }

    fn st(&mut self, addr: usize, _v: f64) {
        self.m.sim_write(self.rank, addr, 1);
    }

    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        self.m.sim_read(self.rank, addr, out.len());
        out.fill(0.0);
    }

    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.m.sim_write(self.rank, addr, src.len());
    }

    fn len(&self) -> usize {
        self.m.heap
    }

    fn phase(&mut self, name: &'static str) {
        if let Some(s) = self.m.sinks.get_mut(self.rank) {
            s.phase(name);
        }
    }
}

/// Replay the access stream of a local row-major GEMM
/// `C[mb×nb] += A[mb×kb] · B[kb×nb]` (buffers at base addresses `a`,
/// `b`, `c`) through `mem` as line-friendly row runs: per output row,
/// read the A row and the C row, stream the B rows, write the C row
/// back. Values are immaterial — this drives the per-rank cache
/// simulation of compute the counter model only charges in closed form.
pub(crate) fn replay_gemm<M: Mem>(
    mem: &mut M,
    a: usize,
    b: usize,
    c: usize,
    mb: usize,
    kb: usize,
    nb: usize,
) {
    let mut scratch = vec![0.0; kb.max(nb)];
    for i in 0..mb {
        mem.ld_run(a + i * kb, &mut scratch[..kb]);
        mem.ld_run(c + i * nb, &mut scratch[..nb]);
        for k in 0..kb {
            mem.ld_run(b + k * nb, &mut scratch[..nb]);
        }
        mem.st_run(c + i * nb, &scratch[..nb]);
    }
}

/// Replay an in-place read-modify-write sweep over a `b×b` row-major
/// block at `addr` (diagonal factorizations and TRSMs: every row is read
/// and rewritten).
pub(crate) fn replay_block_rw<M: Mem>(mem: &mut M, addr: usize, b: usize) {
    let mut scratch = vec![0.0; b];
    for r in 0..b {
        mem.ld_run(addr + r * b, &mut scratch);
        mem.st_run(addr + r * b, &scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_only_transfers_unwind_on_a_fired_token() {
        use wa_core::cancel::{self, CancelReason, CancelToken, CancellationUnwind};
        let token = CancelToken::new();
        let _g = cancel::install(token.clone());
        let mut m = Machine::new(2, CostParams::nvm_cluster());
        token.cancel(CancelReason::Deadline);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..cancel::CHECK_INTERVAL {
                m.transfer(0, 1, 1, Staging::L2, Staging::L2, 0, 0);
            }
        }))
        .unwrap_err();
        let c = unwound
            .downcast_ref::<CancellationUnwind>()
            .expect("typed cancellation payload");
        assert_eq!(c.reason, CancelReason::Deadline);
        assert_eq!(c.after_accesses, cancel::CHECK_INTERVAL);
    }

    #[test]
    fn transfer_charges_both_ends() {
        let mut m = Machine::new(4, CostParams::nvm_cluster());
        m.transfer(0, 3, 100, Staging::L2, Staging::L3, 0, 0);
        assert_eq!(m.nodes[0].net_send_words, 100);
        assert_eq!(m.nodes[0].l3_read_words, 0);
        assert_eq!(m.nodes[3].net_recv_words, 100);
        assert_eq!(m.nodes[3].l3_write_words, 100);
        assert_eq!(m.nodes[1].net_send_words, 0);
    }

    #[test]
    fn l3_staged_send_reads_nvm() {
        let mut m = Machine::new(2, CostParams::nvm_cluster());
        m.transfer(0, 1, 50, Staging::L3, Staging::L2, 0, 0);
        assert_eq!(m.nodes[0].l3_read_words, 50);
        assert_eq!(m.nodes[1].l3_write_words, 0);
    }

    #[test]
    fn alloc_is_line_aligned_and_symmetric() {
        let mut m = Machine::new(2, CostParams::nvm_cluster());
        let a = m.alloc(5); // rounds to one 8-word line
        let b = m.alloc(16);
        assert_eq!(a, 0);
        assert_eq!(b, 8);
        assert_eq!(m.heap_words(), 24);
    }

    #[test]
    fn l3_staged_transfer_routes_payload_through_receiver_sim() {
        let mut m = Machine::with_sinks(2, CostParams::nvm_cluster(), || {
            MemSim::stacked_lru(&[1 << 12])
        });
        let buf = m.alloc(64);
        m.transfer(0, 1, 64, Staging::L2, Staging::L3, buf, buf);
        // Receiver persisted exactly the delivered lines to its NVM.
        let b1 = m.sim_boundaries_of(1);
        assert_eq!(b1.last().unwrap().store_words, 64);
        // Sender only read: no NVM stores on rank 0.
        let b0 = m.sim_boundaries_of(0);
        assert_eq!(b0.last().unwrap().store_words, 0);
    }

    #[test]
    fn l2_staged_receive_is_not_written_to_nvm() {
        let mut m = Machine::with_sinks(2, CostParams::nvm_cluster(), || {
            MemSim::stacked_lru(&[1 << 12])
        });
        let buf = m.alloc(64);
        m.transfer(0, 1, 64, Staging::L2, Staging::L2, buf, buf);
        let b1 = m.sim_boundaries_of(1);
        assert_eq!(b1.last().unwrap().store_words, 0);
    }

    #[test]
    fn l3_write_at_charges_counters_and_sim_identically() {
        let mut m = Machine::with_sinks(1, CostParams::nvm_cluster(), || {
            MemSim::stacked_lru(&[1 << 12])
        });
        let buf = m.alloc(144);
        m.l3_write_at(0, buf, 144);
        m.l3_write_at(0, buf, 144); // rewrite: charged again on both sides
        assert_eq!(m.nodes[0].l3_write_words, 288);
        let b = m.sim_boundaries_of(0);
        assert_eq!(b.last().unwrap().store_words, 288);
    }

    #[test]
    fn traced_ranks_tally_words_writes_and_lines() {
        let mut m = Machine::with_sinks(2, CostParams::nvm_cluster(), TraceTally::default);
        let buf = m.alloc(32);
        m.sim_write(0, buf, 32);
        m.sim_read(0, buf, 32);
        m.sim_read(1, buf, 8);
        assert_eq!(m.max_trace_stats(), (64, 32, 4));
    }

    #[test]
    fn traced_tally_grows_with_the_heap() {
        let mut m = Machine::with_sinks(1, CostParams::nvm_cluster(), TraceTally::default);
        let a = m.alloc(8);
        m.sim_read(0, a, 8);
        // Allocated after the tally first ran: 1024 more lines, spanning
        // several bitset words past the first touch.
        let b = m.alloc(1024 * LINE_WORDS);
        m.sim_write(0, b, 1024 * LINE_WORDS);
        m.sim_read(0, b + 3, 2 * LINE_WORDS);
        assert_eq!(m.max_trace_stats(), (8 + 1026 * 8, 1024 * 8, 1025));
    }

    #[test]
    fn stack_critical_prefers_the_writeheavy_rank() {
        let mut m = Machine::with_sinks(2, CostParams::nvm_cluster(), StackSim::new);
        let buf = m.alloc(128);
        m.sim_read(0, buf, 128);
        m.sim_write(1, buf, 128);
        let (rank, _) = m.stack_critical(1 << 10);
        assert_eq!(rank, 1);
    }

    #[test]
    fn counters_only_machine_ignores_sim_calls() {
        let mut m = Machine::new(2, CostParams::nvm_cluster());
        let buf = m.alloc(64);
        assert!(!m.has_sims());
        m.sim_write(0, buf, 64);
        m.sim_writeback(0, buf, 64);
        m.rank_mem(1).st_run(buf, &[1.0; 8]);
        assert_eq!(m.nodes[0], NodeCounters::default());
    }

    #[test]
    fn local_gemm_matches_algorithm1_counts() {
        let mut m = Machine::new(1, CostParams::nvm_cluster());
        m.local_wa_gemm(0, 12, 12, 12, 48); // b = 4
        let n = &m.nodes[0];
        assert_eq!(n.l2_read_words, 144 + 2 * 12 * 12 * 12 / 4);
        assert_eq!(n.l2_write_words, 144);
        assert_eq!(n.flops, 2 * 12 * 12 * 12);
    }

    #[test]
    fn critical_time_is_max_not_sum() {
        let cost = CostParams::symmetric(1.0, 0.0, 1, 2, 3);
        let mut m = Machine::new(2, cost);
        m.node_mut(0).net_send_words = 10;
        m.node_mut(1).net_send_words = 30;
        assert_eq!(m.critical_time(), 30.0);
    }

    #[test]
    fn nvm_write_dominates_time_under_asymmetric_costs() {
        let cost = CostParams::nvm_cluster();
        let mut m = Machine::new(1, cost);
        m.node_mut(0).l3_write_words = 1000;
        let t_write = m.critical_time();
        let mut m2 = Machine::new(1, cost);
        m2.node_mut(0).l3_read_words = 1000;
        let t_read = m2.critical_time();
        assert!(t_write > 5.0 * t_read);
    }
}
