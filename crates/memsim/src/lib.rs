//! # memsim — memory-hierarchy simulation substrate
//!
//! The paper validates its theory two ways: (a) by *explicit* load/store
//! accounting inside blocked algorithms (Sections 2 and 4), and (b) by
//! hardware cache counters on an Intel Xeon 7560 under hardware-controlled
//! replacement (Section 6). This crate provides both substrates:
//!
//! * [`explicit`] — an r-level hierarchy where the *algorithm* issues block
//!   `load`/`store` operations and the model checks capacities and counts
//!   words/messages per boundary. This reproduces the comment-annotated
//!   counts of Algorithms 1–4 exactly.
//! * [`cache`] + [`hierarchy`] — an inclusive, write-back, write-allocate
//!   multi-level cache simulator with per-line Modified/Exclusive state and
//!   pluggable replacement ([`policy`]): true LRU, the 3-bit "clock"
//!   LRU approximation attributed to Nehalem-EX, FIFO, and (offline)
//!   Belady's optimal policy. Its counters map one-to-one onto the events
//!   the paper measures: `LLC_VICTIMS.M`, `LLC_VICTIMS.E`, `LLC_S_FILLS.E`.
//! * [`mem`] — the [`mem::Mem`] access trait through which instrumented
//!   kernels run unchanged on raw memory (no counting, full speed), on a
//!   simulator-backed [`mem::SimMem`], or on a trace recorder.
//! * [`backend`] — the one backend layer: the [`backend::Sink`] trait a
//!   `SimMem` drives (implemented by [`MemSim`], [`stack::StackSim`],
//!   [`tally::TraceTally`] and the explicit tally [`wa_core::Traffic`],
//!   each with its projection onto a report, plus `()` for a machine that
//!   only counts explicitly) and
//!   [`backend::run_on_backend`], which stages, times and projects one
//!   kernel on the `raw`, `simmed`, `traced` or `stack` backend.
//! * [`tally`] — the streaming `traced` backend ([`tally::TraceTally`]):
//!   the word, write and distinct-line counts a recorded trace reduces
//!   to, tallied per run without storing the trace.
//! * [`ideal`] — the ideal-cache miss count model for the cache-oblivious
//!   matmul of Frigo et al. (the black line of Figure 2a) and a small
//!   Belady simulator used to sanity-check it.
//! * [`xeon`] — ready-made hierarchy configurations: the scaled Xeon 7560
//!   geometry used by all Figure 2 / Figure 5 reproductions.
//! * [`probe`] — the optional per-phase observer ([`probe::Probe`])
//!   behind `harness profile`/`--trace`: attached automatically by the
//!   shared [`MemSim::single_level_lru`] / [`MemSim::stacked_lru`]
//!   constructors when a [`wa_core::obs`] recorder is installed.
//! * [`stack`] — the single-pass Mattson stack simulator
//!   ([`stack::StackSim`]): exact FA-LRU fills and write-backs for
//!   *every* capacity from one pass over the same access stream,
//!   projected as a [`wa_core::CapacityCurve`] (the `stack` backend).
//!   It is the only Mattson stack: `--reuse` on `simmed` tees the
//!   simulator's accesses into one and renders the histogram from its
//!   curve.

pub mod backend;
pub mod cache;
pub mod explicit;
pub mod hierarchy;
pub mod ideal;
pub mod mem;
pub mod policy;
pub mod probe;
pub mod report;
pub mod stack;
pub mod tally;
pub mod xeon;

pub use backend::{run_on_backend, Kernel, Sink};
pub use cache::{CacheConfig, LevelCounters};
pub use explicit::{Charges, ExplicitHier};
pub use hierarchy::{AccessRun, MemSim, MemSimWork};
pub use mem::{Mem, RawMem, SimMem, TraceMem};
pub use policy::Policy;
pub use probe::{PhaseStats, Probe};
pub use report::{
    explicit_report, memsim_boundaries, memsim_report, stack_report, MEMSIM_WORK_TRACK,
    STACK_COUNTER_TRACK,
};
pub use stack::{StackSim, StackStats};
pub use tally::TraceTally;
pub use xeon::LINE_WORDS;
