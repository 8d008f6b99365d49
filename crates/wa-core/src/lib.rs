//! # wa-core
//!
//! Shared foundation for the reproduction of *Write-Avoiding Algorithms*
//! (Carson, Demmel, Grigori, Knight, Koanantakool, Schwartz, Simhadri;
//! UCB/EECS-2015-163, IPDPS 2016).
//!
//! This crate contains the pieces every other crate in the workspace needs:
//!
//! * [`matrix`] — a small dense-matrix type with strided views, used by the
//!   kernels in `dense`, `parallel` and `krylov`;
//! * [`traffic`] — read/write traffic counters for a memory-hierarchy
//!   boundary, the common currency in which all experiments report;
//! * [`bounds`] — the paper's lower bounds: Theorem 1 (writes to fast
//!   memory), Theorem 2 (bounded reuse precludes write-avoiding),
//!   the classical Ω(#flops / f(M)) communication bounds for matmul,
//!   TRSM, Cholesky, the (N,k)-body problem, FFT, and Strassen;
//! * [`cost`] — hardware cost parameters (latency α / reciprocal bandwidth β
//!   per boundary) used by the Section 7 performance models;
//! * [`rng`] — a tiny deterministic xorshift generator so all crates can
//!   build reproducible workloads without coordinating `rand` versions;
//! * [`engine`] — the execution-engine layer: [`engine::BackendKind`]
//!   (raw / simmed / traced / explicit), the [`engine::Workload`] trait
//!   every algorithm variant registers through, and the
//!   [`engine::Registry`] the harness drives;
//! * [`report`] — [`report::RunReport`], the uniform JSON-emitting result
//!   type both measurement models project into;
//! * [`par`] — scoped-thread `par_map`/`par_map_fallible` for parallel
//!   scenario sweeps with per-item panic containment (rayon is
//!   unavailable in the offline build environment);
//! * [`fault`] — deterministic fault injection (panic / stall / counter
//!   corruption on a workload's Nth invocation), the rig that exercises
//!   the engine's containment, deadline, and retry machinery;
//! * [`cancel`] — cooperative cancellation: the [`cancel::CancelToken`]
//!   that carries an attempt's deadline, the one clock every backend
//!   ticks with the words it moves (checked every N words), the
//!   thread-local install point, and the SIGINT → resumable-exit path;
//! * [`obs`] — the zero-cost-when-off span/event recorder behind
//!   `harness run --trace` and `harness profile`: the engine and `par`
//!   emit spans/occupancy into it, `memsim` probes emit counter tracks
//!   and per-phase rows, and it serializes Chrome trace-event JSON;
//! * [`curve`] — [`curve::CapacityCurve`], the Mattson stack-distance
//!   projection the `stack` backend emits: exact FA-LRU fills and
//!   write-backs for every capacity from one trace pass.

pub mod bounds;
pub mod cancel;
pub mod cost;
pub mod curve;
pub mod engine;
pub mod fault;
pub mod matrix;
pub mod obs;
pub mod par;
pub mod report;
pub mod rng;
pub mod traffic;

pub use cancel::{CancelReason, CancelToken};
pub use cost::CostParams;
pub use curve::{CapacityCurve, CurvePoint};
pub use engine::{BackendKind, EngineError, Registry, RunCfg, RunLimits, Scale, Workload};
pub use fault::{FaultKind, FaultPlan};
pub use matrix::Mat;
pub use report::RunReport;
pub use rng::XorShift;
pub use traffic::{AccessRun, BoundaryTraffic, Traffic};
