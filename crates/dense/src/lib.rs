//! # dense — sequential dense linear algebra with read/write instrumentation
//!
//! Implements the paper's Section 4 write-avoiding algorithms and the
//! Section 6 instruction-order variants. Each algorithm is one block
//! schedule with two consumers:
//!
//! * The **schedules** ([`explicit_mm::mm_schedule`],
//!   [`explicit_trsm::trsm_schedule`],
//!   [`explicit_cholesky::cholesky_schedule`],
//!   [`explicit_lu::lu_schedule`]) own the block loops of Algorithms 1–3
//!   (and the Section 7.2 LU orders) and issue every block
//!   `load`/`store`/`free`/flop charge. Run on a [`memsim::ExplicitHier`]
//!   with an empty body, from shapes alone, they are the explicit-movement
//!   model: it verifies capacities and counts exactly the totals
//!   annotated in the paper's listings.
//! * The **access-driven kernels** ([`matmul`], [`trsm`], [`cholesky`],
//!   [`lu`] modules) run the same schedule on `()` (no charges) with the
//!   block kernels as its body, every element access going through a
//!   [`memsim::Mem`], so the code executes on raw memory (numerics and
//!   wall clock) or on the cache simulator (the Figure 2/5 counter
//!   reproductions) in the schedule's instruction order.
//!
//! The access-driven kernels compute real results, verified against
//! naive references.

pub mod cholesky;
pub mod desc;
pub mod explicit_cholesky;
pub mod explicit_lu;
pub mod explicit_mm;
pub mod explicit_trsm;
pub mod lu;
pub mod matmul;
pub mod trsm;
pub mod workloads;

pub use desc::MatDesc;
pub use matmul::LoopOrder;
