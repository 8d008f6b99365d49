//! # krylov — write-avoiding Krylov subspace methods
//!
//! Section 8 of the paper: s-step (communication-avoiding) Krylov methods
//! take `s` iterations of CG for the communication cost of one, and the
//! *streaming matrix powers* optimization additionally reduces the number
//! of writes to slow memory by Θ(s) — at the cost of computing the Krylov
//! basis twice (≤ 2× reads and flops).
//!
//! * [`csr`] — compressed-sparse-row matrices with sequential, ranged and
//!   windowed SpMV;
//! * [`stencil`] — (2b+1)^d-point Laplacian-type stencils on 1/2/3-D
//!   meshes, the paper's model problems;
//! * [`counter`] — [`SimIo`], the charging surface the kernels drive:
//!   the explicit-model tally (vectors and matrix in slow memory,
//!   O(s)-sized objects in fast) or a cache simulator behind one
//!   [`memsim::Sink`];
//! * [`cg::cg`] — conjugate gradients (paper Algorithm 6);
//! * [`basis`] — s-step polynomial bases (monomial and Newton) and their
//!   recurrence matrices `H`;
//! * [`cacg`] — CA-CG (paper Algorithm 7) with blockwise matrix powers,
//!   in both storing and streaming forms.

pub mod basis;
pub mod cacg;
pub mod cg;
pub mod counter;
pub mod csr;
pub mod stencil;
pub mod tsqr;
pub mod workloads;

pub use basis::BasisKind;
pub use cacg::{ca_cg, CaCgOptions};
pub use cg::cg;
pub use counter::SimIo;
pub use csr::Csr;
