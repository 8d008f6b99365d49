//! # nbody — direct N-body with write-avoiding blocking
//!
//! Section 4.4 of the paper: the direct (N,2)-body force computation admits
//! a write-avoiding schedule (Algorithm 4) that attains both the
//! `Ω(N²/M)` load bound and the `N` (output size) write bound; the
//! symmetry-exploiting variant (Newton's third law, half the flops) does
//! *not* — every inner pass updates forces on all `N` particles, forcing
//! `Ω(N²/b)` writes. The k-tuple generalization blocks `k` nested loops at
//! `b = M/(k+1)` and pays a `k!` factor for its WA property.
//!
//! Memory is measured in *particles* (the paper's convention); a particle
//! and a force are each one unit ([`force::WORDS_PER_BODY`] words when
//! simulated at word granularity).

pub mod explicit;
pub mod force;
pub mod simmed;
pub mod symmetric;
pub mod workloads;

pub use explicit::{explicit_kbody_wa, explicit_nbody_wa};
pub use force::{reference_forces, Particle, Vec3};
pub use symmetric::explicit_nbody_symmetric;
