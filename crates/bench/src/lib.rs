//! # wa-bench — experiment harness
//!
//! One module per paper artifact; the `harness exp` subcommand dispatches
//! to them (`harness exp all` prints every table).
//!
//! All experiments run at a *scaled* geometry by default (capacities ÷256
//! vs. the paper's Xeon 7560, dimensions ÷16) and at the reference scale
//! (÷64 capacities, ÷8 dimensions) with `--scale paper`; see [`scale`]
//! for the exact mapping and `memsim::xeon` for why the block-per-cache
//! ratios — which drive every observed effect — are preserved.

pub mod bounds_exp;
pub mod fig2;
pub mod fig5;
pub mod ksm;
pub mod lu_par;
pub mod props;
pub mod registry;
pub mod scale;
pub mod sorting;
pub mod sweep;
pub mod tables;
pub mod theorem4;
pub mod util;
pub mod waopt;
