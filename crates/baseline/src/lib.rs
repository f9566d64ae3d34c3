//! # mrs-baseline — one-dimensional adversary schedulers
//!
//! The comparison points of the paper's Section 6 evaluation plus control
//! baselines for ablations:
//!
//! * [`synchronous`] — **SYNCHRONOUS**: synchronous-execution-time
//!   processor allocation (Hsiao et al. \[HCY94\]) + minimax pipeline-stage
//!   allocation (Lo et al. \[LCRY93\]), scalar work, disjoint processor
//!   sets, extended with shared-nothing redistribution costs.
//! * [`scalar_list`] — TREESCHEDULE with scalar-load packing (isolates the
//!   value of multi-dimensional load vectors).
//! * [`roundrobin`] — TREESCHEDULE with round-robin placement (isolates
//!   the value of load-aware packing altogether).
//!
//! The two TREESCHEDULE variants are packing rules over core's one shelf
//! walk, [`mrs_core::tree::phased_schedule`]: the same MinShelf phases,
//! probe←build home propagation and [`mrs_core::tree::governed_degree`]
//! degrees (uncapped) as [`mrs_core::tree::tree_schedule`], with each
//! packed phase validated in release builds too.
//!
//! All baselines are evaluated with the same multi-dimensional response
//! time model (Equation 3) as TREESCHEDULE.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod roundrobin;
pub mod scalar_list;
pub mod synchronous;

/// One-stop imports.
pub mod prelude {
    pub use crate::alloc::{
        minimax_alloc, proportional_alloc, scalar_optimal_degree, scalar_time, waves_by_demand,
    };
    pub use crate::roundrobin::round_robin_tree_schedule;
    pub use crate::scalar_list::scalar_tree_schedule;
    pub use crate::synchronous::{
        believed_time, scalar_work, synchronous_schedule, BaselinePhase, BaselineResult,
    };
}
