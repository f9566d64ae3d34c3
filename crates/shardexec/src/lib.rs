//! # mrs-shardexec — the runtime's site layer
//!
//! The runtime's event loop interleaves two kinds of step:
//!
//! * **site-local** steps — computing the earliest pending completion
//!   and advancing the sites whose completions are due — which touch one
//!   site at a time and never read another site's state;
//! * **epoch-global** steps — retiring completions, applying faults,
//!   firing retries, admitting queries — which read and write cross-site
//!   state (the admission queue, the clone table, the schedule cache).
//!
//! This crate owns the site-local half. A [`Fabric`](fabric::Fabric)
//! holds the `P` site simulators, one lazy
//! [`EventCalendar`](mrs_sim::calendar::EventCalendar) over them, the
//! [`SiteLedger`](ledger::SiteLedger) of committed demand, a cached
//! next-event time, and the run's [clone-event log](clone_log): every
//! dispatch, completion, crash loss, and eviction, in the order the
//! fabric applied it. The runtime drives it single-threaded, one epoch
//! at a time: [`next_time`](fabric::Fabric::next_time), then
//! [`advance_due`](fabric::Fabric::advance_due), with the per-site
//! mutations (place, crash, restore, evict) in between.
//!
//! ## Why single-threaded
//!
//! Fabric advance is about 16% of the serving loop, so Amdahl's law caps
//! any parallel speedup of this layer near 1.19x; a sharded version ran
//! 1.68x *slower* at two shards than at one on a 2-core host. DESIGN.md
//! ("Why the site layer is single-threaded") has the measurement. The
//! crate keeps its historical name.
//!
//! ## Determinism
//!
//! Completions surface in the runtime's canonical `(time, tag)`
//! retirement order ([`order`]), sites advance in index order, and the
//! ledger's aggregates fold in site order, so two runs over the same
//! submissions produce identical bytes. `mrs-audit` checks the clone log
//! for conservation: every clone dispatched exactly once, at most one
//! terminal event, never before its dispatch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clone_log;
pub mod fabric;
pub mod ledger;
pub mod order;

/// One-stop imports.
pub mod prelude {
    pub use crate::clone_log::{canonical_log, CloneEvent, CloneEventKind};
    pub use crate::fabric::Fabric;
    pub use crate::ledger::SiteLedger;
    pub use crate::order::{completions_sorted, sort_completions};
}
