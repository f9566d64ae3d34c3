//! Machine-readable audit diagnostics.
//!
//! Every check in this crate reports failures as typed [`Violation`]
//! values rather than panicking: the auditor's job is to *collect*
//! everything wrong with a schedule, tree result, or run trace so a test
//! (or the `mrs-repro audit` experiment) can assert emptiness, count by
//! kind, or render a table.

use mrs_core::operator::OperatorId;
use mrs_core::resource::SiteId;
use mrs_runtime::job::QueryId;
use std::fmt;

/// One invariant breach found by an audit pass.
///
/// Variants mirror the invariant catalog in DESIGN.md ("Correctness
/// architecture"): Definition 5.1's structural constraints, the `CG_f`
/// degree cap, Section 5.5's placement propagation, phase-barrier
/// ordering, the Theorem 5.1 makespan certificate, fluid-sharing
/// feasibility, work conservation through recovery, site up/down
/// transitions, and fragment-splice coherence.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The input was structurally malformed before any invariant could
    /// be evaluated (e.g. a non-dense operator table, an assignment
    /// covering the wrong number of operators).
    ShapeMismatch {
        /// Human-readable description of the malformation.
        detail: String,
    },
    /// An operator was scheduled with degree 0 (every operator must run
    /// at least one clone).
    DegreeZero {
        /// The offending operator.
        op: OperatorId,
    },
    /// An operator's assigned homes (or clone vectors) disagree with its
    /// declared degree.
    DegreeMismatch {
        /// The offending operator.
        op: OperatorId,
        /// The declared degree `N_i`.
        expected: usize,
        /// Homes (or clones) actually present.
        actual: usize,
    },
    /// Two clones of one operator share a site (Definition 5.1,
    /// constraint A).
    CloneCollision {
        /// The offending operator.
        op: OperatorId,
        /// The doubly-used site.
        site: SiteId,
    },
    /// A clone was assigned to a site outside `0..P`.
    SiteOutOfRange {
        /// The offending operator.
        op: OperatorId,
        /// The out-of-range site.
        site: SiteId,
        /// The system's site count `P`.
        sites: usize,
    },
    /// A rooted operator does not sit exactly at its required homes
    /// (Definition 5.1, constraint B).
    RootedOffHome {
        /// The offending operator.
        op: OperatorId,
    },
    /// A floating operator exceeds its coarse-grain degree cap
    /// `min(N_max(op, f), P)` (Section 5.1; binding sources are sized by
    /// the combined build+probe operator per DESIGN.md).
    CoarseGrainCapExceeded {
        /// The offending operator.
        op: OperatorId,
        /// The scheduled degree.
        degree: usize,
        /// The cap the degree had to respect.
        cap: usize,
    },
    /// A binding dependent (probe) is not co-located with its source
    /// (build): the homes differ (Section 5.5).
    CoLocationBroken {
        /// The dependent operator (probe).
        dependent: OperatorId,
        /// The source operator (build) whose homes it must inherit.
        source: OperatorId,
    },
    /// An operator appears in more than one phase (shelves must be
    /// disjoint).
    ShelfOverlap {
        /// The doubly-scheduled operator.
        op: OperatorId,
    },
    /// An operator of the problem never appears in any phase.
    OpMissing {
        /// The unscheduled operator.
        op: OperatorId,
    },
    /// A binding's source is not scheduled in a strictly earlier phase
    /// than its dependent (phase-barrier ordering).
    PhaseOrderBroken {
        /// The dependent operator.
        dependent: OperatorId,
        /// The source operator.
        source: OperatorId,
    },
    /// A phase's recorded makespan disagrees with Equation (2)/(3)
    /// recomputed from its schedule.
    MakespanMismatch {
        /// Index of the phase in the result.
        phase: usize,
        /// The recorded makespan.
        recorded: f64,
        /// The recomputed makespan.
        recomputed: f64,
    },
    /// The result's total response time disagrees with the sum of its
    /// phase makespans.
    ResponseMismatch {
        /// The recorded response time.
        recorded: f64,
        /// The recomputed sum of phase makespans.
        recomputed: f64,
    },
    /// A phase's makespan exceeds the Theorem 5.1 certificate
    /// `(2d+1) · LB` against the lower bound
    /// `max(total volume / P, max T_par)`.
    CertificateExceeded {
        /// Index of the phase in the result.
        phase: usize,
        /// The phase's makespan.
        makespan: f64,
        /// The certificate bound it had to stay under.
        bound: f64,
    },
    /// A site's peak normalized utilization of one resource exceeded its
    /// effective capacity — the fluid-sharing solution was infeasible.
    UtilizationInfeasible {
        /// The offending site.
        site: usize,
        /// The over-committed resource dimension.
        resource: usize,
        /// The observed peak (must stay ≤ 1).
        peak: f64,
    },
    /// A site's integrated busy time on one resource exceeds the run's
    /// horizon — more work was "performed" than time passed.
    BusyExceedsHorizon {
        /// The offending site.
        site: usize,
        /// The over-integrated resource dimension.
        resource: usize,
        /// The busy-time integral.
        busy: f64,
        /// The run horizon.
        horizon: f64,
    },
    /// A recovery re-pack did not conserve work: the placed total
    /// differs from the lost work plus rebuild surcharge plus per-clone
    /// startup.
    ConservationBroken {
        /// The recovering query.
        query: QueryId,
        /// Expected re-packed total (lost + surcharge + startup).
        expected: f64,
        /// Total actually placed.
        placed: f64,
    },
    /// A query's phases were dispatched out of order.
    PhaseRegression {
        /// The offending query.
        query: QueryId,
        /// The previously dispatched phase index.
        prev: usize,
        /// The (not later) phase index dispatched next.
        next: usize,
    },
    /// A `SiteDown` named a site that was already down, or a `SiteUp` a
    /// site that was up (every site starts up).
    SiteTransition {
        /// Index of the offending event in the trace.
        index: usize,
        /// The site whose replayed state the event contradicts.
        site: usize,
    },
    /// A query reached the end of the run without a terminal outcome.
    OutcomeMissing {
        /// The unterminated query.
        query: QueryId,
    },
    /// A query's terminal outcome disagrees with the `Aborted`/`Shed`
    /// events naming it: an `Aborted` outcome needs exactly one `Aborted`
    /// event, a `Shed` outcome exactly one `Shed` event with the same
    /// reason, and any other outcome none.
    OutcomeEventMismatch {
        /// The query whose outcome and events disagree.
        query: QueryId,
        /// How many `Aborted`/`Shed` events name it.
        events: usize,
    },
    /// The audit trace's timestamps are not monotone non-decreasing.
    TraceDisordered {
        /// Index of the out-of-order event.
        index: usize,
        /// Timestamp of the preceding event.
        prev_time: f64,
        /// The earlier timestamp that follows it.
        time: f64,
    },
    /// A site's *average* normalized utilization of one resource over
    /// the run (the exact utilization integral divided by the horizon)
    /// exceeded unit capacity — sustained over-commitment even though
    /// the instantaneous peak check may have passed on tolerance.
    AvgUtilizationInfeasible {
        /// The offending site.
        site: usize,
        /// The over-committed resource dimension.
        resource: usize,
        /// The time-averaged utilization (must stay ≤ 1).
        avg: f64,
    },
    /// A site's recorded per-step utilization series does not integrate
    /// to its always-on utilization integral — the series and the
    /// integral disagree about what the site did.
    UtilSeriesMismatch {
        /// The offending site.
        site: usize,
        /// The disagreeing resource dimension.
        resource: usize,
        /// `Σ len · util` over the recorded series.
        series_total: f64,
        /// The exact integral the simulator accumulated.
        integral: f64,
    },
    /// A clone's event lifecycle in the site layer's clone-event log is
    /// inconsistent: re-dispatched tag, a terminal event with no (or
    /// before its) dispatch, or more than one terminal event.
    CloneConservationBroken {
        /// The offending clone tag.
        tag: usize,
        /// Human-readable description of the lifecycle breach.
        detail: String,
    },
    /// A controller decision is not a structurally valid single step
    /// from the state replayed out of the preceding decisions (level
    /// jump, gate flip on a level action, re-engaging an engaged gate).
    ControlTransitionInvalid {
        /// Index of the decision event in the trace.
        index: usize,
        /// The action's stable label.
        action: &'static str,
        /// Replayed governor level before the decision.
        prev_level: u32,
        /// Recorded governor level after the decision.
        level: u32,
    },
    /// A controller decision's recorded signal snapshot does not justify
    /// its action under the run's configured thresholds.
    ControlUnjustified {
        /// Index of the decision event in the trace.
        index: usize,
        /// The action's stable label.
        action: &'static str,
    },
    /// A controller decision appears in the trace of a run whose
    /// controller was disabled — decisions must never be recorded while
    /// the master switch is off.
    ControlWhileDisabled {
        /// Index of the decision event in the trace.
        index: usize,
    },
    /// A floating operator's scheduled degree exceeds the overload
    /// governor's degree cap in force at planning time.
    GovernedDegreeExceeded {
        /// The offending operator.
        op: OperatorId,
        /// The scheduled degree.
        degree: usize,
        /// The governed cap it had to respect.
        cap: usize,
    },
    /// A spliced fragment's digest differs from the digest recorded
    /// when that signature's fragment was inserted — signature equality
    /// failed to imply bit-identical sub-schedules.
    FragmentDigestMismatch {
        /// The query whose plan spliced the fragment.
        query: QueryId,
        /// Truncated subtree-signature hash identifying the entry.
        sig_hash: u64,
        /// Digest recorded at insert time.
        inserted: u64,
        /// Digest observed at splice time.
        spliced: u64,
    },
}

impl Violation {
    /// Stable kebab-case label of the violation kind (for tables and
    /// artifacts).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::ShapeMismatch { .. } => "shape-mismatch",
            Violation::DegreeZero { .. } => "degree-zero",
            Violation::DegreeMismatch { .. } => "degree-mismatch",
            Violation::CloneCollision { .. } => "clone-collision",
            Violation::SiteOutOfRange { .. } => "site-out-of-range",
            Violation::RootedOffHome { .. } => "rooted-off-home",
            Violation::CoarseGrainCapExceeded { .. } => "coarse-grain-cap",
            Violation::CoLocationBroken { .. } => "co-location",
            Violation::ShelfOverlap { .. } => "shelf-overlap",
            Violation::OpMissing { .. } => "op-missing",
            Violation::PhaseOrderBroken { .. } => "phase-order",
            Violation::MakespanMismatch { .. } => "makespan-mismatch",
            Violation::ResponseMismatch { .. } => "response-mismatch",
            Violation::CertificateExceeded { .. } => "certificate",
            Violation::UtilizationInfeasible { .. } => "utilization",
            Violation::BusyExceedsHorizon { .. } => "busy-exceeds-horizon",
            Violation::ConservationBroken { .. } => "conservation",
            Violation::PhaseRegression { .. } => "phase-regression",
            Violation::SiteTransition { .. } => "site-transition",
            Violation::OutcomeMissing { .. } => "outcome-missing",
            Violation::OutcomeEventMismatch { .. } => "outcome-event",
            Violation::TraceDisordered { .. } => "trace-disordered",
            Violation::AvgUtilizationInfeasible { .. } => "avg-utilization",
            Violation::UtilSeriesMismatch { .. } => "util-series",
            Violation::CloneConservationBroken { .. } => "clone-conservation",
            Violation::ControlTransitionInvalid { .. } => "control-transition",
            Violation::ControlUnjustified { .. } => "control-unjustified",
            Violation::ControlWhileDisabled { .. } => "control-disabled",
            Violation::GovernedDegreeExceeded { .. } => "governed-degree",
            Violation::FragmentDigestMismatch { .. } => "fragment-digest",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ShapeMismatch { detail } => write!(fm, "shape mismatch: {detail}"),
            Violation::DegreeZero { op } => write!(fm, "{op} scheduled with degree 0"),
            Violation::DegreeMismatch {
                op,
                expected,
                actual,
            } => write!(fm, "{op} declares degree {expected} but has {actual} homes"),
            Violation::CloneCollision { op, site } => {
                write!(fm, "two clones of {op} share site {}", site.0)
            }
            Violation::SiteOutOfRange { op, site, sites } => {
                write!(fm, "{op} assigned to site {} outside 0..{sites}", site.0)
            }
            Violation::RootedOffHome { op } => {
                write!(fm, "rooted {op} not at its required homes")
            }
            Violation::CoarseGrainCapExceeded { op, degree, cap } => {
                write!(fm, "{op} at degree {degree} exceeds CG_f cap {cap}")
            }
            Violation::CoLocationBroken { dependent, source } => {
                write!(fm, "{dependent} not co-located with its source {source}")
            }
            Violation::ShelfOverlap { op } => write!(fm, "{op} appears in more than one phase"),
            Violation::OpMissing { op } => write!(fm, "{op} never scheduled in any phase"),
            Violation::PhaseOrderBroken { dependent, source } => {
                write!(fm, "source {source} does not precede dependent {dependent}")
            }
            Violation::MakespanMismatch {
                phase,
                recorded,
                recomputed,
            } => write!(
                fm,
                "phase {phase} records makespan {recorded}, recomputes to {recomputed}"
            ),
            Violation::ResponseMismatch {
                recorded,
                recomputed,
            } => write!(
                fm,
                "response time {recorded} differs from phase sum {recomputed}"
            ),
            Violation::CertificateExceeded {
                phase,
                makespan,
                bound,
            } => write!(
                fm,
                "phase {phase} makespan {makespan} exceeds certificate {bound}"
            ),
            Violation::UtilizationInfeasible {
                site,
                resource,
                peak,
            } => write!(
                fm,
                "site {site} resource {resource} peaked at utilization {peak} > 1"
            ),
            Violation::BusyExceedsHorizon {
                site,
                resource,
                busy,
                horizon,
            } => write!(
                fm,
                "site {site} resource {resource} busy {busy} exceeds horizon {horizon}"
            ),
            Violation::ConservationBroken {
                query,
                expected,
                placed,
            } => write!(
                fm,
                "re-pack for {query} placed {placed}, expected {expected}"
            ),
            Violation::PhaseRegression { query, prev, next } => {
                write!(fm, "{query} dispatched phase {next} after phase {prev}")
            }
            Violation::SiteTransition { index, site } => write!(
                fm,
                "trace event {index} contradicts site {site}'s replayed up/down state"
            ),
            Violation::OutcomeMissing { query } => {
                write!(fm, "{query} has no terminal outcome")
            }
            Violation::OutcomeEventMismatch { query, events } => write!(
                fm,
                "{query}'s terminal outcome disagrees with the {events} Aborted/Shed events \
                 naming it"
            ),
            Violation::TraceDisordered {
                index,
                prev_time,
                time,
            } => write!(
                fm,
                "trace event {index} at t={time} precedes its predecessor at t={prev_time}"
            ),
            Violation::AvgUtilizationInfeasible {
                site,
                resource,
                avg,
            } => write!(
                fm,
                "site {site} resource {resource} averaged utilization {avg} > 1 over the run"
            ),
            Violation::UtilSeriesMismatch {
                site,
                resource,
                series_total,
                integral,
            } => write!(
                fm,
                "site {site} resource {resource} series integrates to {series_total}, \
                 simulator integral is {integral}"
            ),
            Violation::CloneConservationBroken { tag, detail } => {
                write!(fm, "clone tag {tag}: {detail}")
            }
            Violation::ControlTransitionInvalid {
                index,
                action,
                prev_level,
                level,
            } => write!(
                fm,
                "controller decision {index} ({action}) is not one step from level \
                 {prev_level} (recorded level {level})"
            ),
            Violation::ControlUnjustified { index, action } => write!(
                fm,
                "controller decision {index} ({action}) is not justified by its recorded \
                 pressure snapshot"
            ),
            Violation::ControlWhileDisabled { index } => write!(
                fm,
                "controller decision {index} recorded while the controller was disabled"
            ),
            Violation::GovernedDegreeExceeded { op, degree, cap } => {
                write!(fm, "{op} at degree {degree} exceeds the governed cap {cap}")
            }
            Violation::FragmentDigestMismatch {
                query,
                sig_hash,
                inserted,
                spliced,
            } => write!(
                fm,
                "{query} spliced fragment {sig_hash:#018x} with digest {spliced:#018x}, \
                 inserted as {inserted:#018x}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_displayable() {
        let v = Violation::DegreeZero { op: OperatorId(3) };
        assert_eq!(v.kind(), "degree-zero");
        assert!(v.to_string().contains("degree 0"));
        let v = Violation::ConservationBroken {
            query: QueryId(1),
            expected: 2.0,
            placed: 1.0,
        };
        assert_eq!(v.kind(), "conservation");
        assert!(v.to_string().contains("re-pack"));
    }
}
