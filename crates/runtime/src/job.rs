//! Queries as runtime jobs: identity, lifecycle timestamps, and the
//! per-query record the metrics layer aggregates.

use mrs_core::tree::TreeProblem;
use std::fmt;

/// Identifier of a query admitted to the runtime. Ids are dense: the
/// `n`-th submitted query gets id `n`, which doubles as its index into
/// [`crate::metrics::RunSummary::queries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Total work volume of a problem: `Σ_op Σ_i W_op[i]`, the scalar the
/// smallest-volume-first admission policy orders by.
pub fn work_volume(problem: &TreeProblem) -> f64 {
    problem.ops.iter().map(|op| op.processing.total()).sum()
}

/// Which admission gate refused a shed query. A shed event is no longer
/// indistinguishable from its cause: the reason travels on the outcome,
/// the `Shed` event of the run's event stream, and the typed
/// [`RuntimeError::Shed`] error.
///
/// [`RuntimeError::Shed`]: crate::runtime::RuntimeError
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The alive-site fraction fell below the degrade threshold
    /// ([`RecoveryConfig::degrade_threshold`]) — the PR 3 graceful
    /// degradation gate.
    ///
    /// [`RecoveryConfig::degrade_threshold`]: crate::recovery::RecoveryConfig
    AliveCount,
    /// The overload controller's last resort: mean alive-site load sat
    /// at or above its panic threshold at arrival
    /// ([`ControllerConfig::shed_load`]).
    ///
    /// [`ControllerConfig::shed_load`]: crate::control::ControllerConfig
    MeanLoad,
    /// The overload controller's last resort: the deferred admission
    /// queue outgrew its hard bound
    /// ([`ControllerConfig::shed_queue`]).
    ///
    /// [`ControllerConfig::shed_queue`]: crate::control::ControllerConfig
    ControllerLastResort,
}

impl ShedReason {
    /// Stable label used in traces, CSVs, and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::AliveCount => "alive-count",
            ShedReason::MeanLoad => "mean-load",
            ShedReason::ControllerLastResort => "controller-last-resort",
        }
    }
}

/// How a query's lifecycle ended. Every submitted query terminates in
/// exactly one of these states — the runtime's "no silent drop"
/// invariant (checked by the chaos tests and example).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// All phases ran to completion.
    Completed,
    /// The runtime gave up on the query (deadline expiry or exhausted
    /// recovery retries).
    Aborted {
        /// Human-readable cause, surfaced via
        /// [`RuntimeError::Aborted`](crate::runtime::RuntimeError).
        reason: String,
    },
    /// Load-shedding refused the query at arrival.
    Shed {
        /// Which gate fired (see [`ShedReason`]).
        reason: ShedReason,
    },
}

/// Lifecycle record of one query, filled in as the event loop runs.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// The query's id.
    pub id: QueryId,
    /// Submitting client (stream identity for the fair policy).
    pub client: usize,
    /// Total work volume (see [`work_volume`]).
    pub volume: f64,
    /// Virtual time the query entered the admission queue.
    pub arrival: f64,
    /// Virtual time the query was admitted (its TreeSchedule was computed
    /// and phase 0 dispatched); `None` while still queued.
    pub start: Option<f64>,
    /// Virtual time the last phase's last clone completed.
    pub finish: Option<f64>,
    /// Number of synchronized phases in the query's schedule.
    pub phases: usize,
    /// The schedule's analytic standalone response time (sum of phase
    /// makespans) — the denominator of [`QueryRecord::slowdown`].
    pub standalone_response: f64,
    /// Terminal state; `None` only while the run is still in progress.
    pub outcome: Option<QueryOutcome>,
}

impl QueryRecord {
    pub(crate) fn new(id: QueryId, client: usize, volume: f64, arrival: f64) -> Self {
        QueryRecord {
            id,
            client,
            volume,
            arrival,
            start: None,
            finish: None,
            phases: 0,
            standalone_response: 0.0,
            outcome: None,
        }
    }

    /// Time spent in the admission queue, if admitted.
    pub fn wait(&self) -> Option<f64> {
        self.start.map(|s| s - self.arrival)
    }

    /// Arrival-to-finish latency, if completed.
    pub fn latency(&self) -> Option<f64> {
        self.finish.map(|f| f - self.arrival)
    }

    /// Admission-to-finish service time, if completed.
    pub fn service(&self) -> Option<f64> {
        match (self.start, self.finish) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }

    /// Service time relative to the standalone schedule response — `1.0`
    /// means the query ran as if it had the machine to itself; larger
    /// values measure interference from concurrent queries.
    pub fn slowdown(&self) -> Option<f64> {
        let service = self.service()?;
        if self.standalone_response > 0.0 {
            Some(service / self.standalone_response)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accessors() {
        let mut r = QueryRecord::new(QueryId(3), 1, 42.0, 10.0);
        assert_eq!(r.wait(), None);
        assert_eq!(r.latency(), None);
        assert_eq!(r.outcome, None);
        r.start = Some(12.0);
        r.finish = Some(20.0);
        r.standalone_response = 4.0;
        r.outcome = Some(QueryOutcome::Completed);
        assert_eq!(r.wait(), Some(2.0));
        assert_eq!(r.latency(), Some(10.0));
        assert_eq!(r.service(), Some(8.0));
        assert_eq!(r.slowdown(), Some(2.0));
        assert_eq!(format!("{}", r.id), "q3");
    }
}
