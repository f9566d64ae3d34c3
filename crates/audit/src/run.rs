//! End-to-end audit of one runtime run from its [`RunSummary`].
//!
//! Everything here is recomputed from recorded evidence — the structured
//! audit trace (see `mrs_runtime::trace`), the per-site busy-time
//! integrals, and the peak-utilization watermarks — so the checks hold
//! whether or not the runtime's own `debug_assert!` hooks were compiled
//! in (release-mode experiment runs included).

use crate::violation::Violation;
use mrs_runtime::control::ControllerConfig;
use mrs_runtime::job::{QueryOutcome, ShedReason};
use mrs_runtime::metrics::RunSummary;
use mrs_runtime::trace::{audit_control_transition, audit_repack_conserves, AuditEvent};
use std::collections::{HashMap, HashSet};

/// Tolerance for comparing busy-time integrals against the horizon:
/// the integrator takes many small steps, so allow proportional
/// accumulation noise.
const BUSY_REL_TOL: f64 = 1e-6;

/// Slack on the peak-utilization feasibility check: the FairShare
/// progressive-filling solver admits shares up to a hair above capacity
/// by design, and the per-step normalization divides two rounded floats.
const UTIL_TOL: f64 = 1e-9;

/// Audits one finished run: terminal outcomes and their agreement with
/// the `Aborted`/`Shed` events, busy-time sanity, fluid feasibility,
/// trace ordering, per-query phase monotonicity, recovery conservation,
/// site up/down transitions, controller steps, and fragment-splice
/// digests.
pub fn audit_run(summary: &RunSummary) -> Vec<Violation> {
    let mut out = Vec::new();

    // Every submitted query must reach a terminal outcome.
    for q in &summary.queries {
        if q.outcome.is_none() {
            out.push(Violation::OutcomeMissing { query: q.id });
        }
    }

    // No site can integrate more busy time on one resource than the
    // horizon: realized demand never exceeds unit capacity.
    for (site, busy) in summary.site_busy.iter().enumerate() {
        for (resource, &b) in busy.iter().enumerate() {
            if b > summary.horizon * (1.0 + BUSY_REL_TOL) + 1e-12 {
                out.push(Violation::BusyExceedsHorizon {
                    site,
                    resource,
                    busy: b,
                    horizon: summary.horizon,
                });
            }
        }
    }

    // Fluid-sharing feasibility: no resource's instantaneous share ever
    // exceeded its effective capacity.
    for (site, peaks) in summary.site_peak_util.iter().enumerate() {
        for (resource, &p) in peaks.iter().enumerate() {
            if p > 1.0 + UTIL_TOL {
                out.push(Violation::UtilizationInfeasible {
                    site,
                    resource,
                    peak: p,
                });
            }
        }
    }

    // Average over-commitment: the exact utilization *integral* divided
    // by the horizon bounds each site's sustained load. This catches a
    // simulator that briefly dips under the peak tolerance but
    // over-commits on average.
    if summary.horizon > 0.0 {
        for (site, integrals) in summary.site_util_integral.iter().enumerate() {
            for (resource, &integral) in integrals.iter().enumerate() {
                let avg = integral / summary.horizon;
                if avg > 1.0 + BUSY_REL_TOL {
                    out.push(Violation::AvgUtilizationInfeasible {
                        site,
                        resource,
                        avg,
                    });
                }
            }
        }
    }

    // Series/integral cross-check: when the per-step series was
    // recorded, its piecewise-constant integral must reproduce the
    // simulator's always-on integral (the series is the evidence the
    // integral claims to summarize).
    for (site, series) in summary.site_util_series.iter().enumerate() {
        if series.is_empty() {
            continue;
        }
        let dim = summary
            .site_util_integral
            .get(site)
            .map_or(0, |integrals| integrals.len());
        for resource in 0..dim {
            let series_total: f64 = series.iter().map(|s| s.len * s.util[resource]).sum();
            let integral = summary.site_util_integral[site][resource];
            let scale = series_total.abs().max(integral.abs()).max(1.0);
            if (series_total - integral).abs() > BUSY_REL_TOL * scale {
                out.push(Violation::UtilSeriesMismatch {
                    site,
                    resource,
                    series_total,
                    integral,
                });
            }
        }
    }

    // Trace-level checks: time monotonicity, per-query phase order,
    // site transitions, conservation, splice coherence. Site state is
    // replayed from the SiteDown/SiteUp events: every site starts up, a
    // crash must name an up site and a restore a down one.
    let mut last_time = f64::NEG_INFINITY;
    let mut last_phase: HashMap<usize, usize> = HashMap::new();
    let mut down: HashSet<usize> = HashSet::new();
    // Controller replay state: every run starts at level 0 with the
    // gate released; each recorded decision must be one valid step.
    let mut ctl_level: u32 = 0;
    let mut ctl_gate = false;
    // Fragment registry replayed from FragmentInsert events: digest of
    // the sub-schedule each signature was memoized with. Every splice
    // must reproduce that digest bit-for-bit (signature equality must
    // imply identical sub-schedules).
    let mut fragment_digest: HashMap<u64, u64> = HashMap::new();
    // Terminal events per query: `None` for Aborted, the reason for Shed.
    let mut terminal: HashMap<usize, Vec<Option<ShedReason>>> = HashMap::new();
    for (index, ev) in summary.trace.iter().enumerate() {
        let t = ev.time();
        if t < last_time {
            out.push(Violation::TraceDisordered {
                index,
                prev_time: last_time,
                time: t,
            });
        }
        last_time = t;
        match ev {
            AuditEvent::PhaseDispatched { query, phase, .. } => {
                if let Some(&prev) = last_phase.get(&query.0) {
                    if *phase <= prev {
                        out.push(Violation::PhaseRegression {
                            query: *query,
                            prev,
                            next: *phase,
                        });
                    }
                }
                last_phase.insert(query.0, *phase);
            }
            AuditEvent::Repacked {
                query,
                expected_total,
                placed_total,
                ..
            } => {
                if !audit_repack_conserves(*expected_total, *placed_total) {
                    out.push(Violation::ConservationBroken {
                        query: *query,
                        expected: *expected_total,
                        placed: *placed_total,
                    });
                }
            }
            AuditEvent::SiteDown { site, .. } => {
                if !down.insert(*site) {
                    out.push(Violation::SiteTransition { index, site: *site });
                }
            }
            AuditEvent::SiteUp { site, .. } => {
                if !down.remove(site) {
                    out.push(Violation::SiteTransition { index, site: *site });
                }
            }
            AuditEvent::ControlDecision {
                action,
                level,
                gate,
                ..
            } => {
                if !audit_control_transition(ctl_level, ctl_gate, *action, *level, *gate) {
                    out.push(Violation::ControlTransitionInvalid {
                        index,
                        action: action.label(),
                        prev_level: ctl_level,
                        level: *level,
                    });
                }
                ctl_level = *level;
                ctl_gate = *gate;
            }
            AuditEvent::FragmentInsert {
                sig_hash, digest, ..
            } => {
                fragment_digest.insert(*sig_hash, *digest);
            }
            AuditEvent::FragmentSpliced {
                query,
                sig_hash,
                digest,
                ..
            } => {
                match fragment_digest.get(sig_hash) {
                    Some(&inserted) if inserted == *digest => {}
                    Some(&inserted) => out.push(Violation::FragmentDigestMismatch {
                        query: *query,
                        sig_hash: *sig_hash,
                        inserted,
                        spliced: *digest,
                    }),
                    // A splice with no recorded insert: the fragment
                    // predates the trace (impossible in one run) — flag
                    // it as a digest mismatch against digest 0.
                    None => out.push(Violation::FragmentDigestMismatch {
                        query: *query,
                        sig_hash: *sig_hash,
                        inserted: 0,
                        spliced: *digest,
                    }),
                }
            }
            AuditEvent::Aborted { query, .. } => terminal.entry(query.0).or_default().push(None),
            AuditEvent::Shed { query, reason, .. } => {
                terminal.entry(query.0).or_default().push(Some(*reason));
            }
            AuditEvent::CacheInsert { .. }
            | AuditEvent::CacheHit { .. }
            | AuditEvent::CloneLost { .. }
            | AuditEvent::RetryScheduled { .. } => {}
        }
    }

    // A query ends Aborted iff exactly one Aborted event names it, and
    // Shed iff exactly one Shed event names it with the same reason.
    for q in &summary.queries {
        let expected = match &q.outcome {
            Some(QueryOutcome::Aborted { .. }) => Some(None),
            Some(QueryOutcome::Shed { reason }) => Some(Some(*reason)),
            _ => None,
        };
        let events = terminal.remove(&q.id.0).unwrap_or_default();
        if events.as_slice() != expected.as_slice() {
            out.push(Violation::OutcomeEventMismatch {
                query: q.id,
                events: events.len(),
            });
        }
    }

    out
}

/// Config-aware controller-coherence audit: replays the run's
/// [`AuditEvent::ControlDecision`] stream against the thresholds it ran
/// under. Three invariants:
///
/// * decisions never appear while the controller was disabled;
/// * each decision is a structurally valid single step from the
///   replayed `(level, gate)` state
///   ([`audit_control_transition`] — monotone hysteresis);
/// * each decision's recorded pressure snapshot justifies its action
///   under `cfg`'s thresholds ([`ControllerConfig::justifies`]).
///
/// The structural half also runs config-free inside [`audit_run`]; this
/// entry point adds the threshold check for runs whose config is known
/// (the X15 saturation sweep and the `runtime-controller` audit family).
pub fn audit_controller(summary: &RunSummary, cfg: &ControllerConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut level: u32 = 0;
    let mut gate = false;
    for (index, ev) in summary.trace.iter().enumerate() {
        if let AuditEvent::ControlDecision {
            action,
            level: rec_level,
            gate: rec_gate,
            sample,
            ..
        } = ev
        {
            if !cfg.enabled {
                out.push(Violation::ControlWhileDisabled { index });
                continue;
            }
            if !audit_control_transition(level, gate, *action, *rec_level, *rec_gate) {
                out.push(Violation::ControlTransitionInvalid {
                    index,
                    action: action.label(),
                    prev_level: level,
                    level: *rec_level,
                });
            }
            if !cfg.justifies(*action, sample, level) {
                out.push(Violation::ControlUnjustified {
                    index,
                    action: action.label(),
                });
            }
            level = *rec_level;
            gate = *rec_gate;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_runtime::control::{ControlAction, PressureSample};
    use mrs_runtime::job::QueryId;

    #[test]
    fn corrupted_trace_events_are_caught() {
        let mut s = RunSummary {
            policy: "fcfs",
            horizon: 10.0,
            queries: vec![],
            site_busy: vec![vec![1.0, 2.0, 0.0]],
            depth_trace: vec![],
            cache: Default::default(),
            trace: vec![
                AuditEvent::PhaseDispatched {
                    time: 1.0,
                    query: QueryId(0),
                    phase: 0,
                },
                AuditEvent::PhaseDispatched {
                    time: 2.0,
                    query: QueryId(0),
                    phase: 1,
                },
            ],
            site_peak_util: vec![vec![0.9, 1.0, 0.3]],
            site_util_integral: vec![vec![1.0, 2.0, 0.0]],
            site_util_series: vec![vec![]],
        };
        assert!(audit_run(&s).is_empty(), "clean synthetic run");

        s.trace.push(AuditEvent::PhaseDispatched {
            time: 3.0,
            query: QueryId(0),
            phase: 1,
        });
        let v = audit_run(&s);
        assert!(v.iter().any(|x| x.kind() == "phase-regression"), "{v:?}");

        s.trace.pop();
        s.site_peak_util[0][1] = 1.5;
        let v = audit_run(&s);
        assert!(v.iter().any(|x| x.kind() == "utilization"), "{v:?}");

        s.site_peak_util[0][1] = 1.0;
        s.site_busy[0][0] = 11.0;
        let v = audit_run(&s);
        assert!(
            v.iter().any(|x| x.kind() == "busy-exceeds-horizon"),
            "{v:?}"
        );
        s.site_busy[0][0] = 1.0;

        // Average over-commitment: integral 12 over horizon 10 = 1.2.
        s.site_util_integral[0][0] = 12.0;
        let v = audit_run(&s);
        assert!(v.iter().any(|x| x.kind() == "avg-utilization"), "{v:?}");
        s.site_util_integral[0][0] = 1.0;

        // Series that does not integrate to the recorded integral.
        s.site_util_series[0] = vec![mrs_sim::engine::UtilSample {
            start: 0.0,
            len: 10.0,
            util: vec![0.5, 0.2, 0.0],
        }];
        let v = audit_run(&s);
        assert!(v.iter().any(|x| x.kind() == "util-series"), "{v:?}");

        // A series that matches exactly is clean again.
        s.site_util_integral = vec![vec![5.0, 2.0, 0.0]];
        assert!(audit_run(&s).is_empty(), "consistent series passes");
    }

    fn decision(
        time: f64,
        action: ControlAction,
        level: u32,
        gate: bool,
        queue: usize,
        load: f64,
    ) -> AuditEvent {
        AuditEvent::ControlDecision {
            time,
            action,
            level,
            gate,
            sample: PressureSample {
                time,
                queue_depth: queue,
                retries: 0,
                alive: 4,
                avg_load: load,
            },
        }
    }

    fn summary_with_trace(trace: Vec<AuditEvent>) -> RunSummary {
        RunSummary {
            policy: "fcfs",
            horizon: 10.0,
            queries: vec![],
            site_busy: vec![],
            depth_trace: vec![],
            cache: Default::default(),
            trace,
            site_peak_util: vec![],
            site_util_integral: vec![],
            site_util_series: vec![],
        }
    }

    #[test]
    fn fragment_splices_replay_cleanly_and_tampering_is_caught() {
        let insert = AuditEvent::FragmentInsert {
            time: 1.0,
            query: QueryId(0),
            sig_hash: 0xABCD,
            digest: 77,
        };
        let splice = |digest: u64| AuditEvent::FragmentSpliced {
            time: 2.0,
            query: QueryId(1),
            sig_hash: 0xABCD,
            digest,
        };

        // Clean: the splice reproduces the inserted digest.
        let s = summary_with_trace(vec![insert.clone(), splice(77)]);
        assert!(audit_run(&s).is_empty(), "clean splice replay");

        // Digest drift between insert and splice.
        let s = summary_with_trace(vec![insert, splice(78)]);
        let v = audit_run(&s);
        assert!(v.iter().any(|x| x.kind() == "fragment-digest"), "{v:?}");

        // Splice with no recorded insert at all.
        let s = summary_with_trace(vec![splice(77)]);
        let v = audit_run(&s);
        assert!(v.iter().any(|x| x.kind() == "fragment-digest"), "{v:?}");
    }

    #[test]
    fn controller_decisions_replay_cleanly() {
        let cfg = ControllerConfig::adaptive();
        // engage at 0.9, raise on backlog 7, lower once drained, release
        // at 0.5 — a legal trajectory under the default thresholds.
        let s = summary_with_trace(vec![
            decision(1.0, ControlAction::EngageGate, 0, true, 2, 0.9),
            decision(2.0, ControlAction::RaiseLevel, 1, true, 7, 0.8),
            decision(3.0, ControlAction::LowerLevel, 0, true, 1, 0.5),
            decision(3.0, ControlAction::ReleaseGate, 0, false, 1, 0.5),
        ]);
        assert!(audit_run(&s).is_empty(), "structural replay clean");
        assert!(audit_controller(&s, &cfg).is_empty(), "justified replay");
    }

    #[test]
    fn tampered_controller_traces_are_caught() {
        let cfg = ControllerConfig::adaptive();

        // Level jump: 0 -> 2 in one decision.
        let s = summary_with_trace(vec![decision(
            1.0,
            ControlAction::RaiseLevel,
            2,
            false,
            9,
            0.7,
        )]);
        assert!(audit_run(&s)
            .iter()
            .any(|v| v.kind() == "control-transition"));
        assert!(audit_controller(&s, &cfg)
            .iter()
            .any(|v| v.kind() == "control-transition"));

        // Structurally fine but unjustified: gate engaged below
        // load_high.
        let s = summary_with_trace(vec![decision(
            1.0,
            ControlAction::EngageGate,
            0,
            true,
            0,
            0.3,
        )]);
        assert!(audit_run(&s).is_empty(), "structure alone cannot see it");
        assert!(audit_controller(&s, &cfg)
            .iter()
            .any(|v| v.kind() == "control-unjustified"));

        // Raise recorded past max_level is unjustified even as a single
        // step.
        let s = summary_with_trace(vec![
            decision(1.0, ControlAction::RaiseLevel, 1, false, 9, 0.7),
            decision(2.0, ControlAction::RaiseLevel, 2, false, 9, 0.7),
            decision(3.0, ControlAction::RaiseLevel, 3, false, 9, 0.7),
            decision(4.0, ControlAction::RaiseLevel, 4, false, 9, 0.7),
        ]);
        let v = audit_controller(&s, &cfg);
        assert!(v.iter().any(|x| x.kind() == "control-unjustified"), "{v:?}");

        // Any decision at all under a disabled config.
        let off = ControllerConfig::default();
        let s = summary_with_trace(vec![decision(
            1.0,
            ControlAction::EngageGate,
            0,
            true,
            0,
            0.9,
        )]);
        assert!(audit_controller(&s, &off)
            .iter()
            .any(|v| v.kind() == "control-disabled"));
    }
}
