//! Clone-conservation checker for the site layer's clone-event log.
//!
//! The `mrs-shardexec` fabric records every site-level clone event —
//! dispatch, completion, crash loss, eviction — in one log.
//! [`audit_clone_log`] replays it in canonical `(time, tag)` order and
//! checks that every clone tag is dispatched exactly once, suffers at
//! most one terminal event, and never terminates before (or without)
//! its dispatch.

use crate::violation::Violation;
use mrs_shardexec::clone_log::{canonical_log, CloneEvent, CloneEventKind};
use std::collections::BTreeMap;

/// Per-tag lifecycle accumulator for the conservation check.
#[derive(Default)]
struct Lifecycle {
    dispatches: usize,
    dispatch_time: Option<f64>,
    terminals: usize,
}

/// Audits one run's clone-event log. Returns every violation found
/// (empty = clean). See the [module docs](self).
pub fn audit_clone_log(log: &[CloneEvent]) -> Vec<Violation> {
    let mut out = Vec::new();
    // BTreeMap keeps the per-tag reports in tag order (deterministic
    // output).
    let mut tags: BTreeMap<usize, Lifecycle> = BTreeMap::new();
    for ev in &canonical_log(log) {
        let life = tags.entry(ev.tag).or_default();
        match ev.kind {
            CloneEventKind::Dispatched => {
                life.dispatches += 1;
                if life.dispatch_time.is_none() {
                    life.dispatch_time = Some(ev.time);
                }
            }
            CloneEventKind::Completed | CloneEventKind::Lost | CloneEventKind::Evicted => {
                life.terminals += 1;
                match life.dispatch_time {
                    None => out.push(Violation::CloneConservationBroken {
                        tag: ev.tag,
                        detail: format!(
                            "{} at t={} with no prior dispatch",
                            ev.kind.label(),
                            ev.time
                        ),
                    }),
                    Some(d) if ev.time < d => out.push(Violation::CloneConservationBroken {
                        tag: ev.tag,
                        detail: format!(
                            "{} at t={} precedes its dispatch at t={d}",
                            ev.kind.label(),
                            ev.time
                        ),
                    }),
                    Some(_) => {}
                }
            }
        }
    }
    for (tag, life) in tags {
        if life.dispatches != 1 {
            out.push(Violation::CloneConservationBroken {
                tag,
                detail: format!(
                    "dispatched {} times (must be exactly once)",
                    life.dispatches
                ),
            });
        }
        if life.terminals > 1 {
            out.push(Violation::CloneConservationBroken {
                tag,
                detail: format!("{} terminal events (at most one allowed)", life.terminals),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use CloneEventKind::{Completed, Dispatched, Lost};

    fn ev(time: f64, site: usize, tag: usize, kind: CloneEventKind) -> CloneEvent {
        CloneEvent {
            time,
            site,
            tag,
            kind,
        }
    }

    fn clean_log() -> Vec<CloneEvent> {
        vec![
            ev(0.0, 0, 0, Dispatched),
            ev(0.0, 3, 1, Dispatched),
            ev(1.0, 3, 1, Lost),
            ev(3.0, 0, 0, Completed),
        ]
    }

    fn conservation(v: &[Violation]) -> usize {
        v.iter()
            .filter(|x| x.kind() == "clone-conservation")
            .count()
    }

    #[test]
    fn clean_log_passes() {
        assert!(audit_clone_log(&clean_log()).is_empty());
    }

    #[test]
    fn double_dispatch_and_orphan_terminal_are_reported() {
        let mut log = clean_log();
        // Tag 0 dispatched a second time, tag 9 completes undispatched.
        log.push(ev(4.0, 1, 0, Dispatched));
        log.push(ev(5.0, 2, 9, Completed));
        let v = audit_clone_log(&log);
        // Three breaches: tag 0 dispatched twice, tag 9's orphan
        // completion, and tag 9's zero-dispatch lifecycle.
        assert_eq!(conservation(&v), 3, "{v:?}");
    }

    #[test]
    fn double_terminal_and_time_travel_are_reported() {
        let mut log = clean_log();
        log.push(ev(3.5, 1, 0, Lost)); // second terminal for tag 0
        log[2].time = -1.0; // loss before its own dispatch
        let v = audit_clone_log(&log);
        assert!(conservation(&v) >= 2, "{v:?}");
    }
}
