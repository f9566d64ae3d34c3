//! The clone-event log and its canonical order.
//!
//! The [`Fabric`](crate::fabric::Fabric) records every site-level clone
//! event — dispatch, completion, crash loss, eviction — into one log.
//! The log is the evidence `mrs-audit`'s conservation checker replays:
//! every dispatched clone must have exactly one dispatch and at most one
//! terminal event, never earlier than its dispatch.

/// What happened to one clone at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloneEventKind {
    /// The clone was placed on the site.
    Dispatched,
    /// The clone ran to completion.
    Completed,
    /// The clone was evicted by a site crash.
    Lost,
    /// The clone was evicted by the runtime (abort/deadline).
    Evicted,
}

impl CloneEventKind {
    /// Stable rank used by the canonical order: a dispatch sorts before
    /// its own same-instant terminal (a zero-duration clone is
    /// dispatched and completed at the same time with the same tag).
    pub fn rank(self) -> u8 {
        match self {
            CloneEventKind::Dispatched => 0,
            CloneEventKind::Completed => 1,
            CloneEventKind::Lost => 2,
            CloneEventKind::Evicted => 3,
        }
    }

    /// Short stable label (for diagnostics and CSVs).
    pub fn label(self) -> &'static str {
        match self {
            CloneEventKind::Dispatched => "dispatched",
            CloneEventKind::Completed => "completed",
            CloneEventKind::Lost => "lost",
            CloneEventKind::Evicted => "evicted",
        }
    }
}

/// One site-level clone event, stamped with virtual time, the site
/// index, and the runtime's (globally unique) clone tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CloneEvent {
    /// Virtual time of the event.
    pub time: f64,
    /// Site index where it happened.
    pub site: usize,
    /// The clone's runtime tag (unique per dispatch; re-packs mint new
    /// tags).
    pub tag: usize,
    /// What happened.
    pub kind: CloneEventKind,
}

/// The canonical event comparator: `(time, tag, kind rank, site)` with a
/// total order on time. Tags are unique per dispatch and a tag meets
/// each kind at most once, so the order is total.
pub fn event_order(a: &CloneEvent, b: &CloneEvent) -> std::cmp::Ordering {
    a.time
        .total_cmp(&b.time)
        .then(a.tag.cmp(&b.tag))
        .then(a.kind.rank().cmp(&b.kind.rank()))
        .then(a.site.cmp(&b.site))
}

/// The log re-sorted into [`event_order`]. Recorded times are
/// non-decreasing only per site, not globally: a lazily advanced site
/// can append an older-stamped completion after a newer event on
/// another site.
pub fn canonical_log(events: &[CloneEvent]) -> Vec<CloneEvent> {
    let mut out = events.to_vec();
    out.sort_by(event_order);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, site: usize, tag: usize, kind: CloneEventKind) -> CloneEvent {
        CloneEvent {
            time,
            site,
            tag,
            kind,
        }
    }

    #[test]
    fn canonical_order_is_time_then_tag() {
        use CloneEventKind::*;
        let log = vec![
            ev(0.0, 0, 0, Dispatched),
            ev(5.0, 0, 0, Completed),
            ev(0.0, 3, 1, Dispatched),
            ev(2.0, 3, 1, Completed),
        ];
        let tags: Vec<(usize, CloneEventKind)> = canonical_log(&log)
            .iter()
            .map(|e| (e.tag, e.kind))
            .collect();
        assert_eq!(
            tags,
            vec![
                (0, Dispatched),
                (1, Dispatched),
                (1, Completed),
                (0, Completed)
            ]
        );
    }

    #[test]
    fn dispatch_sorts_before_same_instant_completion() {
        use CloneEventKind::*;
        let log = vec![ev(1.0, 0, 7, Completed), ev(1.0, 0, 7, Dispatched)];
        let sorted = canonical_log(&log);
        assert_eq!(sorted[0].kind, Dispatched);
        assert_eq!(sorted[1].kind, Completed);
    }
}
