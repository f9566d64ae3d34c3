//! The execution fabric: the runtime's single entry point to the site
//! layer.
//!
//! A [`Fabric`] owns the site simulators, the lazy event calendar over
//! them, the [`SiteLedger`], and the [clone-event log](crate::clone_log).
//! Every mutation goes through a fabric method, so they stay in step:
//! placing a clone invalidates its site's calendar entry, commits its
//! demand, and logs the dispatch in one call.
//!
//! The fabric also caches the earliest pending completion. The cache is
//! marked stale only when a site's simulator population changes, so the
//! event loop's [`Fabric::next_time`] is free on epochs that touched no
//! site, and [`Fabric::advance_due`] returns at once when nothing is due
//! at `t`.

use crate::clone_log::{CloneEvent, CloneEventKind};
use crate::ledger::SiteLedger;
use crate::order::sort_completions;
use mrs_core::resource::SiteId;
use mrs_sim::calendar::EventCalendar;
use mrs_sim::engine::{Completion, LostClone, SimClone, SiteSim};

/// The site layer behind the runtime. See the [module docs](self).
#[derive(Debug)]
pub struct Fabric {
    /// Site simulators, in site-index order.
    sims: Vec<SiteSim>,
    /// Lazy completion calendar over `sims`.
    calendar: EventCalendar,
    /// Committed-demand ledger over the same sites.
    ledger: SiteLedger,
    /// Every clone event, in the order the fabric applied it.
    log: Vec<CloneEvent>,
    /// Cached earliest pending completion; exact while `dirty` is clear.
    next: Option<f64>,
    /// Whether `next` is stale (some site's population changed).
    dirty: bool,
}

impl Fabric {
    /// Builds the fabric over `sims` (site-index order) with resource
    /// dimensionality `dim`.
    pub fn new(sims: Vec<SiteSim>, dim: usize) -> Self {
        let n = sims.len();
        Fabric {
            calendar: EventCalendar::new(n),
            ledger: SiteLedger::new(n, dim),
            sims,
            log: Vec::new(),
            next: None,
            dirty: true,
        }
    }

    /// The site simulators, in site-index order.
    pub fn sims(&self) -> &[SiteSim] {
        &self.sims
    }

    /// The committed-demand ledger.
    pub fn ledger(&self) -> &SiteLedger {
        &self.ledger
    }

    /// The clone-event log, in application order.
    pub fn clone_log(&self) -> &[CloneEvent] {
        &self.log
    }

    fn record(&mut self, time: f64, site: usize, tag: usize, kind: CloneEventKind) {
        self.log.push(CloneEvent {
            time,
            site,
            tag,
            kind,
        });
    }

    /// Marks `site`'s calendar entry and the cached next-event time stale.
    fn invalidate(&mut self, site: usize) {
        self.calendar.invalidate(site);
        self.dirty = true;
    }

    /// Epoch phase 1: the earliest pending completion across all sites.
    pub fn next_time(&mut self) -> Option<f64> {
        if self.dirty {
            self.next = self.calendar.next_time(&mut self.sims);
            self.dirty = false;
        }
        self.next
    }

    /// Epoch phase 2: advances every site with a completion due at `t`
    /// to `t`, appending the surfaced completions to `out` in `(time,
    /// tag)` order. A no-op when nothing is due.
    pub fn advance_due(&mut self, t: f64, out: &mut Vec<Completion>) {
        if !self.next_time().is_some_and(|n| n <= t) {
            return;
        }
        let start = out.len();
        let log = &mut self.log;
        self.calendar
            .advance_due_observed(t, &mut self.sims, out, |site, done| {
                for c in done {
                    log.push(CloneEvent {
                        time: c.time,
                        site,
                        tag: c.tag,
                        kind: CloneEventKind::Completed,
                    });
                }
            });
        sort_completions(&mut out[start..]);
        self.next = self.calendar.next_time(&mut self.sims);
    }

    /// Catches a lazily advanced `site` up to `clock`, appending any
    /// surfaced completions to `out` (and the log). A site already at or
    /// past the clock is left untouched.
    pub fn catch_up(&mut self, site: usize, clock: f64, out: &mut Vec<Completion>) {
        if self.sims[site].now() < clock {
            let start = out.len();
            self.sims[site].advance_to(clock, out);
            self.invalidate(site);
            for &Completion { time, tag, .. } in &out[start..] {
                self.record(time, site, tag, CloneEventKind::Completed);
            }
        }
    }

    /// Inserts a clone on `site` at the site's current clock and commits
    /// `demand` to the ledger, logging the dispatch. A zero-duration
    /// clone completes inline: its completion is returned (and logged)
    /// instead of being tracked, and nothing is committed.
    pub fn place_clone(
        &mut self,
        site: usize,
        clone: &SimClone,
        demand: &[f64],
    ) -> Option<Completion> {
        match self.sims[site].add_clone(clone) {
            Some(done) => {
                self.record(done.time, site, clone.tag, CloneEventKind::Dispatched);
                self.record(done.time, site, clone.tag, CloneEventKind::Completed);
                Some(done)
            }
            None => {
                self.invalidate(site);
                let now = self.sims[site].now();
                self.record(now, site, clone.tag, CloneEventKind::Dispatched);
                self.ledger.commit(SiteId(site), demand);
                None
            }
        }
    }

    /// Crashes `site`: evicts and returns its resident clones (logged as
    /// lost) and releases the site from the ledger. The caller must have
    /// caught the site up to the clock first.
    pub fn fail_site(&mut self, site: usize) -> Vec<LostClone> {
        let lost = self.sims[site].fail();
        self.invalidate(site);
        let now = self.sims[site].now();
        for lc in &lost {
            self.record(now, site, lc.tag, CloneEventKind::Lost);
        }
        self.ledger.release_site(SiteId(site));
        lost
    }

    /// Restores a crashed `site` (empty and idle) in both the simulator
    /// and the ledger.
    pub fn restore_site(&mut self, site: usize) {
        self.sims[site].restore();
        self.invalidate(site);
        self.ledger.restore_site(SiteId(site));
    }

    /// Evicts the clone tagged `tag` from `site` (logged as evicted if
    /// resident).
    pub fn remove_clone(&mut self, site: usize, tag: usize) -> Option<LostClone> {
        let removed = self.sims[site].remove_clone(tag);
        self.invalidate(site);
        if removed.is_some() {
            let now = self.sims[site].now();
            self.record(now, site, tag, CloneEventKind::Evicted);
        }
        removed
    }

    /// Releases a completed or evicted clone's demand at `site`.
    pub fn release(&mut self, site: usize, demand: &[f64]) {
        self.ledger.release(SiteId(site), demand);
    }

    /// Whether `site` is currently crashed.
    pub fn is_down(&self, site: usize) -> bool {
        self.sims[site].is_down()
    }

    /// Enables per-step utilization recording on every site.
    pub fn enable_util_series(&mut self) {
        for sim in &mut self.sims {
            sim.enable_util_series();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::vector::WorkVector;
    use mrs_sim::engine::SimConfig;
    use CloneEventKind::*;

    fn fabric(n: usize) -> Fabric {
        let sims = (0..n)
            .map(|_| SiteSim::new(SimConfig::default(), 2))
            .collect();
        Fabric::new(sims, 2)
    }

    fn clone(tag: usize, w: &[f64], duration: f64) -> SimClone {
        SimClone {
            tag,
            work: WorkVector::from_slice(w),
            duration,
        }
    }

    fn place(f: &mut Fabric, site: usize, tag: usize, w: &[f64], duration: f64) {
        let demand: Vec<f64> = w.iter().map(|x| x / duration).collect();
        assert!(f
            .place_clone(site, &clone(tag, w, duration), &demand)
            .is_none());
    }

    fn kinds(f: &Fabric) -> Vec<(usize, CloneEventKind)> {
        f.clone_log().iter().map(|e| (e.site, e.kind)).collect()
    }

    #[test]
    fn lifecycle_events_are_logged() {
        let mut f = fabric(3);
        place(&mut f, 1, 0, &[2.0, 0.0], 2.0);
        assert_eq!(f.ledger().resident(SiteId(1)), 1);
        let t = f.next_time().expect("one clone pending");
        let mut out = Vec::new();
        f.advance_due(t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(kinds(&f), vec![(1, Dispatched), (1, Completed)]);
        assert_eq!(f.next_time(), None);
    }

    #[test]
    fn zero_duration_clone_logs_dispatch_and_completion_and_commits_nothing() {
        let mut f = fabric(1);
        let done = f.place_clone(0, &clone(9, &[0.0, 0.0], 0.0), &[0.0, 0.0]);
        assert!(done.is_some());
        assert_eq!(kinds(&f), vec![(0, Dispatched), (0, Completed)]);
        assert_eq!(f.ledger().total_resident(), 0);
    }

    #[test]
    fn fail_and_evict_log_terminal_events() {
        let mut f = fabric(4);
        place(&mut f, 2, 0, &[4.0, 0.0], 4.0);
        place(&mut f, 3, 1, &[4.0, 0.0], 4.0);
        let lost = f.fail_site(2);
        assert_eq!(lost.len(), 1);
        assert!(f.is_down(2));
        assert!(!f.ledger().is_alive(SiteId(2)));
        assert_eq!(f.ledger().alive_sites(), 3);
        let evicted = f.remove_clone(3, 1);
        assert!(evicted.is_some());
        assert_eq!(f.remove_clone(3, 1), None, "already gone");
        assert_eq!(
            kinds(&f),
            vec![(2, Dispatched), (3, Dispatched), (2, Lost), (3, Evicted)]
        );
        f.restore_site(2);
        assert!(!f.is_down(2));
        assert_eq!(f.ledger().alive_sites(), 4);
        assert_eq!(f.next_time(), None, "every clone is gone");
    }

    #[test]
    fn catch_up_skips_current_sites_and_logs_completions() {
        let mut f = fabric(2);
        place(&mut f, 0, 0, &[1.0, 0.0], 1.0);
        let mut out = Vec::new();
        f.catch_up(0, 3.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, 1.0);
        // Already at the clock: no-op.
        let before = f.clone_log().len();
        f.catch_up(0, 3.0, &mut out);
        assert_eq!(f.clone_log().len(), before);
    }

    #[test]
    fn quiet_epochs_surface_nothing() {
        let mut f = fabric(4);
        place(&mut f, 0, 0, &[4.0, 0.0], 4.0);
        assert_eq!(f.next_time(), Some(4.0));
        let mut out = Vec::new();
        f.advance_due(1.0, &mut out);
        assert!(out.is_empty());
        f.advance_due(4.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.next_time(), None);
    }

    #[test]
    fn simultaneous_completions_surface_in_tag_order() {
        // Bit-identical clones on two sites complete at the same instant:
        // one advance surfaces both, in (time, tag) order, whatever the
        // site order.
        let mut f = fabric(4);
        place(&mut f, 0, 1, &[2.0, 0.0], 2.0);
        place(&mut f, 3, 0, &[2.0, 0.0], 2.0);
        let t = f.next_time().expect("two clones pending");
        let mut out = Vec::new();
        f.advance_due(t, &mut out);
        let tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1], "(time, tag) order");
        assert_eq!(f.next_time(), None);
    }
}
