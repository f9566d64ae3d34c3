//! The site ledger: the scheduler-facing view of what each site has
//! committed to.
//!
//! Every running clone demands resource `i` at full-speed rate
//! `W[i]/T_seq(W)`; the ledger accumulates those rates per site and
//! resource as clones are dispatched and releases them on completion.
//! Committed demand above `1.0` on some resource means the fluid
//! simulator will time-share (stretch) the clones there — the ledger is
//! how the admission gate sees that congestion *before* committing more
//! work, while the simulator's busy-time integrals remain the ground
//! truth for realized utilization.
//!
//! The ledger lives in `mrs-shardexec` (re-exported as
//! `mrs_runtime::ledger`) beside the site simulators it mirrors: the
//! [`Fabric`](crate::fabric::Fabric) commits a clone's demand in the
//! same call that places it.

use mrs_core::resource::SiteId;

/// Per-site committed full-speed demand, one `d`-vector per site.
///
/// The ledger also tracks the *alive-site set*: a crashed site is
/// released ([`SiteLedger::release_site`]), dropping its committed
/// demand and removing it from the capacity the admission gate averages
/// over, and restored ([`SiteLedger::restore_site`]) when it recovers.
#[derive(Clone, Debug)]
pub struct SiteLedger {
    dim: usize,
    committed: Vec<Vec<f64>>,
    resident: Vec<usize>,
    peak: Vec<f64>,
    alive: Vec<bool>,
    /// Number of `true` entries in `alive`, maintained by
    /// [`SiteLedger::release_site`] / [`SiteLedger::restore_site`] so the
    /// admission path's degraded-mode check is O(1).
    alive_count: usize,
}

impl SiteLedger {
    /// A ledger for `sites` sites of dimensionality `dim`.
    pub fn new(sites: usize, dim: usize) -> Self {
        SiteLedger {
            dim,
            committed: vec![vec![0.0; dim]; sites],
            resident: vec![0; sites],
            peak: vec![0.0; sites],
            alive: vec![true; sites],
            alive_count: sites,
        }
    }

    /// Number of sites tracked.
    pub fn sites(&self) -> usize {
        self.committed.len()
    }

    /// Resource dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Records a clone's full-speed demand rates starting at `site`.
    pub fn commit(&mut self, site: SiteId, demand: &[f64]) {
        assert_eq!(demand.len(), self.dim, "demand dimensionality mismatch");
        let c = &mut self.committed[site.0];
        for (slot, dem) in c.iter_mut().zip(demand) {
            *slot += dem;
        }
        self.resident[site.0] += 1;
        let load = c.iter().copied().fold(0.0, f64::max);
        if load > self.peak[site.0] {
            self.peak[site.0] = load;
        }
    }

    /// Releases a completed clone's demand (clamped at zero so repeated
    /// float round-off cannot drive the ledger negative).
    pub fn release(&mut self, site: SiteId, demand: &[f64]) {
        assert_eq!(demand.len(), self.dim, "demand dimensionality mismatch");
        let c = &mut self.committed[site.0];
        for (slot, dem) in c.iter_mut().zip(demand) {
            *slot = (*slot - dem).max(0.0);
        }
        self.resident[site.0] = self.resident[site.0]
            .checked_sub(1)
            .expect("release without matching commit");
    }

    /// The committed demand vector of `site`.
    pub fn committed(&self, site: SiteId) -> &[f64] {
        &self.committed[site.0]
    }

    /// Residual capacity of `site`: `max(0, 1 − committed)` per resource.
    /// Committed demand can exceed capacity (the fluid sites time-share),
    /// in which case the residual is zero, not negative.
    pub fn residual(&self, site: SiteId) -> Vec<f64> {
        self.committed[site.0]
            .iter()
            .map(|c| (1.0 - c).max(0.0))
            .collect()
    }

    /// Congestion of `site`: the max committed demand over resources
    /// (`l_∞`); `> 1.0` means the site is oversubscribed.
    pub fn load(&self, site: SiteId) -> f64 {
        self.committed[site.0].iter().copied().fold(0.0, f64::max)
    }

    /// Takes `site` out of service: its committed demand and residency
    /// are zeroed (the clones are gone) and it no longer counts toward
    /// [`SiteLedger::avg_load`]'s denominator.
    pub fn release_site(&mut self, site: SiteId) {
        if self.alive[site.0] {
            self.alive_count -= 1;
        }
        self.alive[site.0] = false;
        for slot in &mut self.committed[site.0] {
            *slot = 0.0;
        }
        self.resident[site.0] = 0;
    }

    /// Returns a released site to service (empty and idle).
    pub fn restore_site(&mut self, site: SiteId) {
        if !self.alive[site.0] {
            self.alive_count += 1;
        }
        self.alive[site.0] = true;
    }

    /// Whether `site` is currently in service.
    pub fn is_alive(&self, site: SiteId) -> bool {
        self.alive[site.0]
    }

    /// Number of sites currently in service.
    pub fn alive_sites(&self) -> usize {
        self.alive_count
    }

    /// The alive sites in index order.
    pub fn alive_list(&self) -> Vec<SiteId> {
        (0..self.sites())
            .filter(|s| self.alive[*s])
            .map(SiteId)
            .collect()
    }

    /// Mean [`SiteLedger::load`] over the *alive* sites — the admission
    /// gate's signal. Dividing by the total site count would let dead
    /// (zero-load) sites dilute the average and wave queries into a
    /// shrunken machine; with every site dead the mean is `+∞`, which
    /// closes the gate entirely.
    pub fn avg_load(&self) -> f64 {
        if self.alive_count == 0 {
            return f64::INFINITY;
        }
        // A left fold from +0.0 in site order: one fixed sequence of
        // float additions, so the mean is bit-stable across runs.
        let mut total = 0.0f64;
        for s in 0..self.sites() {
            if self.alive[s] {
                total += self.load(SiteId(s));
            }
        }
        total / self.alive_count as f64
    }

    /// Highest `l_∞` committed demand `site` ever reached.
    pub fn peak_load(&self, site: SiteId) -> f64 {
        self.peak[site.0]
    }

    /// Number of clones currently committed at `site`.
    pub fn resident(&self, site: SiteId) -> usize {
        self.resident[site.0]
    }

    /// Total clones committed across all sites.
    pub fn total_resident(&self) -> usize {
        self.resident.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_release_roundtrip() {
        let mut l = SiteLedger::new(2, 3);
        l.commit(SiteId(0), &[0.5, 0.2, 0.0]);
        l.commit(SiteId(0), &[0.7, 0.1, 0.0]);
        assert_eq!(l.resident(SiteId(0)), 2);
        assert_eq!(l.total_resident(), 2);
        assert!((l.load(SiteId(0)) - 1.2).abs() < 1e-12);
        assert_eq!(l.residual(SiteId(0))[0], 0.0); // oversubscribed → 0
        assert!((l.residual(SiteId(0))[1] - 0.7).abs() < 1e-12);
        l.release(SiteId(0), &[0.5, 0.2, 0.0]);
        assert!((l.load(SiteId(0)) - 0.7).abs() < 1e-12);
        assert!((l.peak_load(SiteId(0)) - 1.2).abs() < 1e-12);
        assert_eq!(l.resident(SiteId(0)), 1);
        // Untouched site stays idle.
        assert_eq!(l.load(SiteId(1)), 0.0);
        assert!((l.avg_load() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn release_clamps_at_zero() {
        let mut l = SiteLedger::new(1, 2);
        l.commit(SiteId(0), &[0.1, 0.1]);
        // Round-off larger than the committed amount must not go negative.
        l.release(SiteId(0), &[0.1 + 1e-17, 0.1]);
        assert!(l.load(SiteId(0)) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let mut l = SiteLedger::new(1, 3);
        l.commit(SiteId(0), &[0.5, 0.5]);
    }

    #[test]
    fn release_site_drops_capacity_and_load() {
        let mut l = SiteLedger::new(4, 2);
        l.commit(SiteId(0), &[0.8, 0.0]);
        l.commit(SiteId(1), &[0.4, 0.0]);
        assert_eq!(l.alive_sites(), 4);
        assert!((l.avg_load() - 0.3).abs() < 1e-12);
        l.release_site(SiteId(0));
        assert!(!l.is_alive(SiteId(0)));
        assert_eq!(l.alive_sites(), 3);
        assert_eq!(l.resident(SiteId(0)), 0);
        assert_eq!(l.load(SiteId(0)), 0.0);
        // Mean over the three alive sites, not four.
        assert!((l.avg_load() - 0.4 / 3.0).abs() < 1e-12, "{}", l.avg_load());
        l.restore_site(SiteId(0));
        assert!(l.is_alive(SiteId(0)));
        assert_eq!(l.alive_sites(), 4);
        assert!((l.avg_load() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn avg_load_with_no_alive_sites_closes_the_gate() {
        let mut l = SiteLedger::new(2, 2);
        l.release_site(SiteId(0));
        l.release_site(SiteId(1));
        assert_eq!(l.alive_sites(), 0);
        assert_eq!(l.avg_load(), f64::INFINITY);
    }

    #[test]
    fn alive_count_tracks_repeated_releases_and_restores() {
        let mut l = SiteLedger::new(3, 1);
        l.release_site(SiteId(1));
        l.release_site(SiteId(1));
        assert_eq!(l.alive_sites(), 2);
        assert_eq!(l.alive_list(), vec![SiteId(0), SiteId(2)]);
        l.restore_site(SiteId(1));
        l.restore_site(SiteId(1));
        assert_eq!(l.alive_sites(), 3);
        assert_eq!(l.alive_list(), vec![SiteId(0), SiteId(1), SiteId(2)]);
    }
}
