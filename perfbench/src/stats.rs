//! Summary statistics shared by the end-to-end and per-layer metrics.

/// Nearest-rank percentile (`rank = ceil(p · n)`, clamped to `[1, n]`),
/// the convention of `RunSummary::latency_percentile`. `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of repeated wall-clock measurements: the middle value, or the
/// mean of the two middle values for an even count. `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// How the submitted queries of one stream ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Queries handed to `submit_at`.
    pub submitted: usize,
    /// Queries that finished.
    pub completed: usize,
    /// Queries aborted (deadline or exhausted recovery).
    pub aborted: usize,
    /// Queries shed at arrival.
    pub shed: usize,
}

impl Outcomes {
    /// Queries that did not complete. A scheduling error at admission
    /// ends `run_to_completion` with an error, which fails the run as a
    /// whole, so it has no per-query count here.
    pub fn failed(&self) -> usize {
        self.aborted + self.shed
    }

    /// Failed queries as a share of submitted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.submitted as f64
        }
    }

    /// Every submitted query is accounted for by exactly one outcome.
    pub fn accounted(&self) -> bool {
        self.completed + self.failed() == self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1,000 samples: p99 is the 990th, so ten lie beyond it.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), 990.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_frac_counts_aborted_and_shed() {
        let o = Outcomes {
            submitted: 20,
            completed: 15,
            aborted: 3,
            shed: 2,
        };
        assert_eq!(o.failed(), 5);
        assert!(o.accounted());
        assert_eq!(o.failed_frac(), 0.25);
        let lost = Outcomes {
            submitted: 5,
            completed: 4,
            ..Outcomes::default()
        };
        assert!(!lost.accounted());
        assert_eq!(Outcomes::default().failed_frac(), 0.0);
    }
}
