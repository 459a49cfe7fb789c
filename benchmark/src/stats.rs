//! Order statistics and failure accounting.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of `values`: the smallest
/// sample with at least `p` % of the samples at or below it. `None` for
/// no samples.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 50.0)
}

/// A tail percentile, reported only when at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond its rank (p95 thus needs 200 samples).
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    if values.len().saturating_sub(rank) < TAIL_MIN_BEYOND {
        return None;
    }
    nearest_rank(values, p)
}

/// Attempted/failed op tally. Every op is counted; a typed error from the
/// program counts as a failure and the run goes on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
}

impl Failures {
    /// Counts one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Failures) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 with nothing attempted).
    pub fn frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 10.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 11.0), Some(2.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0), None, "rank 190 of 199 leaves 9 beyond");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0), Some(190.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 50.0), Some(10.0));
        assert_eq!(tail(&v, 51.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn failure_counter_tracks_attempts_and_failures() {
        let mut f = Failures::default();
        assert_eq!(f.frac(), 0.0);
        for ok in [true, false, true, true] {
            f.record(ok);
        }
        assert_eq!((f.attempted, f.failed), (4, 1));
        assert_eq!(f.frac(), 0.25);
        let mut g = Failures::default();
        g.record(false);
        f.merge(g);
        assert_eq!((f.attempted, f.failed), (5, 2));
    }
}
