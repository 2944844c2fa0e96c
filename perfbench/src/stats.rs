//! The benchmark's own statistics: order statistics with a tail rule,
//! outcome accounting, and the open-loop arrival schedule.

use std::time::{Duration, Instant};

/// The tail quantile every latency metric reports (p90).
pub const TAIL_Q: f64 = 0.90;

/// Samples that must lie strictly beyond a reported tail quantile.
pub const TAIL_BEYOND: usize = 10;

/// Index (0-based, into the sorted samples) of the nearest-rank `q`
/// quantile of `n` samples: the smallest value with at least `q * n`
/// samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// The fewest samples for which [`TAIL_BEYOND`] samples lie beyond the
/// `q` quantile. Every phase that reports a tail runs at least this many
/// requests, whatever `--seconds` says.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= TAIL_BEYOND).expect("a large enough n exists for q < 1")
}

/// A bag of measurements (milliseconds, rates, ...).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank quantile; `None` when there are no samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank(sorted.len(), q)])
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The [`TAIL_Q`] quantile, only when at least [`TAIL_BEYOND`]
    /// samples lie beyond it.
    pub fn tail(&self) -> Option<f64> {
        if self.0.is_empty() || beyond(self.0.len(), TAIL_Q) < TAIL_BEYOND {
            return None;
        }
        self.quantile(TAIL_Q)
    }
}

/// How one attempted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Refused at admission (`serve.overloaded`, `serve.shutdown`).
    Rejected,
    /// The library returned an error.
    Error,
    /// The output (or simulated cycle count) differs from the reference.
    Mismatch,
}

/// Attempted/failed counters. A rejection, an error and a mismatch each
/// count as failed; a rejected request never counts as a fast reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub rejected: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Rejected => self.rejected += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Mismatch => self.mismatches += 1,
        }
    }

    /// Records a check that is not a request of its own, such as a
    /// cycle-count comparison: a mismatch when it fails.
    pub fn check(&mut self, ok: bool) {
        self.record(if ok { Outcome::Ok } else { Outcome::Mismatch });
    }

    pub fn failed(&self) -> u64 {
        self.rejected + self.errors + self.mismatches
    }

    /// Failed over attempted (0 before the first attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// When request `i` of an open loop at `rate` requests per second is due,
/// relative to the loop's start. The schedule is absolute: it depends on
/// the rate alone, never on when earlier requests completed, so a slow
/// server cannot slow the offered load down.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Drives an open loop of `n` requests at `rate` per second from `start`:
/// sleeps until each request's due time, then calls `submit(i, due)`.
/// A submit that runs late does not shift later due times.
pub fn open_loop(n: usize, rate: f64, start: Instant, mut submit: impl FnMut(usize, Instant)) {
    for i in 0..n {
        let due = start + due_offset(i, rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        submit(i, due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(vs: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in vs {
            s.push(v);
        }
        s
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples_for_tail(TAIL_Q), 100);
        assert_eq!(beyond(100, TAIL_Q), 10);
        assert_eq!(beyond(99, TAIL_Q), 9);
    }

    #[test]
    fn the_reported_tail_always_has_ten_samples_beyond_it() {
        for n in 1..1000 {
            let s = samples((0..n).map(f64::from));
            match s.tail() {
                Some(t) => {
                    let over = (0..n).filter(|&v| f64::from(v) > t).count();
                    assert!(over >= TAIL_BEYOND, "n={n}: only {over} beyond {t}");
                }
                None => assert!(n < 100, "n={n} should report a tail"),
            }
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let s = samples([5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        let s = samples((1..=100).map(f64::from));
        assert_eq!(s.tail(), Some(90.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn failed_counts_rejections_errors_and_mismatches() {
        let mut t = Tally::default();
        for o in [Outcome::Ok, Outcome::Ok, Outcome::Rejected, Outcome::Error, Outcome::Mismatch] {
            t.record(o);
        }
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed(), 3);
        assert!((t.failed_frac() - 0.6).abs() < 1e-12);
        t.check(true);
        assert_eq!((t.attempted, t.failed()), (6, 3));
        t.check(false);
        assert_eq!((t.attempted, t.failed()), (7, 4));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn due_times_follow_the_rate_not_the_completions() {
        assert_eq!(due_offset(0, 8.0), Duration::ZERO);
        assert_eq!(due_offset(4, 8.0), Duration::from_millis(500));
        assert_eq!(due_offset(16, 16.0), Duration::from_secs(1));
        // Every submit takes 20 ms against a 5 ms period: the due times
        // stay on the 5 ms grid and the lateness grows instead.
        let start = Instant::now();
        let mut seen = Vec::new();
        open_loop(6, 200.0, start, |i, due| {
            seen.push((i, due - start, Instant::now().saturating_duration_since(due)));
            std::thread::sleep(Duration::from_millis(20));
        });
        for (i, due, _) in &seen {
            assert_eq!(*due, due_offset(*i, 200.0));
        }
        assert!(seen[5].2 >= Duration::from_millis(70), "lateness {:?}", seen[5].2);
    }
}
