//! Wall-clock helpers for the host-kernel benches: per-call sample times,
//! their median and spread, and back-to-back paired trials.
//!
//! Host timings move with the machine's clock state, so a pinned host
//! ratio times its two sides back to back in each trial and guards the
//! spread of the per-trial ratios, which such a change moves on both sides
//! alike.

use std::time::Instant;

/// Maximum relative interquartile spread `(Q3 − Q1) / median` for a run
/// to count as quiet enough to emit a pinned host key.
pub const MAX_SPREAD: f64 = 0.3;

/// Seconds per call of `f` over one sample of `reps` calls.
pub fn sample_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// The median of `samples` and their relative interquartile spread
/// `(Q3 − Q1) / median`, the quartiles interpolated between order
/// statistics. Unlike the full range, one preempted trial does not move
/// it, and more trials make it steadier rather than wider.
///
/// # Panics
///
/// Panics on an empty sample set.
#[must_use]
pub fn median_spread(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let quantile = |p: f64| {
        let h = p * (samples.len() - 1) as f64;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        samples[lo] + (h - lo as f64) * (samples[hi] - samples[lo])
    };
    let median = samples[samples.len() / 2];
    (median, (quantile(0.75) - quantile(0.25)) / median)
}

/// Seconds per call of `a` and of `b`, timed back to back in each of
/// `trials` trials (`reps.0` calls of `a`, then `reps.1` of `b`): the median
/// of each side, and the relative spread of the per-trial `b / a` ratios.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn paired_secs(
    trials: usize,
    reps: (usize, usize),
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, f64) {
    let samples: Vec<(f64, f64)> = (0..trials)
        .map(|_| (sample_secs(reps.0, &mut a), sample_secs(reps.1, &mut b)))
        .collect();
    let (_, spread) = median_spread(samples.iter().map(|&(a, b)| b / a).collect());
    let (a, _) = median_spread(samples.iter().map(|s| s.0).collect());
    let (b, _) = median_spread(samples.iter().map(|s| s.1).collect());
    (a, b, spread)
}

#[cfg(test)]
mod tests {
    use super::median_spread;

    #[test]
    fn spread_is_interquartile() {
        // Quartiles 2 and 5 around a median of 3: the outlier 100 does
        // not count.
        assert_eq!(median_spread(vec![5.0, 1.0, 100.0, 3.0, 2.0]), (3.0, 1.0));
        assert_eq!(
            median_spread(vec![4.0, 2.0, 3.0, 5.0, 1.0]),
            (3.0, 2.0 / 3.0)
        );
        assert_eq!(median_spread(vec![7.0]), (7.0, 0.0));
    }
}
