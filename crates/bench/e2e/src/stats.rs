//! Order statistics over timing samples.

/// Sorted copy of `xs` (total order on floats; the harness never feeds NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile — a tail
/// percentile is only trusted with at least ten of them.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Throughput (ops completed ÷ time spent) of each whole `period` of
/// rounds; a trailing partial period is left out. A workload whose rounds
/// repeat in a pattern has the same work in every period, so the median of
/// these is a rate that neither the pattern nor one slow stretch can move.
///
/// # Panics
///
/// Panics if there is not one whole period.
#[must_use]
pub fn period_rates(ops: &[u64], secs: &[f64], period: usize) -> Vec<f64> {
    assert!(
        ops.len() == secs.len() && ops.len() >= period,
        "no whole period"
    );
    ops.chunks_exact(period)
        .zip(secs.chunks_exact(period))
        .map(|(o, s)| o.iter().sum::<u64>() as f64 / s.iter().sum::<f64>())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(61, 90.0), 6);
    }

    #[test]
    fn period_rates_keep_whole_periods_and_shrug_off_one_slow_one() {
        // 7 rounds of 2 ops, period 2: three whole periods, one round dropped.
        let ops = vec![2u64; 7];
        let secs = vec![1.0, 1.0, 10.0, 10.0, 1.0, 3.0, 100.0];
        let rates = period_rates(&ops, &secs, 2);
        assert_eq!(rates, vec![2.0, 0.2, 1.0]);
        assert_eq!(median(&rates), 1.0);
        assert_eq!(period_rates(&[6, 6], &[0.5, 0.25], 1), vec![12.0, 24.0]);
    }
}
