//! Order statistics with the reporting rule of the benchmark: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.checked_sub(rank)?;
    (beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Median of repeated measurements of one quantity (not subject to the
/// percentile rule: every sample measures the same thing). `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 15 samples: 7 lie above the median, so not even p50 qualifies.
        assert_eq!(percentile(&ramp(15), 0.5), None);
        // 20 samples: exactly 10 above the median.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // p90 needs 100 samples.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(20.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
