//! Order statistics for the benchmark's reported figures.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported: fewer and the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-th quartile cut points (`n = 4`) by the exclusive method, as
/// Python's `statistics.quantiles` computes them: `(q1, q2, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        if n == 1 {
            return v[0];
        }
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (cut(1), cut(2), cut(3))
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `values`, where a
/// `None` sample is a request that failed and therefore missed every
/// latency limit (it sorts above every measured time).
///
/// Refused with `Err` when fewer than [`MIN_BEYOND`] samples lie beyond
/// the percentile, and when the percentile itself lands on a failure
/// (there is then no finite time to report).
pub fn percentile(values: &[Option<f64>], p: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut v: Vec<f64> = values.iter().map(|x| x.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    let x = v[rank.max(1) - 1];
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("p{p} falls on a failed request"))
    }
}

/// Mean of `values`, where a `None` sample is a request that failed and
/// therefore missed every latency limit: any failure makes the mean
/// infinite.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn mean(values: &[Option<f64>]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values
        .iter()
        .map(|x| x.unwrap_or(f64::INFINITY))
        .sum::<f64>()
        / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_request_makes_the_mean_infinite() {
        assert_eq!(mean(&[Some(1.0), Some(2.0), Some(6.0)]), 3.0);
        assert_eq!(mean(&[Some(1.0), None]), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn percentile_with_fewer_than_ten_beyond_is_refused() {
        let v: Vec<Option<f64>> = (0..1000).map(|i| Some(f64::from(i))).collect();
        assert_eq!(percentile(&v, 99.0), Ok(989.0));
        // 999 samples: p99 is rank 990, only 9 lie beyond it.
        assert!(percentile(&v[..999], 99.0).is_err());
        assert!(percentile(&v[..100], 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn failed_requests_count_as_missing_the_limit() {
        // 1000 fast requests, 20 of them failed: the failures sort above
        // every measured time and push p99 off the fast samples.
        let mut v: Vec<Option<f64>> = vec![Some(1.0); 1000];
        for x in v.iter_mut().take(20) {
            *x = None;
        }
        assert!(percentile(&v, 99.0).is_err(), "p99 lands on a failure");
        assert_eq!(percentile(&v, 50.0), Ok(1.0));
        for x in v.iter_mut().take(20).skip(5) {
            *x = Some(1.0);
        }
        // Five failures out of 1000 still lie beyond p99 and displace
        // five measured samples, so p99 reads the slowest survivor.
        v[500] = Some(9.0);
        assert_eq!(percentile(&v, 99.0), Ok(1.0));
        v[501] = Some(9.0);
        v[502] = Some(9.0);
        v[503] = Some(9.0);
        v[504] = Some(9.0);
        v[505] = Some(9.0);
        assert_eq!(percentile(&v, 99.0), Ok(9.0));
    }
}
