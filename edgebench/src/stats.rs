//! Order statistics the benchmark reports: medians and quartiles of host
//! timings, percentiles of simulated request times, and the flag-free
//! first-request median.

/// Sort a sample in place (total order, so a stray NaN cannot panic).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method the benchmark contract's spread check uses). A
/// single value is its own quartiles. Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile distance as a share of the median — the contract's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank-below percentile of an ascending sample: the element at
/// `floor((len - 1) * q)`. With 170 800 requests `q = 0.99` leaves 1 708
/// samples beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// Median over services of the latency of each service's earliest-started
/// request — the paper's on-demand-deployment number. Computed from the
/// completion records alone (`(start_ns, service, latency_ms)`), not from the
/// `triggered_deployment` flag, which saturates when deployments overlap
/// every request. Ties on the start instant keep the first record seen.
/// Returns 0 when no service completed a request.
pub fn first_request_median(
    records: impl Iterator<Item = (u64, usize, f64)>,
    services: usize,
) -> f64 {
    let mut first: Vec<Option<(u64, f64)>> = vec![None; services];
    for (start, service, ms) in records {
        let slot = &mut first[service];
        if slot.is_none_or(|(s, _)| start < s) {
            *slot = Some((start, ms));
        }
    }
    let firsts: Vec<f64> = first.into_iter().flatten().map(|(_, ms)| ms).collect();
    if firsts.is_empty() {
        0.0
    } else {
        median(&firsts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            (15.0, 40.0, 120.0)
        );
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_below() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        // 200 samples: index floor(199 * 0.99) = 197, two samples beyond.
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 197.0);
    }

    #[test]
    fn first_request_median_ignores_the_deployment_flag() {
        // Three services; service 1's earliest request (start 5) is not the
        // first record listed for it, and service 2 never completes one.
        let records = vec![
            (10, 0, 500.0),
            (20, 0, 2.0),
            (30, 1, 3.0),
            (5, 1, 700.0),
            (40, 3, 100.0),
        ];
        // Firsts: 500 (svc 0), 700 (svc 1), 100 (svc 3) -> median 500.
        assert_eq!(first_request_median(records.into_iter(), 4), 500.0);
        assert_eq!(first_request_median(std::iter::empty(), 4), 0.0);
    }

    #[test]
    fn first_request_tie_keeps_the_first_record() {
        let records = vec![(7, 0, 1.0), (7, 0, 9.0)];
        assert_eq!(first_request_median(records.into_iter(), 1), 1.0);
    }
}
