//! Statistics used by the benchmark harness: exact percentiles over
//! collected samples, and time-binned counters for the request/deployment
//! rate figures (Figs. 9–10).

use crate::time::{SimDuration, SimTime};

/// Exact percentiles over a collected sample set.
///
/// Values are stored; `Percentiles::quantile` sorts lazily on first query
/// (and caches sortedness). Sample unit is whatever the caller records —
/// the harness uses milliseconds throughout.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    values: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    pub fn new() -> Percentiles {
        Percentiles {
            values: Vec::new(),
            sorted: true,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp: NaN samples sort to the end instead of panicking,
            // so a stray NaN degrades the top quantiles rather than the run.
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Quantile by linear interpolation between closest ranks;
    /// `q` in `[0, 1]`. Returns NaN on an empty set.
    pub(crate) fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let w = pos - lo as f64;
            self.values[lo] * (1.0 - w) + self.values[hi] * w
        }
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
    pub fn p25(&mut self) -> f64 {
        self.quantile(0.25)
    }
    pub fn p75(&mut self) -> f64 {
        self.quantile(0.75)
    }
    pub fn p90(&mut self) -> f64 {
        self.quantile(0.90)
    }
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }
}

/// Counts events into fixed-width time bins — the histogram behind
/// "requests per second over five minutes" (Fig. 9) and
/// "deployments per second" (Fig. 10).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin: SimDuration,
    bins: Vec<u64>,
}

impl TimeSeries {
    /// `horizon` is rounded up to a whole number of bins.
    pub fn new(bin: SimDuration, horizon: SimDuration) -> TimeSeries {
        assert!(!bin.is_zero(), "zero-width bin");
        let n = horizon.as_nanos().div_ceil(bin.as_nanos()).max(1) as usize;
        TimeSeries {
            bin,
            bins: vec![0; n],
        }
    }

    /// Record one event at instant `t`; events past the horizon land in the
    /// final bin so nothing is silently dropped.
    pub fn record(&mut self, t: SimTime) {
        let idx = (t.as_nanos() / self.bin.as_nanos()) as usize;
        let last = self.bins.len() - 1;
        self.bins[idx.min(last)] += 1;
    }

    pub fn peak(&self) -> u64 {
        self.bins.iter().copied().max().unwrap_or(0)
    }

    /// (bin start time in seconds, count) pairs — convenient for printing.
    pub fn points(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = self.bin.as_secs_f64();
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * w, c))
    }
}

/// A histogram with exponentially growing bucket edges — the right shape for
/// latency data spanning sub-millisecond LAN hits to multi-second cold
/// starts.
///
/// ```
/// use simcore::stats::LogHistogram;
/// use simcore::SimDuration;
/// let mut h = LogHistogram::new(1.0, 2.0, 12); // 1ms, 2ms, 4ms, ... buckets
/// h.record_duration(SimDuration::from_micros(400));
/// h.record_duration(SimDuration::from_millis(3));
/// h.record_duration(SimDuration::from_millis(700));
/// let cdf = h.cdf();
/// assert!((cdf[0].1 - 1.0 / 3.0).abs() < 1e-12); // one of three below 1ms
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Upper edge of the first bucket.
    first_edge: f64,
    /// Geometric growth factor between bucket edges.
    factor: f64,
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    pub fn new(first_edge: f64, factor: f64, buckets: usize) -> LogHistogram {
        assert!(first_edge > 0.0 && factor > 1.0 && buckets >= 2);
        LogHistogram {
            first_edge,
            factor,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Record a sample (same unit as the edges; the harness uses ms).
    pub(crate) fn record(&mut self, x: f64) {
        let mut edge = self.first_edge;
        let mut idx = 0;
        while x >= edge && idx + 1 < self.counts.len() {
            edge *= self.factor;
            idx += 1;
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// (lower edge, upper edge, count) triples; the last bucket is open-ended
    /// (`upper = f64::INFINITY`).
    pub(crate) fn buckets(&self) -> Vec<(f64, f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut lo = 0.0;
        let mut hi = self.first_edge;
        for (i, &c) in self.counts.iter().enumerate() {
            let upper = if i + 1 == self.counts.len() {
                f64::INFINITY
            } else {
                hi
            };
            out.push((lo, upper, c));
            lo = hi;
            hi *= self.factor;
        }
        out
    }

    /// Cumulative fraction of samples at or below each bucket's upper edge.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut acc = 0u64;
        self.buckets()
            .into_iter()
            .map(|(_, hi, c)| {
                acc += c;
                (hi, acc as f64 / self.total.max(1) as f64)
            })
            .collect()
    }
}

/// Render a quick ASCII bar chart of a series of labelled values — the harness
/// uses it so every "figure" binary produces a visual shape check in the
/// terminal alongside the exact numbers.
pub fn ascii_bars(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in rows {
        let n = if max > 0.0 {
            ((v / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} | {bar:<width$} {v:.1}\n",
            bar = "#".repeat(n)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_median_odd_even() {
        let mut p = Percentiles::new();
        for x in [5.0, 1.0, 3.0] {
            p.record(x);
        }
        assert_eq!(p.median(), 3.0);
        p.record(7.0);
        assert_eq!(p.median(), 4.0); // interpolated between 3 and 5
    }

    #[test]
    fn percentiles_extremes() {
        let mut p = Percentiles::new();
        for x in 0..100 {
            p.record(x as f64);
        }
        assert_eq!(p.quantile(0.0), 0.0);
        assert_eq!(p.max(), 99.0);
        assert!((p.p90() - 89.1).abs() < 1e-9);
    }

    #[test]
    fn percentiles_empty_nan() {
        let mut p = Percentiles::new();
        assert!(p.median().is_nan());
    }

    #[test]
    fn timeseries_bins_and_overflow() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(5));
        ts.record(SimTime::from_secs_f64(0.2));
        ts.record(SimTime::from_secs_f64(0.9));
        ts.record(SimTime::from_secs_f64(3.0));
        ts.record(SimTime::from_secs_f64(99.0)); // past horizon → last bin
        let counts: Vec<u64> = ts.points().map(|(_, c)| c).collect();
        assert_eq!(counts, [2, 0, 0, 1, 1]);
        assert_eq!(ts.peak(), 2);
    }

    #[test]
    fn timeseries_points() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(2), SimDuration::from_secs(4));
        ts.record(SimTime::from_secs_f64(2.5));
        let pts: Vec<(f64, u64)> = ts.points().collect();
        assert_eq!(pts, vec![(0.0, 0), (2.0, 1)]);
    }

    #[test]
    fn log_histogram_buckets_and_cdf() {
        let mut h = LogHistogram::new(1.0, 10.0, 5); // 1, 10, 100, 1000, inf
        for x in [0.5, 0.9, 5.0, 50.0, 500.0, 5000.0, 50000.0] {
            h.record(x);
        }
        assert_eq!(h.total, 7);
        let b = h.buckets();
        assert_eq!(b.len(), 5);
        assert_eq!(b[0].2, 2); // <1
        assert_eq!(b[1].2, 1); // 1..10
        assert_eq!(b[2].2, 1);
        assert_eq!(b[3].2, 1);
        assert_eq!(b[4].2, 2); // overflow bucket
        assert!(b[4].1.is_infinite());
        let cdf = h.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!((cdf[0].1 - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_bars_renders() {
        let rows = vec![("docker".to_string(), 0.5), ("k8s".to_string(), 3.0)];
        let s = ascii_bars(&rows, 10);
        assert!(s.contains("docker"));
        assert!(s.contains("##########"));
    }
}
