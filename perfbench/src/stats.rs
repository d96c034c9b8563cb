//! Order statistics over raw samples.
//!
//! Every latency the benchmark reports is taken from the sorted raw
//! samples of the run, never from a bucketed histogram: the program's
//! own `inspire_trace` histograms are log-bucketed with up to 12.5%
//! error per quantile.

/// 1-based nearest rank of the `p`th percentile of `n` samples:
/// `ceil(p/100 * n)`, with float error at exact products removed (so
/// p99.9 of 10,000 samples is rank 9,990, not 9,991).
fn rank(n: usize, p: f64) -> usize {
    let x = p / 100.0 * n as f64;
    let r = if (x - x.round()).abs() < 1e-9 {
        x.round()
    } else {
        x.ceil()
    };
    (r as usize).min(n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `p` is in
/// `(0, 100]`; an empty slice has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    Some(sorted[rank(sorted.len(), p).max(1) - 1])
}

/// Samples strictly above the nearest-rank `p`th percentile of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of `ladder` that still has at least
/// `min_beyond` samples above it when `n` samples were taken, so that a
/// reported tail rests on more than a handful of observations.
pub fn highest_supported(n: usize, ladder: &[f64], min_beyond: usize) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= min_beyond)
        .fold(None, |best, p| Some(best.map_or(p, |b: f64| b.max(p))))
}

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// A report-ready view of one sample set: the median and a tail
/// percentile chosen by [`Summary::tail_at`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub mean: f64,
    /// Percentile the tail was taken at (100 = the maximum).
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarize `samples` with the tail at `want` percent. When fewer
    /// than ten samples lie beyond `want`, the tail falls back to the
    /// highest percentile of [`TAIL_LADDER`] that has ten, or to the
    /// maximum when none has; `tail_pct` records which was used.
    pub fn tail_at(samples: &[f64], want: f64) -> Option<Summary> {
        let n = samples.len();
        let tail_pct = if want >= 100.0 || beyond(n, want) >= 10 {
            want.min(100.0)
        } else {
            highest_supported(n, &TAIL_LADDER, 10)
                .filter(|&p| p < want)
                .unwrap_or(100.0)
        };
        Summary::fixed(samples, tail_pct)
    }

    /// Summarize `samples` with the tail at exactly `tail_pct` percent,
    /// however few samples lie beyond it. For sample sets that are
    /// small by construction (whole builds), where the rule of
    /// [`Summary::tail_at`] would always fall back to the maximum.
    pub fn fixed(samples: &[f64], tail_pct: f64) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            median: percentile(&sorted, 50.0)?,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            tail_pct,
            tail: percentile(&sorted, tail_pct)?,
        })
    }
}

/// `{"p50": …, "p90": …, "p95": …, "p99": …, "p99.9": …, "max": …}`
/// of unsorted samples, each multiplied by `scale`.
pub fn ladder_json(samples: &[f64], scale: f64) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let fields: Vec<String> = TAIL_LADDER
        .iter()
        .chain(&[100.0])
        .filter_map(|&p| {
            let v = percentile(&sorted, p)? * scale;
            let name = if p == 100.0 {
                "max".to_string()
            } else {
                format!("p{p}")
            };
            Some(format!("\"{name}\":{}", inspire_trace::json::num(v)))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Median of unsorted samples (nearest-rank, so always a sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.5), Some(1.0));
        let odd = [1.0, 2.0, 7.0];
        assert_eq!(percentile(&odd, 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&odd, 0.0), None);
        assert_eq!(percentile(&odd, 101.0), None);
    }

    #[test]
    fn exact_values_not_bucket_edges() {
        // A log-bucketed histogram would report a bucket edge here; the
        // raw-sample percentile returns the sample itself.
        let s = [6_815_001.0, 6_815_002.0, 6_815_003.0];
        assert_eq!(percentile(&s, 50.0), Some(6_815_002.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000, &TAIL_LADDER, 10), Some(99.0));
        // 200 samples: p95 leaves 10, p99 leaves 2.
        assert_eq!(highest_supported(200, &TAIL_LADDER, 10), Some(95.0));
        // 10,000 samples support p99.9.
        assert_eq!(highest_supported(10_000, &TAIL_LADDER, 10), Some(99.9));
        // 20 samples: only the median has 10 beyond it.
        assert_eq!(highest_supported(20, &TAIL_LADDER, 10), Some(50.0));
        assert_eq!(highest_supported(19, &TAIL_LADDER, 10), None);
        assert_eq!(highest_supported(0, &TAIL_LADDER, 10), None);
    }

    #[test]
    fn summary_falls_back_when_the_tail_is_thin() {
        let s = Summary::tail_at(&ramp(1000), 99.0).unwrap();
        assert_eq!(
            (s.n, s.median, s.tail_pct, s.tail),
            (1000, 500.0, 99.0, 990.0)
        );
        assert_eq!(s.mean, 500.5);
        // 150 samples cannot support p99 (1 beyond) but support p90.
        let s = Summary::tail_at(&ramp(150), 99.0).unwrap();
        assert_eq!((s.tail_pct, s.tail), (90.0, 135.0));
        // Too few for any ladder step: the maximum.
        let s = Summary::tail_at(&[5.0, 1.0, 3.0], 95.0).unwrap();
        assert_eq!((s.median, s.tail_pct, s.tail), (3.0, 100.0, 5.0));
        // Asking for the maximum always gets it.
        let s = Summary::tail_at(&ramp(10), 100.0).unwrap();
        assert_eq!((s.tail_pct, s.tail), (100.0, 10.0));
        assert!(Summary::tail_at(&[], 50.0).is_none());
    }

    #[test]
    fn fixed_summary_keeps_its_percentile() {
        // 13 builds: p90 is rank 12, one below the maximum.
        let s = Summary::fixed(&ramp(13), 90.0).unwrap();
        assert_eq!((s.n, s.median, s.tail_pct, s.tail), (13, 7.0, 90.0, 12.0));
        assert!(Summary::fixed(&[], 90.0).is_none());
    }
}
