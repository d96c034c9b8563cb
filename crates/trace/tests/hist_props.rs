//! Property-based tests for the log-bucketed latency histogram: merging
//! per-shard histograms must behave like one histogram over the union,
//! and quantile estimates must bound the true order statistics within
//! the bucketing's relative-error guarantee.

use std::time::Duration;

use inspire_trace::{Histogram, Registry};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// A merged histogram's quantile lies between the smallest and
    /// largest per-shard quantile at the same rank fraction, up to one
    /// sub-bucket (12.5 %) above the largest: per-shard estimates are
    /// clamped to their own observed max, while the merged histogram
    /// only clamps to the merged max.
    #[test]
    fn merged_quantiles_bracket_shards(
        shards in prop::collection::vec(
            prop::collection::vec(1u64..1_000_000, 1..50),
            1..6,
        ),
    ) {
        let hists: Vec<Histogram> = shards.iter().map(|s| hist_of(s)).collect();
        let mut merged = Histogram::new();
        for h in &hists {
            merged.merge(h);
        }
        let total: u64 = shards.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(merged.count(), total);
        prop_assert_eq!(merged.min(), hists.iter().map(Histogram::min).min().unwrap());
        prop_assert_eq!(merged.max(), hists.iter().map(Histogram::max).max().unwrap());
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let m = merged.quantile(q);
            let lo = hists.iter().map(|h| h.quantile(q)).min().unwrap();
            let hi = hists.iter().map(|h| h.quantile(q)).max().unwrap();
            prop_assert!(
                lo <= m && m as f64 <= hi as f64 * 1.125,
                "q={q}: merged {m} outside [{lo}, {hi}·1.125]"
            );
        }
    }

    /// Merging is equivalent to recording the union of the values.
    #[test]
    fn merge_equals_union(
        a in prop::collection::vec(1u64..1_000_000, 0..50),
        b in prop::collection::vec(1u64..1_000_000, 0..50),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        let direct = hist_of(&union);
        prop_assert_eq!(merged, direct);
    }

    /// The estimate never undershoots the true order statistic, and
    /// overshoots by at most one sub-bucket (≤ 12.5 % relative error).
    #[test]
    fn quantile_bounds_true_rank_value(
        values in prop::collection::vec(1u64..1_000_000, 1..200),
        qi in 0usize..5,
    ) {
        let q = [0.05, 0.25, 0.5, 0.95, 1.0][qi];
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let actual = sorted[rank - 1];
        let est = h.quantile(q);
        prop_assert!(est >= actual, "q={q}: estimate {est} < actual {actual}");
        prop_assert!(
            est as f64 <= actual as f64 * 1.125,
            "q={q}: estimate {est} overshoots actual {actual} by more than 12.5%"
        );
    }

    /// A registry histogram's `min` is its smallest sample, whether the
    /// histogram was created by `observe`, by `ensure` before the first
    /// sample, or by `merge` into another registry.
    #[test]
    fn registry_min_is_smallest_sample(
        a in prop::collection::vec(1u64..1_000_000, 1..50),
        b in prop::collection::vec(1u64..1_000_000, 1..50),
        ensure_first in any::<bool>(),
    ) {
        let registry_of = |values: &[u64]| {
            let mut r = Registry::new();
            if ensure_first {
                r.ensure("h");
            }
            for &v in values {
                r.observe("h", Duration::from_nanos(v));
            }
            r.ensure("h");
            r
        };
        let ra = registry_of(&a);
        prop_assert_eq!(ra.histogram("h").unwrap().min(), *a.iter().min().unwrap());

        let mut merged = registry_of(&[]);
        merged.merge(&ra);
        merged.merge(&registry_of(&b));
        let want = *a.iter().chain(&b).min().unwrap();
        prop_assert_eq!(merged.histogram("h").unwrap().min(), want);
        prop_assert_eq!(merged.summaries()[0].min_ns, want);
    }

    /// A single recorded value is reported exactly at every fraction.
    #[test]
    fn single_value_is_exact(v in 1u64..10_000_000, q in 0.0f64..1.0) {
        let h = hist_of(&[v]);
        prop_assert_eq!(h.quantile(q), v);
        prop_assert_eq!(h.quantile(1.0), v);
    }
}
