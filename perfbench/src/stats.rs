//! Order statistics over unit latencies.

/// Latency summary of one run: sample count, median and the 99th
/// percentile, with the number of samples that lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Median (ms).
    pub p50_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// Samples strictly after the p99 rank in sorted order.
    pub beyond_p99: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 0.5)
}

/// Summarises latencies given in seconds.
pub fn summarize(latencies_s: &[f64]) -> LatencySummary {
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n.max(1));
    LatencySummary {
        n,
        p50_ms: percentile_sorted(&sorted, 0.5) * 1e3,
        p99_ms: percentile_sorted(&sorted, 0.99) * 1e3,
        beyond_p99: n.saturating_sub(rank),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// On-CPU time and run-queue wait (s) of the calling thread so far, from
/// `/proc/thread-self/schedstat`; `None` where it is unavailable.
pub fn thread_sched_s() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let on_cpu = fields.next()?.ok()?;
    let waiting = fields.next()?.ok()?;
    Some((on_cpu as f64 / 1e9, waiting as f64 / 1e9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.5), 500.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 990.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 1000.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_counts_samples_beyond_p99() {
        let xs: Vec<f64> = (1..=1000).rev().map(|v| f64::from(v) / 1e3).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.beyond_p99, 10);
        assert!((s.p99_ms - 990.0).abs() < 1e-9);
        assert!((s.p50_ms - 500.0).abs() < 1e-9);
        assert_eq!(summarize(&xs[..999]).beyond_p99, 9);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
