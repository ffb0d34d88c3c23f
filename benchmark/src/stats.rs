//! Order statistics used by the run, trace and repeat commands.

/// Nearest-rank percentile of `values` (`p` in `0.0..=1.0`): the
/// smallest element with at least `p` of the sample at or below it.
/// Reorders `values`; returns 0 for an empty sample.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let rank = (p * values.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, values.len()) - 1;
    *values.select_nth_unstable(idx).1
}

/// Median of `values` (mean of the two middle elements for an even
/// count). Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance driver applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance driver holds against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / mid.abs()
}

/// One timed segment of a closed-loop phase, merged over its client
/// threads: operations completed and the wall interval they took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Workload operations completed by all clients.
    pub ops: u64,
    /// Earliest client start to latest client finish, seconds.
    pub secs: f64,
}

impl Segment {
    /// Operations per wall second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// Merges per-client `(start_ns, end_ns, ops)` triples (one row per
/// client, one column per segment) into per-segment totals.
pub fn merge_segments(per_client: &[Vec<(u64, u64, u64)>]) -> Vec<Segment> {
    let count = per_client.iter().map(Vec::len).min().unwrap_or(0);
    (0..count)
        .map(|s| {
            let start = per_client.iter().map(|c| c[s].0).min().expect("a client");
            let end = per_client.iter().map(|c| c[s].1).max().expect("a client");
            Segment {
                ops: per_client.iter().map(|c| c[s].2).sum(),
                secs: end.saturating_sub(start).max(1) as f64 / 1e9,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `percentile` must agree with: sort, then index.
    fn oracle(values: &[u64], p: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let need = (p * sorted.len() as f64).ceil() as usize;
        sorted[need.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn percentile_matches_sorted_vector_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let values: Vec<u64> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 10_000
                })
                .collect();
            for p in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let mut scratch = values.clone();
                assert_eq!(
                    percentile(&mut scratch, p),
                    oracle(&values, p),
                    "len {len} p {p}"
                );
            }
        }
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn percentile_of_known_sample() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        // Two clients, three segments; the middle one stalls.
        let a = vec![(0, 1_000, 100), (1_000, 11_000, 100), (11_000, 12_000, 100)];
        let b = vec![(0, 900, 100), (1_000, 2_000, 100), (11_000, 12_100, 100)];
        let segs = merge_segments(&[a, b]);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].ops, 200);
        assert!((segs[0].secs - 1e-6).abs() < 1e-15);
        assert!((segs[1].secs - 1e-5).abs() < 1e-15);
        assert!((segs[2].secs - 1.1e-6).abs() < 1e-15);
        let rates: Vec<f64> = segs.iter().map(Segment::rate).collect();
        assert!((rates[0] - 2e8).abs() < 1.0);
        assert!((rates[1] - 2e7).abs() < 1.0);
        let mid = median(&rates);
        assert!(
            (mid - 200.0 / 1.1e-6).abs() < 1.0,
            "median is the 1.1 µs segment"
        );
    }

    #[test]
    fn merge_segments_handles_no_clients() {
        assert!(merge_segments(&[]).is_empty());
    }
}
