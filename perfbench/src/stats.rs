//! Order statistics the benchmark reports, kept apart from the program's
//! own `LatencyStats` so the figures are computed independently of it.

/// Samples a reported percentile must have strictly beyond it; with fewer,
/// the "tail" would be a handful of samples (or the maximum) and would not
/// repeat from seed to seed.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.  For p99.9
/// that means at least 10,000 samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    let beyond = sorted.len() - 1 - index;
    if beyond < MIN_BEYOND && p > 50.0 {
        return None;
    }
    Some(sorted[index])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whether an open-loop step left a growing backlog.
///
/// `arrivals` and `finishes` are the due times and completion times of the
/// step's commands (any order, same length).  The arrival span is cut into
/// four equal parts; at the end of each, the backlog is the number of
/// commands that had arrived but not finished.  A queue that keeps up
/// fluctuates around a level; one that does not grows at every checkpoint.
/// The backlog is called growing when it rises at every checkpoint and ends
/// more than `max(32, n/100)` commands above where it was at the first.
pub fn growing_backlog(arrivals: &[u64], finishes: &[u64]) -> bool {
    assert_eq!(arrivals.len(), finishes.len(), "one finish per arrival");
    let n = arrivals.len();
    if n == 0 {
        return false;
    }
    let mut arr = arrivals.to_vec();
    let mut fin = finishes.to_vec();
    arr.sort_unstable();
    fin.sort_unstable();
    let (first, last) = (arr[0], arr[n - 1]);
    let span = last - first;
    let backlog = |t: u64| {
        let arrived = arr.partition_point(|&a| a <= t);
        let finished = fin.partition_point(|&f| f <= t);
        arrived.saturating_sub(finished)
    };
    let points: Vec<usize> = (1..=4).map(|q| backlog(first + span * q / 4)).collect();
    let rising = points.windows(2).all(|w| w[1] > w[0]);
    let slack = (n / 100).max(32);
    rising && points[3] > points[0] + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        // 10,000 samples: rank 9990, index 9989, and exactly ten beyond.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 99.9), Some(9990));
        // One fewer and only nine samples would lie beyond: refused.
        assert_eq!(percentile(&v[..9999], 99.9), None);
        // p99 on 1,000 samples: rank 990, ten beyond.
        let w: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&w, 99.0), Some(990));
        assert_eq!(percentile(&w[..999], 99.0), None);
    }

    #[test]
    fn median_percentile_is_always_reported() {
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), Some(2));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn steady_queue_is_not_a_growing_backlog() {
        // One arrival every 10 ns, each served in 25 ns by one of three
        // servers: utilisation 0.83, the queue stays bounded.
        let n = 4000u64;
        let arrivals: Vec<u64> = (0..n).map(|i| i * 10).collect();
        let mut free = [0u64; 3];
        let finishes: Vec<u64> = arrivals
            .iter()
            .map(|&a| {
                let s = (0..3).min_by_key(|&k| free[k]).unwrap();
                free[s] = free[s].max(a) + 25;
                free[s]
            })
            .collect();
        assert!(!growing_backlog(&arrivals, &finishes));
    }

    #[test]
    fn overloaded_queue_is_a_growing_backlog() {
        // Same arrivals, one server at 12 ns per command: 1.2x overload,
        // so the backlog grows by ~1 command per 60 ns throughout.
        let n = 4000u64;
        let arrivals: Vec<u64> = (0..n).map(|i| i * 10).collect();
        let mut free = 0u64;
        let finishes: Vec<u64> = arrivals
            .iter()
            .map(|&a| {
                free = free.max(a) + 12;
                free
            })
            .collect();
        assert!(growing_backlog(&arrivals, &finishes));
    }

    #[test]
    fn a_burst_that_drains_is_not_growing() {
        // Half the commands arrive at once and drain over the span: the
        // backlog falls from its peak, so it does not count as growing.
        let mut arrivals = vec![0u64; 500];
        arrivals.extend((0..500u64).map(|i| i * 20));
        let finishes: Vec<u64> = (0..1000u64).map(|i| i * 10 + 5).collect();
        assert!(!growing_backlog(&arrivals, &finishes));
    }
}
