//! Sample statistics of the benchmark: tail percentiles that refuse to
//! report a tail the sample cannot support, the quartiles the host record
//! prints, and the fastest-rep and layer-sum arithmetic of the gated
//! numbers.

/// Fewest samples that must lie beyond a reported percentile. A p99 needs
/// at least 1,000 samples; below that the value is mostly one outlier.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of ascending `sorted`, or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the printed spreads match the
/// ones computed from the benchmark's JSON output. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Median of a non-empty sample (the quartile median, or the value itself).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(values[0], |(_, m, _)| m)
}

/// Per-tick floor of several reps of the same ticks: each tick's fastest
/// time over the reps. The host slows memory-bound code for seconds at a
/// time, so a slowdown spoils a stretch of one rep; the floor keeps the
/// cost the work itself sets, including ticks that are slow in every rep.
pub fn tick_floor(reps: &[Vec<u64>]) -> Vec<u64> {
    let mut floor = reps.first().expect("at least one rep").clone();
    for rep in &reps[1..] {
        assert_eq!(rep.len(), floor.len(), "reps of one workload tick alike");
        for (f, &t) in floor.iter_mut().zip(rep) {
            *f = (*f).min(t);
        }
    }
    floor
}

/// Share of a traced rep's wall time its layer spans account for.
pub fn layer_sum_ratio(span_totals_ns: &[u64], wall_ns: u64) -> f64 {
    span_totals_ns.iter().sum::<u64>() as f64 / wall_ns.max(1) as f64
}

/// Whether the layer spans cover the traced rep to within 10%.
pub fn layer_sum_ok(ratio: f64) -> bool {
    (0.9..=1.1).contains(&ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99.0), None, "only 9 samples beyond rank 990");
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 50.0), Some(10));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn tick_floor_takes_each_ticks_fastest_rep() {
        let reps = vec![vec![5, 9, 4], vec![6, 3, 4], vec![2, 8, 7]];
        assert_eq!(tick_floor(&reps), vec![2, 3, 4]);
        assert_eq!(tick_floor(&reps[..1]), vec![5, 9, 4]);
    }

    #[test]
    fn layer_sum_is_the_span_share_of_wall() {
        let r = layer_sum_ratio(&[400, 350, 200], 1000);
        assert!((r - 0.95).abs() < 1e-12);
        assert!(layer_sum_ok(r));
        assert!(!layer_sum_ok(layer_sum_ratio(&[850], 1000)));
        assert!(!layer_sum_ok(layer_sum_ratio(&[1200], 1000)));
    }
}
