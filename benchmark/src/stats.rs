//! Order statistics used for every reported value.

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread printed here equals the one an outside harness derives from the
/// same samples. Fewer than two samples have no spread: all three are the
/// sample (or 0 for none).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let cut = |i: usize| {
                let pos = i * (len + 1);
                let j = (pos / 4).clamp(1, len - 1);
                let delta = pos as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn percentile_nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn degenerate_sample_counts_have_no_spread() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&s, 99.0), 99);
        assert_eq!(percentile_nearest_rank(&s, 50.0), 50);
        assert_eq!(percentile_nearest_rank(&s, 100.0), 100);
        assert_eq!(percentile_nearest_rank(&s, 0.0), 1);
        assert_eq!(percentile_nearest_rank(&[10, 20, 30, 40, 100], 99.0), 100);
        assert_eq!(percentile_nearest_rank(&[10, 20, 30, 40, 100], 50.0), 30);
        assert_eq!(percentile_nearest_rank(&[], 99.0), 0);
    }
}
