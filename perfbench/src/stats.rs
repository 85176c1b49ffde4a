//! Sample summaries: the median and the percentile rule.

/// Samples that must lie strictly beyond a reported percentile. A tail
/// figure resting on fewer than this many samples is noise, not a number.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Nearest-rank percentile `q` (0 < q < 1): the sample at sorted position
/// `ceil(q·n)`. Returns `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond it, so a p95 needs `n ≥ 200`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - (q * n as f64).ceil() as usize >= MIN_BEYOND)
        .expect("some count satisfies the rule")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.95), 200);
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.95), None);
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = percentile(&enough, 0.95).expect("200 samples support a p95");
        assert_eq!(p95, 189.0);
        assert_eq!(enough.iter().filter(|&&x| x > p95).count(), MIN_BEYOND);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..400).map(|i| f64::from((i * 7919) % 400)).collect();
        let a = percentile(&v, 0.95);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&v, 0.95));
        assert_eq!(a, Some(379.0));
    }
}
