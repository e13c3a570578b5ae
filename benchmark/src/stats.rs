//! Order statistics for latency samples and per-repeat values.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile `<= wanted` (in percent) that still has at
/// least ten samples beyond it, or `None` below twenty samples, where
/// only the median means anything.
pub fn supported_percentile(samples: usize, wanted: f64) -> Option<f64> {
    if samples < 20 {
        return None;
    }
    let highest = 100.0 * (samples - 10) as f64 / samples as f64;
    Some(wanted.min(highest))
}

/// A tail value of `samples` together with the percentile it really is.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The `wanted` percentile of `samples`, lowered by the ten-samples-beyond
/// rule when the sample is too small to carry it; with fewer than twenty
/// samples it degrades to the median.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn tail(samples: &[f64], wanted: f64) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let Some(percentile) = supported_percentile(samples.len(), wanted) else {
        return Tail {
            value: median(samples),
            percentile: 50.0,
            samples: samples.len(),
        };
    };
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    // Nearest rank: the smallest value with at least `percentile` percent
    // of the sample at or below it.
    let rank = ((percentile / 100.0) * v.len() as f64).ceil() as usize;
    Tail {
        value: v[rank.clamp(1, v.len()) - 1],
        percentile,
        samples: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        // 999 samples cannot carry p99.
        let p = supported_percentile(999, 99.0).unwrap();
        assert!(p < 99.0 && p > 98.9);
        // 100 samples: the highest supported tail is p90.
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(19, 99.0), None);
    }

    #[test]
    fn tail_picks_the_nearest_rank_and_reports_what_it_used() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples, 99.0);
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        let beyond = samples.iter().filter(|&&s| s > t.value).count();
        assert_eq!(beyond, 10);

        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&small, 99.0);
        assert_eq!((t.value, t.percentile), (90.0, 90.0));

        let tiny = [5.0, 1.0, 3.0];
        let t = tail(&tiny, 99.0);
        assert_eq!((t.value, t.percentile), (3.0, 50.0));
    }
}
