//! Order statistics for latency samples.

/// The samples sorted ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Percentiles a tail may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile in [`TAIL_PERCENTILES`] that has at least ten
/// samples beyond it, as `(percentile, nearest-rank value)`; `None` when
/// there are too few samples for any.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// `median / tail (pNN) over N samples`, for the human-readable summary.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let tail = match tail(samples) {
        Some((p, value)) => format!("p{p} {value:.3}{unit}"),
        None => "no tail (fewer than 11 samples)".to_string(),
    };
    format!(
        "p50 {:.3}{unit}, {tail}, n = {}",
        median(samples),
        samples.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 = rank 10 leaves 10 beyond; p90 would leave 2.
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }
}
