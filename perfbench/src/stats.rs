//! Order statistics over measured samples.

/// A tail quantile chosen so that enough samples lie beyond it to mean
/// something: the highest of p99 and below that leaves at least
/// [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile used, in `[0.5, 0.99]`.
    pub quantile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail quantile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    sorted_quantile(&v, q)
}

fn sorted_quantile(v: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest quantile up to p99 with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it; the median when there are too few samples for any.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let q = if n == 0 {
        0.5
    } else {
        (1.0 - TAIL_MIN_BEYOND as f64 / n as f64).clamp(0.5, 0.99)
    };
    Tail {
        quantile: q,
        value: quantile(samples, q),
        samples: n,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert!((t.quantile - 0.9).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert!((tail(&big).quantile - 0.99).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
