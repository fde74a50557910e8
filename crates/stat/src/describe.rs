//! Descriptive statistics: means, variances, medians, correlation, RMSE.
//!
//! These back the evaluation metrics (Error Rate and MNAD, §6.2), the
//! correlation coefficient `W_jk` (Eq. 8) and the per-column z-scoring that
//! makes a single `ε` meaningful across heterogeneous continuous domains.

use crate::EPS;

/// Arithmetic mean; `0.0` for empty input.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (divides by `n`); `0.0` for empty input.
pub fn variance(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// Population standard deviation.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Median (average of the two central order statistics for even length);
/// `0.0` for empty input. `O(n log n)`; does not mutate the input.
pub fn median(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Population covariance of two equally long slices.
pub fn covariance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / a.len() as f64
}

/// Pearson correlation coefficient; `0.0` when either side is (near-)constant.
///
/// This is exactly the paper's `W_jk` (Eq. 8) when applied to paired error
/// vectors of two attributes.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let va = variance(a);
    let vb = variance(b);
    if va <= EPS || vb <= EPS {
        return 0.0;
    }
    (covariance(a, b) / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0)
}

/// Root-mean-squared error between predictions and ground truth.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    let ss: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    (ss / pred.len() as f64).sqrt()
}

/// Z-score transform parameters `(mean, std)` of a sample, with the std
/// floored at [`EPS`] so constant columns stay transformable.
pub fn zscore_params(data: &[f64]) -> (f64, f64) {
    (mean(data), std_dev(data).max(EPS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&d), 2.5);
        assert!((variance(&d) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn pearson_perfect_and_constant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [-1.0, -2.0, -3.0, -4.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        let flat = [5.0; 4];
        assert_eq!(pearson(&a, &flat), 0.0);
    }

    #[test]
    fn pearson_bounded() {
        let a = [0.3, -1.2, 2.2, 0.1, -0.4];
        let b = [1.0, 0.2, -0.7, 0.9, 2.2];
        let r = pearson(&a, &b);
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn rmse_known_value() {
        let pred = [1.0, 2.0];
        let truth = [0.0, 4.0];
        // sqrt((1 + 4)/2)
        assert!((rmse(&pred, &truth) - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zscore_params_floor_std() {
        let (_, s) = zscore_params(&[3.0, 3.0, 3.0]);
        assert!(s > 0.0);
    }
}
