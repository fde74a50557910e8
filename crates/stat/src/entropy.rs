//! Entropy measures used by the task-assignment utility (paper §5.1).
//!
//! Shannon entropy `H_s` quantifies the uncertainty of a categorical truth
//! distribution; differential entropy `H_d` that of a Gaussian truth. The
//! paper's key observation is that the two are *not* directly comparable
//! (differential entropy can be negative), but their *differences* are:
//! discretising a continuous variable with bin width Δ gives
//! `H_s(X^Δ) ≈ H_d(X) − ln Δ`, so the Δ terms cancel in an entropy delta.

/// Shannon entropy (nats) of a discrete distribution given as probabilities.
///
/// Zero-probability entries contribute nothing (the `p ln p → 0` limit).
/// The input is expected to be normalised; entries are not re-normalised.
pub fn shannon(probs: &[f64]) -> f64 {
    let mut h = 0.0;
    for &p in probs {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::Normal;

    /// Differential entropy (nats) of `N(0, var)`: `½ ln(2πe·var)`.
    fn gaussian_differential(var: f64) -> f64 {
        Normal::new(0.0, var).differential_entropy()
    }

    /// Shannon entropy of a discretisation of `N(0, var)` with bin width
    /// `delta`, over ±`half_width_sigmas` standard deviations.
    fn discretized_gaussian_shannon(var: f64, delta: f64, half_width_sigmas: f64) -> f64 {
        let n = Normal::new(0.0, var);
        let half = half_width_sigmas * var.sqrt();
        let mut probs = Vec::new();
        let mut x = -half;
        while x < half {
            probs.push(n.cdf(x + delta) - n.cdf(x));
            x += delta;
        }
        shannon(&probs)
    }

    #[test]
    fn uniform_maximises_shannon() {
        let k = 5;
        let uniform = vec![1.0 / k as f64; k];
        let h_uniform = shannon(&uniform);
        assert!((h_uniform - (k as f64).ln()).abs() < 1e-12);
        let skewed = [0.9, 0.025, 0.025, 0.025, 0.025];
        assert!(shannon(&skewed) < h_uniform);
    }

    #[test]
    fn shannon_of_point_mass_is_zero() {
        assert_eq!(shannon(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn shannon_is_nonnegative() {
        for probs in [vec![0.3, 0.7], vec![0.2; 5], vec![1.0]] {
            assert!(shannon(&probs) >= 0.0);
        }
    }

    #[test]
    fn discretization_identity_from_the_paper() {
        // §5.1: H_s(X^Δ) + ln Δ → H_d(X) as Δ → 0.
        let var = 2.3;
        let hd = gaussian_differential(var);
        let delta = 0.01;
        let hs = discretized_gaussian_shannon(var, delta, 10.0);
        assert!((hs + delta.ln() - hd).abs() < 1e-3, "H_s + lnΔ = {}, H_d = {hd}", hs + delta.ln());
    }

    #[test]
    fn entropy_deltas_match_across_representations() {
        // The subtraction H(X1) − H(X2) must agree between the differential
        // form and the discretised Shannon form — the paper's justification
        // for a single comparable "information gain" across datatypes.
        let (v1, v2) = (4.0, 1.0);
        let d_diff = gaussian_differential(v1) - gaussian_differential(v2);
        let delta = 0.005;
        let d_shannon = discretized_gaussian_shannon(v1, delta, 12.0)
            - discretized_gaussian_shannon(v2, delta, 12.0);
        assert!((d_diff - d_shannon).abs() < 1e-3, "diff = {d_diff}, shannon = {d_shannon}");
    }
}
