//! The unified worker model (paper §4.1–4.2).
//!
//! Everything here works in the *normalised* answer space: continuous answers
//! are z-scored per column before inference, so one global quality window `ε`
//! is meaningful across heterogeneous domains.

use tcrowd_stat::special::{erf, erf_derivative};
use tcrowd_stat::{clamp_prob, clamp_var};

/// Convert an effective answer variance `v = α_i β_j φ_u` into the unified
/// worker quality `q = erf(ε / √(2v))` (paper Eq. 2).
#[inline]
pub fn quality_from_variance(epsilon: f64, variance: f64) -> f64 {
    clamp_prob(erf(epsilon / (2.0 * clamp_var(variance)).sqrt()))
}

/// Derivative of [`quality_from_variance`] with respect to `ln v`.
///
/// With `x = ε/√(2v)`, `dx/d ln v = −x/2`, so
/// `dq/d ln v = erf'(x) · (−x/2)` — the chain-rule factor used by the
/// categorical M-step gradient.
#[inline]
pub fn quality_dlnv(epsilon: f64, variance: f64) -> f64 {
    let x = epsilon / (2.0 * clamp_var(variance)).sqrt();
    erf_derivative(x) * (-x / 2.0)
}

/// Log-likelihood of a categorical answer given that the truth is `correct`
/// (true → the answer equals the truth): `ln q` or `ln((1−q)/(|L|−1))`
/// (paper Eq. 3).
#[inline]
pub fn cat_answer_ln_likelihood(q: f64, cardinality: u32, correct: bool) -> f64 {
    let q = clamp_prob(q);
    if correct {
        q.ln()
    } else {
        ((1.0 - q) / (cardinality.max(2) - 1) as f64).ln()
    }
}

/// Likelihood (not log) of a categorical answer under truth hypothesis `z`.
#[inline]
pub fn cat_answer_likelihood(q: f64, cardinality: u32, correct: bool) -> f64 {
    let q = clamp_prob(q);
    if correct {
        q
    } else {
        (1.0 - q) / (cardinality.max(2) - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_stat::optimize::numerical_gradient;

    #[test]
    fn quality_decreases_with_variance() {
        let eps = 0.5;
        let mut prev = 1.0;
        for v in [0.01, 0.1, 0.5, 2.0, 10.0] {
            let q = quality_from_variance(eps, v);
            assert!(q < prev, "quality must fall as variance grows");
            assert!(q > 0.0 && q < 1.0);
            prev = q;
        }
    }

    #[test]
    fn quality_increases_with_epsilon() {
        let v = 0.3;
        assert!(quality_from_variance(1.0, v) > quality_from_variance(0.3, v));
    }

    #[test]
    fn quality_gradient_matches_numeric() {
        let eps = 0.5;
        for v in [0.05, 0.3, 1.0, 4.0] {
            let analytic = quality_dlnv(eps, v);
            let numeric =
                numerical_gradient(|p| quality_from_variance(eps, p[0].exp()), &[v.ln()], 1e-6)[0];
            assert!(
                (analytic - numeric).abs() < 1e-7,
                "v={v}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn cat_likelihoods_normalise() {
        // Σ_a P(a | T=z) over the |L| possible answers must be 1.
        let (q, l) = (0.7, 5u32);
        let total =
            cat_answer_likelihood(q, l, true) + (l - 1) as f64 * cat_answer_likelihood(q, l, false);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cat_ln_likelihood_consistent_with_likelihood() {
        for correct in [true, false] {
            let ln = cat_answer_ln_likelihood(0.6, 4, correct);
            let lin = cat_answer_likelihood(0.6, 4, correct);
            assert!((ln.exp() - lin).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_cardinality_is_guarded() {
        // |L| = 1 would divide by zero; the guard treats it as 2.
        let v = cat_answer_likelihood(0.9, 1, false);
        assert!(v.is_finite() && v > 0.0);
    }
}
