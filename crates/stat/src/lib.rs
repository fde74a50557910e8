//! # tcrowd-stat
//!
//! Statistics substrate for the T-Crowd reproduction (ICDE 2018).
//!
//! The T-Crowd model is built on a small set of statistical primitives that
//! the paper uses throughout: the Gauss error function for the unified worker
//! quality `q_u = erf(ε / √(2φ_u))` (Eq. 2), Gaussian posteriors for
//! continuous truths (Eq. 4), Shannon and differential entropies for the
//! information-gain assignment (§5.1), bivariate-normal conditionals for the
//! attribute-correlation model (Table 5), and maximum-likelihood fits plus a
//! gradient optimizer for the M-step (Eq. 5).
//!
//! The Rust statistics ecosystem is deliberately not used here — every
//! primitive is implemented from scratch, tested against known values, and
//! kept dependency-free apart from [`rand`] for uniform bits.
//!
//! ## Modules
//!
//! * [`special`] — `erf`, `erfc`, `erf_inv`, standard-normal CDF/quantile,
//!   χ² quantile (Wilson–Hilferty).
//! * [`normal`] — univariate Gaussian with Bayesian updates, sampling and
//!   its MLE from a sample's sums.
//! * [`bernoulli`] — Bernoulli distribution and its smoothed MLE from counts.
//! * [`bivariate`] — bivariate Gaussian with exact conditionals, fitted from
//!   the moment sums of a paired sample ([`bivariate::PairSums`]).
//! * [`entropy`] — Shannon and differential entropy helpers.
//! * [`describe`] — descriptive statistics (mean, variance, median, Pearson…).
//! * [`cluster`] — k-means (missing-aware) and the adjusted Rand index, for
//!   the entity-correlation extension.
//! * [`bootstrap`] — percentile CIs and the paired bootstrap test used to
//!   compare methods cell-by-cell.
//! * [`lut`] — Hermite-interpolated fast `erf` / `e^{-x²}` kernels for the
//!   EM hot loop (built from the exact implementations at first use).
//! * [`batch`] — the same kernels over `&[f64]` slices: a portable scalar
//!   path and a bit-identical AVX2 path behind runtime dispatch.
//! * [`optimize`] — adaptive gradient ascent (GLAD's fit).
//! * [`linreg`] — simple linear regression (quality-calibration case study).
//! * [`sample`] — Box–Muller Gaussian sampling on top of any [`rand::Rng`].

// `deny` rather than `forbid`: the AVX2 batch path (`batch::avx2`) is the
// one sanctioned island of `unsafe` (intrinsics + gathers), opted in with a
// module-level `allow` and guarded by runtime feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bernoulli;
pub mod bivariate;
pub mod bootstrap;
pub mod cluster;
pub mod describe;
pub mod entropy;
pub mod linreg;
pub mod lut;
pub mod normal;
pub mod optimize;
pub mod sample;
pub mod special;

pub use bernoulli::Bernoulli;
pub use bivariate::BivariateNormal;
pub use normal::Normal;

/// Numerical floor used to keep variances and probabilities strictly positive.
pub const EPS: f64 = 1e-12;

/// Clamp a probability into the open interval `(EPS, 1 - EPS)`.
///
/// Model code divides by both `p` and `1 - p` (e.g. the categorical M-step
/// gradient), so probabilities must never saturate at exactly 0 or 1.
#[inline]
pub fn clamp_prob(p: f64) -> f64 {
    p.clamp(EPS, 1.0 - EPS)
}

/// Clamp a variance-like quantity to be at least [`EPS`].
#[inline]
pub fn clamp_var(v: f64) -> f64 {
    if v.is_finite() {
        v.max(EPS)
    } else {
        EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_prob_bounds() {
        assert_eq!(clamp_prob(-1.0), EPS);
        assert_eq!(clamp_prob(2.0), 1.0 - EPS);
        assert_eq!(clamp_prob(0.5), 0.5);
    }

    #[test]
    fn clamp_var_handles_nan_and_negative() {
        assert_eq!(clamp_var(f64::NAN), EPS);
        assert_eq!(clamp_var(-3.0), EPS);
        assert_eq!(clamp_var(2.5), 2.5);
        assert_eq!(clamp_var(f64::INFINITY), EPS);
    }
}
