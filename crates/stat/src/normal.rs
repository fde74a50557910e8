//! Univariate Gaussian distribution with the Bayesian operations T-Crowd
//! needs: precision-weighted posterior updates (paper Eq. 4, continuous case),
//! interval mass (Eq. 2), differential entropy (§5.1) and sampling.

use crate::sample::sample_std_normal;
use crate::special::{erf, std_normal_cdf};
use crate::{clamp_var, EPS};
use rand::Rng;
use std::f64::consts::{PI, SQRT_2};

/// A normal distribution `N(mean, var)` parameterised by mean and **variance**
/// (the paper writes `N(T̂_ij, φ)` with `φ` a variance throughout §4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Variance of the distribution (strictly positive).
    pub var: f64,
}

impl Normal {
    /// Standard normal `N(0, 1)`.
    pub const STANDARD: Normal = Normal { mean: 0.0, var: 1.0 };

    /// Create a normal distribution; the variance is floored at [`EPS`].
    pub fn new(mean: f64, var: f64) -> Self {
        Normal { mean, var: clamp_var(var) }
    }

    /// Standard deviation.
    #[inline]
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    /// Log-density at `x`.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        let d = x - self.mean;
        -0.5 * ((2.0 * PI * self.var).ln() + d * d / self.var)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.std())
    }

    /// Probability mass inside the symmetric window `[center-eps, center+eps]`.
    ///
    /// With `center = mean` this is exactly the paper's Eq. 2:
    /// `P(a ∈ [T̂-ε, T̂+ε]) = erf(ε / √(2φ))`.
    pub fn interval_mass(&self, center: f64, eps: f64) -> f64 {
        debug_assert!(eps >= 0.0);
        if center == self.mean {
            erf(eps / (SQRT_2 * self.std()))
        } else {
            self.cdf(center + eps) - self.cdf(center - eps)
        }
    }

    /// Differential entropy `½ ln(2πe·var)` (paper §5.1, `H_d`).
    pub fn differential_entropy(&self) -> f64 {
        0.5 * (2.0 * PI * std::f64::consts::E * self.var).ln()
    }

    /// Bayesian update of a Gaussian prior with one Gaussian observation of
    /// variance `obs_var`: returns the posterior `N(μ', φ')` with
    /// `φ' = (1/φ + 1/obs_var)⁻¹`, `μ' = φ'(μ/φ + x/obs_var)`.
    ///
    /// Folding all observations of a cell into the prior in this way yields
    /// exactly the paper's `T^μ_ij`, `T^φ_ij` formulas (Eq. 4, continuous).
    pub fn posterior_with_observation(&self, x: f64, obs_var: f64) -> Normal {
        let obs_var = clamp_var(obs_var);
        let prec = 1.0 / self.var + 1.0 / obs_var;
        let var = 1.0 / prec;
        let mean = var * (self.mean / self.var + x / obs_var);
        Normal::new(mean, var)
    }

    /// Precision-weighted combination of a prior and a set of observations
    /// with per-observation variances (vectorised form of
    /// [`Self::posterior_with_observation`]).
    pub fn posterior_with_observations(&self, obs: &[(f64, f64)]) -> Normal {
        let mut prec = 1.0 / self.var;
        let mut weighted = self.mean / self.var;
        for &(x, v) in obs {
            let v = clamp_var(v);
            prec += 1.0 / v;
            weighted += x / v;
        }
        let var = 1.0 / prec;
        Normal::new(weighted * var, var)
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std() * sample_std_normal(rng)
    }

    /// Maximum-likelihood fit (sample mean, population variance) of a sample
    /// given by its size `n`, sum `Σx` and sum of squares `Σx²`.
    ///
    /// Returns `N(0, 1)`-ish degenerate defaults for an empty sample and
    /// floors the variance at [`EPS`] for constant input.
    pub fn mle(n: f64, sum: f64, sum_sq: f64) -> Normal {
        if n == 0.0 {
            return Normal::new(0.0, 1.0);
        }
        let mean = sum / n;
        Normal::new(mean, (sum_sq / n - mean * mean).max(EPS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fit(data: &[f64]) -> Normal {
        Normal::mle(data.len() as f64, data.iter().sum(), data.iter().map(|x| x * x).sum())
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        let n = Normal::new(1.5, 2.0);
        let (a, b, steps) = (-20.0, 20.0, 40_000);
        let h = (b - a) / steps as f64;
        let integral: f64 = (0..steps).map(|i| n.pdf(a + (i as f64 + 0.5) * h) * h).sum();
        assert!((integral - 1.0).abs() < 1e-8, "integral = {integral}");
    }

    #[test]
    fn interval_mass_matches_erf_identity() {
        let n = Normal::new(0.0, 4.0);
        let eps = 1.3;
        let via_erf = n.interval_mass(0.0, eps);
        let via_cdf = n.cdf(eps) - n.cdf(-eps);
        assert!((via_erf - via_cdf).abs() < 1e-12);
    }

    #[test]
    fn interval_mass_off_center() {
        let n = Normal::new(2.0, 1.0);
        let m = n.interval_mass(3.0, 0.5);
        let expected = n.cdf(3.5) - n.cdf(2.5);
        assert!((m - expected).abs() < 1e-12);
        assert!(m < n.interval_mass(2.0, 0.5));
    }

    #[test]
    fn posterior_update_shrinks_variance_toward_observation() {
        let prior = Normal::new(0.0, 10.0);
        let post = prior.posterior_with_observation(5.0, 1.0);
        assert!(post.var < prior.var);
        assert!(post.var < 1.0);
        assert!(post.mean > 4.0 && post.mean < 5.0, "mean = {}", post.mean);
    }

    #[test]
    fn sequential_and_batch_posteriors_agree() {
        let prior = Normal::new(1.0, 3.0);
        let obs = [(2.0, 0.5), (0.5, 1.5), (3.0, 4.0)];
        let batch = prior.posterior_with_observations(&obs);
        let mut seq = prior;
        for &(x, v) in &obs {
            seq = seq.posterior_with_observation(x, v);
        }
        assert!((batch.mean - seq.mean).abs() < 1e-12);
        assert!((batch.var - seq.var).abs() < 1e-12);
    }

    #[test]
    fn posterior_matches_paper_formula() {
        // Paper Eq. 4: Tφ = (Σ 1/(αβφ_u) + 1/φ0)⁻¹, Tμ = (Σ a/(αβφ_u) + μ0/φ0)·Tφ
        let (mu0, phi0) = (10.0, 25.0);
        let answers = [(12.0, 2.0), (9.0, 0.8)];
        let prior = Normal::new(mu0, phi0);
        let post = prior.posterior_with_observations(&answers);
        let t_phi = 1.0 / (1.0 / 2.0 + 1.0 / 0.8 + 1.0 / 25.0);
        let t_mu = (12.0 / 2.0 + 9.0 / 0.8 + 10.0 / 25.0) * t_phi;
        assert!((post.var - t_phi).abs() < 1e-12);
        assert!((post.mean - t_mu).abs() < 1e-12);
    }

    #[test]
    fn differential_entropy_grows_with_variance() {
        let lo = Normal::new(0.0, 0.5).differential_entropy();
        let hi = Normal::new(0.0, 5.0).differential_entropy();
        assert!(hi > lo);
        // Known value: H(N(0,1)) = ½ ln(2πe) ≈ 1.4189385332
        let std = Normal::STANDARD.differential_entropy();
        assert!((std - 1.4189385332046727).abs() < 1e-12);
    }

    #[test]
    fn differential_entropy_can_be_negative() {
        // §5.1 footnote: differential entropy is negative for tight
        // distributions — the reason raw entropies are not comparable.
        assert!(Normal::new(0.0, 1e-4).differential_entropy() < 0.0);
    }

    #[test]
    fn mle_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth = Normal::new(-3.0, 4.0);
        let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit(&data);
        assert!((fit.mean - truth.mean).abs() < 0.05, "mean = {}", fit.mean);
        assert!((fit.var - truth.var).abs() < 0.15, "var = {}", fit.var);
    }

    #[test]
    fn mle_degenerate_inputs() {
        assert_eq!(fit(&[]).var, 1.0);
        let constant = fit(&[2.0, 2.0, 2.0]);
        assert_eq!(constant.mean, 2.0);
        assert!(constant.var <= 1e-10);
    }

    #[test]
    fn sampling_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = Normal::new(2.0, 9.0);
        let samples: Vec<f64> = (0..50_000).map(|_| n.sample(&mut rng)).collect();
        let fit = fit(&samples);
        assert!((fit.mean - 2.0).abs() < 0.1);
        assert!((fit.var - 9.0).abs() < 0.3);
    }
}
