//! Bivariate normal distribution with exact conditionals.
//!
//! Case (b) of the paper's correlation model (Table 5): when columns `j` and
//! `k` are both continuous, the joint error distribution `P(e_j, e_k)` is a
//! bivariate Gaussian, and the conditional used in Eq. 7 is
//! `P(e_j | e_k = x) = N(μ_j + ρ σ_j/σ_k (x − μ_k), (1 − ρ²) σ_j²)`.
//!
//! Fits read [`PairSums`], the running moment sums of the paired sample, so
//! a fitter accumulates as it scans and keeps no copy of the pairs.

use crate::normal::Normal;
use crate::{clamp_var, EPS};

/// Running sums `n, Σx, Σy, Σx², Σy², Σxy` of a paired sample: the
/// sufficient statistics of a bivariate Gaussian, and of its Pearson
/// correlation. `Default` is the empty sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairSums {
    /// Number of pairs.
    pub n: f64,
    /// `Σx`.
    pub x: f64,
    /// `Σy`.
    pub y: f64,
    /// `Σx²`.
    pub xx: f64,
    /// `Σy²`.
    pub yy: f64,
    /// `Σxy`.
    pub xy: f64,
}

impl PairSums {
    /// Add one pair.
    #[inline]
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.x += x;
        self.y += y;
        self.xx += x * x;
        self.yy += y * y;
        self.xy += x * y;
    }

    /// The same sample with the two components swapped.
    pub fn transpose(self) -> Self {
        PairSums { n: self.n, x: self.y, y: self.x, xx: self.yy, yy: self.xx, xy: self.xy }
    }

    /// Maximum-likelihood moments `(mean_x, mean_y, var_x, var_y, cov)`
    /// (population variances); all zero for the empty sample.
    fn moments(&self) -> (f64, f64, f64, f64, f64) {
        let n = self.n.max(1.0);
        let (mx, my) = (self.x / n, self.y / n);
        (mx, my, self.xx / n - mx * mx, self.yy / n - my * my, self.xy / n - mx * my)
    }

    /// Pearson correlation coefficient; `0.0` when either side is
    /// (near-)constant, as [`crate::describe::pearson`] over the pairs.
    pub fn pearson(&self) -> f64 {
        let (_, _, va, vb, cov) = self.moments();
        if va <= EPS || vb <= EPS {
            return 0.0;
        }
        (cov / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0)
    }
}

impl std::ops::Add for PairSums {
    type Output = PairSums;

    fn add(self, o: PairSums) -> PairSums {
        PairSums {
            n: self.n + o.n,
            x: self.x + o.x,
            y: self.y + o.y,
            xx: self.xx + o.xx,
            yy: self.yy + o.yy,
            xy: self.xy + o.xy,
        }
    }
}

/// A bivariate normal over `(x₁, x₂)` parameterised by means, variances and
/// the correlation coefficient `ρ ∈ (−1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BivariateNormal {
    /// Mean of the first component.
    pub mean1: f64,
    /// Mean of the second component.
    pub mean2: f64,
    /// Variance of the first component.
    pub var1: f64,
    /// Variance of the second component.
    pub var2: f64,
    /// Pearson correlation coefficient, clamped into `(−1, 1)`.
    pub rho: f64,
}

impl BivariateNormal {
    /// Maximum correlation magnitude retained after fitting; keeps the
    /// conditional variance `(1−ρ²)σ²` bounded away from zero.
    pub const RHO_CAP: f64 = 0.999;

    /// Construct from raw parameters (variances floored, `ρ` clamped).
    pub fn new(mean1: f64, mean2: f64, var1: f64, var2: f64, rho: f64) -> Self {
        BivariateNormal {
            mean1,
            mean2,
            var1: clamp_var(var1),
            var2: clamp_var(var2),
            rho: rho.clamp(-Self::RHO_CAP, Self::RHO_CAP),
        }
    }

    /// Maximum-likelihood fit from the moment sums of paired samples.
    ///
    /// Fewer than two pairs (or degenerate marginals) yield an independent
    /// standard-ish fit with `ρ = 0`, so a sparse correlation table degrades
    /// gracefully to "no structural information" rather than failing.
    pub fn mle(sums: &PairSums) -> Self {
        let (mean1, mean2, v1, v2, cov) = sums.moments();
        if sums.n < 2.0 {
            return BivariateNormal::new(mean1, mean2, 1.0, 1.0, 0.0);
        }
        let rho = if v1 <= EPS || v2 <= EPS { 0.0 } else { cov / (v1.sqrt() * v2.sqrt()) };
        BivariateNormal::new(mean1, mean2, v1.max(EPS), v2.max(EPS), rho)
    }

    /// Conditional distribution of the first component given `x₂ = x`.
    ///
    /// `N(μ₁ + ρ σ₁/σ₂ (x − μ₂), (1 − ρ²) σ₁²)` — the formula quoted verbatim
    /// in §5.2 case (b).
    pub fn conditional1_given2(&self, x: f64) -> Normal {
        let s1 = self.var1.sqrt();
        let s2 = self.var2.sqrt();
        let mean = self.mean1 + self.rho * s1 / s2 * (x - self.mean2);
        let var = (1.0 - self.rho * self.rho) * self.var1;
        Normal::new(mean, var)
    }

    /// Joint density at `(x₁, x₂)`.
    pub fn pdf(&self, x1: f64, x2: f64) -> f64 {
        let (s1, s2) = (self.var1.sqrt(), self.var2.sqrt());
        let z1 = (x1 - self.mean1) / s1;
        let z2 = (x2 - self.mean2) / s2;
        let r = self.rho;
        let det = 1.0 - r * r;
        let q = (z1 * z1 - 2.0 * r * z1 * z2 + z2 * z2) / det;
        (-0.5 * q).exp() / (2.0 * std::f64::consts::PI * s1 * s2 * det.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_std_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sums(pairs: &[(f64, f64)]) -> PairSums {
        let mut s = PairSums::default();
        for &(x, y) in pairs {
            s.add(x, y);
        }
        s
    }

    fn correlated_pairs(rho: f64, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let z1 = sample_std_normal(&mut rng);
                let z2 = sample_std_normal(&mut rng);
                let x = 1.0 + 2.0 * z1;
                let y = -0.5 + 0.8 * (rho * z1 + (1.0 - rho * rho).sqrt() * z2);
                (x, y)
            })
            .collect()
    }

    #[test]
    fn mle_recovers_correlation() {
        let pairs = correlated_pairs(0.7, 60_000, 5);
        let fit = BivariateNormal::mle(&sums(&pairs));
        assert!((fit.rho - 0.7).abs() < 0.02, "rho = {}", fit.rho);
        assert!((fit.mean1 - 1.0).abs() < 0.05);
        assert!((fit.mean2 + 0.5).abs() < 0.02);
        assert!((fit.var1 - 4.0).abs() < 0.1);
        assert!((fit.var2 - 0.64).abs() < 0.02);
    }

    #[test]
    fn conditional_formula_paper_example() {
        // §6.4.3: "if the error of StartTarget is 0, EndTarget error is
        // N(0.28, 0.76); if it is 6, N(3.75, 0.76)" — verify our conditional
        // produces a shifted mean with unchanged variance, as in that example.
        let b = BivariateNormal::new(0.5, 0.3, 2.0, 1.5, 0.6);
        let c0 = b.conditional1_given2(0.0);
        let c6 = b.conditional1_given2(6.0);
        assert!((c0.var - c6.var).abs() < 1e-12, "variance must not depend on x");
        assert!(c6.mean > c0.mean, "positive rho shifts the mean up");
        let expected_var = (1.0 - 0.36) * 2.0;
        assert!((c0.var - expected_var).abs() < 1e-12);
    }

    #[test]
    fn conditional_reduces_to_marginal_when_independent() {
        let b = BivariateNormal::new(1.0, 2.0, 3.0, 4.0, 0.0);
        let c = b.conditional1_given2(100.0);
        assert!((c.mean - b.mean1).abs() < 1e-12);
        assert!((c.var - b.var1).abs() < 1e-12);
    }

    #[test]
    fn conditional_variance_shrinks_with_correlation() {
        let weak = BivariateNormal::new(0.0, 0.0, 1.0, 1.0, 0.2);
        let strong = BivariateNormal::new(0.0, 0.0, 1.0, 1.0, 0.9);
        assert!(strong.conditional1_given2(1.0).var < weak.conditional1_given2(1.0).var);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let b = BivariateNormal::new(0.0, 0.0, 1.0, 2.0, 0.5);
        let steps = 200;
        let (lo, hi) = (-8.0, 8.0);
        let h = (hi - lo) / steps as f64;
        let mut integral = 0.0;
        for i in 0..steps {
            for j in 0..steps {
                let x = lo + (i as f64 + 0.5) * h;
                let y = lo + (j as f64 + 0.5) * h;
                integral += b.pdf(x, y) * h * h;
            }
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral = {integral}");
    }

    #[test]
    fn degenerate_fit_is_independent() {
        let fit = BivariateNormal::mle(&sums(&[(1.0, 2.0)]));
        assert_eq!(fit.rho, 0.0);
        assert_eq!((fit.mean1, fit.mean2), (1.0, 2.0));
        let empty = BivariateNormal::mle(&PairSums::default());
        assert_eq!(empty.rho, 0.0);
        assert_eq!((empty.mean1, empty.mean2), (0.0, 0.0));
        // Constant column → rho must be 0, not NaN.
        let constant = BivariateNormal::mle(&sums(&[(1.0, 5.0), (1.0, 6.0), (1.0, 7.0)]));
        assert_eq!(constant.rho, 0.0);
    }

    #[test]
    fn pair_sums_match_two_pass_moments() {
        use crate::describe::{mean, pearson, variance};
        let pairs = correlated_pairs(-0.4, 2_000, 9);
        let s = sums(&pairs);
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        assert!((s.pearson() - pearson(&xs, &ys)).abs() < 1e-12);
        assert_eq!(s.transpose().pearson().to_bits(), s.pearson().to_bits());
        let fit = BivariateNormal::mle(&s);
        assert!((fit.mean1 - mean(&xs)).abs() < 1e-12);
        assert!((fit.var2 - variance(&ys)).abs() < 1e-12);
        // Sums of two halves equal the sums of the whole.
        let (a, b) = pairs.split_at(700);
        assert!(((sums(a) + sums(b)).xy - s.xy).abs() < 1e-9);
        // Empty and constant samples read as uncorrelated, never NaN.
        assert_eq!(PairSums::default().pearson(), 0.0);
        assert_eq!(sums(&[(1.0, 2.0), (1.0, 3.0)]).pearson(), 0.0);
    }

    #[test]
    fn rho_is_capped() {
        let b = BivariateNormal::new(0.0, 0.0, 1.0, 1.0, 1.0);
        assert!(b.rho < 1.0);
        assert!(b.conditional1_given2(0.0).var > 0.0);
    }
}
