//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use tcrowd_stat::describe;
use tcrowd_stat::entropy::shannon;
use tcrowd_stat::normal::Normal;
use tcrowd_stat::optimize::{gradient_ascent, AscentOptions};
use tcrowd_stat::special::{chi_square_cdf, chi_square_quantile, erf, erf_inv, std_normal_cdf};
use tcrowd_stat::{Bernoulli, BivariateNormal};

proptest! {
    #[test]
    fn erf_is_odd_bounded_monotone(x in -6.0f64..6.0, y in -6.0f64..6.0) {
        let (a, b) = (erf(x), erf(y));
        prop_assert!((-1.0..=1.0).contains(&a));
        prop_assert!((erf(-x) + a).abs() < 1e-12, "odd symmetry");
        if x < y {
            prop_assert!(a <= b, "monotone: erf({x})={a} > erf({y})={b}");
        }
    }

    #[test]
    fn erf_roundtrips_through_inverse(y in -0.999f64..0.999) {
        let x = erf_inv(y);
        prop_assert!((erf(x) - y).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_is_a_cdf(x in -8.0f64..8.0, y in -8.0f64..8.0) {
        let (a, b) = (std_normal_cdf(x), std_normal_cdf(y));
        prop_assert!((0.0..=1.0).contains(&a));
        if x < y {
            prop_assert!(a <= b);
        }
        prop_assert!((std_normal_cdf(x) + std_normal_cdf(-x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi2_quantile_cdf_roundtrip(p in 0.01f64..0.99, k in 1.0f64..60.0) {
        let x = chi_square_quantile(p, k);
        prop_assert!(x >= 0.0);
        prop_assert!((chi_square_cdf(x, k) - p).abs() < 1e-7);
    }

    #[test]
    fn posterior_precision_always_grows(
        mean in -10.0f64..10.0,
        var in 0.01f64..20.0,
        obs in -10.0f64..10.0,
        obs_var in 0.01f64..20.0,
    ) {
        let prior = Normal::new(mean, var);
        let post = prior.posterior_with_observation(obs, obs_var);
        prop_assert!(post.var < prior.var, "observation must shrink variance");
        // The posterior mean lies between the prior mean and the observation.
        let (lo, hi) = if mean <= obs { (mean, obs) } else { (obs, mean) };
        prop_assert!(post.mean >= lo - 1e-9 && post.mean <= hi + 1e-9);
    }

    #[test]
    fn interval_mass_is_monotone_in_eps(
        var in 0.01f64..30.0,
        e1 in 0.0f64..5.0,
        e2 in 0.0f64..5.0,
    ) {
        let n = Normal::new(0.0, var);
        let (m1, m2) = (n.interval_mass(0.0, e1), n.interval_mass(0.0, e2));
        prop_assert!((0.0..=1.0).contains(&m1));
        if e1 < e2 {
            prop_assert!(m1 <= m2);
        }
    }

    #[test]
    fn shannon_entropy_bounds(raw in prop::collection::vec(0.01f64..10.0, 1..12)) {
        let total: f64 = raw.iter().sum();
        let probs: Vec<f64> = raw.iter().map(|x| x / total).collect();
        let h = shannon(&probs);
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (probs.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn bernoulli_mle_stays_in_open_interval(outcomes in prop::collection::vec(any::<bool>(), 0..40)) {
        let wrong = outcomes.iter().filter(|&&o| o).count();
        let b = Bernoulli::mle_smoothed(wrong as f64, outcomes.len() as f64);
        prop_assert!(b.p > 0.0 && b.p < 1.0);
    }

    #[test]
    fn bivariate_conditional_variance_never_exceeds_marginal(
        m1 in -5.0f64..5.0,
        m2 in -5.0f64..5.0,
        v1 in 0.05f64..10.0,
        v2 in 0.05f64..10.0,
        rho in -0.99f64..0.99,
        x in -10.0f64..10.0,
    ) {
        let b = BivariateNormal::new(m1, m2, v1, v2, rho);
        let c = b.conditional1_given2(x);
        prop_assert!(c.var <= b.var1 + 1e-12);
        prop_assert!(c.var > 0.0);
    }

    #[test]
    fn pearson_always_bounded(
        a in prop::collection::vec(-100.0f64..100.0, 2..30),
        b in prop::collection::vec(-100.0f64..100.0, 2..30),
    ) {
        let n = a.len().min(b.len());
        let r = describe::pearson(&a[..n], &b[..n]);
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn median_lies_within_range(data in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let m = describe::median(&data);
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn gradient_ascent_never_worsens_concave_objective(
        x0 in -50.0f64..50.0,
        y0 in -50.0f64..50.0,
        cx in -10.0f64..10.0,
        cy in -10.0f64..10.0,
    ) {
        let f = move |x: &[f64]| {
            let v = -(x[0] - cx).powi(2) - 0.5 * (x[1] - cy).powi(2);
            (v, vec![-2.0 * (x[0] - cx), -(x[1] - cy)])
        };
        let start = [x0, y0];
        let (v0, _) = f(&start);
        let res = gradient_ascent(f, &start, &AscentOptions::default());
        prop_assert!(res.value >= v0 - 1e-12);
    }
}
