//! Golden-value tests: every special function checked against published
//! reference values (Abramowitz & Stegun tables, R/`scipy` evaluations),
//! independent of the unit tests inside the modules.

use tcrowd_stat::cluster::adjusted_rand_index;
use tcrowd_stat::entropy::shannon;
use tcrowd_stat::special::{
    chi_square_cdf, chi_square_quantile, erf, erf_inv, erfc, ln_gamma, std_normal_cdf,
    std_normal_quantile,
};
use tcrowd_stat::{BivariateNormal, Normal};

fn close(got: f64, want: f64, tol: f64) {
    assert!((got - want).abs() <= tol, "got {got}, want {want} (tol {tol})");
}

#[test]
fn erf_reference_values() {
    // A&S table 7.1 / scipy.special.erf.
    close(erf(0.0), 0.0, 1e-15);
    close(erf(0.5), 0.520_499_877_813_046_5, 2e-7);
    close(erf(1.0), 0.842_700_792_949_714_9, 2e-7);
    close(erf(1.5), 0.966_105_146_475_310_7, 2e-7);
    close(erf(2.0), 0.995_322_265_018_952_7, 2e-7);
    close(erf(3.0), 0.999_977_909_503_001_4, 2e-7);
    close(erf(-1.0), -0.842_700_792_949_714_9, 2e-7);
}

#[test]
fn erfc_complements_erf_in_the_tail() {
    close(erfc(2.0), 0.004_677_734_981_047_266, 2e-7);
    close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-8);
    for x in [0.1, 0.7, 1.3, 2.9] {
        close(erf(x) + erfc(x), 1.0, 1e-12);
    }
}

#[test]
fn erf_inv_reference_values() {
    // scipy.special.erfinv.
    close(erf_inv(0.5), 0.476_936_276_204_469_9, 1e-5);
    close(erf_inv(0.9), 1.163_087_153_676_674, 1e-5);
    close(erf_inv(-0.5), -0.476_936_276_204_469_9, 1e-5);
    close(erf_inv(0.99), 1.821_386_367_718_481, 1e-4);
}

#[test]
fn normal_cdf_and_quantile_reference_values() {
    // Φ(1.96) ≈ 0.975; Φ(1.6449) ≈ 0.95.
    close(std_normal_cdf(0.0), 0.5, 1e-12);
    close(std_normal_cdf(1.959_963_984_540_054), 0.975, 1e-6);
    close(std_normal_cdf(-1.281_551_565_544_6), 0.10, 1e-6);
    close(std_normal_quantile(0.975), 1.959_963_984_540_054, 1e-4);
    close(std_normal_quantile(0.5), 0.0, 1e-10);
    close(Normal::new(0.0, 1.0).pdf(0.0), 0.398_942_280_401_432_7, 1e-12);
    close(Normal::new(0.0, 1.0).pdf(1.0), 0.241_970_724_519_143_37, 1e-12);
}

#[test]
fn ln_gamma_reference_values() {
    // Γ(1) = Γ(2) = 1; Γ(0.5) = √π; Γ(5) = 24.
    close(ln_gamma(1.0), 0.0, 1e-10);
    close(ln_gamma(2.0), 0.0, 1e-10);
    close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
    close(ln_gamma(5.0), 24.0f64.ln(), 1e-9);
    close(ln_gamma(10.0), 362_880.0f64.ln(), 1e-8);
}

#[test]
fn chi_square_reference_values() {
    // R: qchisq(0.95, 1) = 3.841459, qchisq(0.95, 5) = 11.0705,
    //    qchisq(0.5, 10) = 9.341818; pchisq(3.841459, 1) = 0.95.
    close(chi_square_quantile(0.95, 1.0), 3.841_458_820_694_124, 2e-2);
    close(chi_square_quantile(0.95, 5.0), 11.070_497_693_516_351, 2e-2);
    close(chi_square_quantile(0.5, 10.0), 9.341_818_240_309_545, 2e-2);
    close(chi_square_cdf(3.841_458_820_694_124, 1.0), 0.95, 1e-4);
    close(chi_square_cdf(11.070_497_693_516_351, 5.0), 0.95, 1e-4);
}

#[test]
fn entropy_reference_values() {
    // H(uniform over 4) = ln 4; H(0.5, 0.5) = ln 2.
    close(shannon(&[0.25; 4]), 4.0f64.ln(), 1e-12);
    close(shannon(&[0.5, 0.5]), std::f64::consts::LN_2, 1e-12);
    // H(0.9, 0.1) = −0.9 ln 0.9 − 0.1 ln 0.1 ≈ 0.325083.
    close(shannon(&[0.9, 0.1]), 0.325_082_973_391_448, 1e-12);
    // h(N(µ, 1)) = ½ ln(2πe) ≈ 1.418939.
    let h = |var: f64| Normal::new(0.0, var).differential_entropy();
    close(h(1.0), 1.418_938_533_204_672_7, 1e-12);
    // h(N(µ, 4)) = h(N(µ,1)) + ½ ln 4.
    close(h(4.0), 1.418_938_533_204_672_7 + 0.5 * 4.0f64.ln(), 1e-12);
}

#[test]
fn normal_posterior_textbook_update() {
    // Prior N(0, 1), observation 2.0 with variance 1 → posterior N(1, 0.5).
    let prior = Normal::new(0.0, 1.0);
    let post = prior.posterior_with_observation(2.0, 1.0);
    close(post.mean, 1.0, 1e-12);
    close(post.var, 0.5, 1e-12);
    // Two observations at once agree with sequential updates.
    let both = prior.posterior_with_observations(&[(2.0, 1.0), (-1.0, 0.5)]);
    let seq = post.posterior_with_observation(-1.0, 0.5);
    close(both.mean, seq.mean, 1e-12);
    close(both.var, seq.var, 1e-12);
}

#[test]
fn bivariate_conditional_textbook_values() {
    // X ~ N(1, 4), Y ~ N(-2, 9), ρ = 0.5:
    // E[X | Y = 1] = 1 + (2/3)·0.5·(1 − (−2)) = 2, Var = 4(1−0.25) = 3.
    let b = BivariateNormal::new(1.0, -2.0, 4.0, 9.0, 0.5);
    let c = b.conditional1_given2(1.0);
    close(c.mean, 2.0, 1e-12);
    close(c.var, 3.0, 1e-12);
}

#[test]
fn ari_textbook_example() {
    // Hubert & Arabie's canonical example-sized check: two partitions of 6
    // points sharing structure. Computed by sklearn.metrics.adjusted_rand_score.
    let a = [0, 0, 1, 1, 2, 2];
    let b = [0, 0, 1, 2, 2, 2];
    close(adjusted_rand_index(&a, &b), 0.444_444_444_444_444_4, 1e-12);
}
