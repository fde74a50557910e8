//! Inherent information gain (paper §5.1, Eq. 6).
//!
//! The utility of assigning cell `c_ij` to worker `u` is the expected drop in
//! the truth distribution's entropy after observing one more answer from `u`:
//! `IG(c_ij) = H(T) − E_a[H(T | a)]`. Entropy is Shannon for categorical
//! cells and differential for continuous cells; because only *differences*
//! enter, the measure is comparable across datatypes (the paper's Δ-binning
//! argument, verified in `tcrowd_stat::entropy` tests).
//!
//! Both datatypes have a closed form, so a cell is scored exactly, with no
//! sampling and no allocation. For a Gaussian posterior the updated variance
//! `(1/T^φ + 1/v)⁻¹` does not depend on the answer's value, so the paper's
//! Monte-Carlo average over hypothetical answers is a constant
//! (`continuous_gain` reads only `v`). For a categorical one the expected
//! entropy drop is the mutual information between truth and answer
//! (`categorical_gain` reads only `q`). A mutual information never exceeds
//! the posterior entropy, and `entropy_ceiling` bounds that entropy without
//! a logarithm, so the assignment scorer skips a categorical cell whose
//! ceiling is below the gains it already holds.

use crate::truth::TruthDist;
use std::f64::consts::E;
use tcrowd_stat::{clamp_prob, clamp_var, Normal};

/// Information gain of one more answer on a cell whose z-space posterior is
/// `truth`, answered with effective variance `obs_var` (continuous) or
/// quality `q` (categorical).
///
/// This is the primitive both the inherent and the structure-aware policies
/// reduce to; they differ only in how `obs_var`/`q` are predicted.
pub fn gain_with_params(truth: &TruthDist, obs_var: f64, q: f64) -> f64 {
    match truth {
        TruthDist::Continuous(n) => continuous_gain(n, obs_var),
        TruthDist::Categorical(p) => categorical_gain(p, q),
    }
}

/// Eq. 6 for a continuous cell with posterior `n`, answered with variance
/// `obs_var`: the post-update variance `(1/T^φ + 1/v)⁻¹` does not depend on
/// the answer, so the gain is `H − H' = ½ ln(1 + T^φ / v)` exactly.
pub(crate) fn continuous_gain(n: &Normal, obs_var: f64) -> f64 {
    0.5 * (1.0 + n.var / clamp_var(obs_var)).ln()
}

/// Eq. 6 for a categorical cell with posterior `p`, answered with quality `q`.
///
/// The expected entropy drop `H(T) − Σ_a P(a)·H(T | a)` is the mutual
/// information `I(T; A) = H(A) − H(A | T)`. Under the §4.2 answer model,
/// with `r = (1−q)/(|L|−1)`, the answer distribution is
/// `P(A = a) = q·p_a + r·(1 − p_a)`, and `H(A | T = z) = −(q ln q + (1−q) ln r)`
/// for every truth `z`: `|L| + 2` logarithms, and no posterior is
/// materialised.
pub(crate) fn categorical_gain(p: &[f64], q: f64) -> f64 {
    if p.len() <= 1 {
        return 0.0;
    }
    let q = clamp_prob(q);
    let r = (1.0 - q) / (p.len() - 1) as f64;
    let h_answer: f64 = p
        .iter()
        .map(|&pz| {
            let pa = q * pz + r * (1.0 - pz);
            -pa * pa.ln()
        })
        .sum();
    let h_answer_given_truth = -(q * q.ln() + (1.0 - q) * r.ln());
    h_answer - h_answer_given_truth
}

/// `ln(|L| − 1)` for a domain of `labels` labels (0 for a single label):
/// the per-domain constant of [`entropy_ceiling`].
pub(crate) fn ln_others(labels: usize) -> f64 {
    ((labels.max(2) - 1) as f64).ln()
}

/// An upper bound on [`categorical_gain`]`(p, q)` for every `q`, with no
/// logarithm; `ln_others` is [`ln_others`]`(p.len())`.
///
/// The gain is a mutual information, so it never exceeds the posterior
/// entropy `H(p)`. With `rest = 1 − max p`, Fano's inequality bounds that by
/// `H_b(max p) + rest·ln(|L| − 1)`, and `−x ln x ≤ 1 − x` and
/// `−x ln x ≤ (2/e)√x` bound the binary entropy by `rest + (2/e)√rest`.
/// The `1e-12` covers rounding in the computed gain. A NaN entry makes the
/// ceiling NaN, which compares below nothing, so such a cell is always
/// scored.
pub(crate) fn entropy_ceiling(p: &[f64], ln_others: f64) -> f64 {
    let mut top = 0.0f64;
    for &pz in p {
        if pz.is_nan() {
            return f64::NAN;
        }
        top = top.max(pz);
    }
    let rest = 1.0 - top;
    rest * (1.0 + ln_others) + (2.0 / E) * rest.sqrt() + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::cat_answer_likelihood;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tcrowd_stat::normal::Normal;
    use tcrowd_tabular::Value;

    #[test]
    fn better_worker_means_larger_gain() {
        let t = TruthDist::Continuous(Normal::new(0.0, 1.0));
        let good = gain_with_params(&t, 0.1, 0.9);
        let bad = gain_with_params(&t, 5.0, 0.3);
        assert!(good > bad);
        let tc = TruthDist::uniform(4);
        let good_c = gain_with_params(&tc, 0.1, 0.9);
        let bad_c = gain_with_params(&tc, 5.0, 0.3);
        assert!(good_c > bad_c);
    }

    #[test]
    fn uncertain_cell_gains_more_than_settled_cell() {
        let uncertain = TruthDist::uniform(3);
        let settled = TruthDist::Categorical(vec![0.98, 0.01, 0.01]);
        let g_unc = gain_with_params(&uncertain, 0.3, 0.8);
        let g_set = gain_with_params(&settled, 0.3, 0.8);
        assert!(g_unc > g_set);

        let wide = TruthDist::Continuous(Normal::new(0.0, 4.0));
        let tight = TruthDist::Continuous(Normal::new(0.0, 0.01));
        let g_wide = gain_with_params(&wide, 0.5, 0.8);
        let g_tight = gain_with_params(&tight, 0.5, 0.8);
        assert!(g_wide > g_tight);
    }

    #[test]
    fn categorical_gain_is_nonnegative_and_bounded_by_entropy() {
        for probs in [vec![0.25; 4], vec![0.7, 0.2, 0.05, 0.05], vec![0.5, 0.5]] {
            let t = TruthDist::Categorical(probs);
            let h = t.entropy();
            for q in [0.3, 0.6, 0.95] {
                let g = gain_with_params(&t, 0.3, q);
                assert!(g >= -1e-12, "gain must be non-negative, got {g}");
                assert!(g <= h + 1e-12, "gain cannot exceed prior entropy");
            }
        }
    }

    #[test]
    fn uninformative_worker_gains_nothing_categorical() {
        // q = 1/|L| makes every answer equally likely under all hypotheses.
        let t = TruthDist::Categorical(vec![0.4, 0.3, 0.3]);
        let g = gain_with_params(&t, 1.0, 1.0 / 3.0);
        assert!(g.abs() < 1e-9, "gain = {g}");
    }

    #[test]
    fn single_label_domain_gains_zero() {
        let t = TruthDist::Categorical(vec![1.0]);
        assert_eq!(gain_with_params(&t, 0.5, 0.9), 0.0);
    }

    #[test]
    fn continuous_gain_formula() {
        // IG = ½ ln(1 + T^φ/v) exactly.
        let t = TruthDist::Continuous(Normal::new(1.0, 3.0));
        let g = gain_with_params(&t, 1.5, 0.5);
        assert!((g - 0.5 * (1.0f64 + 3.0 / 1.5).ln()).abs() < 1e-12);
    }

    /// Eq. 6 the long way: materialise the posterior after each possible
    /// answer and average its entropy over the predictive answer
    /// distribution.
    fn posterior_expectation_gain(truth: &TruthDist, q: f64) -> f64 {
        let TruthDist::Categorical(p) = truth else { panic!("categorical oracle") };
        let l = p.len() as u32;
        let mut expected_h = 0.0;
        for a in 0..l {
            let p_a: f64 = p
                .iter()
                .enumerate()
                .map(|(z, pz)| pz * cat_answer_likelihood(q, l, z as u32 == a))
                .sum();
            if p_a <= 0.0 {
                continue;
            }
            let post = truth.updated_with_answer(&Value::Categorical(a), 1.0, q);
            expected_h += p_a * post.entropy();
        }
        truth.entropy() - expected_h
    }

    #[test]
    fn categorical_gain_matches_posterior_expectation() {
        let mut r = StdRng::seed_from_u64(99);
        for l in 2..=10usize {
            let mut one_hot = vec![0.0; l];
            one_hot[l / 2] = 1.0;
            // Exact zeros beside spread mass.
            let mut sparse = vec![0.0; l];
            sparse[0] = 0.6;
            sparse[l - 1] = 0.4;
            let mut posteriors = vec![vec![1.0 / l as f64; l], one_hot, sparse];
            for _ in 0..4 {
                let raw: Vec<f64> = (0..l).map(|_| r.gen::<f64>().powi(3)).collect();
                let total: f64 = raw.iter().sum();
                posteriors.push(raw.iter().map(|x| x / total).collect());
            }
            let uninformative = 1.0 / l as f64;
            let qs = [
                0.1 * uninformative,
                0.9 * uninformative,
                uninformative,
                0.5,
                0.8,
                0.99,
                1.0 - 1e-6,
                1.0 - 1e-9,
            ];
            for p in posteriors {
                let t = TruthDist::Categorical(p);
                for q in qs {
                    let closed = gain_with_params(&t, 1.0, q);
                    let oracle = posterior_expectation_gain(&t, q);
                    assert!(
                        (closed - oracle).abs() < 1e-9,
                        "L={l} q={q} {t:?}: closed form {closed} vs oracle {oracle}"
                    );
                }
            }
        }
    }

    /// A posterior over `labels` labels of the given `shape`: uniform,
    /// one-hot, two-point, near-one-hot (the other labels at masses down to
    /// 1e-300, some exactly 0) or random (with exact zeros and 1e-300s).
    fn shaped_posterior(labels: usize, shape: u8, r: &mut StdRng) -> Vec<f64> {
        let top = r.gen_range(0..labels);
        let mut p = vec![0.0; labels];
        match shape {
            0 => p.fill(1.0 / labels as f64),
            1 => p[top] = 1.0,
            2 => {
                let other = (top + 1 + r.gen_range(0..labels.max(2) - 1)) % labels;
                let a: f64 = r.gen();
                p[top] = a;
                p[other] += 1.0 - a;
            }
            3 => {
                for (z, pz) in p.iter_mut().enumerate() {
                    if z != top {
                        *pz = match r.gen_range(0..3) {
                            0 => 0.0,
                            1 => 1e-300,
                            _ => 10f64.powi(-r.gen_range(1..=300i32)),
                        };
                    }
                }
                p[top] = 1.0 - p.iter().sum::<f64>();
            }
            _ => {
                for pz in &mut p {
                    *pz = match r.gen_range(0..4) {
                        0 => 0.0,
                        1 => 1e-300,
                        _ => r.gen::<f64>().powi(3),
                    };
                }
                let total: f64 = p.iter().sum();
                if total > 0.0 {
                    p.iter_mut().for_each(|pz| *pz /= total);
                } else {
                    p[top] = 1.0;
                }
            }
        }
        p
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2048, ..Default::default() })]
        #[test]
        fn categorical_gain_never_exceeds_the_entropy_ceiling(
            labels in 1usize..=12,
            shape in 0u8..5,
            q_kind in 0u8..4,
            u in 0.0f64..1.0,
            seed in proptest::any::<u64>(),
        ) {
            use tcrowd_stat::EPS;
            let p = shaped_posterior(labels, shape, &mut StdRng::seed_from_u64(seed));
            let q = match q_kind {
                0 => EPS + u * (1.0 - 2.0 * EPS),
                1 => EPS + u * (1.0 / labels as f64 - EPS),
                2 => 1.0 - EPS,
                _ => 1.0 - 10f64.powi(-1 - (u * 11.0) as i32),
            };
            let gain = categorical_gain(&p, q);
            let ceiling = entropy_ceiling(&p, ln_others(p.len()));
            // The scorer skips a cell when `ceiling < τ`, so its own gain must
            // never exceed the ceiling; a NaN on either side fails too.
            proptest::prop_assert!(
                gain <= ceiling,
                "L={labels} q={q} p={p:?}: gain {gain} above ceiling {ceiling}"
            );
        }
    }
}
