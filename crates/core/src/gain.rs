//! Inherent information gain (paper §5.1, Eq. 6).
//!
//! The utility of assigning cell `c_ij` to worker `u` is the expected drop in
//! the truth distribution's entropy after observing one more answer from `u`:
//! `IG(c_ij) = H(T) − E_a[H(T | a)]`. Entropy is Shannon for categorical
//! cells and differential for continuous cells; because only *differences*
//! enter, the measure is comparable across datatypes (the paper's Δ-binning
//! argument, verified in `tcrowd_stat::entropy` tests).
//!
//! Both datatypes have a closed form, so the default estimator needs no
//! sampling and scores a cell with no allocation (`exact_gain`): for a
//! Gaussian posterior the updated variance `(1/T^φ + 1/v)⁻¹` does not depend
//! on the answer's value, and for a categorical one the expected entropy
//! drop is the mutual information between truth and answer. A sampling
//! estimator mirroring the paper's Monte-Carlo description is provided for
//! the ablation study.

use crate::truth::TruthDist;
use rand::rngs::StdRng;
use tcrowd_stat::{clamp_prob, clamp_var};
use tcrowd_tabular::CellId;

/// How the expected posterior entropy of a *continuous* cell is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GainEstimator {
    /// Closed form (default): for Gaussians the post-update variance is
    /// answer-independent, so `E_a[H_d]` is exact.
    #[default]
    Exact,
    /// Monte-Carlo over sampled hypothetical answers (`s_cont` in the
    /// paper's complexity analysis). Agreement with `Exact` is tested; kept
    /// for the ablation bench.
    Sampling {
        /// Number of hypothetical answers drawn.
        samples: usize,
    },
}

/// Information gain of one more answer on a cell whose z-space posterior is
/// `truth`, answered with effective variance `obs_var` (continuous) or
/// quality `q` (categorical).
///
/// This is the primitive both the inherent and the structure-aware policies
/// reduce to; they differ only in how `obs_var`/`q` are predicted. `rng` is
/// read only by the sampling estimator on a continuous cell; every other
/// case is the closed form.
pub fn gain_with_params(
    truth: &TruthDist,
    obs_var: f64,
    q: f64,
    estimator: GainEstimator,
    rng: &mut StdRng,
) -> f64 {
    match (truth, estimator) {
        (TruthDist::Continuous(n), GainEstimator::Sampling { samples }) => {
            let v = clamp_var(obs_var);
            let predictive = n.predictive(v);
            let h0 = n.differential_entropy();
            let mut total = 0.0;
            for _ in 0..samples.max(1) {
                let a = predictive.sample(rng);
                let post = n.posterior_with_observation(a, v);
                total += post.differential_entropy();
            }
            h0 - total / samples.max(1) as f64
        }
        _ => exact_gain(truth, obs_var, q),
    }
}

/// Eq. 6 in closed form, with no sampling and no allocation.
///
/// Continuous: the post-update variance `(1/T^φ + 1/v)⁻¹` does not depend on
/// the answer, so `H − H' = ½ ln(1 + T^φ / v)` exactly. Categorical: see
/// [`categorical_gain`].
pub(crate) fn exact_gain(truth: &TruthDist, obs_var: f64, q: f64) -> f64 {
    match truth {
        TruthDist::Continuous(n) => {
            let v = clamp_var(obs_var);
            0.5 * (1.0 + n.var / v).ln()
        }
        TruthDist::Categorical(p) => categorical_gain(p, q),
    }
}

/// Eq. 6 for a categorical cell with posterior `p`, answered with quality `q`.
///
/// The expected entropy drop `H(T) − Σ_a P(a)·H(T | a)` is the mutual
/// information `I(T; A) = H(A) − H(A | T)`. Under the §4.2 answer model,
/// with `r = (1−q)/(|L|−1)`, the answer distribution is
/// `P(A = a) = q·p_a + r·(1 − p_a)`, and `H(A | T = z) = −(q ln q + (1−q) ln r)`
/// for every truth `z`: `|L| + 2` logarithms, and no posterior is
/// materialised.
fn categorical_gain(p: &[f64], q: f64) -> f64 {
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

/// Compute gains for many candidate cells, splitting across threads when the
/// candidate set is large (the paper's §5.1 notes assignment parallelises
/// trivially because cells are independent).
pub fn compute_gains<F>(candidates: &[CellId], per_cell: F) -> Vec<f64>
where
    F: Fn(CellId) -> f64 + Sync,
{
    const PARALLEL_THRESHOLD: usize = 8192;
    if candidates.len() < PARALLEL_THRESHOLD {
        return candidates.iter().map(|&c| per_cell(c)).collect();
    }
    let threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(candidates.len());
    let chunk = candidates.len().div_ceil(threads);
    let mut out = vec![0.0; candidates.len()];
    std::thread::scope(|scope| {
        for (cells, slot) in candidates.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let per_cell = &per_cell;
            scope.spawn(move || {
                for (c, o) in cells.iter().zip(slot.iter_mut()) {
                    *o = per_cell(*c);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::cat_answer_likelihood;
    use rand::{Rng, SeedableRng};
    use tcrowd_stat::normal::Normal;
    use tcrowd_tabular::Value;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn continuous_gain_exact_matches_sampling() {
        let t = TruthDist::Continuous(Normal::new(0.3, 2.0));
        let mut r = rng();
        let exact = gain_with_params(&t, 0.5, 0.8, GainEstimator::Exact, &mut r);
        let sampled =
            gain_with_params(&t, 0.5, 0.8, GainEstimator::Sampling { samples: 50 }, &mut r);
        // For Gaussians the sampled entropy is answer-independent, so even a
        // small sample agrees to machine precision.
        assert!((exact - sampled).abs() < 1e-9, "{exact} vs {sampled}");
        assert!(exact > 0.0);
    }

    #[test]
    fn better_worker_means_larger_gain() {
        let t = TruthDist::Continuous(Normal::new(0.0, 1.0));
        let mut r = rng();
        let good = gain_with_params(&t, 0.1, 0.9, GainEstimator::Exact, &mut r);
        let bad = gain_with_params(&t, 5.0, 0.3, GainEstimator::Exact, &mut r);
        assert!(good > bad);
        let tc = TruthDist::uniform(4);
        let good_c = gain_with_params(&tc, 0.1, 0.9, GainEstimator::Exact, &mut r);
        let bad_c = gain_with_params(&tc, 5.0, 0.3, GainEstimator::Exact, &mut r);
        assert!(good_c > bad_c);
    }

    #[test]
    fn uncertain_cell_gains_more_than_settled_cell() {
        let mut r = rng();
        let uncertain = TruthDist::uniform(3);
        let settled = TruthDist::Categorical(vec![0.98, 0.01, 0.01]);
        let g_unc = gain_with_params(&uncertain, 0.3, 0.8, GainEstimator::Exact, &mut r);
        let g_set = gain_with_params(&settled, 0.3, 0.8, GainEstimator::Exact, &mut r);
        assert!(g_unc > g_set);

        let wide = TruthDist::Continuous(Normal::new(0.0, 4.0));
        let tight = TruthDist::Continuous(Normal::new(0.0, 0.01));
        let g_wide = gain_with_params(&wide, 0.5, 0.8, GainEstimator::Exact, &mut r);
        let g_tight = gain_with_params(&tight, 0.5, 0.8, GainEstimator::Exact, &mut r);
        assert!(g_wide > g_tight);
    }

    #[test]
    fn categorical_gain_is_nonnegative_and_bounded_by_entropy() {
        let mut r = rng();
        for probs in [vec![0.25; 4], vec![0.7, 0.2, 0.05, 0.05], vec![0.5, 0.5]] {
            let t = TruthDist::Categorical(probs);
            let h = t.entropy();
            for q in [0.3, 0.6, 0.95] {
                let g = gain_with_params(&t, 0.3, q, GainEstimator::Exact, &mut r);
                assert!(g >= -1e-12, "gain must be non-negative, got {g}");
                assert!(g <= h + 1e-12, "gain cannot exceed prior entropy");
            }
        }
    }

    #[test]
    fn uninformative_worker_gains_nothing_categorical() {
        // q = 1/|L| makes every answer equally likely under all hypotheses.
        let t = TruthDist::Categorical(vec![0.4, 0.3, 0.3]);
        let mut r = rng();
        let g = gain_with_params(&t, 1.0, 1.0 / 3.0, GainEstimator::Exact, &mut r);
        assert!(g.abs() < 1e-9, "gain = {g}");
    }

    #[test]
    fn single_label_domain_gains_zero() {
        let t = TruthDist::Categorical(vec![1.0]);
        let mut r = rng();
        assert_eq!(gain_with_params(&t, 0.5, 0.9, GainEstimator::Exact, &mut r), 0.0);
    }

    #[test]
    fn continuous_gain_formula() {
        // IG = ½ ln(1 + T^φ/v) exactly.
        let t = TruthDist::Continuous(Normal::new(1.0, 3.0));
        let mut r = rng();
        let g = gain_with_params(&t, 1.5, 0.5, GainEstimator::Exact, &mut r);
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
        let mut r = rng();
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
                    let closed = gain_with_params(&t, 1.0, q, GainEstimator::Exact, &mut r);
                    let oracle = posterior_expectation_gain(&t, q);
                    assert!(
                        (closed - oracle).abs() < 1e-9,
                        "L={l} q={q} {t:?}: closed form {closed} vs oracle {oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_gains_match_serial() {
        let cells: Vec<CellId> =
            (0..10_000).map(|i| CellId::new(i as u32 / 100, i as u32 % 100)).collect();
        let f = |c: CellId| (c.row * 100 + c.col) as f64 * 0.5;
        let par = compute_gains(&cells, f);
        let ser: Vec<f64> = cells.iter().map(|&c| f(c)).collect();
        assert_eq!(par, ser);
    }
}
