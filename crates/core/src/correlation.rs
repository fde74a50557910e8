//! The attribute-correlation model (paper §5.2, Tables 4–5, Eq. 7–8).
//!
//! For every answer we define an *error variable*: a categorical answer's
//! error is the 0/1 mismatch against the estimated truth; a continuous
//! answer's error is the signed z-space residual `a − T^µ`. Errors of the
//! same worker on the same row, across two columns `j ≠ k`, form the paired
//! samples from which marginal distributions (Table 4), conditional
//! distributions (Table 5, four datatype cases) and the correlation
//! coefficients `W_jk` (Eq. 8) are estimated by maximum likelihood.
//!
//! Given the errors an incoming worker already made on a row, Eq. 7 predicts
//! the error distribution on a yet-unanswered cell of that row as the
//! `W`-weighted combination of the per-column conditionals; the
//! structure-aware policy converts the prediction into an adjusted quality /
//! observation variance and re-uses the inherent-gain machinery.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::inference::InferenceResult;
use crate::truth::TruthDist;
use tcrowd_stat::bernoulli::Bernoulli;
use tcrowd_stat::bivariate::BivariateNormal;
use tcrowd_stat::describe::pearson;
use tcrowd_stat::normal::Normal;
use tcrowd_stat::{clamp_prob, EPS};
use tcrowd_tabular::{AnswerLog, AnswerMatrix, Schema, Value};

/// One observed error of a worker on an already-answered cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorObservation {
    /// Categorical column: `true` means the answer mismatched the estimate.
    Categorical(bool),
    /// Continuous column: the signed z-space residual.
    Continuous(f64),
}

/// A predicted error distribution on a target column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictedError {
    /// Categorical target: probability the worker answers *wrongly*.
    Categorical(f64),
    /// Continuous target: mean and variance of the `|W_jk|`-weighted mixture
    /// of Gaussian error components, one per conditioning column. The
    /// structure-aware gain uses the variance as the predicted observation
    /// variance.
    Continuous {
        /// Mixture mean: the predicted bias of the answer.
        mean: f64,
        /// Mixture variance (at least [`EPS`]).
        var: f64,
    },
}

/// Running weighted moments `Σw`, `Σw·µ` and `Σw·(σ² + µ²)` of the Gaussian
/// components Eq. 7 mixes for a continuous target.
#[derive(Debug, Default)]
struct MixtureMoments {
    weight: f64,
    first: f64,
    second: f64,
}

impl MixtureMoments {
    fn add(&mut self, weight: f64, n: Normal) {
        self.weight += weight;
        self.first += weight * n.mean;
        self.second += weight * (n.var + n.mean * n.mean);
    }

    /// Mean and variance of the mixture; `None` when nothing was added.
    fn moments(&self) -> Option<(f64, f64)> {
        if self.weight <= 0.0 {
            return None;
        }
        let mean = self.first / self.weight;
        Some((mean, (self.second / self.weight - mean * mean).max(EPS)))
    }
}

/// Conditional model for an ordered column pair `(j, k)`: `P(e_j | e_k)`.
#[derive(Debug, Clone)]
enum Conditional {
    /// Both categorical: `P(e_j = wrong | e_k = correct/wrong)`.
    CatCat { p_wrong_given_correct: f64, p_wrong_given_wrong: f64 },
    /// Both continuous: joint bivariate Gaussian over `(e_j, e_k)`.
    ContCont(BivariateNormal),
    /// `j` continuous, `k` categorical: one Gaussian per `e_k` outcome.
    ContGivenCat { given_correct: Normal, given_wrong: Normal },
    /// `j` categorical, `k` continuous: Bayes inversion through the
    /// class-conditional Gaussians of `e_k` and the marginal of `e_j`.
    CatGivenCont { ek_given_correct: Normal, ek_given_wrong: Normal, p_wrong: f64 },
    /// Not enough co-observations to fit anything.
    Unavailable,
}

/// The fitted correlation model over all ordered column pairs.
#[derive(Debug, Clone)]
pub struct CorrelationModel {
    n_cols: usize,
    /// `W_jk` (Eq. 8), row-major `j * n_cols + k`.
    w: Vec<f64>,
    /// `P(e_j | e_k)`, row-major `j * n_cols + k`.
    cond: Vec<Conditional>,
    /// Number of co-observed pairs behind each fit (diagnostics).
    support: Vec<usize>,
}

/// Minimum number of co-observed error pairs before a conditional is trusted.
const MIN_SUPPORT: usize = 8;

/// Error of one answer against the current estimates, in the convention used
/// throughout §5.2.
pub fn observe_error(
    result: &InferenceResult,
    answer: &tcrowd_tabular::Answer,
) -> ErrorObservation {
    match answer.value {
        Value::Categorical(l) => {
            let est = result.truth_z(answer.cell).estimate().expect_categorical();
            ErrorObservation::Categorical(l != est)
        }
        Value::Continuous(x) => {
            let (m, s) = result.scaler(answer.cell.col as usize).expect("continuous column scaler");
            let z = (x - m) / s;
            let mu = match result.truth_z(answer.cell) {
                TruthDist::Continuous(n) => n.mean,
                TruthDist::Categorical(_) => unreachable!("type mismatch"),
            };
            ErrorObservation::Continuous(z - mu)
        }
    }
}

impl CorrelationModel {
    /// Fit the model from the full answer history and the current inference
    /// result (Tables 4–5 by MLE; Eq. 8 for `W`). Freezes the log into an
    /// [`AnswerMatrix`] first; callers that already hold one should use
    /// [`Self::fit_matrix`].
    pub fn fit(schema: &Schema, answers: &AnswerLog, result: &InferenceResult) -> Self {
        Self::fit_matrix(schema, &AnswerMatrix::build(answers), result)
    }

    /// Fit from a frozen columnar answer set: the by-(worker, row) CSR view
    /// yields each `L^u_i` group as one contiguous run, workers ascending —
    /// the pair collection is allocation-free and deterministic.
    pub fn fit_matrix(schema: &Schema, matrix: &AnswerMatrix, result: &InferenceResult) -> Self {
        let m = schema.num_columns();
        // Collect per-(worker,row) error tuples: col -> observation.
        let mut pairs: Vec<Vec<Vec<(ErrorObservation, ErrorObservation)>>> =
            vec![vec![Vec::new(); m]; m];
        let mut group: Vec<(usize, ErrorObservation)> = Vec::new();
        for w in 0..matrix.num_workers() {
            // The worker's answers are grouped by ascending row; split runs.
            let idx = matrix.worker_answer_indices(w);
            let mut start = 0;
            while start < idx.len() {
                let row = matrix.answer_rows()[idx[start] as usize];
                let mut end = start + 1;
                while end < idx.len() && matrix.answer_rows()[idx[end] as usize] == row {
                    end += 1;
                }
                group.clear();
                for &k in &idx[start..end] {
                    let a = matrix.to_answer(k as usize);
                    group.push((a.cell.col as usize, observe_error(result, &a)));
                }
                for &(j, ej) in &group {
                    for &(k, ek) in &group {
                        if j != k {
                            pairs[j][k].push((ej, ek));
                        }
                    }
                }
                start = end;
            }
        }

        let mut w = vec![0.0; m * m];
        let mut cond = Vec::with_capacity(m * m);
        let mut support = vec![0usize; m * m];
        for j in 0..m {
            for k in 0..m {
                let idx = j * m + k;
                if j == k {
                    cond.push(Conditional::Unavailable);
                    continue;
                }
                let p = &pairs[j][k];
                support[idx] = p.len();
                // Eq. 8: Pearson on the numeric encodings of the error pair.
                let ej: Vec<f64> = p.iter().map(|(a, _)| error_as_f64(a)).collect();
                let ek: Vec<f64> = p.iter().map(|(_, b)| error_as_f64(b)).collect();
                w[idx] = pearson(&ej, &ek);
                cond.push(fit_conditional(schema, j, k, p));
            }
        }
        CorrelationModel { n_cols: m, w, cond, support }
    }

    /// The correlation coefficient `W_jk`.
    pub fn wjk(&self, j: usize, k: usize) -> f64 {
        self.w[j * self.n_cols + k]
    }

    /// Number of co-observed error pairs behind the `(j, k)` fit.
    pub fn support(&self, j: usize, k: usize) -> usize {
        self.support[j * self.n_cols + k]
    }

    /// Eq. 7: predicted error distribution on column `j` given the worker's
    /// observed errors on other columns of the same row.
    ///
    /// Mixture weights are `|W_jk|` — the magnitude measures how much column
    /// `k` tells us about column `j`, while the direction of the relationship
    /// lives inside the conditional itself. A continuous prediction is
    /// summarised by the mixture's moments, accumulated as the observations
    /// are read, so a call allocates nothing. Returns `None` when no usable
    /// conditional exists (the caller falls back to the inherent gain).
    pub fn conditional_error(
        &self,
        j: usize,
        observed: &[(usize, ErrorObservation)],
    ) -> Option<PredictedError> {
        let mut cat_num = 0.0;
        let mut cat_den = 0.0;
        let mut mix = MixtureMoments::default();
        for &(k, ref ek) in observed {
            if k == j || k >= self.n_cols {
                continue;
            }
            let idx = j * self.n_cols + k;
            if self.support[idx] < MIN_SUPPORT {
                continue;
            }
            let weight = self.w[idx].abs();
            if weight < 1e-4 {
                continue;
            }
            match (&self.cond[idx], ek) {
                (
                    Conditional::CatCat { p_wrong_given_correct, p_wrong_given_wrong },
                    ErrorObservation::Categorical(wrong),
                ) => {
                    let p = if *wrong { *p_wrong_given_wrong } else { *p_wrong_given_correct };
                    cat_num += weight * p;
                    cat_den += weight;
                }
                (
                    Conditional::CatGivenCont { ek_given_correct, ek_given_wrong, p_wrong },
                    ErrorObservation::Continuous(x),
                ) => {
                    // Bayes: P(e_j = wrong | e_k = x).
                    let num = ek_given_wrong.pdf(*x) * p_wrong;
                    let den = num + ek_given_correct.pdf(*x) * (1.0 - p_wrong);
                    if den > EPS {
                        cat_num += weight * (num / den);
                        cat_den += weight;
                    }
                }
                (Conditional::ContCont(b), ErrorObservation::Continuous(x)) => {
                    mix.add(weight, b.conditional1_given2(*x));
                }
                (
                    Conditional::ContGivenCat { given_correct, given_wrong },
                    ErrorObservation::Categorical(wrong),
                ) => {
                    mix.add(weight, if *wrong { *given_wrong } else { *given_correct });
                }
                _ => {} // unavailable or datatype mismatch: skip
            }
        }
        if cat_den > 0.0 {
            Some(PredictedError::Categorical(clamp_prob(cat_num / cat_den)))
        } else {
            mix.moments().map(|(mean, var)| PredictedError::Continuous { mean, var })
        }
    }
}

fn error_as_f64(e: &ErrorObservation) -> f64 {
    match e {
        ErrorObservation::Categorical(wrong) => *wrong as i32 as f64,
        ErrorObservation::Continuous(x) => *x,
    }
}

fn fit_conditional(
    schema: &Schema,
    j: usize,
    k: usize,
    pairs: &[(ErrorObservation, ErrorObservation)],
) -> Conditional {
    if pairs.len() < MIN_SUPPORT {
        return Conditional::Unavailable;
    }
    let j_cat = schema.column_type(j).is_categorical();
    let k_cat = schema.column_type(k).is_categorical();
    match (j_cat, k_cat) {
        (true, true) => {
            // Case (a): two Bernoulli parameters, split by e_k.
            let given = |wrong_k: bool| {
                Bernoulli::mle_smoothed(pairs.iter().filter_map(|(ej, ek)| match (ej, ek) {
                    (ErrorObservation::Categorical(wj), ErrorObservation::Categorical(wk))
                        if *wk == wrong_k =>
                    {
                        Some(*wj)
                    }
                    _ => None,
                }))
                .p
            };
            Conditional::CatCat {
                p_wrong_given_correct: given(false),
                p_wrong_given_wrong: given(true),
            }
        }
        (false, false) => {
            // Case (b): bivariate Gaussian MLE.
            let xy: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(ej, ek)| match (ej, ek) {
                    (ErrorObservation::Continuous(a), ErrorObservation::Continuous(b)) => {
                        Some((*a, *b))
                    }
                    _ => None,
                })
                .collect();
            Conditional::ContCont(BivariateNormal::mle(&xy))
        }
        (false, true) => {
            // Case (c): Gaussian of e_j per e_k outcome.
            let split = |wrong_k: bool| {
                let vals: Vec<f64> = pairs
                    .iter()
                    .filter_map(|(ej, ek)| match (ej, ek) {
                        (ErrorObservation::Continuous(a), ErrorObservation::Categorical(wk))
                            if *wk == wrong_k =>
                        {
                            Some(*a)
                        }
                        _ => None,
                    })
                    .collect();
                Normal::mle(&vals)
            };
            Conditional::ContGivenCat { given_correct: split(false), given_wrong: split(true) }
        }
        (true, false) => {
            // Case (d): class-conditional Gaussians of e_k plus the marginal
            // of e_j, inverted with Bayes at query time.
            let split = |wrong_j: bool| {
                let vals: Vec<f64> = pairs
                    .iter()
                    .filter_map(|(ej, ek)| match (ej, ek) {
                        (ErrorObservation::Categorical(wj), ErrorObservation::Continuous(b))
                            if *wj == wrong_j =>
                        {
                            Some(*b)
                        }
                        _ => None,
                    })
                    .collect();
                Normal::mle(&vals)
            };
            let p_wrong = Bernoulli::mle_smoothed(pairs.iter().filter_map(|(ej, _)| match ej {
                ErrorObservation::Categorical(w) => Some(*w),
                _ => None,
            }))
            .p;
            Conditional::CatGivenCont {
                ek_given_correct: split(false),
                ek_given_wrong: split(true),
                p_wrong,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::TCrowd;
    use tcrowd_tabular::real_sim;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig, RowFamiliarity};

    fn correlated_dataset(seed: u64) -> tcrowd_tabular::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 150,
                columns: 4,
                categorical_ratio: 0.5,
                num_workers: 30,
                answers_per_task: 4,
                row_familiarity: Some(RowFamiliarity {
                    p_unfamiliar: 0.35,
                    difficulty_factor: 50.0,
                }),
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn wjk_is_symmetric_in_magnitude_and_bounded() {
        let d = correlated_dataset(1);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let c = CorrelationModel::fit(&d.schema, &d.answers, &r);
        for j in 0..4 {
            for k in 0..4 {
                let w = c.wjk(j, k);
                assert!((-1.0..=1.0).contains(&w), "W[{j}][{k}] = {w}");
                if j != k {
                    assert!((c.wjk(j, k) - c.wjk(k, j)).abs() < 1e-9, "Pearson is symmetric");
                }
            }
        }
    }

    #[test]
    fn familiarity_effect_shows_up_as_positive_correlation() {
        let d = correlated_dataset(6);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let c = CorrelationModel::fit(&d.schema, &d.answers, &r);
        // Average off-diagonal W should be positive.
        let mut total = 0.0;
        let mut n = 0.0;
        for j in 0..4 {
            for k in 0..4 {
                if j != k {
                    total += c.wjk(j, k);
                    n += 1.0;
                }
            }
        }
        assert!(total / n > 0.05, "mean off-diagonal W = {}", total / n);
    }

    #[test]
    fn restaurant_start_end_conditional_tracks_observed_error() {
        // §6.4.3's headline: a large observed error on StartTarget should
        // shift the predicted EndTarget error mean upward.
        let d = real_sim::restaurant(3);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let c = CorrelationModel::fit(&d.schema, &d.answers, &r);
        let (start, end) = (3usize, 4usize);
        assert!(c.support(end, start) >= MIN_SUPPORT);
        let mean_after =
            |e: f64| match c.conditional_error(end, &[(start, ErrorObservation::Continuous(e))]) {
                Some(PredictedError::Continuous { mean, .. }) => mean,
                other => panic!("expected a continuous prediction, got {other:?}"),
            };
        let (m_small, m_large) = (mean_after(0.0), mean_after(2.0));
        assert!(
            m_large > m_small,
            "conditional mean should track the observed error: {m_small} vs {m_large}"
        );
    }

    #[test]
    fn categorical_prediction_worsens_after_observed_mistake() {
        let d = correlated_dataset(4);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let c = CorrelationModel::fit(&d.schema, &d.answers, &r);
        let cats = d.schema.categorical_columns();
        let (j, k) = (cats[0], cats[1]);
        if c.support(j, k) < MIN_SUPPORT {
            return; // not enough pairs in this draw; other tests cover the path
        }
        let after_ok = c.conditional_error(j, &[(k, ErrorObservation::Categorical(false))]);
        let after_err = c.conditional_error(j, &[(k, ErrorObservation::Categorical(true))]);
        if let (Some(PredictedError::Categorical(p_ok)), Some(PredictedError::Categorical(p_err))) =
            (after_ok, after_err)
        {
            assert!(
                p_err > p_ok,
                "P(wrong | prior mistake) = {p_err} must exceed P(wrong | prior correct) = {p_ok}"
            );
        } else {
            panic!("expected categorical predictions");
        }
    }

    #[test]
    fn no_observations_yields_none() {
        let d = correlated_dataset(5);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let c = CorrelationModel::fit(&d.schema, &d.answers, &r);
        assert_eq!(c.conditional_error(0, &[]), None);
        // Self-conditioning is ignored.
        assert_eq!(c.conditional_error(0, &[(0, ErrorObservation::Categorical(true))]), None);
    }

    #[test]
    fn mixture_moments_are_sane() {
        let mut mix = MixtureMoments::default();
        assert_eq!(mix.moments(), None);
        // Unnormalised weights: only their ratio matters.
        mix.add(0.3, Normal::new(1.0, 1.0));
        mix.add(0.3, Normal::new(-1.0, 1.0));
        let (mean, var) = mix.moments().unwrap();
        assert!(mean.abs() < 1e-12);
        // Var = E[var] + Var[means] = 1 + 1 = 2.
        assert!((var - 2.0).abs() < 1e-12);
    }
}
