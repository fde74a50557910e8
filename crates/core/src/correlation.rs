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

use crate::inference::InferenceResult;
use crate::truth::TruthDist;
use tcrowd_stat::bernoulli::Bernoulli;
use tcrowd_stat::bivariate::{BivariateNormal, PairSums};
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

    /// Fit from a frozen columnar answer set in one pass over its
    /// by-(worker, row) runs — each run is one `L^u_i` group. Every pair of
    /// errors in a run is added to the moment sums of its column pair, and
    /// `support`, `W` and the four conditional cases are read off those sums:
    /// memory is one accumulator per column pair, whatever the answer count.
    pub fn fit_matrix(schema: &Schema, matrix: &AnswerMatrix, result: &InferenceResult) -> Self {
        let m = schema.num_columns();
        // `sums[j * m + k]` for `j < k` holds the pairs `(e_j, e_k)`; the
        // `(k, j)` view is its transpose.
        let mut sums = vec![OutcomeSums::default(); m * m];
        let rows = matrix.answer_rows();
        let mut group: Vec<(usize, bool, f64)> = Vec::new();
        for w in 0..matrix.num_workers() {
            let idx = matrix.worker_answer_indices(w);
            for run in idx.chunk_by(|&a, &b| rows[a as usize] == rows[b as usize]) {
                group.clear();
                group.extend(run.iter().map(|&i| {
                    let a = matrix.to_answer(i as usize);
                    let (wrong, e) = match observe_error(result, &a) {
                        ErrorObservation::Categorical(wrong) => (wrong, f64::from(u8::from(wrong))),
                        ErrorObservation::Continuous(e) => (false, e),
                    };
                    (a.cell.col as usize, wrong, e)
                }));
                // A run lists its answers in cell order, so columns ascend;
                // two answers on one cell form no pair.
                for (s, &(j, wj, ej)) in group.iter().enumerate() {
                    for &(k, wk, ek) in group[s + 1..].iter().filter(|&&(k, ..)| k != j) {
                        debug_assert!(j < k, "a (worker, row) run is in cell order");
                        sums[j * m + k][wj as usize][wk as usize].add(ej, ek);
                    }
                }
            }
        }

        let mut w = vec![0.0; m * m];
        let mut cond = vec![Conditional::Unavailable; m * m];
        let mut support = vec![0usize; m * m];
        for j in 0..m {
            for k in j + 1..m {
                let g = sums[j * m + k];
                // The `(k, j)` view swaps the outcome axes and each pair.
                let t =
                    [[g[0][0], g[1][0]], [g[0][1], g[1][1]]].map(|r| r.map(PairSums::transpose));
                let total = total(&g);
                for (a, b, view) in [(j, k, g), (k, j, t)] {
                    support[a * m + b] = total.n as usize;
                    // Eq. 8: Pearson on the numeric encodings of the error pair.
                    w[a * m + b] = total.pearson();
                    cond[a * m + b] = fit_conditional(schema, a, b, &view);
                }
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

/// Moment sums of the pairs `(e_j, e_k)` of one column pair, split by each
/// side's outcome as `[wrong_j][wrong_k]` (a continuous error is never
/// "wrong", so it always lands in index 0).
type OutcomeSums = [[PairSums; 2]; 2];

fn total(g: &OutcomeSums) -> PairSums {
    g[0][0] + g[0][1] + g[1][0] + g[1][1]
}

/// Table 5's four datatype cases by maximum likelihood, from the sums of
/// `(e_j, e_k)`.
fn fit_conditional(schema: &Schema, j: usize, k: usize, g: &OutcomeSums) -> Conditional {
    let total = total(g);
    if total.n < MIN_SUPPORT as f64 {
        return Conditional::Unavailable;
    }
    match (schema.column_type(j).is_categorical(), schema.column_type(k).is_categorical()) {
        // Case (a): two Bernoulli parameters, split by e_k.
        (true, true) => Conditional::CatCat {
            p_wrong_given_correct: Bernoulli::mle_smoothed(g[1][0].n, g[0][0].n + g[1][0].n).p,
            p_wrong_given_wrong: Bernoulli::mle_smoothed(g[1][1].n, g[0][1].n + g[1][1].n).p,
        },
        // Case (b): bivariate Gaussian MLE.
        (false, false) => Conditional::ContCont(BivariateNormal::mle(&total)),
        // Case (c): Gaussian of e_j per e_k outcome.
        (false, true) => Conditional::ContGivenCat {
            given_correct: Normal::mle(g[0][0].n, g[0][0].x, g[0][0].xx),
            given_wrong: Normal::mle(g[0][1].n, g[0][1].x, g[0][1].xx),
        },
        // Case (d): class-conditional Gaussians of e_k plus the marginal of
        // e_j, inverted with Bayes at query time.
        (true, false) => Conditional::CatGivenCont {
            ek_given_correct: Normal::mle(g[0][0].n, g[0][0].y, g[0][0].yy),
            ek_given_wrong: Normal::mle(g[1][0].n, g[1][0].y, g[1][0].yy),
            p_wrong: Bernoulli::mle_smoothed(g[1][0].n, total.n).p,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::TCrowd;
    use tcrowd_stat::describe::{covariance, mean, pearson, variance};
    use tcrowd_tabular::real_sim;
    use tcrowd_tabular::{generate_dataset, Answer, Dataset, GeneratorConfig, RowFamiliarity};
    use ErrorObservation::{Categorical, Continuous};

    fn generated(
        rows: usize,
        categorical_ratio: f64,
        answers_per_task: usize,
        seed: u64,
    ) -> Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows,
                columns: 4,
                categorical_ratio,
                num_workers: 30,
                answers_per_task,
                row_familiarity: Some(RowFamiliarity {
                    p_unfamiliar: 0.35,
                    difficulty_factor: 50.0,
                }),
                ..Default::default()
            },
            seed,
        )
    }

    fn correlated_dataset(seed: u64) -> Dataset {
        generated(150, 0.5, 4, seed)
    }

    /// Every (worker, row) group `L^u_i` of observed errors, read through the
    /// freeze's point view rather than by splitting runs.
    fn error_groups(
        matrix: &AnswerMatrix,
        r: &InferenceResult,
    ) -> Vec<Vec<(usize, ErrorObservation)>> {
        let mut groups = Vec::new();
        for w in 0..matrix.num_workers() {
            for row in 0..matrix.rows() as u32 {
                let group: Vec<_> = matrix
                    .worker_row_answer_indices(w, row)
                    .iter()
                    .map(|&i| {
                        let a = matrix.to_answer(i as usize);
                        (a.cell.col as usize, observe_error(r, &a))
                    })
                    .collect();
                if !group.is_empty() {
                    groups.push(group);
                }
            }
        }
        groups
    }

    /// The model the slow way: every co-observed pair copied into a list per
    /// ordered column pair, and each estimate a two-pass moment over a
    /// filtered copy of that list.
    fn two_pass_oracle(
        schema: &Schema,
        matrix: &AnswerMatrix,
        r: &InferenceResult,
    ) -> CorrelationModel {
        let m = schema.num_columns();
        let mut pairs = vec![vec![Vec::new(); m]; m];
        for group in error_groups(matrix, r) {
            for &(j, ej) in &group {
                for &(k, ek) in &group {
                    if j != k {
                        pairs[j][k].push((ej, ek));
                    }
                }
            }
        }
        let num = |e: &ErrorObservation| match *e {
            Categorical(wrong) => f64::from(u8::from(wrong)),
            Continuous(x) => x,
        };
        let wrong = |e: &ErrorObservation| matches!(e, Categorical(true));
        let normal = |v: Vec<f64>| match v.len() {
            0 => Normal::new(0.0, 1.0),
            _ => Normal::new(mean(&v), variance(&v).max(EPS)),
        };
        let smoothed =
            |v: Vec<bool>| (v.iter().filter(|&&x| x).count() as f64 + 1.0) / (v.len() as f64 + 2.0);
        let mut model = CorrelationModel {
            n_cols: m,
            w: vec![0.0; m * m],
            cond: vec![Conditional::Unavailable; m * m],
            support: vec![0; m * m],
        };
        for (j, row) in pairs.iter().enumerate() {
            for (k, p) in row.iter().enumerate().filter(|&(k, _)| k != j) {
                let (x, y): (Vec<f64>, Vec<f64>) = p.iter().map(|(a, b)| (num(a), num(b))).unzip();
                model.support[j * m + k] = p.len();
                model.w[j * m + k] = pearson(&x, &y);
                if p.len() < MIN_SUPPORT {
                    continue;
                }
                let j_given = |wk: bool| p.iter().filter(move |(_, b)| wrong(b) == wk);
                let k_given = |wj: bool| p.iter().filter(move |(a, _)| wrong(a) == wj);
                model.cond[j * m + k] = match (
                    schema.column_type(j).is_categorical(),
                    schema.column_type(k).is_categorical(),
                ) {
                    (true, true) => Conditional::CatCat {
                        p_wrong_given_correct: smoothed(
                            j_given(false).map(|(a, _)| wrong(a)).collect(),
                        ),
                        p_wrong_given_wrong: smoothed(
                            j_given(true).map(|(a, _)| wrong(a)).collect(),
                        ),
                    },
                    (false, false) => {
                        let (vx, vy) = (variance(&x), variance(&y));
                        let rho = if vx <= EPS || vy <= EPS {
                            0.0
                        } else {
                            covariance(&x, &y) / (vx.sqrt() * vy.sqrt())
                        };
                        let (vx, vy) = (vx.max(EPS), vy.max(EPS));
                        Conditional::ContCont(BivariateNormal::new(mean(&x), mean(&y), vx, vy, rho))
                    }
                    (false, true) => Conditional::ContGivenCat {
                        given_correct: normal(j_given(false).map(|(a, _)| num(a)).collect()),
                        given_wrong: normal(j_given(true).map(|(a, _)| num(a)).collect()),
                    },
                    (true, false) => Conditional::CatGivenCont {
                        ek_given_correct: normal(k_given(false).map(|(_, b)| num(b)).collect()),
                        ek_given_wrong: normal(k_given(true).map(|(_, b)| num(b)).collect()),
                        p_wrong: smoothed(p.iter().map(|(a, _)| wrong(a)).collect()),
                    },
                };
            }
        }
        model
    }

    /// Fit `d` both ways and compare `support` exactly, `W` and every
    /// column's `conditional_error` (given each (worker, row) group) within
    /// 1e-12. Returns the fit.
    fn assert_matches_two_pass(d: &Dataset) -> CorrelationModel {
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let matrix = AnswerMatrix::build(&d.answers);
        let fast = CorrelationModel::fit_matrix(&d.schema, &matrix, &r);
        let oracle = two_pass_oracle(&d.schema, &matrix, &r);
        let m = d.schema.num_columns();
        let (mut w_gap, mut pred_gap) = (0.0f64, 0.0f64);
        for j in 0..m {
            for k in 0..m {
                assert_eq!(fast.support(j, k), oracle.support(j, k), "support[{j}][{k}]");
                w_gap = w_gap.max((fast.wjk(j, k) - oracle.wjk(j, k)).abs());
            }
        }
        for group in error_groups(&matrix, &r) {
            for j in 0..m {
                let (a, b) =
                    (fast.conditional_error(j, &group), oracle.conditional_error(j, &group));
                let gap = match (a, b) {
                    (None, None) => 0.0,
                    (
                        Some(PredictedError::Categorical(p)),
                        Some(PredictedError::Categorical(q)),
                    ) => (p - q).abs(),
                    (
                        Some(PredictedError::Continuous { mean: m1, var: v1 }),
                        Some(PredictedError::Continuous { mean: m2, var: v2 }),
                    ) => (m1 - m2).abs().max((v1 - v2).abs()),
                    _ => panic!("column {j} given {group:?}: {a:?} vs {b:?}"),
                };
                pred_gap = pred_gap.max(gap);
            }
        }
        assert!(w_gap < 1e-12, "{}: W differs by {w_gap:e}", d.schema.name);
        assert!(pred_gap < 1e-12, "{}: conditional_error differs by {pred_gap:e}", d.schema.name);
        fast
    }

    #[test]
    fn sums_fit_matches_the_two_pass_pair_lists() {
        let mut cases: Vec<Dataset> =
            [0.0, 0.5, 1.0].map(|ratio| generated(150, ratio, 4, 11)).into();
        cases.extend([real_sim::celebrity(2), real_sim::restaurant(2), real_sim::emotion(2)]);
        // The workers of the first 40 answers answer those cells again,
        // with other values.
        let mut dup = generated(60, 0.5, 3, 12);
        let again: Vec<Answer> = dup.answers.all()[..40]
            .iter()
            .map(|a| match a.value {
                Value::Categorical(l) => {
                    Answer { value: Value::Categorical(u32::from(l == 0)), ..*a }
                }
                Value::Continuous(x) => Answer { value: Value::Continuous(x + 0.5), ..*a },
            })
            .collect();
        for a in again {
            dup.answers.push(a);
        }
        cases.push(dup);
        // Sparse co-observation: column 3 is answered on three rows only, so
        // its pairs fall under MIN_SUPPORT while the others do not.
        let mut sparse = generated(40, 0.5, 2, 13);
        let mut log = AnswerLog::new(40, 4);
        for a in sparse.answers.all().iter().filter(|a| a.cell.col != 3 || a.cell.row < 3) {
            log.push(*a);
        }
        sparse.answers = log;
        let fit = assert_matches_two_pass(&sparse);
        assert!((1..MIN_SUPPORT).contains(&fit.support(0, 3)), "{}", fit.support(0, 3));
        assert!(fit.support(0, 1) >= MIN_SUPPORT);
        for d in &cases {
            assert_matches_two_pass(d);
        }
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
                assert_eq!(
                    w.to_bits(),
                    c.wjk(k, j).to_bits(),
                    "(j, k) and (k, j) share their sums"
                );
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
