//! Model diagnostics: goodness-of-fit and calibration summaries.
//!
//! A production deployment needs to know *whether the model's assumptions
//! hold on this crowd* before trusting its estimates — the paper validates
//! them manually in §6.4; this module turns those case studies into
//! reusable checks:
//!
//! * [`quality_consistency`] — Fig. 3 as a statistic: how correlated is a
//!   worker's error level across attributes (near 0 ⇒ the unified-quality
//!   assumption is doing little; clearly positive ⇒ it transfers evidence).
//! * [`calibration`] — Fig. 4 as a statistic: regression of observed answer
//!   agreement against the model's predicted quality.
//! * [`residual_report`] — per-column standardised residuals of continuous
//!   answers; heavy tails point at answer distributions the Gaussian model
//!   under-fits.

use crate::inference::InferenceResult;
use crate::truth::TruthDist;
use std::collections::BTreeMap;
use tcrowd_stat::describe::{mean, pearson, std_dev};
use tcrowd_stat::linreg::{self, LinearFit};
use tcrowd_tabular::{AnswerLog, Schema, Value, WorkerId};

/// Minimum answers a worker needs before they enter a diagnostic.
const MIN_ANSWERS: usize = 8;

/// Largest z-space discrepancy between two fits of the same table:
/// posterior-mean gap for continuous cells, probability gap for categorical
/// cells. This is the metric behind the warm-vs-cold 1e-6 agreement
/// contract (`bench_refresh` and the sim regression suite both gate on it);
/// z-score units make it a fraction of a column spread in the original
/// scale, commensurate across datatypes. Panics if the fits disagree on
/// shape or cell datatypes (they cannot be fits of the same table).
pub fn max_z_discrepancy(a: &InferenceResult, b: &InferenceResult) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "fits of different table shapes");
    let mut max_z = 0.0f64;
    for i in 0..a.rows() as u32 {
        for j in 0..a.cols() as u32 {
            let cell = tcrowd_tabular::CellId::new(i, j);
            match (a.truth_z(cell), b.truth_z(cell)) {
                (TruthDist::Categorical(p), TruthDist::Categorical(q)) => {
                    for (x, y) in p.iter().zip(q) {
                        max_z = max_z.max((x - y).abs());
                    }
                }
                (TruthDist::Continuous(x), TruthDist::Continuous(y)) => {
                    max_z = max_z.max((x.mean - y.mean).abs());
                }
                _ => panic!("datatype mismatch between fits"),
            }
        }
    }
    max_z
}

/// Cross-attribute consistency of worker quality (Fig. 3 as a number).
///
/// For each worker with enough answers, computes the mean 0/1 error against
/// the *estimated* truths separately on two halves of the columns (even and
/// odd indices — an arbitrary split that any systematic per-worker quality
/// survives), then returns the Pearson correlation of the two halves across
/// workers. `None` when fewer than three workers qualify.
pub fn quality_consistency(
    schema: &Schema,
    answers: &AnswerLog,
    result: &InferenceResult,
) -> Option<f64> {
    // (errors, count) per column half, summed per worker in log order.
    let mut halves: BTreeMap<WorkerId, [(f64, f64); 2]> = BTreeMap::new();
    for a in answers.all() {
        let half = &mut halves.entry(a.worker).or_default()[(a.cell.col % 2) as usize];
        half.0 += answer_error(result, a);
        half.1 += 1.0;
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for half in halves.values() {
        if half[0].1 >= (MIN_ANSWERS / 2) as f64 && half[1].1 >= (MIN_ANSWERS / 2) as f64 {
            xs.push(half[0].0 / half[0].1);
            ys.push(half[1].0 / half[1].1);
        }
    }
    let _ = schema;
    (xs.len() >= 3).then(|| pearson(&xs, &ys))
}

/// Normalised error of one answer against the current estimates: 0/1
/// mismatch for categorical answers, squared z-residual for continuous.
fn answer_error(result: &InferenceResult, a: &tcrowd_tabular::Answer) -> f64 {
    match a.value {
        Value::Categorical(l) => {
            (result.truth_z(a.cell).estimate().expect_categorical() != l) as i32 as f64
        }
        Value::Continuous(x) => {
            let (m, s) = result.scaler(a.cell.col as usize).expect("scaler");
            let z = (x - m) / s;
            let mu = match result.truth_z(a.cell) {
                TruthDist::Continuous(n) => n.mean,
                TruthDist::Categorical(_) => unreachable!(),
            };
            (z - mu) * (z - mu)
        }
    }
}

/// Calibration of the fitted worker qualities (Fig. 4 as a fit).
///
/// Regresses each worker's *observed* categorical agreement rate (vs the
/// estimated truths) on the model's predicted quality `q_u`. A well-calibrated
/// model gives slope ≈ 1 and high `r`. `None` without enough workers or
/// categorical data.
pub fn calibration(
    schema: &Schema,
    answers: &AnswerLog,
    result: &InferenceResult,
) -> Option<LinearFit> {
    let cats = schema.categorical_columns();
    if cats.is_empty() {
        return None;
    }
    // (agreeing, total) categorical answers per worker.
    let mut tallies: BTreeMap<WorkerId, (usize, usize)> = BTreeMap::new();
    for a in answers.all().iter().filter(|a| cats.contains(&(a.cell.col as usize))) {
        let tally = tallies.entry(a.worker).or_default();
        tally.0 += (result.truth_z(a.cell).estimate().expect_categorical()
            == a.value.expect_categorical()) as usize;
        tally.1 += 1;
    }
    let mut predicted = Vec::new();
    let mut observed = Vec::new();
    for (&w, &(agreeing, total)) in &tallies {
        if total < MIN_ANSWERS {
            continue;
        }
        let agree = agreeing as f64 / total as f64;
        let q = result.quality_of(w)?;
        predicted.push(q);
        observed.push(agree);
    }
    (predicted.len() >= 3).then(|| linreg::fit(&predicted, &observed))
}

/// Standardised-residual summary of one continuous column.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSummary {
    /// Column index.
    pub column: usize,
    /// Mean standardised residual (≈ 0 when unbiased).
    pub mean: f64,
    /// Std of standardised residuals (≈ 1 when the variance model fits).
    pub std: f64,
    /// Fraction of |residual| > 3 (≈ 0.003 under Gaussian errors; a large
    /// value flags heavy tails the model under-fits).
    pub outlier_fraction: f64,
}

/// Per-column residual report for the continuous columns.
///
/// Residuals are `(a − T^µ) / √(α_i β_j φ_u)` in z-space — standardised by
/// the model's *own* predicted answer noise, so departures from `N(0,1)`
/// localise which assumption is strained.
pub fn residual_report(
    schema: &Schema,
    answers: &AnswerLog,
    result: &InferenceResult,
) -> Vec<ResidualSummary> {
    let mut out = Vec::new();
    for j in schema.continuous_columns() {
        let mut residuals = Vec::new();
        for a in answers.all().iter().filter(|a| a.cell.col as usize == j) {
            let (m, s) = result.scaler(j).expect("scaler");
            let z = (a.value.expect_continuous() - m) / s;
            let mu = match result.truth_z(a.cell) {
                TruthDist::Continuous(n) => n.mean,
                TruthDist::Categorical(_) => unreachable!(),
            };
            let v = result.effective_variance(a.worker, a.cell);
            residuals.push((z - mu) / v.sqrt());
        }
        if residuals.is_empty() {
            continue;
        }
        let outliers =
            residuals.iter().filter(|r| r.abs() > 3.0).count() as f64 / residuals.len() as f64;
        out.push(ResidualSummary {
            column: j,
            mean: mean(&residuals),
            std: std_dev(&residuals),
            outlier_fraction: outliers,
        });
    }
    out
}

/// Convenience: which worker looks most suspicious (highest fitted `φ`)?
pub fn worst_workers(result: &InferenceResult, k: usize) -> Vec<(WorkerId, f64)> {
    let mut pairs: Vec<(WorkerId, f64)> =
        result.workers.iter().copied().zip(result.phi.iter().copied()).collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN phi").then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

/// One row of the entity-familiarity report: a (worker, group) pair whose
/// fitted variance multiplier deviates most from 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamiliarityFinding {
    /// The worker.
    pub worker: WorkerId,
    /// The entity group (index into the grouping used at fit time).
    pub group: usize,
    /// Fitted variance multiplier `λ_{u,g}` (> 1 = unfamiliar, < 1 = expert).
    pub lambda: f64,
}

/// The strongest entity-familiarity effects in a fitted [`EntityModel`]
/// (§7 extension): the `k` (worker, group) pairs with the largest
/// `|ln λ|`, most-deviant first. Requesters use this to see *which* workers
/// are blind to *which* slice of the table — e.g. to route those rows away
/// from them manually.
///
/// [`EntityModel`]: crate::entity::EntityModel
pub fn familiarity_findings(
    model: &crate::entity::EntityModel,
    k: usize,
) -> Vec<FamiliarityFinding> {
    let mut findings: Vec<FamiliarityFinding> = model
        .multipliers()
        .map(|((worker, group), lambda)| FamiliarityFinding { worker, group, lambda })
        .collect();
    findings.sort_by(|a, b| {
        b.lambda
            .ln()
            .abs()
            .partial_cmp(&a.lambda.ln().abs())
            .expect("NaN lambda")
            .then(a.worker.cmp(&b.worker))
            .then(a.group.cmp(&b.group))
    });
    findings.truncate(k);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::TCrowd;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerQualityConfig};

    fn world(seed: u64) -> (tcrowd_tabular::Dataset, InferenceResult) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 60,
                columns: 6,
                num_workers: 20,
                answers_per_task: 5,
                quality: WorkerQualityConfig {
                    median_phi: 0.2,
                    sigma_ln_phi: 1.0,
                    spammer_fraction: 0.15,
                    spammer_factor: 30.0,
                },
                ..Default::default()
            },
            seed,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        (d, r)
    }

    #[test]
    fn consistency_is_positive_on_model_generated_data() {
        let (d, r) = world(1);
        let c = quality_consistency(&d.schema, &d.answers, &r).expect("enough workers");
        assert!(c > 0.3, "consistency = {c}");
    }

    #[test]
    fn calibration_slope_and_r_are_sane() {
        let (d, r) = world(2);
        let fit = calibration(&d.schema, &d.answers, &r).expect("enough workers");
        assert!(fit.r > 0.6, "r = {}", fit.r);
        assert!(fit.slope > 0.3, "slope = {}", fit.slope);
    }

    #[test]
    fn residuals_look_standard_normal_under_the_model() {
        let (d, r) = world(3);
        let report = residual_report(&d.schema, &d.answers, &r);
        assert_eq!(report.len(), d.schema.continuous_columns().len());
        for s in &report {
            assert!(s.mean.abs() < 0.2, "column {} biased: {}", s.column, s.mean);
            assert!(
                (0.5..1.6).contains(&s.std),
                "column {} residual std {} far from 1",
                s.column,
                s.std
            );
            assert!(s.outlier_fraction < 0.05, "column {} heavy tails", s.column);
        }
    }

    #[test]
    fn worst_workers_are_actual_spammers() {
        let (d, r) = world(4);
        let worst = worst_workers(&r, 3);
        assert_eq!(worst.len(), 3);
        // The top-φ workers should be drawn from the upper half of the true
        // φ distribution.
        let mut true_phis: Vec<f64> = d.worker_truth.values().map(|p| p.phi).collect();
        true_phis.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = true_phis[true_phis.len() / 2];
        for (w, _) in &worst {
            assert!(
                d.worker_truth[w].phi >= median,
                "flagged worker {w} is actually better than median"
            );
        }
        // Ordered descending.
        assert!(worst[0].1 >= worst[1].1 && worst[1].1 >= worst[2].1);
    }

    #[test]
    fn calibration_none_without_categorical_columns() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 10,
                columns: 2,
                categorical_ratio: 0.0,
                num_workers: 6,
                answers_per_task: 3,
                ..Default::default()
            },
            5,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert!(calibration(&d.schema, &d.answers, &r).is_none());
        // But residuals exist for every continuous column.
        assert_eq!(residual_report(&d.schema, &d.answers, &r).len(), 2);
    }

    #[test]
    fn familiarity_findings_rank_by_deviation() {
        use crate::entity::{EntityModel, EntityModelOptions, RowGrouping};
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 40,
                columns: 5,
                num_workers: 15,
                answers_per_task: 4,
                entity_groups: Some(tcrowd_tabular::generator::EntityGroups {
                    groups: 2,
                    p_unfamiliar: 0.4,
                    difficulty_factor: 40.0,
                }),
                ..Default::default()
            },
            21,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let groups: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let m = EntityModel::fit(
            &d.schema,
            &d.answers,
            &r,
            &RowGrouping::Known(groups),
            &EntityModelOptions::default(),
        );
        let findings = familiarity_findings(&m, 5);
        assert!(findings.len() <= 5);
        assert!(!findings.is_empty(), "a strong group effect must surface findings");
        for w in findings.windows(2) {
            assert!(
                w[0].lambda.ln().abs() >= w[1].lambda.ln().abs(),
                "findings must be sorted by |ln λ| descending"
            );
        }
        // Asking for more than exist returns all, no panic.
        let all = familiarity_findings(&m, usize::MAX);
        assert_eq!(all.len(), m.fitted_pairs());
    }
}
