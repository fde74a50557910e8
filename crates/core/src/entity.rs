//! Entity-correlation model and assignment policy (paper §7, last
//! future-work direction).
//!
//! §7: *"we will explore the possible improvement of our approach by
//! exploiting the possible correlations between entities (not only
//! attributes), e.g., a worker may be more familiar to celebrities starring
//! in a certain category of films or shows."*
//!
//! The attribute-correlation model of §5.2 conditions a worker's predicted
//! error on their errors *within the same row*. This module adds the row
//! dimension: rows (entities) belong to *groups* (film categories, cuisines,
//! …), and a worker's competence is allowed to vary by group. For each
//! (worker, group) pair we fit a **familiarity multiplier** `λ_{u,g}` on the
//! worker's answer variance — `λ < 1` means the worker is *better* than their
//! global quality inside this group, `λ > 1` worse — by maximising the
//! likelihood of the worker's answers on the group's rows under the fitted
//! T-Crowd model, with an inverse-gamma-style prior whose mode is 1 so that
//! sparse evidence shrinks to "no effect".
//!
//! Groups may be supplied by the requester ([`RowGrouping::Known`] — e.g. a
//! genre column that is part of the schema metadata) or *learned* from the
//! answer history ([`RowGrouping::Learned`]): rows are clustered on their
//! per-worker standardized-surprise profiles with missing-aware k-means.
//!
//! [`EntityAwarePolicy`] plugs `λ_{u,g}` into the information-gain machinery
//! of §5.1–5.2: the effective variance of a candidate answer becomes
//! `λ_{u,g(i)} · α_i β_j φ_u`, optionally combined with the attribute-level
//! conditioning of the structure-aware policy.

use crate::assign::{blend_structure, top_k_by_gain};
use crate::correlation::{observe_error, CorrelationModel, ErrorObservation};
use crate::gain::{gain_with_params, GainEstimator};
use crate::inference::InferenceResult;
use crate::model::{cat_answer_ln_likelihood, quality_from_variance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use tcrowd_stat::cluster::kmeans;
use tcrowd_stat::{clamp_prob, EPS};
use tcrowd_tabular::{AnswerLog, AnswerMatrix, CellId, Schema, Value, WorkerId};

/// How rows are partitioned into entity groups.
#[derive(Debug, Clone)]
pub enum RowGrouping {
    /// Group label per row, supplied by the requester (e.g. film genre).
    Known(Vec<usize>),
    /// Learn the partition from the answer history: cluster rows on their
    /// per-worker standardized-surprise profiles.
    Learned {
        /// Number of groups to learn.
        groups: usize,
        /// Clustering seed (k-means++ initialisation).
        seed: u64,
    },
}

/// Tuning knobs for [`EntityModel::fit`].
#[derive(Debug, Clone, Copy)]
pub struct EntityModelOptions {
    /// Prior pseudo-observations pulling each `λ_{u,g}` toward 1. Larger
    /// values demand more evidence before a familiarity effect is trusted.
    pub prior_strength: f64,
    /// `λ` search interval (multiplier on the worker's global variance).
    pub lambda_range: (f64, f64),
    /// Minimum answers by a worker inside a group before a `λ` is fitted at
    /// all (below this the multiplier stays exactly 1).
    pub min_support: usize,
}

impl Default for EntityModelOptions {
    fn default() -> Self {
        EntityModelOptions { prior_strength: 4.0, lambda_range: (0.05, 50.0), min_support: 3 }
    }
}

/// The fitted entity-correlation model: a row partition plus per-(worker,
/// group) familiarity multipliers.
#[derive(Debug, Clone)]
pub struct EntityModel {
    groups: Vec<usize>,
    n_groups: usize,
    lambda: HashMap<(WorkerId, usize), f64>,
}

/// One answer reduced to the sufficient statistics `λ` fitting needs.
enum LikelihoodTerm {
    /// Continuous: squared z-residual and the model variance `α β φ`.
    Continuous { e2: f64, base_var: f64 },
    /// Categorical: correctness, the model variance, and `|L_j|`.
    Categorical { correct: bool, base_var: f64, cardinality: u32 },
}

impl EntityModel {
    /// Fit from the answer history and the current inference result.
    pub fn fit(
        schema: &Schema,
        answers: &AnswerLog,
        result: &InferenceResult,
        grouping: &RowGrouping,
        opts: &EntityModelOptions,
    ) -> Self {
        Self::fit_matrix(schema, &AnswerMatrix::build(answers), result, grouping, opts)
    }

    /// Fit from a frozen columnar answer set. The by-worker CSR view groups
    /// each worker's answers by ascending row, so the (worker, group) term
    /// buckets fill in one deterministic pass.
    pub fn fit_matrix(
        schema: &Schema,
        matrix: &AnswerMatrix,
        result: &InferenceResult,
        grouping: &RowGrouping,
        opts: &EntityModelOptions,
    ) -> Self {
        let n_rows = matrix.rows();
        let groups = match grouping {
            RowGrouping::Known(g) => {
                assert_eq!(g.len(), n_rows, "one group label per row");
                g.clone()
            }
            RowGrouping::Learned { groups, seed } => {
                learn_groups(matrix, result, n_rows, *groups, *seed)
            }
        };
        let n_groups = groups.iter().max().map(|&g| g + 1).unwrap_or(1);

        // Bucket likelihood terms by (worker, group): the worker view visits
        // workers in sorted-id order and rows ascending, so each worker's
        // buckets are contiguous and the fit order is deterministic.
        let mut lambda = HashMap::new();
        let mut buckets: Vec<Vec<LikelihoodTerm>> = (0..n_groups).map(|_| Vec::new()).collect();
        for w in 0..matrix.num_workers() {
            for b in &mut buckets {
                b.clear();
            }
            for a in matrix.worker_answers(w) {
                let g = groups[a.cell.row as usize];
                let base_var = result.effective_variance(a.worker, a.cell);
                let answer =
                    tcrowd_tabular::Answer { worker: a.worker, cell: a.cell, value: a.value };
                let term = match &a.value {
                    Value::Continuous(_) => {
                        let e = match observe_error(result, &answer) {
                            ErrorObservation::Continuous(e) => e,
                            ErrorObservation::Categorical(_) => unreachable!("type mismatch"),
                        };
                        LikelihoodTerm::Continuous { e2: e * e, base_var }
                    }
                    Value::Categorical(_) => {
                        let wrong = match observe_error(result, &answer) {
                            ErrorObservation::Categorical(w) => w,
                            ErrorObservation::Continuous(_) => unreachable!("type mismatch"),
                        };
                        let cardinality = schema
                            .column_type(a.cell.col as usize)
                            .cardinality()
                            .expect("categorical column");
                        LikelihoodTerm::Categorical { correct: !wrong, base_var, cardinality }
                    }
                };
                buckets[g].push(term);
            }
            for (g, ts) in buckets.iter().enumerate() {
                if ts.len() < opts.min_support {
                    continue;
                }
                let fitted = fit_lambda(ts, result.epsilon, opts);
                if (fitted - 1.0).abs() > 1e-3 {
                    lambda.insert((matrix.worker_id(w), g), fitted);
                }
            }
        }
        EntityModel { groups, n_groups, lambda }
    }

    /// The group of a row.
    pub fn group_of(&self, row: u32) -> usize {
        self.groups[row as usize]
    }

    /// Number of groups in the partition.
    pub fn num_groups(&self) -> usize {
        self.n_groups
    }

    /// The learned/assigned row partition.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// Familiarity multiplier `λ_{u,g(row)}` — 1 when no effect was fitted.
    pub fn lambda(&self, worker: WorkerId, row: u32) -> f64 {
        self.lambda.get(&(worker, self.groups[row as usize])).copied().unwrap_or(1.0)
    }

    /// Number of (worker, group) pairs with a fitted (non-unit) multiplier.
    pub fn fitted_pairs(&self) -> usize {
        self.lambda.len()
    }

    /// Iterate over the fitted (worker, group) → `λ` multipliers.
    pub fn multipliers(&self) -> impl Iterator<Item = ((WorkerId, usize), f64)> + '_ {
        self.lambda.iter().map(|(&k, &v)| (k, v))
    }
}

/// Penalised log-likelihood of a (worker, group) answer set under variance
/// multiplier `λ` (constants dropped).
fn lambda_objective(terms: &[LikelihoodTerm], epsilon: f64, lambda: f64, n0: f64) -> f64 {
    let mut ll = 0.0;
    for t in terms {
        match t {
            LikelihoodTerm::Continuous { e2, base_var } => {
                let v = (lambda * base_var).max(EPS);
                ll += -0.5 * v.ln() - e2 / (2.0 * v);
            }
            LikelihoodTerm::Categorical { correct, base_var, cardinality } => {
                let q = quality_from_variance(epsilon, lambda * base_var);
                ll += cat_answer_ln_likelihood(q, *cardinality, *correct);
            }
        }
    }
    // Inverse-gamma-style prior with mode at λ = 1: −n0/2 (ln λ + 1/λ).
    ll - 0.5 * n0 * (lambda.ln() + 1.0 / lambda)
}

/// 1-D golden-section maximisation of the penalised likelihood on `ln λ`.
fn fit_lambda(terms: &[LikelihoodTerm], epsilon: f64, opts: &EntityModelOptions) -> f64 {
    let (lo, hi) = opts.lambda_range;
    let (mut a, mut b) = (lo.max(EPS).ln(), hi.max(lo * 2.0).ln());
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let f = |x: f64| lambda_objective(terms, epsilon, x.exp(), opts.prior_strength);
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..60 {
        if (b - a).abs() < 1e-6 {
            break;
        }
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = f(d);
        }
    }
    (0.5 * (a + b)).exp()
}

/// Cluster rows on per-worker *badness* profiles.
///
/// Feature `(i, u)` is worker `u`'s mean *centred* badness over their answers
/// on row `i`. One answer's badness is a bounded score minus its expectation
/// under the fitted model: `min(|e|/√v, CAP)/CAP − E[min(|z|, CAP)]/CAP` for
/// continuous answers (capped standardised residual, `z ~ N(0,1)`), and
/// `wrong − (1 − q^u_ij)` for categorical ones. Centring matters: without it
/// a hard row scores high for *every* worker and k-means would split rows by
/// difficulty (which `α_i` already models) rather than by the worker-specific
/// deviation pattern a shared entity group induces. Missing entries (worker
/// never answered the row) are `NaN` and handled by the missing-aware
/// k-means. Lloyd's algorithm is restarted from several seeds and the
/// lowest-inertia partition wins.
fn learn_groups(
    matrix: &AnswerMatrix,
    result: &InferenceResult,
    n_rows: usize,
    k: usize,
    seed: u64,
) -> Vec<usize> {
    /// Standardised-residual cap: 3σ is already "very wrong".
    const CAP: f64 = 3.0;
    /// `E[min(|z|, 3)]` for `z ~ N(0,1)` (the capped folded-normal mean).
    const EXPECTED_CAPPED_ABS: f64 = 0.791_23;
    const RESTARTS: u64 = 8;
    let n_workers = matrix.num_workers();
    let mut sums = vec![vec![0.0f64; n_workers]; n_rows];
    let mut counts = vec![vec![0usize; n_workers]; n_rows];
    for a in matrix.iter() {
        let u = a.worker_index as usize;
        let i = a.cell.row as usize;
        let v = result.effective_variance(a.worker, a.cell).max(EPS);
        let answer = tcrowd_tabular::Answer { worker: a.worker, cell: a.cell, value: a.value };
        let badness = match observe_error(result, &answer) {
            ErrorObservation::Continuous(e) => {
                ((e.abs() / v.sqrt()).min(CAP) - EXPECTED_CAPPED_ABS) / CAP
            }
            ErrorObservation::Categorical(wrong) => {
                let q = clamp_prob(result.cell_quality(a.worker, a.cell));
                wrong as i32 as f64 - (1.0 - q)
            }
        };
        sums[i][u] += badness;
        counts[i][u] += 1;
    }
    let features: Vec<Vec<f64>> = sums
        .into_iter()
        .zip(counts)
        .map(|(s, c)| {
            s.into_iter()
                .zip(c)
                .map(|(sum, n)| if n == 0 { f64::NAN } else { sum / n as f64 })
                .collect()
        })
        .collect();
    if features.is_empty() {
        return Vec::new();
    }
    (0..RESTARTS)
        .map(|r| kmeans(&features, k.max(1), seed.wrapping_add(r), 100))
        .min_by(|a, b| a.inertia.partial_cmp(&b.inertia).expect("NaN inertia"))
        .expect("at least one restart")
        .assignment
}

/// Entity-aware information-gain assignment policy: the §5.2 structure-aware
/// gain extended with per-(worker, group) familiarity multipliers.
#[derive(Debug)]
pub struct EntityAwarePolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    /// Row partition source.
    pub grouping: RowGrouping,
    /// Model-fitting knobs.
    pub options: EntityModelOptions,
    /// Also apply the §5.2 attribute-correlation conditioning (the two
    /// effects compose: `λ` rescales the inherent variance, the row
    /// conditional then blends in the same-row evidence).
    pub use_attribute_correlation: bool,
    rng: StdRng,
}

impl EntityAwarePolicy {
    /// Create a policy with the given grouping; attribute-correlation
    /// conditioning defaults to on.
    pub fn new(grouping: RowGrouping) -> Self {
        EntityAwarePolicy {
            estimator: GainEstimator::default(),
            grouping,
            options: EntityModelOptions::default(),
            use_attribute_correlation: true,
            rng: StdRng::seed_from_u64(0xE7717),
        }
    }

    /// Builder: disable the attribute-correlation component (pure entity
    /// effect, used by the ablation bench).
    pub fn without_attribute_correlation(mut self) -> Self {
        self.use_attribute_correlation = false;
        self
    }
}

impl crate::assign::AssignmentPolicy for EntityAwarePolicy {
    fn name(&self) -> &'static str {
        "entity-aware-gain"
    }

    fn select(
        &mut self,
        worker: WorkerId,
        k: usize,
        ctx: &crate::assign::AssignmentContext<'_>,
    ) -> Vec<CellId> {
        let inference =
            ctx.inference.expect("EntityAwarePolicy requires an inference result in the context");
        // The caller's shared freeze serves both model fits and the
        // row-error scan — no per-HIT rebuild.
        let matrix = ctx.matrix();
        let entity =
            EntityModel::fit_matrix(ctx.schema, matrix, inference, &self.grouping, &self.options);
        let corr = if self.use_attribute_correlation {
            Some(CorrelationModel::fit_matrix(ctx.schema, matrix, inference))
        } else {
            None
        };
        let mut row_errors: HashMap<u32, Vec<(usize, ErrorObservation)>> = HashMap::new();
        if corr.is_some() {
            if let Some(w) = matrix.worker_index(worker) {
                for a in matrix.worker_answers(w) {
                    let answer =
                        tcrowd_tabular::Answer { worker: a.worker, cell: a.cell, value: a.value };
                    row_errors
                        .entry(a.cell.row)
                        .or_default()
                        .push((a.cell.col as usize, observe_error(inference, &answer)));
                }
            }
        }
        let empty: Vec<(usize, ErrorObservation)> = Vec::new();
        let candidates = ctx.candidates(worker);
        let gains: Vec<f64> = candidates
            .iter()
            .map(|&c| {
                let lambda = entity.lambda(worker, c.row);
                let v_inherent = lambda * inference.effective_variance(worker, c);
                let q_inherent = quality_from_variance(inference.epsilon, v_inherent);
                let prediction = corr.as_ref().and_then(|m| {
                    let observed = row_errors.get(&c.row).unwrap_or(&empty);
                    m.conditional_error(c.col as usize, observed)
                });
                let (v, q) = blend_structure(prediction, v_inherent, q_inherent, inference.epsilon);
                gain_with_params(inference.truth_z(c), v, q, self.estimator, &mut self.rng)
            })
            .collect();
        top_k_by_gain(candidates, gains, k)
    }
}

/// Ground-truth-free diagnostic: mean absolute log-multiplier per group — how
/// much entity structure the model found. 0 means "no effect anywhere".
pub fn familiarity_strength(model: &EntityModel) -> f64 {
    if model.lambda.is_empty() {
        return 0.0;
    }
    model.lambda.values().map(|l| l.ln().abs()).sum::<f64>() / model.lambda.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{AssignmentContext, AssignmentPolicy};
    use crate::inference::TCrowd;
    use tcrowd_stat::cluster::adjusted_rand_index;
    use tcrowd_tabular::{generate_dataset, Dataset, EntityGroups, GeneratorConfig};

    /// A dataset with a strong entity-group familiarity effect.
    fn grouped_dataset(seed: u64, groups: usize) -> Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 60,
                columns: 5,
                categorical_ratio: 0.4,
                num_workers: 25,
                answers_per_task: 4,
                entity_groups: Some(EntityGroups {
                    groups,
                    p_unfamiliar: 0.35,
                    difficulty_factor: 40.0,
                }),
                ..Default::default()
            },
            seed,
        )
    }

    fn infer(d: &Dataset) -> InferenceResult {
        TCrowd::default_full().infer(&d.schema, &d.answers)
    }

    #[test]
    fn known_grouping_is_used_verbatim() {
        let d = grouped_dataset(1, 3);
        let r = infer(&d);
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let m = EntityModel::fit(
            &d.schema,
            &d.answers,
            &r,
            &RowGrouping::Known(labels.clone()),
            &EntityModelOptions::default(),
        );
        assert_eq!(m.groups(), labels.as_slice());
        assert_eq!(m.num_groups(), 3);
    }

    #[test]
    fn lambda_detects_unfamiliar_groups() {
        // With the generator's round-robin groups and a strong difficulty
        // factor, fitted multipliers must spread: some (worker, group) pairs
        // well above 1.
        let d = grouped_dataset(2, 3);
        let r = infer(&d);
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let m = EntityModel::fit(
            &d.schema,
            &d.answers,
            &r,
            &RowGrouping::Known(labels),
            &EntityModelOptions::default(),
        );
        assert!(m.fitted_pairs() > 0, "some multipliers must be fitted");
        let max = m.lambda.values().cloned().fold(0.0, f64::max);
        assert!(max > 2.0, "unfamiliar pairs should fit λ ≫ 1, max = {max}");
        assert!(familiarity_strength(&m) > 0.1);
    }

    #[test]
    fn no_group_effect_yields_near_unit_lambdas() {
        // Without entity groups in the generator the multipliers stay close
        // to 1 (the prior holds them there).
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 40,
                columns: 5,
                num_workers: 20,
                answers_per_task: 4,
                ..Default::default()
            },
            3,
        );
        let r = infer(&d);
        let labels: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let m = EntityModel::fit(
            &d.schema,
            &d.answers,
            &r,
            &RowGrouping::Known(labels),
            &EntityModelOptions::default(),
        );
        for (&(w, g), &l) in &m.lambda {
            assert!(
                (0.2..=5.0).contains(&l),
                "λ[{w:?},{g}] = {l} drifted far from 1 without a group effect"
            );
        }
    }

    #[test]
    fn learned_grouping_recovers_planted_partition() {
        // A denser answer matrix than the default experiments: recovery of
        // the planted partition needs several answers per (row, worker) pair.
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 60,
                columns: 6,
                categorical_ratio: 0.5,
                num_workers: 15,
                answers_per_task: 6,
                entity_groups: Some(EntityGroups {
                    groups: 3,
                    p_unfamiliar: 0.4,
                    difficulty_factor: 60.0,
                }),
                ..Default::default()
            },
            4,
        );
        let r = infer(&d);
        let m = EntityModel::fit(
            &d.schema,
            &d.answers,
            &r,
            &RowGrouping::Learned { groups: 3, seed: 42 },
            &EntityModelOptions::default(),
        );
        let truth: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let ari = adjusted_rand_index(m.groups(), &truth);
        assert!(ari > 0.3, "learned partition should correlate with the planted one, ARI = {ari}");
    }

    #[test]
    fn lambda_defaults_to_one_for_unseen_worker() {
        let d = grouped_dataset(5, 2);
        let r = infer(&d);
        let m = EntityModel::fit(
            &d.schema,
            &d.answers,
            &r,
            &RowGrouping::Known((0..60).map(|i| i % 2).collect()),
            &EntityModelOptions::default(),
        );
        assert_eq!(m.lambda(WorkerId(55_555), 0), 1.0);
    }

    #[test]
    fn policy_returns_k_distinct_cells_and_prefers_unfamiliar_rows_less() {
        let d = grouped_dataset(6, 3);
        let r = infer(&d);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let mut policy = EntityAwarePolicy::new(RowGrouping::Known(labels));
        let w = m.worker_id(0);
        let picks = policy.select(w, 8, &ctx);
        assert_eq!(picks.len(), 8);
        let mut dedup = picks.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "duplicates returned");
    }

    #[test]
    fn policy_without_attribute_correlation_also_works() {
        let d = grouped_dataset(7, 2);
        let r = infer(&d);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let mut policy = EntityAwarePolicy::new(RowGrouping::Learned { groups: 2, seed: 1 })
            .without_attribute_correlation();
        let picks = policy.select(WorkerId(99_999), 5, &ctx);
        assert_eq!(picks.len(), 5);
    }

    #[test]
    fn golden_section_finds_continuous_mle() {
        // Pure continuous terms: the penalised optimum has a closed form
        // dL/dλ = 0 → λ = (Σ e²/v + n0) / (n + n0).
        let terms: Vec<LikelihoodTerm> = (0..20)
            .map(|i| LikelihoodTerm::Continuous { e2: 4.0 + 0.1 * i as f64, base_var: 1.0 })
            .collect();
        let opts = EntityModelOptions::default();
        let fitted = fit_lambda(&terms, 0.5, &opts);
        let sum_e2: f64 = (0..20).map(|i| 4.0 + 0.1 * i as f64).sum();
        let expected = (sum_e2 + opts.prior_strength) / (20.0 + opts.prior_strength);
        assert!((fitted - expected).abs() < 1e-3, "fitted {fitted} vs closed form {expected}");
    }

    #[test]
    fn prior_pulls_sparse_evidence_to_one() {
        // One big residual should not blow λ up when the prior is strong.
        let terms = vec![LikelihoodTerm::Continuous { e2: 100.0, base_var: 1.0 }];
        let strong = EntityModelOptions { prior_strength: 50.0, ..Default::default() };
        let weak = EntityModelOptions { prior_strength: 0.5, ..Default::default() };
        let l_strong = fit_lambda(&terms, 0.5, &strong);
        let l_weak = fit_lambda(&terms, 0.5, &weak);
        assert!(l_strong < l_weak, "{l_strong} !< {l_weak}");
        assert!(l_strong < 5.0);
    }
}
