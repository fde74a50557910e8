//! Online task assignment (paper §5, Algorithm 2).
//!
//! A policy receives the incoming worker and the current state (answer log +
//! inference result) and returns the cell(s) to assign. T-Crowd's two
//! policies rank candidates by information gain:
//!
//! * [`InherentGainPolicy`] — Eq. 6, using the worker's fitted quality and
//!   the cell's fitted difficulty.
//! * [`StructureAwarePolicy`] — additionally conditions the worker's
//!   predicted error on the errors they already made on other attributes of
//!   the same row (Eq. 7), through a [`CorrelationModel`].
//!
//! Batched assignment (§5.3) greedily takes the top-K candidates; because
//! distinct cells have independent posteriors, the sum in Eq. 9 decomposes
//! and top-K is exactly the greedy optimum.
//!
//! Scoring a candidate is constant work: the worker's parameters are
//! resolved once per `select` (`InferenceResult::worker_params`), the
//! gain has a closed form for both datatypes, and the structure-aware
//! conditional is a pair of moments — no allocation, hashing or sorting per
//! candidate beyond the `k` picks.

use crate::correlation::{observe_error, CorrelationModel, ErrorObservation, PredictedError};
use crate::gain::{compute_gains, exact_gain, gain_with_params, GainEstimator};
use crate::inference::InferenceResult;
use crate::model::quality_from_variance;
use crate::truth::TruthDist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcrowd_stat::clamp_prob;
use tcrowd_tabular::{AnswerMatrix, AnswerQueries, CellId, FrozenView, Schema, Value, WorkerId};

/// Everything a policy may consult when selecting tasks.
pub struct AssignmentContext<'a> {
    /// The table schema.
    pub schema: &'a Schema,
    /// The answer history so far, behind the representation-agnostic
    /// [`AnswerQueries`] trait: library callers pass the live
    /// [`tcrowd_tabular::AnswerLog`]; snapshot-serving callers (the service
    /// layer) pass the frozen [`AnswerMatrix`] itself, so a published
    /// snapshot needs no indexed log at all.
    pub answers: &'a dyn AnswerQueries,
    /// The caller's frozen columnar view of [`Self::answers`]. Matrix-side
    /// policies (structure-aware, entity-aware) fit their models from this
    /// freeze instead of each `select` call rebuilding one — the runner
    /// keeps a single evolving freeze and delta-merges the log tail into it,
    /// so per-HIT assignment no longer pays the `O(cells + W·R)` rebuild.
    pub freeze: FrozenView<'a>,
    /// The most recent truth-inference result. T-Crowd's gain policies
    /// require it; baseline policies (random, round-robin, raw-entropy,
    /// CDAS) work from the answer log alone and ignore it.
    pub inference: Option<&'a InferenceResult>,
    /// Optional per-cell redundancy cap: cells that already have this many
    /// answers are not assigned again.
    pub max_answers_per_cell: Option<usize>,
    /// Cells terminated by an adaptive stopping rule (confidence reached);
    /// they are excluded from assignment. `None` means nothing terminated.
    pub terminated: Option<&'a std::collections::HashSet<CellId>>,
    /// A pre-fitted correlation model of [`Self::freeze`] +
    /// [`Self::inference`]. The model is a pure function of the two, so
    /// callers serving many `select` calls per published state (the service
    /// layer caches one on each snapshot) fit it once here instead of
    /// [`StructureAwarePolicy`] re-fitting per request. `None` keeps the
    /// fit-per-select behaviour.
    pub correlation: Option<&'a CorrelationModel>,
}

impl<'a> AssignmentContext<'a> {
    /// The frozen matrix, checked (in debug builds) to actually cover the
    /// answer history: a stale freeze means the caller forgot to
    /// delta-merge the log tail before assignment, and the fitted
    /// correlation/entity models would silently ignore the newest answers.
    pub fn matrix(&self) -> &'a AnswerMatrix {
        debug_assert_eq!(
            self.freeze.epoch(),
            self.answers.len(),
            "assignment context holds a stale freeze — merge the log tail \
             (AnswerMatrix::merge_delta) before selecting",
        );
        self.freeze.matrix()
    }

    /// The freeze epoch (number of log answers the matrix covers).
    pub fn epoch(&self) -> usize {
        self.freeze.epoch()
    }

    /// Cells the worker may be assigned: not yet answered by this worker and
    /// under the redundancy cap. Enumerates the table in row-major order.
    pub fn candidates(&self, worker: WorkerId) -> Vec<CellId> {
        let (rows, cols) = (self.answers.rows(), self.answers.cols());
        let mut out = Vec::new();
        for slot in 0..rows * cols {
            let c = CellId::new((slot / cols) as u32, (slot % cols) as u32);
            if let Some(cap) = self.max_answers_per_cell {
                if self.answers.count_for_cell(c) >= cap {
                    continue;
                }
            }
            if let Some(stopped) = self.terminated {
                if stopped.contains(&c) {
                    continue;
                }
            }
            if !self.answers.has_answered(worker, c) {
                out.push(c);
            }
        }
        out
    }
}

/// An online task-assignment policy (Definition 4).
pub trait AssignmentPolicy {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Select up to `k` cells for the incoming worker. Fewer than `k` cells
    /// are returned only when the candidate pool is smaller than `k`.
    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId>;
}

/// Rank `candidates` by `gains` and return the top `k`, best first.
///
/// The order is (gain desc, cell asc): a total order over distinct cells, so
/// the picks equal the first `k` of a full sort. Partitioning around the
/// `k`-th pick first makes this `O(n + k log k)`.
pub(crate) fn top_k_by_gain(candidates: Vec<CellId>, gains: Vec<f64>, k: usize) -> Vec<CellId> {
    let rank = |a: &(f64, CellId), b: &(f64, CellId)| {
        b.0.partial_cmp(&a.0).expect("NaN gain").then(a.1.cmp(&b.1))
    };
    let mut scored: Vec<(f64, CellId)> = gains.into_iter().zip(candidates).collect();
    let k = k.min(scored.len());
    if k == 0 {
        return Vec::new();
    }
    scored.select_nth_unstable_by(k - 1, rank);
    scored.truncate(k);
    scored.sort_unstable_by(rank);
    scored.into_iter().map(|(_, c)| c).collect()
}

/// T-Crowd's inherent information-gain policy (§5.1).
#[derive(Debug)]
pub struct InherentGainPolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    rng: StdRng,
}

impl InherentGainPolicy {
    /// Create with the given estimator (RNG only used by the sampling
    /// estimator; seeded for reproducibility).
    pub fn new(estimator: GainEstimator) -> Self {
        InherentGainPolicy { estimator, rng: StdRng::seed_from_u64(0xC0FFEE) }
    }
}

impl Default for InherentGainPolicy {
    fn default() -> Self {
        Self::new(GainEstimator::default())
    }
}

impl AssignmentPolicy for InherentGainPolicy {
    fn name(&self) -> &'static str {
        "inherent-gain"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference =
            ctx.inference.expect("InherentGainPolicy requires an inference result in the context");
        let params = inference.worker_params(worker);
        let candidates = ctx.candidates(worker);
        let gains: Vec<f64> = if self.estimator == GainEstimator::Exact {
            // The exact estimator is RNG-free, so large candidate sets can be
            // scored across threads (the paper's §5.1 parallelisation note).
            compute_gains(&candidates, |c| {
                let (v, q) = params.variance_and_quality(c);
                exact_gain(inference.truth_z(c), v, q)
            })
        } else {
            candidates
                .iter()
                .map(|&c| {
                    let (v, q) = params.variance_and_quality(c);
                    gain_with_params(inference.truth_z(c), v, q, self.estimator, &mut self.rng)
                })
                .collect()
        };
        top_k_by_gain(candidates, gains, k)
    }
}

/// Blend Eq. 7's structural prediction into the inherent `(v, q)` of a
/// worker on a cell: both carry information about this worker on this cell.
/// A categorical prediction averages the qualities; a continuous one takes
/// the geometric mean of the variances and re-derives the quality from it.
/// No prediction keeps the inherent pair.
pub(crate) fn blend_structure(
    prediction: Option<PredictedError>,
    v_inherent: f64,
    q_inherent: f64,
    epsilon: f64,
) -> (f64, f64) {
    match prediction {
        Some(PredictedError::Categorical(p_wrong)) => {
            let q_struct = clamp_prob(1.0 - p_wrong);
            (v_inherent, 0.5 * (q_struct + q_inherent))
        }
        Some(PredictedError::Continuous { var, .. }) => {
            let v = (var * v_inherent).sqrt();
            (v, quality_from_variance(epsilon, v))
        }
        None => (v_inherent, q_inherent),
    }
}

/// T-Crowd's structure-aware information-gain policy (§5.2).
///
/// Fits a [`CorrelationModel`] from the current state, then for each
/// candidate cell conditions the incoming worker's predicted error on the
/// errors the worker already made on the same row. Falls back to the
/// inherent gain when no conditioning information exists (new worker, empty
/// row, or unsupported pair).
#[derive(Debug)]
pub struct StructureAwarePolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    rng: StdRng,
}

impl StructureAwarePolicy {
    /// Create with the given estimator.
    pub fn new(estimator: GainEstimator) -> Self {
        StructureAwarePolicy { estimator, rng: StdRng::seed_from_u64(0x5EED) }
    }
}

impl Default for StructureAwarePolicy {
    fn default() -> Self {
        Self::new(GainEstimator::default())
    }
}

impl AssignmentPolicy for StructureAwarePolicy {
    fn name(&self) -> &'static str {
        "structure-aware-gain"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference = ctx
            .inference
            .expect("StructureAwarePolicy requires an inference result in the context");
        // The caller's shared freeze serves the correlation fit and the
        // row-error scan (by-(worker, row) CSR view) — no per-HIT rebuild.
        let matrix = ctx.matrix();
        let fitted_here;
        let model = match ctx.correlation {
            Some(cached) => cached,
            None => {
                fitted_here = CorrelationModel::fit_matrix(ctx.schema, matrix, inference);
                &fitted_here
            }
        };
        let params = inference.worker_params(worker);
        let seen = matrix.worker_index(worker);
        let candidates = ctx.candidates(worker);
        // The worker's observed errors on the current candidate's row
        // (L^u_i of Eq. 7), rebuilt only when the row changes: candidates
        // come in row-major order, so each row is read once.
        let mut observed: Vec<(usize, ErrorObservation)> = Vec::new();
        let mut observed_row = None;
        let mut gains = Vec::with_capacity(candidates.len());
        for &c in &candidates {
            if observed_row != Some(c.row) {
                observed_row = Some(c.row);
                observed.clear();
                if let Some(w) = seen {
                    for &k in matrix.worker_row_answer_indices(w, c.row) {
                        let a = matrix.to_answer(k as usize);
                        observed.push((a.cell.col as usize, observe_error(inference, &a)));
                    }
                }
            }
            let (v, q) = params.variance_and_quality(c);
            let prediction = model.conditional_error(c.col as usize, &observed);
            let (v, q) = blend_structure(prediction, v, q, inference.epsilon);
            gains.push(gain_with_params(inference.truth_z(c), v, q, self.estimator, &mut self.rng));
        }
        top_k_by_gain(candidates, gains, k)
    }
}

/// Expected posterior after an answer whose value is not yet known — used by
/// simulators that refresh cell posteriors between full inference runs.
///
/// Continuous: the variance shrinks deterministically, the mean is the prior
/// mean in expectation. Categorical: `P'(z) = Σ_a P(a) P(z|a)` which equals
/// the prior (posterior expectation is the prior), so the prior is returned —
/// the entropy *reduction* is only realised once an actual answer arrives.
pub fn expected_posterior(truth: &TruthDist, obs_var: f64, _q: f64) -> TruthDist {
    match truth {
        TruthDist::Continuous(n) => {
            TruthDist::Continuous(n.posterior_with_observation(n.mean, obs_var))
        }
        TruthDist::Categorical(p) => TruthDist::Categorical(p.clone()),
    }
}

/// Apply one real answer incrementally to an inference result's stored
/// posterior (the §5.1 acceleration: between full EM runs, only the answered
/// cell's posterior is refreshed).
pub fn apply_answer_incrementally(
    result: &mut InferenceResult,
    worker: WorkerId,
    cell: CellId,
    value: &Value,
) {
    let (v, q) = result.worker_params(worker).variance_and_quality(cell);
    let z_value = match value {
        Value::Continuous(x) => {
            let (m, s) = result.scaler(cell.col as usize).expect("scaler");
            Value::Continuous((x - m) / s)
        }
        Value::Categorical(l) => Value::Categorical(*l),
    };
    let updated = result.truth_z(cell).updated_with_answer(&z_value, v, q);
    result.set_truth_z(cell, updated);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::TCrowd;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig, RowFamiliarity};

    fn setup(seed: u64) -> (tcrowd_tabular::Dataset, InferenceResult) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 25,
                columns: 4,
                num_workers: 15,
                answers_per_task: 3,
                row_familiarity: Some(RowFamiliarity::default()),
                ..Default::default()
            },
            seed,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        (d, r)
    }

    #[test]
    fn candidates_exclude_answered_and_capped_cells() {
        let (d, r) = setup(1);
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
        let w = m.worker_id(0);
        let cands = ctx.candidates(w);
        for c in &cands {
            assert!(!d.answers.has_answered(w, *c));
        }
        // Cap at the current redundancy: every cell has exactly 3 answers,
        // so a cap of 3 empties the pool.
        let capped = AssignmentContext { max_answers_per_cell: Some(3), ..ctx };
        assert!(capped.candidates(w).is_empty());
    }

    #[test]
    fn select_returns_k_distinct_cells() {
        let (d, r) = setup(2);
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
        let w = WorkerId(9_999); // fresh worker
        for policy in [
            &mut InherentGainPolicy::default() as &mut dyn AssignmentPolicy,
            &mut StructureAwarePolicy::default() as &mut dyn AssignmentPolicy,
        ] {
            let picks = policy.select(w, 7, &ctx);
            assert_eq!(picks.len(), 7, "{}", policy.name());
            let mut dedup = picks.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 7, "{} returned duplicates", policy.name());
        }
    }

    /// The full (gain desc, cell asc) ranking `top_k_by_gain` must agree with.
    fn full_ranking(candidates: &[CellId], gains: &[f64]) -> Vec<CellId> {
        let mut scored: Vec<(f64, CellId)> =
            gains.iter().copied().zip(candidates.iter().copied()).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, c)| c).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]
        #[test]
        fn top_k_by_gain_is_the_head_of_the_full_ranking(
            // Gains from a handful of levels force ties; the slot order is
            // shuffled so ties cannot lean on input order.
            levels in proptest::collection::vec(0u8..4, 0..60),
            seed in proptest::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            let n = levels.len();
            let mut slots: Vec<u32> = (0..n as u32).collect();
            slots.shuffle(&mut StdRng::seed_from_u64(seed));
            let candidates: Vec<CellId> =
                slots.iter().map(|&s| CellId::new(s / 7, s % 7)).collect();
            let gains: Vec<f64> = levels.iter().map(|&l| f64::from(l) * 0.25).collect();
            let ranking = full_ranking(&candidates, &gains);
            for k in [0, 1, n.saturating_sub(1), n, n + 3] {
                let picks = top_k_by_gain(candidates.clone(), gains.clone(), k);
                proptest::prop_assert_eq!(&picks[..], &ranking[..k.min(n)]);
            }
        }
    }

    /// `select`'s picks, recomputed by ranking every candidate through the
    /// per-cell API — a fresh `φ` lookup and a full row scan per cell.
    fn ranked_per_cell(
        ctx: &AssignmentContext<'_>,
        model: &CorrelationModel,
        worker: WorkerId,
        k: usize,
        structure_aware: bool,
    ) -> Vec<CellId> {
        let inference = ctx.inference.unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let candidates = ctx.candidates(worker);
        let gains: Vec<f64> = candidates
            .iter()
            .map(|&c| {
                let v = inference.effective_variance(worker, c);
                let q = inference.cell_quality(worker, c);
                let (v, q) = if structure_aware {
                    let observed: Vec<(usize, ErrorObservation)> = ctx
                        .matrix()
                        .answers_of(worker)
                        .filter(|a| a.cell.row == c.row)
                        .map(|a| {
                            let answer = tcrowd_tabular::Answer {
                                worker: a.worker,
                                cell: a.cell,
                                value: a.value,
                            };
                            (a.cell.col as usize, observe_error(inference, &answer))
                        })
                        .collect();
                    let prediction = model.conditional_error(c.col as usize, &observed);
                    blend_structure(prediction, v, q, inference.epsilon)
                } else {
                    (v, q)
                };
                gain_with_params(inference.truth_z(c), v, q, GainEstimator::Exact, &mut rng)
            })
            .collect();
        full_ranking(&candidates, &gains).into_iter().take(k).collect()
    }

    #[test]
    fn select_matches_per_cell_ranking() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 300,
                columns: 10,
                num_workers: 40,
                answers_per_task: 3,
                row_familiarity: Some(RowFamiliarity::default()),
                ..Default::default()
            },
            14,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let m = d.answers.to_matrix();
        let model = CorrelationModel::fit_matrix(&d.schema, &m, &r);
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: Some(&model),
        };
        let seen: Vec<WorkerId> = m.worker_ids()[..10].to_vec();
        assert_eq!(seen.len(), 10);
        let unseen = (0..10).map(|i| WorkerId(50_000 + i));
        for w in seen.into_iter().chain(unseen) {
            let k = 25;
            let inherent = InherentGainPolicy::default().select(w, k, &ctx);
            assert_eq!(inherent, ranked_per_cell(&ctx, &model, w, k, false), "inherent, {w:?}");
            let structure = StructureAwarePolicy::default().select(w, k, &ctx);
            assert_eq!(structure, ranked_per_cell(&ctx, &model, w, k, true), "structure, {w:?}");
        }
    }

    #[test]
    fn gain_policy_prefers_undersampled_cells() {
        // Give one cell extra answers; a fresh worker should be steered to
        // cells with fewer answers (higher remaining uncertainty), all else
        // equal.
        let (mut d, _) = setup(4);
        let target = CellId::new(0, 0);
        let heavy_worker_base = 500u32;
        for extra in 0..6 {
            let w = WorkerId(heavy_worker_base + extra);
            let truth = d.truth_of(target);
            d.answers.push(tcrowd_tabular::Answer { worker: w, cell: target, value: truth });
        }
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
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
        let mut policy = InherentGainPolicy::default();
        let picks = policy.select(WorkerId(9_999), 10, &ctx);
        assert!(!picks.contains(&target), "the heavily-answered cell should not be a top pick");
    }

    #[test]
    fn structure_aware_falls_back_for_unseen_worker() {
        // A worker with no history has no row errors; structure-aware must
        // still return a full selection (inherent fallback).
        let (d, r) = setup(5);
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
        let mut policy = StructureAwarePolicy::default();
        let picks = policy.select(WorkerId(77_777), 4, &ctx);
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn incremental_update_moves_posterior() {
        let (d, mut r) = setup(6);
        let cell = CellId::new(2, 0); // categorical column in this layout
        let before = r.truth_z(cell).clone();
        let label = match d.truth_of(cell) {
            Value::Categorical(l) => l,
            _ => panic!("expected categorical column 0"),
        };
        apply_answer_incrementally(&mut r, WorkerId(9_999), cell, &Value::Categorical(label));
        let after = r.truth_z(cell);
        assert_ne!(&before, after);
        assert!(
            after.confidence_in(&Value::Categorical(label))
                >= before.confidence_in(&Value::Categorical(label))
        );
    }

    #[test]
    fn expected_posterior_shrinks_continuous_variance_only() {
        let t = TruthDist::Continuous(tcrowd_stat::Normal::new(1.0, 2.0));
        if let TruthDist::Continuous(n) = expected_posterior(&t, 1.0, 0.8) {
            assert!((n.mean - 1.0).abs() < 1e-12);
            assert!(n.var < 2.0);
        } else {
            panic!("variant");
        }
        let c = TruthDist::Categorical(vec![0.6, 0.4]);
        assert_eq!(expected_posterior(&c, 1.0, 0.8), c);
    }
}
