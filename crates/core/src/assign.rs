//! Online task assignment (paper §5, Algorithm 2).
//!
//! A policy receives the incoming worker and the current state (the frozen
//! answers + inference result) and returns the cell(s) to assign. T-Crowd's two
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
//! Every policy draws its cells from [`AssignmentContext::candidates`], and
//! every ranking policy keeps its picks in a [`TopK`], whose (score desc,
//! cell asc) order makes them a full sort's first k. The gain policies (and
//! the entity-aware one in [`crate::entity`]) share one scorer,
//! `select_by_gain`, which scores only the cells that can make the top k.
//! The worker's parameters are resolved once per `select`, and the scorer
//! walks the candidates row-major:
//!
//! * a continuous cell is scored from the worker's answer variance alone,
//!   `½ ln(1 + T^φ / v)`: one `ln` and no quality `erf`;
//! * a categorical cell is skipped when its posterior's entropy ceiling
//!   (`gain::entropy_ceiling`, no logarithm) is below the k-th best gain
//!   held. Its gain is a mutual information, which never exceeds the
//!   posterior entropy, so it could not be picked. The cells that remain
//!   pay for the quality `erf`, the structure-aware conditional and the
//!   `|L| + 2` logarithms of the closed-form gain;
//! * with a correlation model, Eq. 7 reads the worker's errors on the
//!   cell's row from the by-(worker, row) view, once per row.
//!
//! On a settled table most categorical posteriors are nearly one-hot and
//! are skipped. The picks are those of scoring every candidate, bit for bit:
//! the survivors are scored by the same code.

use crate::correlation::{observe_error, CorrelationModel, ErrorObservation, PredictedError};
use crate::gain::{categorical_gain, continuous_gain, entropy_ceiling, ln_others};
use crate::inference::InferenceResult;
use crate::model::quality_from_variance;
use crate::truth::TruthDist;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tcrowd_stat::clamp_prob;
use tcrowd_tabular::{AnswerMatrix, CellId, FrozenView, Schema, Value, WorkerId};

/// Everything a policy may consult when selecting tasks.
pub struct AssignmentContext<'a> {
    /// The table schema.
    pub schema: &'a Schema,
    /// The answer history so far, frozen: every policy's point queries
    /// (counts, repeats, cell values) and the gain policies' model fits read
    /// it. Build it with [`tcrowd_tabular::AnswerLog::to_matrix`], or keep
    /// one current across log appends with [`AnswerMatrix::merge_delta`] —
    /// a stale freeze silently ignores the newest answers.
    pub answers: &'a AnswerMatrix,
    /// [`AnswerMatrix::freeze_view`] of [`Self::answers`]. No policy reads
    /// it; it carries no data.
    pub freeze: FrozenView<'a>,
    /// The most recent truth-inference result. T-Crowd's gain policies
    /// require it; baseline policies (random, round-robin, raw-entropy,
    /// CDAS) work from the answers alone and ignore it.
    pub inference: Option<&'a InferenceResult>,
    /// Optional per-cell redundancy cap: cells that already have this many
    /// answers are not assigned again.
    pub max_answers_per_cell: Option<usize>,
    /// Cells terminated by an adaptive stopping rule (confidence reached);
    /// they are excluded from assignment. `None` means nothing terminated.
    pub terminated: Option<&'a std::collections::HashSet<CellId>>,
    /// A pre-fitted correlation model of [`Self::answers`] +
    /// [`Self::inference`]. The model is a pure function of the two, so
    /// callers serving many `select` calls per published state (the service
    /// layer caches one on each snapshot) fit it once here instead of
    /// [`StructureAwarePolicy`] and [`crate::EntityAwarePolicy`] re-fitting
    /// per request. `None` keeps the fit-per-select behaviour.
    pub correlation: Option<&'a CorrelationModel>,
}

impl<'a> AssignmentContext<'a> {
    /// Cells the worker may be assigned: not yet answered by this worker,
    /// under the redundancy cap and not terminated. Enumerates the table in
    /// row-major order; every policy draws its cells from here.
    ///
    /// The worker is resolved once; each row's answered columns come from
    /// the by-(worker, row) view, so a slot costs a flag read, the cap's
    /// offset lookup and the terminated set's probe, when those are set.
    pub fn candidates(&self, worker: WorkerId) -> Vec<CellId> {
        let m = self.answers;
        let (rows, cols) = (m.rows(), m.cols());
        let seen = m.worker_index(worker);
        let mut answered = vec![false; cols];
        let mut out = Vec::with_capacity(rows * cols);
        for row in 0..rows as u32 {
            let mine = seen.map_or(&[][..], |w| m.worker_row_answer_indices(w, row));
            for &k in mine {
                answered[m.answer_cols()[k as usize] as usize] = true;
            }
            for col in 0..cols as u32 {
                let c = CellId::new(row, col);
                let capped =
                    self.max_answers_per_cell.is_some_and(|cap| m.count_for_cell(c) >= cap);
                let stopped = self.terminated.is_some_and(|t| t.contains(&c));
                if !answered[col as usize] && !capped && !stopped {
                    out.push(c);
                }
            }
            for &k in mine {
                answered[m.answer_cols()[k as usize] as usize] = false;
            }
        }
        out
    }

    /// [`Self::correlation`], or a model fitted from [`Self::answers`] and
    /// `inference` when the context carries none.
    pub(crate) fn correlation_or_fit(
        &self,
        inference: &InferenceResult,
    ) -> Cow<'a, CorrelationModel> {
        match self.correlation {
            Some(cached) => Cow::Borrowed(cached),
            None => Cow::Owned(CorrelationModel::fit_matrix(self.schema, self.answers, inference)),
        }
    }
}

/// An online task-assignment policy (Definition 4).
pub trait AssignmentPolicy: Send {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Select up to `k` cells for the incoming worker. Fewer than `k` cells
    /// are returned only when the candidate pool is smaller than `k`.
    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId>;

    /// Whether the policy carries state from one call to the next (a random
    /// stream, a cursor), so a caller serving a stream of requests keeps
    /// one instance instead of building one per request.
    fn stateful(&self) -> bool {
        false
    }
}

/// A scored candidate. Its order is the ranking's (score desc, cell asc),
/// so a better candidate compares less.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    cell: CellId,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other.score.partial_cmp(&self.score).expect("NaN score").then(self.cell.cmp(&other.cell))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The best `k` of a stream of scored candidates in (score desc, cell asc)
/// order: a total order over distinct cells, so the picks equal the first
/// `k` of a full sort, whatever order the candidates arrive in. It holds at
/// most `k` of them; the heap's root is the worst pick held.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    held: BinaryHeap<Ranked>,
}

impl TopK {
    /// Room for the best `k` of `n` candidates: at most `n` slots are
    /// reserved, whatever `k`.
    pub fn new(k: usize, n: usize) -> Self {
        TopK { k, held: BinaryHeap::with_capacity(k.min(n)) }
    }

    /// The `k`-th best score held: a candidate scored below it cannot be
    /// picked. −∞ while fewer than `k` are held.
    fn threshold(&self) -> f64 {
        if self.held.len() < self.k {
            return f64::NEG_INFINITY;
        }
        self.held.peek().map_or(f64::INFINITY, |worst| worst.score)
    }

    /// Offer `cell` with its `score`. Panics on a NaN score.
    pub fn push(&mut self, score: f64, cell: CellId) {
        assert!(!score.is_nan(), "NaN score");
        let next = Ranked { score, cell };
        if self.held.len() < self.k {
            self.held.push(next);
        } else if let Some(mut worst) = self.held.peek_mut() {
            if next < *worst {
                *worst = next;
            }
        }
    }

    /// The picks, best first.
    pub fn into_picks(self) -> Vec<CellId> {
        self.held.into_sorted_vec().into_iter().map(|r| r.cell).collect()
    }
}

/// The gain policies' shared scorer: the `k` candidates with the highest
/// information gain (Eq. 6), best first. See the module docs.
///
/// `variance(c)` is the worker's inherent answer variance on `c`; it is
/// called only for the cells scored, in row-major order. With a correlation
/// `model`, Eq. 7's prediction from the worker's errors on the cell's row is
/// blended in as [`blend_structure`] does. A categorical survivor's quality
/// is derived from its variance.
pub(crate) fn select_by_gain(
    ctx: &AssignmentContext<'_>,
    inference: &InferenceResult,
    worker: WorkerId,
    k: usize,
    model: Option<&CorrelationModel>,
    variance: impl Fn(CellId) -> f64,
) -> Vec<CellId> {
    let matrix = ctx.answers;
    let seen = matrix.worker_index(worker);
    // The worker's observed errors on the current candidate's row (L^u_i of
    // Eq. 7), rebuilt only when the row changes: cells are scored in
    // row-major order, so each row is read at most once.
    let mut observed: Vec<(usize, ErrorObservation)> = Vec::new();
    let mut observed_row = None;
    let mut predict = |c: CellId| {
        let model = model?;
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
        model.conditional_error(c.col as usize, &observed)
    };
    let candidates = ctx.candidates(worker);
    let mut top = TopK::new(k, candidates.len());
    // (label count, `ln(|L| − 1)`) per column, so the ceiling takes no log.
    let mut domain = vec![(0, 0.0); matrix.cols()];
    for c in candidates {
        let gain = match inference.truth_z(c) {
            TruthDist::Continuous(n) => {
                continuous_gain(n, blended_variance(predict(c), variance(c)))
            }
            TruthDist::Categorical(p) => {
                let memo = &mut domain[c.col as usize];
                if memo.0 != p.len() {
                    *memo = (p.len(), ln_others(p.len()));
                }
                if entropy_ceiling(p, memo.1) < top.threshold() {
                    continue;
                }
                let v = variance(c);
                let q = quality_from_variance(inference.epsilon, v);
                categorical_gain(p, blend_structure(predict(c), v, q, inference.epsilon).1)
            }
        };
        top.push(gain, c);
    }
    top.into_picks()
}

/// T-Crowd's inherent information-gain policy (§5.1).
#[derive(Debug, Default)]
pub struct InherentGainPolicy;

impl AssignmentPolicy for InherentGainPolicy {
    fn name(&self) -> &'static str {
        "inherent-gain"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference =
            ctx.inference.expect("InherentGainPolicy requires an inference result in the context");
        let params = inference.worker_params(worker);
        select_by_gain(ctx, inference, worker, k, None, |c| params.variance(c))
    }
}

/// Blend Eq. 7's structural prediction into the inherent `(v, q)` of a
/// worker on a cell: both carry information about this worker on this cell.
/// A categorical prediction averages the qualities; a continuous one takes
/// the geometric mean of the variances and re-derives the quality from it.
/// No prediction keeps the inherent pair.
fn blend_structure(
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
        Some(PredictedError::Continuous { .. }) => {
            let v = blended_variance(prediction, v_inherent);
            (v, quality_from_variance(epsilon, v))
        }
        None => (v_inherent, q_inherent),
    }
}

/// The variance [`blend_structure`] returns, without the quality it derives:
/// all a continuous cell's gain reads.
fn blended_variance(prediction: Option<PredictedError>, v_inherent: f64) -> f64 {
    match prediction {
        Some(PredictedError::Continuous { var, .. }) => (var * v_inherent).sqrt(),
        _ => v_inherent,
    }
}

/// T-Crowd's structure-aware information-gain policy (§5.2).
///
/// Takes the context's [`CorrelationModel`] (or fits one from the current
/// state when the context has none), then for each candidate cell
/// conditions the incoming worker's predicted error on the errors the
/// worker already made on the same row. Falls back to the inherent gain
/// when no conditioning information exists (new worker, empty row, or
/// unsupported pair).
#[derive(Debug, Default)]
pub struct StructureAwarePolicy;

impl AssignmentPolicy for StructureAwarePolicy {
    fn name(&self) -> &'static str {
        "structure-aware-gain"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference = ctx
            .inference
            .expect("StructureAwarePolicy requires an inference result in the context");
        let model = ctx.correlation_or_fit(inference);
        let params = inference.worker_params(worker);
        select_by_gain(ctx, inference, worker, k, Some(&model), |c| params.variance(c))
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
    use crate::entity::{EntityAwarePolicy, EntityModel, RowGrouping};
    use crate::gain::gain_with_params;
    use crate::inference::TCrowd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use tcrowd_tabular::{generate_dataset, AnswerLog, GeneratorConfig, RowFamiliarity};

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
            answers: &m,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let w = m.worker_id(0);
        let cands = ctx.candidates(w);
        for c in &cands {
            assert!(!m.has_answered(w, *c));
        }
        // Cap at the current redundancy: every cell has exactly 3 answers,
        // so a cap of 3 empties the pool.
        let capped = AssignmentContext { max_answers_per_cell: Some(3), ..ctx };
        assert!(capped.candidates(w).is_empty());
    }

    /// `log` without every fifth answer, so cells hold 0–3 answers and a
    /// redundancy cap of 3 keeps about half of them.
    fn thinned(log: &AnswerLog) -> AnswerLog {
        let mut out = AnswerLog::new(log.rows(), log.cols());
        for (i, a) in log.all().iter().enumerate() {
            if i % 5 != 0 {
                out.push(*a);
            }
        }
        out
    }

    #[test]
    fn candidates_match_the_per_cell_filter() {
        let (d, r) = setup(3);
        let m = thinned(&d.answers).to_matrix();
        let stopped: HashSet<CellId> =
            d.answers.cells().filter(|c| (c.row + 2 * c.col) % 5 == 0).collect();
        let workers = m.worker_ids().iter().copied().chain([WorkerId(9_999)]);
        for w in workers {
            for (cap, terminated) in [(None, None), (Some(3), None), (Some(2), Some(&stopped))] {
                let ctx = AssignmentContext {
                    schema: &d.schema,
                    answers: &m,
                    freeze: m.freeze_view(),
                    inference: Some(&r),
                    max_answers_per_cell: cap,
                    terminated,
                    correlation: None,
                };
                let expected: Vec<CellId> = d
                    .answers
                    .cells()
                    .filter(|&c| {
                        !m.has_answered(w, c)
                            && cap.is_none_or(|cap| m.count_for_cell(c) < cap)
                            && terminated.is_none_or(|t| !t.contains(&c))
                    })
                    .collect();
                assert_eq!(ctx.candidates(w), expected, "{w:?} cap {cap:?}");
            }
        }
    }

    #[test]
    fn select_returns_k_distinct_cells() {
        let (d, r) = setup(2);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &m,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let w = WorkerId(9_999); // fresh worker
        for policy in [
            &mut InherentGainPolicy as &mut dyn AssignmentPolicy,
            &mut StructureAwarePolicy as &mut dyn AssignmentPolicy,
        ] {
            let picks = policy.select(w, 7, &ctx);
            assert_eq!(picks.len(), 7, "{}", policy.name());
            let mut dedup = picks.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 7, "{} returned duplicates", policy.name());
        }
    }

    /// The full (gain desc, cell asc) ranking the picks must agree with.
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
            for k in [0, 1, n.saturating_sub(1), n, n + 3, 1 << 40] {
                let mut top = TopK::new(k, n);
                for (&gain, &cell) in gains.iter().zip(&candidates) {
                    top.push(gain, cell);
                }
                proptest::prop_assert!(top.held.capacity() <= n.max(k.min(n)));
                proptest::prop_assert_eq!(&top.into_picks()[..], &ranking[..k.min(n)]);
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
        let candidates = ctx.candidates(worker);
        let gains: Vec<f64> = candidates
            .iter()
            .map(|&c| {
                let v = inference.effective_variance(worker, c);
                let q = inference.cell_quality(worker, c);
                let (v, q) = if structure_aware {
                    let observed: Vec<(usize, ErrorObservation)> = ctx
                        .answers
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
                gain_with_params(inference.truth_z(c), v, q)
            })
            .collect();
        full_ranking(&candidates, &gains).into_iter().take(k).collect()
    }

    /// [`EntityAwarePolicy`]'s picks, recomputed the same way: `λ` scales the
    /// per-cell variance, and the row's errors are read by a full scan.
    fn entity_ranked_per_cell(
        ctx: &AssignmentContext<'_>,
        model: &CorrelationModel,
        entity: &EntityModel,
        worker: WorkerId,
    ) -> Vec<CellId> {
        let inference = ctx.inference.unwrap();
        let candidates = ctx.candidates(worker);
        let gains: Vec<f64> = candidates
            .iter()
            .map(|&c| {
                let v = entity.lambda(worker, c.row) * inference.effective_variance(worker, c);
                let q = quality_from_variance(inference.epsilon, v);
                let observed: Vec<(usize, ErrorObservation)> = ctx
                    .answers
                    .answers_of(worker)
                    .filter(|a| a.cell.row == c.row)
                    .map(|a| {
                        (
                            a.cell.col as usize,
                            observe_error(inference, &ctx.answers.to_answer(a.index as usize)),
                        )
                    })
                    .collect();
                let prediction = model.conditional_error(c.col as usize, &observed);
                let (v, q) = blend_structure(prediction, v, q, inference.epsilon);
                gain_with_params(inference.truth_z(c), v, q)
            })
            .collect();
        full_ranking(&candidates, &gains)
    }

    /// The pruned scorer picks exactly what ranking every candidate picks:
    /// for k from 1 to past the candidate count, all three gain policies,
    /// with and without a redundancy cap and a terminated set, on a mixed
    /// table and on all-categorical (pruned by the running threshold alone)
    /// and all-continuous ones.
    #[test]
    fn select_matches_per_cell_ranking() {
        // (categorical share, seed, seen workers, unseen workers)
        for (categorical_ratio, seed, n_seen, n_unseen) in
            [(0.5, 14, 10, 10), (1.0, 15, 4, 2), (0.0, 16, 2, 1)]
        {
            let d = generate_dataset(
                &GeneratorConfig {
                    rows: 300,
                    columns: 10,
                    categorical_ratio,
                    num_workers: 40,
                    answers_per_task: 3,
                    row_familiarity: Some(RowFamiliarity::default()),
                    ..Default::default()
                },
                seed,
            );
            let log = thinned(&d.answers);
            let r = TCrowd::default_full().infer(&d.schema, &log);
            let m = log.to_matrix();
            let model = CorrelationModel::fit_matrix(&d.schema, &m, &r);
            let grouping = RowGrouping::Known((0..300).map(|i| i % 3).collect());
            let mut entity_policy = EntityAwarePolicy::new(grouping.clone());
            let entity =
                EntityModel::fit_matrix(&d.schema, &m, &r, &grouping, &entity_policy.options);
            let stopped: HashSet<CellId> =
                d.answers.cells().filter(|c| (c.row + c.col) % 7 == 0).collect();
            let open = AssignmentContext {
                schema: &d.schema,
                answers: &m,
                freeze: m.freeze_view(),
                inference: Some(&r),
                max_answers_per_cell: None,
                terminated: None,
                correlation: Some(&model),
            };
            let capped = AssignmentContext {
                max_answers_per_cell: Some(3),
                terminated: Some(&stopped),
                ..open
            };
            let seen = m.worker_ids()[..n_seen].iter().copied();
            let unseen = (0..n_unseen).map(|i| WorkerId(50_000 + i));
            for w in seen.chain(unseen) {
                for ctx in [&open, &capped] {
                    let inherent = ranked_per_cell(ctx, &model, w, usize::MAX, false);
                    let structure = ranked_per_cell(ctx, &model, w, usize::MAX, true);
                    // Each entity select refits its models, so two workers a table.
                    let entity_ranking = (w == m.worker_id(0) || w == WorkerId(50_000))
                        .then(|| entity_ranked_per_cell(ctx, &model, &entity, w));
                    let n = inherent.len();
                    let case = |k: usize| {
                        format!(
                            "ratio {categorical_ratio}, {w:?}, k {k}, cap {:?}",
                            ctx.max_answers_per_cell
                        )
                    };
                    for k in [1, 5, 25, n, 1 << 40] {
                        let head = |ranking: &[CellId]| ranking[..k.min(n)].to_vec();
                        let picks = InherentGainPolicy.select(w, k, ctx);
                        assert_eq!(picks, head(&inherent), "inherent, {}", case(k));
                        let picks = StructureAwarePolicy.select(w, k, ctx);
                        assert_eq!(picks, head(&structure), "structure, {}", case(k));
                        if let Some(ranking) = &entity_ranking {
                            let picks = entity_policy.select(w, k, ctx);
                            assert_eq!(picks, head(ranking), "entity, {}", case(k));
                        }
                    }
                }
            }
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
            answers: &m,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let mut policy = InherentGainPolicy;
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
            answers: &m,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let mut policy = StructureAwarePolicy;
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
}
