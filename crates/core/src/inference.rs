//! Public truth-inference API: [`TCrowd`] and [`InferenceResult`].
//!
//! Wraps the EM engine with the practical plumbing the paper leaves implicit:
//! per-column z-scoring of continuous answers (so one quality window `ε`
//! spans heterogeneous domains), resolution of `ε` itself, the
//! categorical-only / continuous-only constrained variants of Table 7, and
//! mapping the fitted z-space posteriors back to the original scales.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::em::{initial_phi, run_em_from, ColKind, EmOptions, EmTimings, WarmStart, Workspace};
use crate::model::quality_from_variance;
use crate::truth::TruthDist;
use std::collections::HashMap;
use tcrowd_stat::describe::{median, std_dev, zscore_params};
use tcrowd_stat::normal::Normal;
use tcrowd_tabular::{AnswerLog, AnswerMatrix, CellId, ColumnType, Schema, Value, WorkerId};

/// How the quality window `ε` (Eq. 2) is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonSpec {
    /// Use this exact value (in z-score units).
    Fixed(f64),
    /// `ε = scale × median per-cell standard deviation` of the z-scored
    /// continuous answers — an automatic calibration that keeps the erf link
    /// in its informative range regardless of the data's noise-to-spread
    /// ratio. Falls back to `0.5` when the table has no continuous cells
    /// with ≥ 2 answers (where `ε` is a pure reparameterisation of `φ`).
    AutoScale(f64),
}

impl Default for EpsilonSpec {
    fn default() -> Self {
        EpsilonSpec::AutoScale(1.0)
    }
}

/// Which columns participate in inference — the constrained variants
/// `TC-onlyCate` / `TC-onlyCont` of the paper's Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnFilter {
    /// All columns (full T-Crowd).
    #[default]
    All,
    /// Only categorical columns.
    CategoricalOnly,
    /// Only continuous columns.
    ContinuousOnly,
}

impl ColumnFilter {
    /// Whether column type `ty` participates under this filter.
    pub fn includes(&self, ty: &ColumnType) -> bool {
        match self {
            ColumnFilter::All => true,
            ColumnFilter::CategoricalOnly => ty.is_categorical(),
            ColumnFilter::ContinuousOnly => !ty.is_categorical(),
        }
    }
}

/// Options for [`TCrowd`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TCrowdOptions {
    /// Quality-window resolution.
    pub epsilon: EpsilonSpec,
    /// Column participation.
    pub filter: ColumnFilter,
    /// EM engine options.
    pub em: EmOptions,
}

pub mod reference;

/// The T-Crowd truth-inference model (paper §4).
#[derive(Debug, Clone, Default)]
pub struct TCrowd {
    opts: TCrowdOptions,
}

impl TCrowd {
    /// Create a model with the given options.
    pub fn new(opts: TCrowdOptions) -> Self {
        TCrowd { opts }
    }

    /// Full T-Crowd with default options.
    pub fn default_full() -> Self {
        TCrowd::new(TCrowdOptions::default())
    }

    /// The `TC-onlyCate` constrained variant.
    pub fn only_categorical() -> Self {
        TCrowd::new(TCrowdOptions { filter: ColumnFilter::CategoricalOnly, ..Default::default() })
    }

    /// The `TC-onlyCont` constrained variant.
    pub fn only_continuous() -> Self {
        TCrowd::new(TCrowdOptions { filter: ColumnFilter::ContinuousOnly, ..Default::default() })
    }

    /// Run truth inference on an answer set (Definition 3 / Algorithm 1).
    ///
    /// Freezes the log into an [`AnswerMatrix`] and delegates to
    /// [`Self::infer_matrix`]; callers that already hold a matrix (the
    /// online loop's [`crate::FitState`], batch harnesses) should call that
    /// or [`Self::fit`] directly.
    pub fn infer(&self, schema: &Schema, answers: &AnswerLog) -> InferenceResult {
        assert_eq!(schema.num_columns(), answers.cols(), "schema/answer-log column mismatch");
        self.infer_matrix(schema, &AnswerMatrix::build(answers))
    }

    /// Run truth inference on a frozen columnar answer set, cold-started
    /// (uniform priors, calibrated initial worker quality).
    pub fn infer_matrix(&self, schema: &Schema, matrix: &AnswerMatrix) -> InferenceResult {
        self.fit(schema, matrix, Seed::Cold)
    }

    /// Run truth inference on a frozen columnar answer set, starting EM as
    /// `seed` says (see [`Seed`] for each start and its fallback).
    pub fn fit(&self, schema: &Schema, matrix: &AnswerMatrix, seed: Seed<'_>) -> InferenceResult {
        assert_eq!(schema.num_columns(), matrix.cols(), "schema/answer-matrix column mismatch");
        let n_rows = matrix.rows();
        let n_cols = matrix.cols();

        // Per-column z-scaling from the answers themselves (one payload pass).
        let mut col_values: Vec<Vec<f64>> = vec![Vec::new(); n_cols];
        for k in 0..matrix.len() {
            if !matrix.is_categorical(k) {
                col_values[matrix.answer_cols()[k] as usize].push(matrix.answer_values()[k]);
            }
        }
        let scalers: Vec<Option<(f64, f64)>> = (0..n_cols)
            .map(|j| match schema.column_type(j) {
                ColumnType::Continuous { .. } => Some(zscore_params(&col_values[j])),
                ColumnType::Categorical { .. } => None,
            })
            .collect();

        // Workers participating under the column filter, densely re-indexed
        // in sorted-id order (the matrix's worker table is already sorted).
        let included: Vec<bool> =
            (0..n_cols).map(|j| self.opts.filter.includes(schema.column_type(j))).collect();
        let mut participates = vec![false; matrix.num_workers()];
        for k in 0..matrix.len() {
            if included[matrix.answer_cols()[k] as usize] {
                participates[matrix.answer_workers()[k] as usize] = true;
            }
        }
        let mut remap = vec![u32::MAX; matrix.num_workers()];
        let mut workers: Vec<WorkerId> = Vec::new();
        for (w, &active) in participates.iter().enumerate() {
            if active {
                remap[w] = workers.len() as u32;
                workers.push(matrix.worker_id(w));
            }
        }

        let col_kind: Vec<ColKind> = (0..n_cols)
            .map(|j| match schema.column_type(j) {
                ColumnType::Categorical { labels } => ColKind::Cat(labels.len() as u32),
                ColumnType::Continuous { .. } => ColKind::Cont,
            })
            .collect();

        // The active columns' answers go straight into the workspace's runs,
        // continuous ones z-scored; the payload is cell-major, as the
        // workspace requires.
        let mut ws = Workspace::new(n_rows, n_cols, workers.len(), col_kind);
        for k in 0..matrix.len() {
            let j = matrix.answer_cols()[k] as usize;
            if !included[j] {
                continue;
            }
            let (row, col) = (matrix.answer_rows()[k], j as u32);
            let worker = remap[matrix.answer_workers()[k] as usize];
            match scalers[j] {
                Some((m, s)) => ws.push_cont(row, col, worker, (matrix.answer_values()[k] - m) / s),
                None => ws.push_cat(row, col, worker, matrix.answer_labels()[k]),
            }
        }
        let ws = ws.finish();

        // Resolve ε.
        let epsilon = match self.opts.epsilon {
            EpsilonSpec::Fixed(e) => {
                assert!(e > 0.0, "epsilon must be positive");
                e
            }
            EpsilonSpec::AutoScale(scale) => {
                assert!(scale > 0.0, "epsilon scale must be positive");
                let cell_stds: Vec<f64> = ws
                    .cont_cells()
                    .filter(|(_, vals)| vals.len() >= 2)
                    .map(|(_, vals)| std_dev(vals))
                    .collect();
                if cell_stds.is_empty() {
                    0.5
                } else {
                    (scale * median(&cell_stds)).max(1e-3)
                }
            }
        };
        let ws = Workspace { epsilon, ..ws };

        // Seeded starts: the seed's parameters mapped onto this workspace's
        // dense indices. `ε` is re-resolved from the current answers either
        // way, so the quality link stays calibrated to the data actually
        // being fitted. A seed of another table shape falls back to the cold
        // start, and so does an evaluation whose worker lane is not exactly
        // the workers being fitted (it would hold fixed parameters that no
        // fit of these answers produced).
        let params = match seed {
            Seed::Cold => None,
            Seed::Warm(p) => Some(p),
            Seed::Evaluate(p) => Some(p).filter(|p| p.workers == workers),
        }
        .filter(|p| p.shape_matches(n_rows, n_cols));
        let evaluate = matches!(seed, Seed::Evaluate(_)) && params.is_some();
        let em = if evaluate { EmOptions { max_iters: 0, ..self.opts.em } } else { self.opts.em };
        let warm = params.map(|p| {
            // Seed in the *raw* gauge the M-step rests in: undo the
            // identifiability polish (`renorm_shift`), so the restart starts
            // exactly where the previous fit's optimiser stopped instead of
            // one gauge-shift away from it. Unseen workers get the calibrated
            // initial variance, expressed in the same gauge.
            let (ma, mb) = p.renorm_shift;
            let phi0 = initial_phi(epsilon).ln() - ma - mb;
            let safe_ln = |v: f64| v.max(tcrowd_stat::EPS).ln();
            WarmStart {
                ln_alpha: p.alpha.iter().map(|&v| safe_ln(v) + ma).collect(),
                ln_beta: p.beta.iter().map(|&v| safe_ln(v) + mb).collect(),
                ln_phi: workers
                    .iter()
                    .map(|&w| p.phi_of(w).map(|v| safe_ln(v) - ma - mb).unwrap_or(phi0))
                    .collect(),
            }
        });
        let state = run_em_from(&ws, &em, warm.as_ref());
        let phi: Vec<f64> = state.ln_phi.iter().map(|v| v.exp()).collect();

        InferenceResult {
            n_rows,
            n_cols,
            truths_z: state.truths,
            scalers,
            alpha: state.ln_alpha.iter().map(|v| v.exp()).collect(),
            beta: state.ln_beta.iter().map(|v| v.exp()).collect(),
            worker_index: workers.iter().enumerate().map(|(i, &w)| (w, i)).collect(),
            workers,
            median_phi: population_median_phi(&phi),
            phi,
            epsilon,
            objective_trace: state.trace,
            iterations: state.iterations,
            // An evaluation holds its parameters fixed by construction.
            converged: state.converged || evaluate,
            param_residual: state.param_residual,
            renorm_shift: state.renorm_shift,
            timings: state.timings,
        }
    }
}

/// Population-median `φ` of a fit's workers — the prior for workers the fit
/// has not seen (`0.3` when it saw none).
fn population_median_phi(phi: &[f64]) -> f64 {
    if phi.is_empty() {
        0.3
    } else {
        median(phi)
    }
}

/// How [`TCrowd::fit`] starts EM.
#[derive(Debug, Clone, Copy)]
pub enum Seed<'a> {
    /// Uniform priors and calibrated initial worker quality: the result is a
    /// pure function of the answers.
    Cold,
    /// Start from a previous fit of the same table. Rows and columns are
    /// seeded positionally and workers by id (workers the seed lacks start
    /// at the calibrated `φ₀`), so the steady-state refit of an online loop
    /// converges in a handful of iterations instead of replaying the cold
    /// trajectory. The EM map is unchanged — given the same answers, warm
    /// and cold starts converge to the same estimates (the sim regression
    /// suite asserts agreement within 1e-6) — so this is a pure latency
    /// optimisation. Falls back to the cold start when the seed has a
    /// different table shape.
    Warm(&'a FitParams),
    /// Hold the parameters fixed: one E-step at them, no EM iterations; the
    /// result has `iterations == 0` and `converged == true`. The posteriors
    /// are a pure function of `(answers, parameters)` and the gauge
    /// round-trip perturbs the parameters only at float rounding, so
    /// evaluating a converged fit's own [`FitParams`] on the same answers
    /// reproduces its posteriors to ~1e-12 — how crash recovery republishes
    /// the pre-crash served state without re-running EM. Falls back to a
    /// cold fit when the seed has a different table shape or a worker lane
    /// other than the workers being fitted (the evaluation would be
    /// meaningless).
    Evaluate(&'a FitParams),
}

/// The detached seed of an EM fit: exactly the parameters [`Seed::Warm`]
/// and [`Seed::Evaluate`] consume, nothing else.
///
/// This is the piece of an [`InferenceResult`] worth persisting: posteriors
/// and traces are pure functions of `(answers, parameters)` and are
/// recomputed by the restarted EM anyway, while `α, β, φ` and the gauge
/// shift let the restart begin at the previous optimum. The `tcrowd-store`
/// snapshot format serializes this struct field-for-field.
///
/// Invariants (checked by [`FitParams::shape_matches`] / the seeding path,
/// which falls back to a cold start when violated): `alpha.len() == rows`,
/// `beta.len() == cols`, `workers.len() == phi.len()`. `workers` is in
/// fitting order — ascending id for every fit this crate produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FitParams {
    /// Table height the fit was produced on.
    pub rows: usize,
    /// Table width the fit was produced on.
    pub cols: usize,
    /// Fitted row difficulties `α_i` (renormalised gauge, geometric mean 1).
    pub alpha: Vec<f64>,
    /// Fitted column difficulties `β_j` (renormalised gauge).
    pub beta: Vec<f64>,
    /// Workers in fitting order (parallel to [`Self::phi`]).
    pub workers: Vec<WorkerId>,
    /// Fitted worker variances `φ_u` (z-space).
    pub phi: Vec<f64>,
    /// The gauge shift the identifiability polish applied (mean `ln α`,
    /// mean `ln β`) — lets the restart seed in the raw gauge.
    pub renorm_shift: (f64, f64),
}

impl FitParams {
    /// Extract the warm-start seed of a fit.
    pub fn of(result: &InferenceResult) -> FitParams {
        FitParams {
            rows: result.n_rows,
            cols: result.n_cols,
            alpha: result.alpha.clone(),
            beta: result.beta.clone(),
            workers: result.workers.clone(),
            phi: result.phi.clone(),
            renorm_shift: result.renorm_shift,
        }
    }

    /// Whether this seed can warm-start a fit of a `rows × cols` table —
    /// shape match plus internally consistent lane lengths.
    pub fn shape_matches(&self, rows: usize, cols: usize) -> bool {
        self.rows == rows
            && self.cols == cols
            && self.alpha.len() == rows
            && self.beta.len() == cols
            && self.workers.len() == self.phi.len()
    }

    /// `φ_u` of a worker, if present in the seed. Binary search when the
    /// worker lane is in ascending id order (always, for seeds produced by
    /// this crate); a linear scan covers hand-built seeds.
    pub fn phi_of(&self, worker: WorkerId) -> Option<f64> {
        if let Ok(i) = self.workers.binary_search(&worker) {
            return Some(self.phi[i]);
        }
        self.workers.iter().position(|&w| w == worker).map(|i| self.phi[i])
    }
}

/// The output of truth inference: per-cell posteriors, per-worker qualities,
/// per-row/column difficulties, and diagnostics.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    n_rows: usize,
    n_cols: usize,
    /// Posterior truth distributions in z-space, dense row-major.
    truths_z: Vec<TruthDist>,
    /// Per-column `(mean, std)` for continuous columns.
    scalers: Vec<Option<(f64, f64)>>,
    /// Fitted row difficulties `α_i` (geometric mean 1).
    pub alpha: Vec<f64>,
    /// Fitted column difficulties `β_j` (geometric mean 1).
    pub beta: Vec<f64>,
    /// Workers in fitting order (parallel to [`Self::phi`]).
    pub workers: Vec<WorkerId>,
    worker_index: HashMap<WorkerId, usize>,
    /// Fitted worker variances `φ_u` (z-space).
    pub phi: Vec<f64>,
    /// Population median of [`Self::phi`], taken when the result is built
    /// (nothing writes `φ` afterwards): the prior for unseen workers, which
    /// assignment reads once per request.
    median_phi: f64,
    /// The resolved quality window `ε`.
    pub epsilon: f64,
    /// ELBO after each EM iteration (Fig. 12a).
    pub objective_trace: Vec<f64>,
    /// EM iterations performed.
    pub iterations: usize,
    /// Whether EM met its tolerance before the iteration cap.
    pub converged: bool,
    /// The largest absolute change of any log-parameter (`ln α`, `ln β`,
    /// `ln φ`) over the last EM iteration — how far from its fixed point
    /// the fit stopped. `None` when EM ran no iteration (an evaluation, or
    /// no answers).
    pub param_residual: Option<f64>,
    /// The gauge shift the post-EM identifiability polish applied (mean
    /// `ln α`, mean `ln β`); lets a warm restart seed in the raw gauge.
    renorm_shift: (f64, f64),
    /// Wall-clock breakdown of the EM run by kernel phase.
    pub timings: EmTimings,
}

impl InferenceResult {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    #[inline]
    fn slot(&self, cell: CellId) -> usize {
        cell.row as usize * self.n_cols + cell.col as usize
    }

    /// The posterior truth distribution of a cell *in z-space* (the space the
    /// assignment machinery works in).
    #[inline]
    pub fn truth_z(&self, cell: CellId) -> &TruthDist {
        &self.truths_z[self.slot(cell)]
    }

    /// Replace the stored z-space posterior of a cell (used by the simulator
    /// between full inference runs for cheap incremental refreshes).
    pub fn set_truth_z(&mut self, cell: CellId, dist: TruthDist) {
        let s = self.slot(cell);
        self.truths_z[s] = dist;
    }

    /// The z-scaling `(mean, std)` of a continuous column.
    #[inline]
    pub fn scaler(&self, col: usize) -> Option<(f64, f64)> {
        self.scalers[col]
    }

    /// The posterior truth distribution of a cell in the original scale.
    pub fn truth(&self, cell: CellId) -> TruthDist {
        match self.truth_z(cell) {
            TruthDist::Categorical(p) => TruthDist::Categorical(p.clone()),
            TruthDist::Continuous(n) => {
                let (m, s) = self.scalers[cell.col as usize].expect("continuous scaler");
                TruthDist::Continuous(Normal::new(m + s * n.mean, s * s * n.var))
            }
        }
    }

    /// Point estimate `T̂_ij` in the original scale.
    pub fn estimate(&self, cell: CellId) -> Value {
        self.truth(cell).estimate()
    }

    /// Point estimates for the whole table.
    pub fn estimates(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows as u32)
            .map(|i| (0..self.n_cols as u32).map(|j| self.estimate(CellId::new(i, j))).collect())
            .collect()
    }

    /// Fitted variance `φ_u` of a worker, if the worker contributed answers.
    pub fn phi_of(&self, worker: WorkerId) -> Option<f64> {
        self.worker_index.get(&worker).map(|&i| self.phi[i])
    }

    /// Population-median `φ` — the prior used for workers not seen before.
    #[inline]
    pub fn median_phi(&self) -> f64 {
        self.median_phi
    }

    /// `φ_u`, falling back to the population median for unseen workers.
    pub fn phi_or_prior(&self, worker: WorkerId) -> f64 {
        self.phi_of(worker).unwrap_or(self.median_phi)
    }

    /// Unified quality `q_u = erf(ε/√(2φ_u))` (Eq. 2) of a worker.
    pub fn quality_of(&self, worker: WorkerId) -> Option<f64> {
        self.phi_of(worker).map(|phi| quality_from_variance(self.epsilon, phi))
    }

    /// A worker's parameters resolved once ([`Self::phi_or_prior`]) for
    /// scoring many cells: the per-cell calls below do no lookup.
    pub(crate) fn worker_params(&self, worker: WorkerId) -> WorkerParams<'_> {
        WorkerParams { result: self, phi: self.phi_or_prior(worker) }
    }

    /// Effective answer variance `α_i β_j φ_u` for a worker on a cell
    /// (z-space), using the prior `φ` for unseen workers.
    pub fn effective_variance(&self, worker: WorkerId, cell: CellId) -> f64 {
        self.worker_params(worker).variance(cell)
    }

    /// Quality `q^u_ij` of a worker on a specific cell (§4.2).
    pub fn cell_quality(&self, worker: WorkerId, cell: CellId) -> f64 {
        self.worker_params(worker).variance_and_quality(cell).1
    }
}

/// One worker's `φ_u` bound to a fit (see [`InferenceResult::worker_params`]):
/// the per-cell answer model of §4.2 at the cost of two multiplies and,
/// for the quality, one `erf`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerParams<'a> {
    result: &'a InferenceResult,
    phi: f64,
}

impl WorkerParams<'_> {
    /// Effective answer variance `α_i β_j φ_u` on a cell (z-space).
    #[inline]
    pub(crate) fn variance(&self, cell: CellId) -> f64 {
        self.result.alpha[cell.row as usize] * self.result.beta[cell.col as usize] * self.phi
    }

    /// The effective variance and the quality `q^u_ij = erf(ε/√(2v))` it
    /// implies on a cell.
    #[inline]
    pub(crate) fn variance_and_quality(&self, cell: CellId) -> (f64, f64) {
        let v = self.variance(cell);
        (v, quality_from_variance(self.result.epsilon, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{evaluate, generate_dataset, GeneratorConfig};

    fn small_dataset(seed: u64) -> tcrowd_tabular::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 40,
                columns: 6,
                num_workers: 25,
                answers_per_task: 5,
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn infer_produces_full_estimates() {
        let d = small_dataset(1);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let est = r.estimates();
        assert_eq!(est.len(), 40);
        assert_eq!(est[0].len(), 6);
        for (i, row) in est.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!(d.schema.column_type(j).accepts(v), "estimate at ({i},{j}) has wrong type");
            }
        }
        assert!(r.converged);
    }

    #[test]
    fn inference_beats_first_answer_baseline() {
        let d = small_dataset(2);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let report = evaluate(&d.schema, &d.truth, &r.estimates());

        // Naive baseline: take the first answer of each cell.
        let m = d.answers.to_matrix();
        let naive: Vec<Vec<Value>> = (0..d.rows() as u32)
            .map(|i| {
                (0..d.cols() as u32)
                    .map(|j| m.cell_answers(CellId::new(i, j)).next().expect("answered").value)
                    .collect()
            })
            .collect();
        let naive_report = evaluate(&d.schema, &d.truth, &naive);
        assert!(report.error_rate.unwrap() < naive_report.error_rate.unwrap());
        assert!(report.mnad.unwrap() < naive_report.mnad.unwrap());
    }

    #[test]
    fn estimated_quality_correlates_with_true_quality() {
        let d = small_dataset(3);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let mut est = Vec::new();
        let mut truth = Vec::new();
        for (&w, profile) in &d.worker_truth {
            if let Some(phi) = r.phi_of(w) {
                est.push(phi.ln());
                truth.push(profile.phi.ln());
            }
        }
        let rho = tcrowd_stat::describe::pearson(&est, &truth);
        assert!(rho > 0.6, "phi correlation = {rho}");
    }

    #[test]
    fn constrained_variants_only_touch_their_columns() {
        let d = small_dataset(4);
        let cat = TCrowd::only_categorical().infer(&d.schema, &d.answers);
        // Continuous cells keep the z-space prior N(0,1) under onlyCate.
        for j in d.schema.continuous_columns() {
            let t = cat.truth_z(CellId::new(0, j as u32));
            if let TruthDist::Continuous(n) = t {
                assert_eq!((n.mean, n.var), (0.0, 1.0));
            } else {
                panic!("wrong variant");
            }
        }
        // And categorical cells must have moved off the uniform prior.
        let j0 = d.schema.categorical_columns()[0] as u32;
        let t = cat.truth_z(CellId::new(0, j0));
        if let TruthDist::Categorical(p) = t {
            let max = p.iter().cloned().fold(0.0, f64::max);
            assert!(max > 1.5 / p.len() as f64);
        }
    }

    #[test]
    fn epsilon_autoscale_is_positive_and_fixed_respected() {
        let d = small_dataset(5);
        let auto = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert!(auto.epsilon > 0.0);
        let fixed =
            TCrowd::new(TCrowdOptions { epsilon: EpsilonSpec::Fixed(0.77), ..Default::default() })
                .infer(&d.schema, &d.answers);
        assert_eq!(fixed.epsilon, 0.77);
    }

    #[test]
    fn unseen_worker_gets_prior_phi() {
        let d = small_dataset(6);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let unseen = WorkerId(9_999);
        assert_eq!(r.phi_of(unseen), None);
        assert!((r.phi_or_prior(unseen) - r.median_phi()).abs() < 1e-12);
        assert!(r.quality_of(unseen).is_none());
    }

    #[test]
    fn truth_rescaling_roundtrip() {
        let d = small_dataset(7);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        for j in d.schema.continuous_columns() {
            let cell = CellId::new(0, j as u32);
            let (m, s) = r.scaler(j).unwrap();
            if let (TruthDist::Continuous(z), TruthDist::Continuous(o)) =
                (r.truth_z(cell).clone(), r.truth(cell))
            {
                assert!((o.mean - (m + s * z.mean)).abs() < 1e-9);
                assert!((o.var - s * s * z.var).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cell_quality_uses_difficulty() {
        let d = small_dataset(8);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let w = r.workers[0];
        // Quality must decrease as the row difficulty multiplies up.
        let (easy_row, hard_row) = {
            let mut idx: Vec<usize> = (0..r.alpha.len()).collect();
            idx.sort_by(|&a, &b| r.alpha[a].partial_cmp(&r.alpha[b]).unwrap());
            (idx[0] as u32, *idx.last().unwrap() as u32)
        };
        let col = 0u32;
        if r.alpha[easy_row as usize] < r.alpha[hard_row as usize] {
            assert!(
                r.cell_quality(w, CellId::new(easy_row, col))
                    >= r.cell_quality(w, CellId::new(hard_row, col))
            );
        }
    }

    #[test]
    fn easy_tasks_do_not_trigger_posterior_flips() {
        // Regression: a small auto-scaled ε once made the *initial* worker
        // quality fall below 1/|L|, so the first E-step anti-weighted every
        // answer and flipped the posteriors of small-cardinality columns —
        // EM then locked the inversion in. With the erf-calibrated
        // initialisation T-Crowd must beat simple voting on easy tables.
        for seed in [7u64, 108, 209] {
            let d = generate_dataset(
                &GeneratorConfig { avg_difficulty: 0.5, ..Default::default() },
                seed,
            );
            let r = TCrowd::default_full().infer(&d.schema, &d.answers);
            let rep = evaluate(&d.schema, &d.truth, &r.estimates());
            assert!(
                rep.error_rate.unwrap() < 0.05,
                "seed {seed}: easy-task error rate {} suggests flipped posteriors",
                rep.error_rate.unwrap()
            );
        }
    }

    #[test]
    fn empty_answer_log_yields_priors() {
        let d = small_dataset(9);
        let empty = AnswerLog::new(d.rows(), d.cols());
        let r = TCrowd::default_full().infer(&d.schema, &empty);
        assert!(r.converged);
        assert_eq!(r.workers.len(), 0);
        let est = r.estimates();
        assert_eq!(est.len(), d.rows());
    }

    #[test]
    fn deep_fits_from_warm_and_cold_starts_meet_below_the_rounding_floor() {
        // `deep_convergence` stops on parameter movement alone. Near the
        // fixed point the M-step's Newton gains fall below the objective's
        // rounding noise; unless such steps are still taken, both fits
        // stall wherever rounding first rejects them, ~1e-7 apart.
        let d = generate_dataset(
            &GeneratorConfig { rows: 20, columns: 10, answers_per_task: 5, ..Default::default() },
            7,
        );
        let model =
            TCrowd::new(TCrowdOptions { em: EmOptions::deep_convergence(), ..Default::default() });
        let mut prev = AnswerLog::new(d.rows(), d.cols());
        for a in &d.answers.all()[..d.answers.len() - 50] {
            prev.push(*a);
        }
        let prev_fit = model.infer(&d.schema, &prev);
        let matrix = d.answers.to_matrix();
        let warm = model.fit(&d.schema, &matrix, Seed::Warm(&FitParams::of(&prev_fit)));
        let cold = model.infer_matrix(&d.schema, &matrix);
        assert!(warm.converged && cold.converged);
        let gap = crate::diagnostics::max_z_discrepancy(&warm, &cold);
        assert!(gap < 1e-8, "deep warm and cold fits {gap:.3e} apart");
    }

    #[test]
    fn seeded_restart_equals_warm_restart_exactly() {
        // A fit's detached seed carries exactly its parameter lanes, and a
        // seed that cannot describe the table falls back to the cold start.
        let d = small_dataset(6);
        let model = TCrowd::default_full();
        let half = {
            let mut log = AnswerLog::new(d.rows(), d.cols());
            for a in &d.answers.all()[..d.answers.len() / 2] {
                log.push(*a);
            }
            log
        };
        let prev = model.infer(&d.schema, &half);
        let matrix = d.answers.to_matrix();
        let warm = model.fit(&d.schema, &matrix, Seed::Warm(&FitParams::of(&prev)));
        // Round-tripping a fit through its seed is lossless.
        let seed = FitParams::of(&warm);
        assert_eq!((seed.rows, seed.cols), (warm.rows(), warm.cols()));
        assert_eq!(
            (&seed.alpha, &seed.beta, &seed.workers, &seed.phi),
            (&warm.alpha, &warm.beta, &warm.workers, &warm.phi)
        );
        // A shape-mismatched seed falls back to the cold start.
        let bad = FitParams { rows: 1, ..FitParams::of(&prev) };
        let cold = model.infer_matrix(&d.schema, &matrix);
        let fallback = model.fit(&d.schema, &matrix, Seed::Warm(&bad));
        assert_eq!(cold.estimates(), fallback.estimates());
        assert_eq!(cold.iterations, fallback.iterations);
    }

    #[test]
    fn evaluating_a_fits_own_params_reproduces_it() {
        // The crash-recovery identity: E-step at a converged fit's stored
        // parameters ≡ that fit's published posteriors (up to the float
        // rounding of the gauge round-trip) — no EM iterations needed.
        let d = small_dataset(8);
        let model = TCrowd::default_full();
        let fit = model.infer(&d.schema, &d.answers);
        let matrix = d.answers.to_matrix();
        let eval = model.fit(&d.schema, &matrix, Seed::Evaluate(&FitParams::of(&fit)));
        assert_eq!(eval.iterations, 0, "evaluation must not iterate EM");
        assert!(eval.converged);
        let gap = crate::diagnostics::max_z_discrepancy(&eval, &fit);
        assert!(gap < 1e-9, "evaluated posteriors drifted from the fit: {gap:.3e}");
        // Categorical estimates match exactly; continuous ones to float
        // rounding (the gauge round-trip perturbs the last ulp).
        for (er, fr) in eval.estimates().iter().zip(&fit.estimates()) {
            for (e, f) in er.iter().zip(fr) {
                match (e, f) {
                    (Value::Categorical(a), Value::Categorical(b)) => assert_eq!(a, b),
                    (Value::Continuous(a), Value::Continuous(b)) => {
                        assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}")
                    }
                    _ => panic!("estimate variant flipped"),
                }
            }
        }
        // Parameters survive the gauge round-trip to near-bit precision.
        for (a, b) in eval.phi.iter().zip(&fit.phi) {
            assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
        }
        // Shape mismatch falls back to a cold fit, not a bogus evaluation.
        let bad = FitParams { rows: 1, ..FitParams::of(&fit) };
        let fallback = model.fit(&d.schema, &matrix, Seed::Evaluate(&bad));
        assert!(fallback.iterations > 0);
    }

    #[test]
    fn evaluating_params_of_other_workers_falls_back_to_a_cold_fit() {
        // Parameters fitted with a worker the matrix no longer holds (a
        // quarantine newer than the stored fit), or without one it now
        // holds, do not describe these answers: evaluating them would serve
        // a fit nobody computed. Both directions take the cold fit instead.
        let d = small_dataset(8);
        let model = TCrowd::default_full();
        let matrix = d.answers.to_matrix();
        let full = FitParams::of(&model.infer_matrix(&d.schema, &matrix));
        let filtered = matrix.without_workers(&full.workers[..1]);
        let without = FitParams::of(&model.infer_matrix(&d.schema, &filtered));
        for (params, over) in [(&full, &filtered), (&without, &matrix)] {
            let cold = model.infer_matrix(&d.schema, over);
            let eval = model.fit(&d.schema, over, Seed::Evaluate(params));
            assert!(eval.iterations > 0, "a foreign worker lane must not be evaluated");
            assert_eq!(eval.iterations, cold.iterations);
            assert_eq!(eval.estimates(), cold.estimates());
            assert_eq!(crate::diagnostics::max_z_discrepancy(&eval, &cold), 0.0);
        }
    }

    #[test]
    fn fit_params_phi_lookup_handles_sorted_and_unsorted_lanes() {
        let d = small_dataset(7);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let p = FitParams::of(&r);
        for &w in &p.workers {
            assert_eq!(p.phi_of(w), r.phi_of(w));
        }
        assert_eq!(p.phi_of(WorkerId(u32::MAX)), None);
        // Reverse the lanes: the linear fallback must still find everyone.
        let mut rev = p.clone();
        rev.workers.reverse();
        rev.phi.reverse();
        for &w in &rev.workers {
            assert_eq!(rev.phi_of(w), r.phi_of(w));
        }
    }
}
