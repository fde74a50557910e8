//! The budgeted end-to-end experiment runner (paper Algorithm 2 / §6.3).
//!
//! One run pairs an assignment policy with an inference backend and plays
//! out the crowdsourcing process: seed answers, then worker arrivals — each
//! arrival gets a HIT of `batch_size` tasks chosen by the policy, answers
//! through the oracle, and the state advances. Error Rate and MNAD are
//! recorded on a fixed grid of answers-per-task checkpoints so different
//! systems can be compared at equal budget (the x-axis of Figs. 2 and 5).

use crate::pool::WorkerPool;
use crate::stopping::{StoppingRule, TerminationState};
use std::collections::HashSet;
use tcrowd_baselines::TruthMethod;
use tcrowd_core::{AssignmentContext, AssignmentPolicy, FitState, Seed, TCrowd};
use tcrowd_tabular::{
    evaluate_with_answers, Answer, AnswerLog, AnswerMatrix, CellId, QualityReport, WorkerId,
};

/// Which truth-inference method backs the run (both for the policy's context
/// and for checkpoint evaluation).
pub enum InferenceBackend<'a> {
    /// T-Crowd EM inference: the policy receives a full
    /// [`InferenceResult`](tcrowd_core::InferenceResult).
    TCrowd(TCrowd),
    /// A baseline method: the policy context carries no inference result
    /// (matching AskIt!/CDAS/CRH/CATD, which assign without one).
    Baseline(&'a dyn TruthMethod),
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Tasks per HIT; defaults to the number of columns (the paper put one
    /// task per column into each HIT).
    pub batch_size: Option<usize>,
    /// Seed rounds: each row is initially answered this many times, whole-row
    /// (Algorithm 2's "initialize each task with several answers").
    pub seed_rounds: usize,
    /// Stop when the average number of answers per task reaches this budget.
    pub budget_avg_answers: f64,
    /// Checkpoint grid step on the answers-per-task axis.
    pub checkpoint_step: f64,
    /// Re-run full EM every this many HITs (between full runs the answered
    /// cells' posteriors are refreshed incrementally, §5.1's acceleration).
    pub inference_every: usize,
    /// Optional per-cell redundancy cap.
    pub max_answers_per_cell: Option<usize>,
    /// Monetary cost per HIT (the paper paid $0.05 per HIT on AMT); the
    /// seed phase is also charged per row-HIT.
    pub cost_per_hit: f64,
    /// Optional confidence-based stopping rule: settled cells stop being
    /// assigned and the run ends when every cell is settled. Requires the
    /// [`InferenceBackend::TCrowd`] backend (ignored for baselines, which
    /// have no posterior to test).
    pub stopping: Option<StoppingRule>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            batch_size: None,
            seed_rounds: 1,
            budget_avg_answers: 5.0,
            checkpoint_step: 0.25,
            inference_every: 5,
            max_answers_per_cell: None,
            cost_per_hit: 0.05,
            stopping: None,
        }
    }
}

/// One evaluation checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Average answers per task when the checkpoint was taken.
    pub avg_answers: f64,
    /// Error rate over categorical cells (if any).
    pub error_rate: Option<f64>,
    /// MNAD over continuous columns (if any).
    pub mnad: Option<f64>,
}

/// The result of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Label for plots/tables (e.g. "T-Crowd", "AskIt!").
    pub label: String,
    /// Checkpoint series.
    pub points: Vec<SeriesPoint>,
    /// Final quality at budget exhaustion.
    pub final_report: QualityReport,
    /// Total answers collected.
    pub total_answers: usize,
    /// Cells terminated by the stopping rule (0 when no rule configured).
    pub terminated_cells: usize,
    /// Number of HITs issued (seed row-HITs + one per arrival served).
    pub total_hits: usize,
    /// Money spent: `total_hits × cost_per_hit`.
    pub total_cost: f64,
}

/// Full EM refit (warm-started from the previous fit), then re-test the
/// stopping rule against the fresh posterior, counting answers from the
/// fit's freeze.
fn refit(
    fit: &mut FitState,
    termination: &mut Option<TerminationState>,
    rule: Option<&StoppingRule>,
) {
    fit.refit(true);
    if let (Some(state), Some(rule)) = (termination.as_mut(), rule) {
        state.update(fit.result(), rule, |c| fit.matrix().count_for_cell(c));
    }
}

/// The experiment runner.
#[derive(Debug, Default)]
pub struct Runner {
    /// Configuration shared by every run of this runner.
    pub cfg: ExperimentConfig,
}

impl Runner {
    /// Create a runner.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Runner { cfg }
    }

    /// Play out one crowdsourcing run.
    pub fn run(
        &self,
        label: &str,
        pool: &mut WorkerPool,
        policy: &mut dyn AssignmentPolicy,
        backend: &InferenceBackend<'_>,
    ) -> RunResult {
        let schema = pool.schema().clone();
        let truth = pool.truth().to_vec();
        let n_rows = truth.len();
        let n_cols = schema.num_columns();
        let n_cells = (n_rows * n_cols) as f64;
        let batch = self.cfg.batch_size.unwrap_or(n_cols).max(1);

        let mut answers = AnswerLog::new(n_rows, n_cols);
        let mut total_hits = 0usize;

        // ---- Seed phase: whole-row answers, `seed_rounds` workers per row.
        // A seeding worker answers the whole row, so one who already seeded
        // a row has answered every cell of it and skips it.
        let mut seeded: HashSet<(WorkerId, u32)> = HashSet::new();
        for _ in 0..self.cfg.seed_rounds {
            for i in 0..n_rows as u32 {
                let w = pool.next_worker();
                total_hits += 1;
                if !seeded.insert((w, i)) {
                    continue;
                }
                for j in 0..n_cols as u32 {
                    let cell = CellId::new(i, j);
                    let value = pool.answer(w, cell);
                    answers.push(Answer { worker: w, cell, value });
                }
            }
        }

        // Every backend reads one freeze of the log, caught up at the top of
        // each turn. The T-Crowd backend drives the online loop
        // (`FitState`), which owns that freeze: built after the seed phase
        // and kept current by catching up on each HIT's answers — the §5.1
        // incremental posterior update, no EM — with a full refit every few
        // HITs and at each checkpoint. The first fit is cold; every refit
        // warm-starts from the previous one (the steady-state loop converges
        // in a handful of iterations — see `BENCH_refresh.json`). A baseline
        // backend has no fit, so the runner keeps its freeze.
        let seed_freeze = AnswerMatrix::build(&answers);
        let (mut fit, mut freeze) = match backend {
            InferenceBackend::TCrowd(model) => {
                let fit = FitState::new(
                    model.clone(),
                    schema.clone(),
                    seed_freeze,
                    Vec::new(),
                    Seed::Cold,
                );
                (Some(fit), None)
            }
            InferenceBackend::Baseline(_) => (None, Some(seed_freeze)),
        };

        // ---- Main loop.
        let mut points: Vec<SeriesPoint> = Vec::new();
        let mut next_checkpoint = (answers.len() as f64 / n_cells / self.cfg.checkpoint_step)
            .ceil()
            * self.cfg.checkpoint_step;
        let mut hits_since_inference = 0usize;
        let mut consecutive_empty = 0usize;
        let mut termination = self.cfg.stopping.map(|_| TerminationState::new());

        let evaluate_now = |answers: &AnswerLog, fit: Option<&FitState>| -> QualityReport {
            let estimates = match backend {
                InferenceBackend::TCrowd(_) => {
                    fit.expect("T-Crowd runs hold a fit").result().estimates()
                }
                InferenceBackend::Baseline(m) => m.estimate(&schema, answers),
            };
            evaluate_with_answers(&schema, &truth, &estimates, answers)
        };

        loop {
            if let Some(fit) = fit.as_mut() {
                fit.catch_up(&answers.slice_since(fit.epoch()));
            }
            if let Some(m) = freeze.as_mut().filter(|m| m.epoch() < answers.len()) {
                *m = m.merge_delta(&answers.all()[m.epoch()..]);
            }
            let avg = answers.len() as f64 / n_cells;
            // Record any checkpoints we crossed.
            while avg + 1e-9 >= next_checkpoint
                && next_checkpoint <= self.cfg.budget_avg_answers + 1e-9
            {
                // Refresh inference at checkpoints so the evaluation reflects
                // all collected answers.
                if let Some(fit) = fit.as_mut() {
                    refit(fit, &mut termination, self.cfg.stopping.as_ref());
                    hits_since_inference = 0;
                }
                let rep = evaluate_now(&answers, fit.as_ref());
                points.push(SeriesPoint {
                    avg_answers: next_checkpoint,
                    error_rate: rep.error_rate,
                    mnad: rep.mnad,
                });
                next_checkpoint += self.cfg.checkpoint_step;
            }
            if avg >= self.cfg.budget_avg_answers {
                break;
            }
            if let Some(t) = &termination {
                if t.all_terminated(n_rows, n_cols) {
                    break;
                }
            }

            // A worker arrives and receives a HIT.
            let worker = pool.next_worker();
            if let Some(fit) =
                fit.as_mut().filter(|_| hits_since_inference >= self.cfg.inference_every)
            {
                refit(fit, &mut termination, self.cfg.stopping.as_ref());
                hits_since_inference = 0;
            }
            let selected = {
                let matrix = fit
                    .as_ref()
                    .map(FitState::matrix)
                    .or(freeze.as_ref())
                    .expect("every backend keeps a freeze");
                debug_assert_eq!(matrix.epoch(), answers.len(), "assignment read a stale freeze");
                let ctx = AssignmentContext {
                    schema: &schema,
                    answers: matrix,
                    freeze: matrix.freeze_view(),
                    inference: fit.as_ref().map(FitState::result),
                    max_answers_per_cell: self.cfg.max_answers_per_cell,
                    terminated: termination.as_ref().map(|t| t.set()),
                    correlation: None,
                };
                policy.select(worker, batch, &ctx)
            };
            if selected.is_empty() {
                // Candidate pool exhausted for this worker; move on. The
                // budget alone cannot end the run here (avg stops growing when
                // no cell is assignable — e.g. every cell reached
                // `max_answers_per_cell`), so once every worker in the pool
                // has arrived in a row with nothing to do, the run is over.
                consecutive_empty += 1;
                if consecutive_empty >= pool.num_workers() {
                    break;
                }
                hits_since_inference += 1;
                continue;
            }
            consecutive_empty = 0;
            total_hits += 1;
            for cell in selected {
                let value = pool.answer(worker, cell);
                answers.push(Answer { worker, cell, value });
            }
            hits_since_inference += 1;
        }

        // Final full evaluation. Every exit above leaves the fit caught up
        // with the log.
        if let Some(fit) = fit.as_mut() {
            fit.refit(true);
        }
        let final_report = evaluate_now(&answers, fit.as_ref());
        RunResult {
            label: label.to_string(),
            points,
            final_report,
            total_answers: answers.len(),
            terminated_cells: termination.map(|t| t.len()).unwrap_or(0),
            total_hits,
            total_cost: total_hits as f64 * self.cfg.cost_per_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{WorkerPool, WorkerPoolConfig};
    use tcrowd_baselines::{MajorityVoting, RandomPolicy};
    use tcrowd_core::{InherentGainPolicy, StructureAwarePolicy};
    use tcrowd_tabular::{generate_dataset, GeneratorConfig};

    fn small_pool(seed: u64) -> WorkerPool {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 15,
                columns: 4,
                num_workers: 12,
                answers_per_task: 1,
                ..Default::default()
            },
            seed,
        );
        WorkerPool::new(
            &d.schema,
            &d.truth,
            WorkerPoolConfig { num_workers: 12, ..Default::default() },
            seed,
        )
    }

    #[test]
    fn run_respects_budget_and_produces_checkpoints() {
        let mut pool = small_pool(1);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 3.0,
            checkpoint_step: 0.5,
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(1);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("mv-random", &mut pool, &mut policy, &backend);
        let cells = 15.0 * 4.0;
        assert!(result.total_answers as f64 / cells >= 3.0);
        assert!(!result.points.is_empty());
        // Checkpoints are ordered and within budget.
        for w in result.points.windows(2) {
            assert!(w[1].avg_answers > w[0].avg_answers);
        }
        assert!(result.points.last().unwrap().avg_answers <= 3.0 + 1e-9);
    }

    #[test]
    fn quality_improves_with_budget() {
        let mut pool = small_pool(2);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 5.0,
            checkpoint_step: 1.0,
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(2);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("mv-random", &mut pool, &mut policy, &backend);
        let first = result.points.first().unwrap();
        let last = result.points.last().unwrap();
        assert!(
            last.error_rate.unwrap() <= first.error_rate.unwrap() + 0.05,
            "error rate should not degrade with more answers: {} -> {}",
            first.error_rate.unwrap(),
            last.error_rate.unwrap()
        );
    }

    #[test]
    fn tcrowd_backend_runs_end_to_end() {
        let mut pool = small_pool(3);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 2.5,
            checkpoint_step: 0.5,
            inference_every: 3,
            ..Default::default()
        });
        let mut policy = StructureAwarePolicy;
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());
        let result = runner.run("t-crowd", &mut pool, &mut policy, &backend);
        assert!(!result.points.is_empty());
        assert!(result.final_report.error_rate.is_some());
        assert!(result.final_report.mnad.is_some());
    }

    #[test]
    fn cost_accounting_matches_hits() {
        let mut pool = small_pool(11);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 2.0,
            cost_per_hit: 0.05,
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(11);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("cost", &mut pool, &mut policy, &backend);
        assert!(result.total_hits >= 15, "seed phase alone issues one HIT per row");
        assert!((result.total_cost - result.total_hits as f64 * 0.05).abs() < 1e-12);
        // With 4-cell HITs on a 60-cell table, roughly answers/batch HITs
        // beyond the seed phase.
        assert!(result.total_hits <= result.total_answers);
    }

    #[test]
    fn run_terminates_when_pool_is_exhausted_under_cap() {
        // Budget far beyond what the cap allows: the run must still end
        // (regression test for the empty-selection infinite loop).
        let mut pool = small_pool(7);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 50.0,
            max_answers_per_cell: Some(2),
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(7);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("exhausted", &mut pool, &mut policy, &backend);
        // 15×4 cells, cap 2, plus the seed round (1 answer/cell).
        assert!(result.total_answers <= 15 * 4 * 2 + 15 * 4);
    }

    #[test]
    fn stopping_rule_ends_run_before_budget() {
        let mut pool = small_pool(9);
        let lenient = Runner::new(ExperimentConfig {
            budget_avg_answers: 8.0,
            stopping: Some(crate::stopping::StoppingRule {
                p_stop: 0.55,
                max_std: 0.9,
                min_answers: 2,
            }),
            inference_every: 2,
            ..Default::default()
        });
        let mut policy = StructureAwarePolicy;
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());
        let adaptive = lenient.run("adaptive", &mut pool, &mut policy, &backend);
        assert!(adaptive.terminated_cells > 0, "some cells must settle");

        let mut pool2 = small_pool(9);
        let fixed = Runner::new(ExperimentConfig { budget_avg_answers: 8.0, ..Default::default() });
        let mut policy2 = StructureAwarePolicy;
        let fixed_run = fixed.run("fixed", &mut pool2, &mut policy2, &backend);
        assert!(
            adaptive.total_answers <= fixed_run.total_answers,
            "adaptive stopping must not spend more than the fixed budget ({} vs {})",
            adaptive.total_answers,
            fixed_run.total_answers
        );
    }

    #[test]
    fn stopping_rule_is_ignored_for_baseline_backend() {
        let mut pool = small_pool(10);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 2.0,
            stopping: Some(crate::stopping::StoppingRule::default()),
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(10);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("baseline-stop", &mut pool, &mut policy, &backend);
        assert_eq!(result.terminated_cells, 0);
        assert!(result.total_answers as f64 >= 2.0 * 60.0);
    }

    /// Two T-Crowd-backend runs, checked against figures recorded from the
    /// runner's output: the answer/HIT/termination counts exactly, and every
    /// checkpoint's quality (then the final report's) within 1e-12. Any
    /// change to the online loop — freeze maintenance, refit seeding, the
    /// incremental updates between refits — that is not a pure refactoring
    /// moves these numbers.
    #[test]
    fn runner_trajectory_is_pinned() {
        let check = |r: &RunResult, counts: (usize, usize, usize), pinned: &[(f64, f64)]| {
            assert_eq!(
                (r.total_answers, r.total_hits, r.terminated_cells),
                counts,
                "{}: counts moved",
                r.label
            );
            let seen: Vec<(f64, f64)> = r
                .points
                .iter()
                .map(|p| (p.error_rate.unwrap(), p.mnad.unwrap()))
                .chain([(r.final_report.error_rate.unwrap(), r.final_report.mnad.unwrap())])
                .collect();
            assert_eq!(seen.len(), pinned.len(), "{}: checkpoint count moved", r.label);
            for (i, (&(e, m), &(err, mnad))) in seen.iter().zip(pinned).enumerate() {
                assert!(
                    (e - err).abs() <= 1e-12 && (m - mnad).abs() <= 1e-12,
                    "{} point {i}: ({e:?}, {m:?}) vs pinned ({err:?}, {mnad:?})",
                    r.label
                );
            }
        };
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());

        let mut pool = small_pool(5);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 5.0,
            checkpoint_step: 0.5,
            inference_every: 2,
            stopping: Some(crate::stopping::StoppingRule {
                p_stop: 0.9,
                max_std: 0.3,
                min_answers: 2,
            }),
            ..Default::default()
        });
        let stopped = runner.run("structure-stop", &mut pool, &mut StructureAwarePolicy, &backend);
        check(
            &stopped,
            (177, 46, 60),
            &[
                (0.4666666666666667, 0.42464281839431434),
                (0.36666666666666664, 0.3679362419967593),
                (0.26666666666666666, 0.3195716030999801),
                (0.26666666666666666, 0.34254554998091247),
                (0.13333333333333333, 0.3302953828742916),
            ],
        );

        let mut pool = small_pool(6);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 3.5,
            checkpoint_step: 0.5,
            inference_every: 3,
            ..Default::default()
        });
        let inherent = runner.run("inherent", &mut pool, &mut InherentGainPolicy, &backend);
        check(
            &inherent,
            (212, 53, 0),
            &[
                (0.5333333333333333, 0.5246869693745143),
                (0.4, 0.3854446397085),
                (0.3333333333333333, 0.31361555174574574),
                (0.3333333333333333, 0.24667016423545757),
                (0.3, 0.23364913262181353),
                (0.4666666666666667, 0.21699321388543677),
                (0.4666666666666667, 0.21700937963965639),
            ],
        );
    }

    /// Four baseline-policy runs under majority voting, checked against
    /// figures recorded from the runner's output: the answer and HIT counts
    /// exactly, and every checkpoint's quality (then the final report's)
    /// bit for bit. The baseline policies read the context's answers cell
    /// by cell and, for CDAS, column by column, so a change to how the
    /// runner keeps those answers current that is not a pure refactoring
    /// moves these numbers.
    #[test]
    fn baseline_trajectories_are_pinned() {
        use tcrowd_baselines::{CdasPolicy, EntropyPolicy, LoopingPolicy};
        let check = |r: &RunResult, counts: (usize, usize), pinned: &[(f64, f64)]| {
            assert_eq!((r.total_answers, r.total_hits), counts, "{}: counts moved", r.label);
            let seen: Vec<(f64, f64)> = r
                .points
                .iter()
                .map(|p| (p.error_rate.unwrap(), p.mnad.unwrap()))
                .chain([(r.final_report.error_rate.unwrap(), r.final_report.mnad.unwrap())])
                .collect();
            assert_eq!(seen.len(), pinned.len(), "{}: checkpoint count moved", r.label);
            for (i, (&(e, m), &(err, mnad))) in seen.iter().zip(pinned).enumerate() {
                assert!(
                    e.to_bits() == err.to_bits() && m.to_bits() == mnad.to_bits(),
                    "{} point {i}: ({e:?}, {m:?}) vs pinned ({err:?}, {mnad:?})",
                    r.label
                );
            }
        };
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let cfg = ExperimentConfig {
            budget_avg_answers: 4.0,
            checkpoint_step: 0.5,
            ..Default::default()
        };
        let runner = Runner::new(cfg.clone());
        let capped = Runner::new(ExperimentConfig { max_answers_per_cell: Some(3), ..cfg });

        let random =
            runner.run("random", &mut small_pool(21), &mut RandomPolicy::seeded(21), &backend);
        check(
            &random,
            (240, 60),
            &[
                (0.36666666666666664, 0.6051958580554979),
                (0.3333333333333333, 0.44974689260010836),
                (0.3333333333333333, 0.4070624971812674),
                (0.36666666666666664, 0.3968369081562017),
                (0.3333333333333333, 0.2734889606788641),
                (0.36666666666666664, 0.23191512065199987),
                (0.26666666666666666, 0.23957143193695618),
                (0.26666666666666666, 0.23957143193695618),
            ],
        );
        let looping =
            capped.run("looping", &mut small_pool(22), &mut LoopingPolicy::default(), &backend);
        check(
            &looping,
            (180, 45),
            &[
                (0.43333333333333335, 0.7852283649147933),
                (0.4666666666666667, 0.546020369601033),
                (0.4666666666666667, 0.5396048131437086),
                (0.3333333333333333, 0.4927341376883111),
                (0.26666666666666666, 0.5420063703874429),
                (0.26666666666666666, 0.5420063703874429),
            ],
        );
        let entropy = runner.run("entropy", &mut small_pool(23), &mut EntropyPolicy, &backend);
        check(
            &entropy,
            (240, 60),
            &[
                (0.3, 0.8321674116962654),
                (0.3, 0.23424375414139637),
                (0.3, 0.10540758548990004),
                (0.3, 0.11196621348844972),
                (0.3, 0.08544614136254206),
                (0.3, 0.08307782734687008),
                (0.3, 0.07902867456670686),
                (0.3, 0.07902867456670686),
            ],
        );
        let cdas = runner.run("cdas", &mut small_pool(24), &mut CdasPolicy::seeded(24), &backend);
        check(
            &cdas,
            (240, 60),
            &[
                (0.6, 0.6621740378854779),
                (0.4666666666666667, 0.5959781887128403),
                (0.5333333333333333, 0.5299070249959733),
                (0.5, 0.40630621067027894),
                (0.4, 0.3805887823682826),
                (0.36666666666666664, 0.39875614114346614),
                (0.26666666666666666, 0.2534857314246973),
                (0.26666666666666666, 0.2534857314246973),
            ],
        );
    }

    #[test]
    fn redundancy_cap_limits_answers_per_cell() {
        let mut pool = small_pool(4);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 4.0,
            max_answers_per_cell: Some(4),
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(4);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("capped", &mut pool, &mut policy, &backend);
        // Budget says 4.0 avg; the cap makes exactly 4 per cell the ceiling.
        assert!(result.total_answers <= 15 * 4 * 4 + 15 * 4);
    }
}
