//! Baseline assignment policies (paper §6.3 and Fig. 5).
//!
//! * [`RandomPolicy`] — uniform random among eligible cells (what CRH and
//!   CATD use in the end-to-end comparison, and CDAS within its
//!   non-terminated pool).
//! * [`LoopingPolicy`] — round-robin over cells (the "Looping" heuristic).
//! * [`EntropyPolicy`] — AskIt!-style: pick the most *uncertain* cells, with
//!   uncertainty measured directly on the answers (vote entropy for
//!   categorical cells, Gaussian differential entropy of the raw answers for
//!   continuous cells). Deliberately reproduces the paper's observation that
//!   raw entropies are datatype-biased: wide continuous domains dwarf
//!   `ln |L|`, so continuous tasks are picked first.
//! * [`CdasPolicy`] — CDAS-style: estimate each task's confidence, freeze
//!   ("terminate") confident tasks, assign randomly among the rest.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tcrowd_core::{AssignmentContext, AssignmentPolicy, TopK};
use tcrowd_stat::describe::std_dev;
use tcrowd_stat::entropy::shannon;
use tcrowd_tabular::{CellId, ColumnType, WorkerId};

/// Uniform random assignment.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// Create with a seed (experiments must be reproducible).
    pub fn seeded(seed: u64) -> Self {
        RandomPolicy { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Default for RandomPolicy {
    fn default() -> Self {
        Self::seeded(7)
    }
}

impl AssignmentPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let mut candidates = ctx.candidates(worker);
        candidates.shuffle(&mut self.rng);
        candidates.truncate(k);
        candidates
    }

    fn stateful(&self) -> bool {
        true
    }
}

/// Round-robin assignment: walk the table in row-major order, resuming where
/// the previous call stopped.
#[derive(Debug, Default)]
pub struct LoopingPolicy {
    /// Row-major slot of the first cell the next call may pick.
    cursor: usize,
}

impl AssignmentPolicy for LoopingPolicy {
    fn name(&self) -> &'static str {
        "looping"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let cols = ctx.answers.cols();
        let slot = |c: CellId| c.row as usize * cols + c.col as usize;
        // One lap at most: the candidates from the cursor on, then the ones
        // before it. `k` is the caller's, unbounded.
        let candidates = ctx.candidates(worker);
        let (before, after) =
            candidates.split_at(candidates.partition_point(|&c| slot(c) < self.cursor));
        let picked: Vec<CellId> = after.iter().chain(before).take(k).copied().collect();
        if let Some(&last) = picked.last() {
            self.cursor = slot(last) + 1;
        }
        picked
    }

    fn stateful(&self) -> bool {
        true
    }
}

/// AskIt!-style highest-uncertainty assignment, computed from raw answers.
#[derive(Debug, Default)]
pub struct EntropyPolicy;

/// The continuous values claimed for one cell, in arrival order.
fn continuous_cell_values(ctx: &AssignmentContext<'_>, cell: CellId) -> Vec<f64> {
    ctx.answers.cell_answers(cell).map(|a| a.value.expect_continuous()).collect()
}

/// Raw-answer uncertainty of one cell (the AskIt!-style criterion).
///
/// Categorical: Shannon entropy of the empirical vote distribution (maximal
/// `ln |L|` when unanswered). Continuous: differential entropy `½ln(2πe s²)`
/// of the answers *in their original domain units* — unanswered or
/// single-answer cells use the domain width as the spread. Keeping the raw
/// units is what reproduces the paper's datatype bias.
pub fn raw_uncertainty(ctx: &AssignmentContext<'_>, cell: CellId) -> f64 {
    match ctx.schema.column_type(cell.col as usize) {
        ColumnType::Categorical { labels } => {
            let l = labels.len();
            let mut counts = vec![0.0f64; l];
            let mut n = 0.0;
            for a in ctx.answers.cell_answers(cell) {
                counts[a.value.expect_categorical() as usize] += 1.0;
                n += 1.0;
            }
            if n == 0.0 {
                (l as f64).ln()
            } else {
                counts.iter_mut().for_each(|c| *c /= n);
                shannon(&counts)
            }
        }
        ColumnType::Continuous { min, max } => {
            let vals = continuous_cell_values(ctx, cell);
            let spread = if vals.len() < 2 {
                // No information yet: spread of a uniform over the domain.
                (max - min) / 12f64.sqrt()
            } else {
                std_dev(&vals).max(1e-6)
            };
            // Differential entropy of N(·, spread²).
            0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * spread * spread).ln()
        }
    }
}

impl AssignmentPolicy for EntropyPolicy {
    fn name(&self) -> &'static str {
        "entropy (AskIt!)"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let candidates = ctx.candidates(worker);
        let mut top = TopK::new(k, candidates.len());
        for c in candidates {
            top.push(raw_uncertainty(ctx, c), c);
        }
        top.into_picks()
    }
}

/// CDAS-style confidence-terminated random assignment.
#[derive(Debug)]
pub struct CdasPolicy {
    /// Minimum answers before a task may terminate.
    pub min_answers: usize,
    /// Categorical: terminate when the (smoothed) majority share reaches
    /// this level.
    pub vote_confidence: f64,
    /// Continuous: terminate when the standard error of the mean drops below
    /// this fraction of the column's answer spread.
    pub relative_se: f64,
    rng: StdRng,
}

impl CdasPolicy {
    /// Create with a seed.
    pub fn seeded(seed: u64) -> Self {
        CdasPolicy {
            min_answers: 3,
            vote_confidence: 0.8,
            relative_se: 0.25,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Is this task confidently resolved (terminated)?
    pub fn is_terminated(&self, ctx: &AssignmentContext<'_>, cell: CellId) -> bool {
        let n = ctx.answers.count_for_cell(cell);
        if n < self.min_answers {
            return false;
        }
        match ctx.schema.column_type(cell.col as usize) {
            ColumnType::Categorical { labels } => {
                let mut counts = vec![0.0f64; labels.len()];
                for a in ctx.answers.cell_answers(cell) {
                    counts[a.value.expect_categorical() as usize] += 1.0;
                }
                let top = counts.iter().cloned().fold(0.0, f64::max);
                // Laplace-smoothed majority share (CDAS's quality-sensitive
                // termination, simplified to anonymous worker accuracy).
                (top + 1.0) / (n as f64 + 2.0) >= self.vote_confidence
            }
            ColumnType::Continuous { .. } => {
                let vals = continuous_cell_values(ctx, cell);
                // The column's raw answer spread, summed in cell-major order.
                let m = ctx.answers;
                let col_vals: Vec<f64> = (0..m.rows() as u32)
                    .flat_map(|row| m.cell_range(CellId::new(row, cell.col)))
                    .filter(|&k| !m.is_categorical(k))
                    .map(|k| m.answer_values()[k])
                    .collect();
                let scale = std_dev(&col_vals).max(1e-9);
                let se = std_dev(&vals) / (vals.len() as f64).sqrt();
                se / scale < self.relative_se
            }
        }
    }
}

impl Default for CdasPolicy {
    fn default() -> Self {
        Self::seeded(23)
    }
}

impl AssignmentPolicy for CdasPolicy {
    fn name(&self) -> &'static str {
        "CDAS"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let mut open: Vec<CellId> =
            ctx.candidates(worker).into_iter().filter(|&c| !self.is_terminated(ctx, c)).collect();
        if open.len() < k {
            // All remaining tasks are "done": CDAS keeps spending budget on
            // random open-or-not candidates rather than stalling.
            let mut rest: Vec<CellId> =
                ctx.candidates(worker).into_iter().filter(|c| !open.contains(c)).collect();
            rest.shuffle(&mut self.rng);
            open.extend(rest);
        }
        open.shuffle(&mut self.rng);
        open.truncate(k);
        open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{generate_dataset, Answer, GeneratorConfig, Value};

    fn ctx_fixture(seed: u64) -> (tcrowd_tabular::Dataset, ()) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 12,
                columns: 4,
                num_workers: 10,
                answers_per_task: 3,
                ..Default::default()
            },
            seed,
        );
        (d, ())
    }

    fn make_ctx<'a>(
        d: &'a tcrowd_tabular::Dataset,
        m: &'a tcrowd_tabular::AnswerMatrix,
    ) -> AssignmentContext<'a> {
        AssignmentContext {
            schema: &d.schema,
            answers: m,
            freeze: m.freeze_view(),
            inference: None,
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        }
    }

    #[test]
    fn random_policy_selects_k_unanswered() {
        let (d, _) = ctx_fixture(1);
        let m = d.answers.to_matrix();
        let ctx = make_ctx(&d, &m);
        let mut p = RandomPolicy::seeded(1);
        let w = WorkerId(500);
        let picks = p.select(w, 6, &ctx);
        assert_eq!(picks.len(), 6);
        let mut sorted = picks.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn random_policy_is_seed_deterministic() {
        let (d, _) = ctx_fixture(2);
        let m = d.answers.to_matrix();
        let ctx = make_ctx(&d, &m);
        let a = RandomPolicy::seeded(5).select(WorkerId(0), 5, &ctx);
        let b = RandomPolicy::seeded(5).select(WorkerId(0), 5, &ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn looping_policy_walks_in_order_and_resumes() {
        let (d, _) = ctx_fixture(3);
        let m = d.answers.to_matrix();
        let ctx = make_ctx(&d, &m);
        let mut p = LoopingPolicy::default();
        let w = WorkerId(500);
        let first = p.select(w, 3, &ctx);
        assert_eq!(first, vec![CellId::new(0, 0), CellId::new(0, 1), CellId::new(0, 2)]);
        let second = p.select(w, 2, &ctx);
        assert_eq!(second, vec![CellId::new(0, 3), CellId::new(1, 0)]);
    }

    #[test]
    fn looping_policy_picks_at_most_one_lap_for_any_k() {
        let (d, _) = ctx_fixture(3);
        let m = d.answers.to_matrix();
        let ctx = make_ctx(&d, &m);
        let picks = LoopingPolicy::default().select(WorkerId(500), usize::MAX, &ctx);
        assert_eq!(picks.len(), d.rows() * d.cols(), "an unseen worker gets every cell once");
    }

    #[test]
    fn entropy_policy_prefers_continuous_first() {
        // The paper's Fig. 5 discussion: raw entropies are biased toward
        // wide continuous domains.
        let (d, _) = ctx_fixture(4);
        let m = d.answers.to_matrix();
        let ctx = make_ctx(&d, &m);
        let mut p = EntropyPolicy;
        let picks = p.select(WorkerId(500), 5, &ctx);
        let cont: Vec<usize> = d.schema.continuous_columns();
        for c in &picks {
            assert!(
                cont.contains(&(c.col as usize)),
                "entropy policy picked categorical {c:?} before continuous tasks"
            );
        }
    }

    #[test]
    fn entropy_of_unanswered_categorical_is_maximal() {
        let (d, _) = ctx_fixture(5);
        let mut log = tcrowd_tabular::AnswerLog::new(d.rows(), d.cols());
        // Answer one cell unanimously; leave another empty.
        let j = d.schema.categorical_columns()[0] as u32;
        for w in 0..4u32 {
            log.push(Answer {
                worker: WorkerId(w),
                cell: CellId::new(0, j),
                value: Value::Categorical(0),
            });
        }
        let m = log.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &m,
            freeze: m.freeze_view(),
            inference: None,
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let settled = raw_uncertainty(&ctx, CellId::new(0, j));
        let open = raw_uncertainty(&ctx, CellId::new(1, j));
        assert!(open > settled);
        assert_eq!(settled, 0.0, "unanimous vote has zero entropy");
    }

    #[test]
    fn cdas_terminates_unanimous_tasks() {
        let (d, _) = ctx_fixture(6);
        let mut log = tcrowd_tabular::AnswerLog::new(d.rows(), d.cols());
        let j = d.schema.categorical_columns()[0] as u32;
        for w in 0..5u32 {
            log.push(Answer {
                worker: WorkerId(w),
                cell: CellId::new(0, j),
                value: Value::Categorical(1),
            });
        }
        let m = log.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &m,
            freeze: m.freeze_view(),
            inference: None,
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let p = CdasPolicy::seeded(1);
        assert!(p.is_terminated(&ctx, CellId::new(0, j)));
        assert!(!p.is_terminated(&ctx, CellId::new(1, j)), "unanswered is open");
        // A contested cell stays open.
        let mut contested = tcrowd_tabular::AnswerLog::new(d.rows(), d.cols());
        for (w, l) in [(0u32, 0u32), (1, 1), (2, 2), (3, 0), (4, 1)] {
            contested.push(Answer {
                worker: WorkerId(w),
                cell: CellId::new(0, j),
                value: Value::Categorical(l),
            });
        }
        let m2 = contested.to_matrix();
        let ctx2 = AssignmentContext {
            schema: &d.schema,
            answers: &m2,
            freeze: m2.freeze_view(),
            inference: None,
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        assert!(!p.is_terminated(&ctx2, CellId::new(0, j)));
    }

    #[test]
    fn cdas_avoids_terminated_tasks_when_possible() {
        let (d, _) = ctx_fixture(7);
        let m = d.answers.to_matrix();
        let ctx = make_ctx(&d, &m);
        let mut p = CdasPolicy::seeded(2);
        let picks = p.select(WorkerId(900), 4, &ctx);
        assert_eq!(picks.len(), 4);
        for c in &picks {
            // With only 3 noisy answers per task, most cells are open; the
            // chosen ones must certainly be open when any open cell exists.
            if p.is_terminated(&ctx, *c) {
                // Allowed only if every candidate was terminated — not the
                // case in this fixture.
                panic!("CDAS picked a terminated cell while open cells existed");
            }
        }
    }
}
