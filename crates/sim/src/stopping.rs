//! Confidence-based adaptive stopping (an extension in the spirit of
//! CDAS's quality-sensitive termination \[20\], rebuilt on T-Crowd's
//! posteriors).
//!
//! The paper's runs stop when a fixed answer budget is exhausted. CDAS (§6.3)
//! instead *terminates* tasks it is already confident about, so no money is
//! spent refining settled cells. This module brings that idea to T-Crowd's
//! probabilistic machinery: a categorical cell terminates when its posterior
//! mode carries at least `p_stop` mass; a continuous cell terminates when its
//! posterior standard deviation (z-space, i.e. in units of the column's
//! spread) drops below `max_std`. Terminated cells are excluded from
//! assignment through [`AssignmentContext::terminated`], and a run ends when
//! every cell has terminated — typically well before the raw budget.
//!
//! [`AssignmentContext::terminated`]: tcrowd_core::AssignmentContext

use std::collections::HashSet;
use tcrowd_core::{InferenceResult, TruthDist};
use tcrowd_tabular::CellId;

/// Per-cell termination thresholds.
#[derive(Debug, Clone, Copy)]
pub struct StoppingRule {
    /// A categorical cell terminates when `max_z P(T = z) ≥ p_stop`.
    pub p_stop: f64,
    /// A continuous cell terminates when its posterior std (z-space) is at
    /// most this (e.g. 0.25 = a quarter of the column's spread).
    pub max_std: f64,
    /// No cell terminates before it has this many answers (guards against
    /// "confident" posteriors built from a single lucky answer).
    pub min_answers: usize,
}

impl Default for StoppingRule {
    fn default() -> Self {
        StoppingRule { p_stop: 0.9, max_std: 0.25, min_answers: 2 }
    }
}

/// Tracks which cells an adaptive run has terminated.
///
/// Termination is **sticky**: once a cell passes the test it stays
/// terminated even if a later EM run wobbles its posterior below the
/// threshold — the money for it has already been saved, and un-terminating
/// would make run lengths order-dependent.
#[derive(Debug, Clone, Default)]
pub struct TerminationState {
    terminated: HashSet<CellId>,
}

impl TerminationState {
    /// Start with nothing terminated.
    pub fn new() -> Self {
        Self::default()
    }

    /// The terminated set (for [`tcrowd_core::AssignmentContext`]).
    pub fn set(&self) -> &HashSet<CellId> {
        &self.terminated
    }

    /// Number of terminated cells.
    pub fn len(&self) -> usize {
        self.terminated.len()
    }

    /// True when nothing has terminated yet.
    pub fn is_empty(&self) -> bool {
        self.terminated.is_empty()
    }

    /// Whether a specific cell has terminated.
    pub fn contains(&self, cell: CellId) -> bool {
        self.terminated.contains(&cell)
    }

    /// Apply `rule` to every cell of `inference`, given the per-cell answer
    /// counts from `counts(cell)`. Returns how many cells *newly* terminated.
    pub fn update(
        &mut self,
        inference: &InferenceResult,
        rule: &StoppingRule,
        mut counts: impl FnMut(CellId) -> usize,
    ) -> usize {
        let mut newly = 0;
        for i in 0..inference.rows() as u32 {
            for j in 0..inference.cols() as u32 {
                let cell = CellId::new(i, j);
                if self.terminated.contains(&cell) {
                    continue;
                }
                if counts(cell) < rule.min_answers {
                    continue;
                }
                let stop = match inference.truth_z(cell) {
                    TruthDist::Categorical(p) => {
                        p.iter().cloned().fold(0.0, f64::max) >= rule.p_stop
                    }
                    TruthDist::Continuous(n) => n.var.sqrt() <= rule.max_std,
                };
                if stop {
                    self.terminated.insert(cell);
                    newly += 1;
                }
            }
        }
        newly
    }

    /// True when every cell of an `rows × cols` table has terminated.
    pub fn all_terminated(&self, rows: usize, cols: usize) -> bool {
        self.terminated.len() >= rows * cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_core::TCrowd;
    use tcrowd_tabular::{generate_dataset, AnswerMatrix, Dataset, GeneratorConfig};

    /// A generated table, its freeze and its fit.
    fn inference(seed: u64, answers_per_task: usize) -> (Dataset, AnswerMatrix, InferenceResult) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 20,
                columns: 4,
                num_workers: 15,
                answers_per_task,
                ..Default::default()
            },
            seed,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let m = d.answers.to_matrix();
        (d, m, r)
    }

    #[test]
    fn nothing_terminates_below_min_answers() {
        let (_, m, r) = inference(1, 3);
        let mut state = TerminationState::new();
        let rule = StoppingRule { min_answers: 10, ..Default::default() };
        let newly = state.update(&r, &rule, |c| m.count_for_cell(c));
        assert_eq!(newly, 0);
        assert!(state.is_empty());
    }

    #[test]
    fn lenient_rule_terminates_everything() {
        let (_, m, r) = inference(2, 3);
        let mut state = TerminationState::new();
        let rule = StoppingRule { p_stop: 0.0, max_std: f64::INFINITY, min_answers: 1 };
        state.update(&r, &rule, |c| m.count_for_cell(c));
        assert!(state.all_terminated(20, 4));
    }

    #[test]
    fn more_answers_terminate_more_cells() {
        let rule = StoppingRule::default();
        let (_, m3, r3) = inference(3, 3);
        let (_, m8, r8) = inference(3, 8);
        let mut s3 = TerminationState::new();
        let mut s8 = TerminationState::new();
        s3.update(&r3, &rule, |c| m3.count_for_cell(c));
        s8.update(&r8, &rule, |c| m8.count_for_cell(c));
        assert!(
            s8.len() >= s3.len(),
            "8 answers/task should settle at least as many cells as 3 ({} vs {})",
            s8.len(),
            s3.len()
        );
        assert!(!s8.is_empty(), "with 8 answers/task some cells must be settled");
    }

    #[test]
    fn termination_is_sticky_and_update_is_idempotent() {
        let (_, m, r) = inference(4, 5);
        let mut state = TerminationState::new();
        let rule = StoppingRule::default();
        let first = state.update(&r, &rule, |c| m.count_for_cell(c));
        let second = state.update(&r, &rule, |c| m.count_for_cell(c));
        assert_eq!(second, 0, "second pass must terminate nothing new");
        assert_eq!(state.len(), first);
    }

    /// Every shipped policy keeps off terminated cells, at a small `k` and
    /// at one far past the table: with `k` at least the open cell count, a
    /// worker the fit has not seen gets exactly the open cells.
    #[test]
    fn terminated_set_plugs_into_assignment_context() {
        use tcrowd_baselines::{
            CdasPolicy, EntropyPolicy, LoopingPolicy, QascaPolicy, RandomPolicy,
        };
        use tcrowd_core::{
            AssignmentContext, AssignmentPolicy, EntityAwarePolicy, InherentGainPolicy,
            RowGrouping, StructureAwarePolicy,
        };
        use tcrowd_tabular::WorkerId;
        let (d, m, r) = inference(5, 2);
        let mut state = TerminationState::new();
        // Terminate roughly half the table with a moderate rule.
        let rule = StoppingRule { p_stop: 0.5, max_std: 1.0, min_answers: 1 };
        state.update(&r, &rule, |c| m.count_for_cell(c));
        let open: Vec<CellId> = d.answers.cells().filter(|&c| !state.contains(c)).collect();
        assert!(!state.is_empty() && !open.is_empty(), "the rule must split the table");
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &m,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: Some(state.set()),
            correlation: None,
        };
        for k in [80, 1 << 40] {
            let policies: Vec<Box<dyn AssignmentPolicy>> = vec![
                Box::new(InherentGainPolicy),
                Box::new(StructureAwarePolicy),
                Box::new(EntityAwarePolicy::new(RowGrouping::Learned { groups: 2, seed: 1 })),
                Box::new(QascaPolicy),
                Box::new(RandomPolicy::seeded(1)),
                Box::new(LoopingPolicy::default()),
                Box::new(EntropyPolicy),
                Box::new(CdasPolicy::seeded(1)),
            ];
            for mut policy in policies {
                let mut picks = policy.select(WorkerId(42_000), k, &ctx);
                for &c in &picks {
                    assert!(
                        !state.contains(c),
                        "{} k {k}: terminated {c:?} assigned",
                        policy.name()
                    );
                }
                picks.sort();
                assert_eq!(picks, open, "{} k {k}", policy.name());
            }
        }
    }
}
