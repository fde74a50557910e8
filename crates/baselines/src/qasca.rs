//! QASCA-style assignment (paper ref \[39\]: Zheng, Wang, Li, Cheng, Feng —
//! *QASCA: a quality-aware task assignment system for crowdsourcing
//! applications*, SIGMOD 2015).
//!
//! QASCA assigns the incoming worker the tasks that maximise the expected
//! improvement of the deployment's *quality metric* — for the Accuracy
//! metric, the expected increase of the posterior mode's mass:
//!
//! ```text
//! ΔAcc(c) = E_a[ max_z P(T_c = z | a) ] − max_z P(T_c = z)
//! ```
//!
//! where the expectation runs over the worker's predicted answer
//! distribution. This differs from T-Crowd's information gain (entropy
//! delta, Eq. 6) in the functional: QASCA optimises the *point-estimate hit
//! rate*, T-Crowd the full-distribution uncertainty. QASCA is defined for
//! single/multi-choice tasks; for continuous cells we use the natural
//! analogue — the expected reduction of the posterior standard deviation
//! relative to the column spread. That is an adaptation: the original
//! system has no continuous tasks.
//!
//! Requires a T-Crowd inference result in the context (QASCA likewise keeps
//! per-worker quality online).

use tcrowd_core::{AssignmentContext, AssignmentPolicy, TopK, TruthDist};
use tcrowd_stat::clamp_var;
use tcrowd_tabular::{CellId, Value, WorkerId};

/// QASCA-style expected-accuracy-improvement policy.
#[derive(Debug, Default)]
pub struct QascaPolicy;

/// Expected accuracy improvement of one more answer on a categorical cell
/// with posterior `p`, answered with quality `q`.
fn categorical_delta_accuracy(p: &[f64], obs_var: f64, q: f64, truth: &TruthDist) -> f64 {
    let l = p.len() as u32;
    if l <= 1 {
        return 0.0;
    }
    let acc0 = p.iter().cloned().fold(0.0, f64::max);
    let mut expected = 0.0;
    for a in 0..l {
        // Predictive answer probability P(a) = Σ_z P(z)·P(a|z).
        let p_a: f64 = p
            .iter()
            .enumerate()
            .map(|(z, pz)| {
                let correct = z as u32 == a;
                pz * if correct { q } else { (1.0 - q) / (l - 1) as f64 }
            })
            .sum();
        if p_a <= 0.0 {
            continue;
        }
        let post = truth.updated_with_answer(&Value::Categorical(a), obs_var, q);
        let acc1 = match post {
            TruthDist::Categorical(pp) => pp.iter().cloned().fold(0.0, f64::max),
            TruthDist::Continuous(_) => unreachable!("type mismatch"),
        };
        expected += p_a * acc1;
    }
    expected - acc0
}

impl AssignmentPolicy for QascaPolicy {
    fn name(&self) -> &'static str {
        "qasca"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference =
            ctx.inference.expect("QascaPolicy requires an inference result in the context");
        let candidates = ctx.candidates(worker);
        let mut top = TopK::new(k, candidates.len());
        for c in candidates {
            let v = clamp_var(inference.effective_variance(worker, c));
            let q = inference.cell_quality(worker, c);
            let score = match inference.truth_z(c) {
                t @ TruthDist::Categorical(p) => categorical_delta_accuracy(p, v, q, t),
                TruthDist::Continuous(n) => {
                    // Posterior std shrinks deterministically; z-space puts
                    // the drop on the column-spread scale, which is
                    // commensurate with an accuracy delta in [0, 1].
                    let var1 = 1.0 / (1.0 / n.var + 1.0 / v);
                    n.var.sqrt() - var1.sqrt()
                }
            };
            top.push(score, c);
        }
        top.into_picks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_core::TCrowd;
    use tcrowd_stat::Normal;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig};

    #[test]
    fn delta_accuracy_is_nonnegative_and_bounded() {
        for p in [vec![0.25; 4], vec![0.6, 0.2, 0.1, 0.1], vec![0.5, 0.5]] {
            let t = TruthDist::Categorical(p.clone());
            for q in [0.4, 0.7, 0.95] {
                let d = categorical_delta_accuracy(&p, 1.0, q, &t);
                let acc0 = p.iter().cloned().fold(0.0, f64::max);
                assert!(d >= -1e-9, "ΔAcc must be non-negative, got {d}");
                assert!(d <= 1.0 - acc0 + 1e-9, "ΔAcc cannot exceed 1 − acc");
            }
        }
    }

    #[test]
    fn uninformative_worker_improves_nothing() {
        let p = vec![0.5, 0.3, 0.2];
        let t = TruthDist::Categorical(p.clone());
        let d = categorical_delta_accuracy(&p, 1.0, 1.0 / 3.0, &t);
        assert!(d.abs() < 1e-9, "q = 1/|L| is uninformative, ΔAcc = {d}");
    }

    #[test]
    fn settled_cell_scores_lower_than_uncertain_cell() {
        let uncertain = vec![0.4, 0.3, 0.3];
        let settled = vec![0.98, 0.01, 0.01];
        let tu = TruthDist::Categorical(uncertain.clone());
        let ts = TruthDist::Categorical(settled.clone());
        let du = categorical_delta_accuracy(&uncertain, 1.0, 0.85, &tu);
        let ds = categorical_delta_accuracy(&settled, 1.0, 0.85, &ts);
        assert!(du > ds, "{du} !> {ds}");
    }

    #[test]
    fn continuous_score_prefers_wide_posteriors() {
        let wide = Normal::new(0.0, 4.0);
        let tight = Normal::new(0.0, 0.01);
        let v = 1.0;
        let dw = wide.var.sqrt() - (1.0f64 / (1.0 / wide.var + 1.0 / v)).sqrt();
        let dt = tight.var.sqrt() - (1.0f64 / (1.0 / tight.var + 1.0 / v)).sqrt();
        assert!(dw > dt);
    }

    #[test]
    fn policy_selects_k_distinct_cells_end_to_end() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 20,
                columns: 4,
                num_workers: 12,
                answers_per_task: 3,
                ..Default::default()
            },
            5,
        );
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
        let mut policy = QascaPolicy;
        let picks = policy.select(WorkerId(40_000), 6, &ctx);
        assert_eq!(picks.len(), 6);
        let mut dedup = picks.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 6);
    }
}
