//! Cross-crate integration tests for the two extensions built on top of the
//! paper's evaluation: the §7 entity-correlation policy and the
//! confidence-based adaptive stopping rule.

use tcrowd::core::{EntityAwarePolicy, RowGrouping, StructureAwarePolicy, TCrowd};
use tcrowd::prelude::*;
use tcrowd::sim::InferenceBackend;
use tcrowd::tabular::generator::EntityGroups;

const ROWS: usize = 30;
const COLS: usize = 5;
const GROUPS: usize = 3;

/// A world with a strong entity-group familiarity effect.
fn grouped_world(seed: u64) -> (Dataset, WorkerPool) {
    let eg = EntityGroups { groups: GROUPS, p_unfamiliar: 0.35, difficulty_factor: 40.0 };
    let d = generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: COLS,
            categorical_ratio: 0.6,
            num_workers: 20,
            answers_per_task: 1,
            entity_groups: Some(eg),
            ..Default::default()
        },
        seed,
    );
    let pool = WorkerPool::new(
        &d.schema,
        &d.truth,
        WorkerPoolConfig { num_workers: 20, entity_groups: Some(eg), ..Default::default() },
        seed * 31 + 5,
    );
    (d, pool)
}

fn run(
    seed: u64,
    budget: f64,
    stopping: Option<StoppingRule>,
    mut policy: Box<dyn AssignmentPolicy>,
) -> tcrowd::sim::RunResult {
    let (_, mut pool) = grouped_world(seed);
    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: budget,
        checkpoint_step: 1.0,
        stopping,
        ..Default::default()
    });
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    runner.run("run", &mut pool, policy.as_mut(), &backend)
}

#[test]
fn entity_policy_matches_structure_aware_on_grouped_data() {
    // With a real entity-group effect in the oracle, the entity-aware policy
    // must do at least as well as the structure-aware one at equal budget
    // (averaged over seeds; a generous tolerance keeps the test robust).
    let known: Vec<usize> = (0..ROWS).map(|i| i % GROUPS).collect();
    let mut entity_err = 0.0;
    let mut structure_err = 0.0;
    for seed in 0..3 {
        let e = run(
            seed,
            3.0,
            None,
            Box::new(EntityAwarePolicy::new(RowGrouping::Known(known.clone()))),
        );
        let s = run(seed, 3.0, None, Box::new(StructureAwarePolicy));
        entity_err += e.final_report.error_rate.unwrap();
        structure_err += s.final_report.error_rate.unwrap();
    }
    assert!(
        entity_err <= structure_err + 0.03 * 3.0,
        "entity-aware {} vs structure-aware {}",
        entity_err / 3.0,
        structure_err / 3.0
    );
}

#[test]
fn entity_policy_with_learned_groups_runs_end_to_end() {
    let r = run(
        7,
        2.5,
        None,
        Box::new(EntityAwarePolicy::new(RowGrouping::Learned { groups: GROUPS, seed: 9 })),
    );
    assert!(r.final_report.error_rate.is_some());
    assert!(r.total_answers as f64 >= 2.5 * (ROWS * COLS) as f64);
}

#[test]
fn adaptive_stopping_saves_answers_without_wrecking_quality() {
    let rule = StoppingRule { p_stop: 0.85, max_std: 0.35, min_answers: 2 };
    let mut saved = 0i64;
    let mut adaptive_err = 0.0;
    let mut fixed_err = 0.0;
    for seed in 20..23 {
        let a = run(seed, 6.0, Some(rule), Box::new(StructureAwarePolicy));
        let f = run(seed, 6.0, None, Box::new(StructureAwarePolicy));
        saved += f.total_answers as i64 - a.total_answers as i64;
        adaptive_err += a.final_report.error_rate.unwrap();
        fixed_err += f.final_report.error_rate.unwrap();
    }
    assert!(saved >= 0, "adaptive stopping must not spend more than fixed budget");
    // Quality may degrade slightly (that is the price of stopping early) but
    // must stay in the same regime.
    assert!(
        adaptive_err <= fixed_err + 0.10 * 3.0,
        "adaptive {} vs fixed {}",
        adaptive_err / 3.0,
        fixed_err / 3.0
    );
}

#[test]
fn stopping_terminates_cells_by_budget_end() {
    let rule = StoppingRule { p_stop: 0.7, max_std: 0.6, min_answers: 2 };
    let r = run(20, 5.0, Some(rule), Box::new(StructureAwarePolicy));
    assert!(
        r.terminated_cells > 0,
        "a 5-answer budget should settle at least one cell under a lenient rule"
    );
}
