//! Entity-aware collection with adaptive stopping: the two extensions built
//! on top of the paper (§7 future work + CDAS-style early termination).
//!
//! Scenario: a film-trivia table whose rows fall into genres. Workers know
//! some genres and not others (a worker who does not recognise one noir star
//! probably does not recognise the next one either). We compare the paper's
//! structure-aware policy against the entity-aware policy that learns the
//! genre structure, and then re-run collection with the confidence-based
//! stopping rule to see the budget it saves.
//!
//! ```text
//! cargo run --release --example entity_aware_collection
//! ```

use tcrowd::core::entity::{EntityModel, EntityModelOptions};
use tcrowd::prelude::*;
use tcrowd::sim::InferenceBackend;
use tcrowd::stat::cluster::adjusted_rand_index;
use tcrowd::tabular::generator::EntityGroups;

const ROWS: usize = 48;
const GENRES: usize = 4;

fn world(seed: u64) -> (Dataset, WorkerPool) {
    // Four genres; each (worker, genre) pair is unfamiliar with prob. 0.3,
    // and unfamiliarity inflates the answer variance 30×.
    let genres = EntityGroups { groups: GENRES, p_unfamiliar: 0.3, difficulty_factor: 30.0 };
    let config = GeneratorConfig {
        rows: ROWS,
        columns: 6,
        categorical_ratio: 0.5,
        num_workers: 24,
        answers_per_task: 1, // the runner's seed phase provides the first pass
        entity_groups: Some(genres),
        ..Default::default()
    };
    let dataset = generate_dataset(&config, seed);
    let pool = WorkerPool::new(
        &dataset.schema,
        &dataset.truth,
        WorkerPoolConfig { num_workers: 24, entity_groups: Some(genres), ..Default::default() },
        seed * 7 + 1,
    );
    (dataset, pool)
}

fn run(
    policy: &mut dyn AssignmentPolicy,
    stopping: Option<StoppingRule>,
    seed: u64,
) -> tcrowd::sim::RunResult {
    let (_, mut pool) = world(seed);
    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: 5.0,
        checkpoint_step: 1.0,
        stopping,
        ..Default::default()
    });
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    runner.run("run", &mut pool, policy, &backend)
}

fn main() {
    let seed = 11;

    // ---- 1. Does the learned grouping recover the genres?
    let (dataset, _) = world(seed);
    // Learning the partition needs a denser (row × worker) matrix than the
    // online run produces early on: a smaller crowd answering more often.
    let dense = generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: 6,
            categorical_ratio: 0.5,
            num_workers: 12,
            answers_per_task: 6,
            entity_groups: Some(EntityGroups {
                groups: GENRES,
                p_unfamiliar: 0.3,
                difficulty_factor: 30.0,
            }),
            ..Default::default()
        },
        seed,
    );
    let inference = TCrowd::default_full().infer(&dense.schema, &dense.answers);
    let model = EntityModel::fit(
        &dense.schema,
        &dense.answers,
        &inference,
        &RowGrouping::Learned { groups: GENRES, seed },
        &EntityModelOptions::default(),
    );
    let truth_groups: Vec<usize> = (0..ROWS).map(|i| i % GENRES).collect();
    println!(
        "learned genre partition vs planted genres: ARI = {:.3} ({} familiarity multipliers fitted)",
        adjusted_rand_index(model.groups(), &truth_groups),
        model.fitted_pairs(),
    );

    // ---- 2. Structure-aware vs entity-aware at equal budget.
    let mut structure = StructureAwarePolicy;
    let sa = run(&mut structure, None, seed);
    let mut entity = EntityAwarePolicy::new(RowGrouping::Known(truth_groups.clone()));
    let ea = run(&mut entity, None, seed);
    println!("\nat a budget of 5 answers/task on {ROWS}×6 ({GENRES} genres):");
    println!(
        "  structure-aware  error rate {:.4}  MNAD {:.4}",
        sa.final_report.error_rate.unwrap(),
        sa.final_report.mnad.unwrap()
    );
    println!(
        "  entity-aware     error rate {:.4}  MNAD {:.4}",
        ea.final_report.error_rate.unwrap(),
        ea.final_report.mnad.unwrap()
    );

    // ---- 3. Adaptive stopping: how much budget does confidence save?
    let mut entity2 = EntityAwarePolicy::new(RowGrouping::Known(truth_groups));
    let adaptive = run(&mut entity2, Some(StoppingRule::default()), seed);
    let cells = (ROWS * 6) as f64;
    println!(
        "\nadaptive stopping: {:.2} answers/task instead of {:.2} ({} of {} cells settled early)",
        adaptive.total_answers as f64 / cells,
        sa.total_answers as f64 / cells,
        adaptive.terminated_cells,
        ROWS * 6,
    );
    println!(
        "  quality after early stop: error rate {:.4}, MNAD {:.4}",
        adaptive.final_report.error_rate.unwrap(),
        adaptive.final_report.mnad.unwrap()
    );
    let _ = dataset;
}
