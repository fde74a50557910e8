//! Unknown-entity collection (paper §7, second future-work direction): the
//! rows of the table are not known up front — the crowd first *enumerates*
//! the entities, then fills in their attributes.
//!
//! Pipeline demonstrated:
//! 1. Workers propose entities; support counting suppresses spurious
//!    proposals and a Good–Turing estimate of the unseen mass decides when
//!    to stop paying for enumeration (`tcrowd_sim::discovery`).
//! 2. The accepted entity set becomes the row set of an ordinary T-Crowd
//!    table; attributes are then crowdsourced and inferred as usual.
//!
//! ```text
//! cargo run --release --example unknown_entities
//! ```

use tcrowd::prelude::*;
use tcrowd::sim::discovery::{run_discovery, EntityUniverse, ProposalOracle};
use tcrowd::sim::InferenceBackend;

fn main() {
    // ---- Phase 1: entity enumeration.
    let universe = EntityUniverse {
        num_entities: 60,
        popularity_skew: 0.8,
        p_spurious: 0.15, // 15 % of proposals are junk
        spurious_space: 10_000,
    };
    let mut oracle = ProposalOracle::new(universe, 7);
    // The Good–Turing unseen mass floors at the spurious rate (junk is always
    // a first sighting), so the stopping threshold sits just above 15 %.
    let state = run_discovery(&mut oracle, 25, 0.17, 100_000);
    let rows = state.accepted(2); // require two independent proposers
    let (precision, recall) = state.score(2, 60);
    println!(
        "enumeration: {} proposals → {} accepted entities (precision {:.3}, recall {:.3})",
        state.proposals(),
        rows.len(),
        precision,
        recall,
    );
    println!(
        "Good–Turing unseen mass at stop: {:.4} (threshold 0.17)",
        state.estimated_unseen_mass()
    );

    // ---- Phase 2: attribute collection over the discovered rows.
    let config = GeneratorConfig {
        rows: rows.len(),
        columns: 5,
        categorical_ratio: 0.4,
        num_workers: 25,
        answers_per_task: 1,
        ..Default::default()
    };
    let dataset = generate_dataset(&config, 11);
    let mut pool = WorkerPool::new(
        &dataset.schema,
        &dataset.truth,
        WorkerPoolConfig { num_workers: 25, ..Default::default() },
        13,
    );
    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: 4.0,
        checkpoint_step: 1.0,
        stopping: Some(StoppingRule::default()),
        ..Default::default()
    });
    let mut policy = StructureAwarePolicy;
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    let result = runner.run("fill", &mut pool, &mut policy, &backend);
    println!(
        "\nattribute collection over {} discovered rows: {} answers, error rate {:.4}, MNAD {:.4}",
        rows.len(),
        result.total_answers,
        result.final_report.error_rate.unwrap(),
        result.final_report.mnad.unwrap(),
    );
    println!(
        "({} of {} cells settled early by the stopping rule)",
        result.terminated_cells,
        rows.len() * 5,
    );
}
