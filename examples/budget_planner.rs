//! Budget planning: how many answers per task does each assignment strategy
//! need to reach a target quality? Sweeps the budget and reports the first
//! checkpoint at which each strategy crosses the target — the cost-saving
//! argument of the paper's abstract ("about half of the answers").
//!
//! ```text
//! cargo run --release --example budget_planner
//! ```

use tcrowd::baselines::{EntropyPolicy, RandomPolicy};
use tcrowd::core::{AssignmentPolicy, StructureAwarePolicy, TCrowd};
use tcrowd::sim::{ExperimentConfig, InferenceBackend, Runner, WorkerPool, WorkerPoolConfig};
use tcrowd::tabular::{generate_dataset, GeneratorConfig, RowFamiliarity};

fn main() {
    let target_error = 0.10;
    println!("target: categorical error rate <= {target_error}\n");

    let data = generate_dataset(
        &GeneratorConfig {
            rows: 60,
            columns: 6,
            num_workers: 40,
            answers_per_task: 1,
            row_familiarity: Some(RowFamiliarity::default()),
            ..Default::default()
        },
        19,
    );
    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: 6.0,
        checkpoint_step: 0.25,
        ..Default::default()
    });

    println!("{:<28} {:>22}", "strategy", "answers/task to target");
    for label in ["structure-aware gain", "entropy (AskIt!)", "random"] {
        let mut pool = WorkerPool::new(
            &data.schema,
            &data.truth,
            WorkerPoolConfig { num_workers: 40, ..Default::default() },
            23,
        );
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());
        let mut sa = StructureAwarePolicy;
        let mut entropy = EntropyPolicy;
        let mut random = RandomPolicy::seeded(5);
        let policy: &mut dyn AssignmentPolicy = match label {
            "structure-aware gain" => &mut sa,
            "entropy (AskIt!)" => &mut entropy,
            _ => &mut random,
        };
        let result = runner.run(label, &mut pool, policy, &backend);
        let reached = result
            .points
            .iter()
            .find(|p| p.error_rate.map(|e| e <= target_error).unwrap_or(false))
            .map(|p| format!("{:.2}", p.avg_answers))
            .unwrap_or_else(|| "not reached at 6.0".to_string());
        println!("{label:<28} {reached:>22}");
    }
    println!("\nLower is cheaper: every saved answer is a saved HIT payment.");
}
