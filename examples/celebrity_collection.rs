//! End-to-end crowdsourcing of a celebrity-information table (the paper's
//! running example): budget-constrained task assignment with the
//! structure-aware information gain, compared against random assignment at
//! the same budget.
//!
//! ```text
//! cargo run --release --example celebrity_collection
//! ```

use tcrowd::baselines::RandomPolicy;
use tcrowd::core::{StructureAwarePolicy, TCrowd};
use tcrowd::sim::{ExperimentConfig, InferenceBackend, Runner, WorkerPool, WorkerPoolConfig};
use tcrowd::tabular::real_sim;

fn main() {
    // Ground truth table with the Celebrity shape (174 pictures × 7
    // attributes); the recorded answers are ignored — we collect our own
    // through the simulated crowd.
    let dataset = real_sim::celebrity(7);
    println!(
        "collecting {} cells over {} columns with a budget of 3.5 answers/task\n",
        dataset.rows() * dataset.cols(),
        dataset.cols()
    );

    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: 3.5,
        checkpoint_step: 0.5,
        ..Default::default()
    });

    let mut results = Vec::new();
    for label in ["T-Crowd (structure-aware)", "random assignment"] {
        let mut pool = WorkerPool::new(
            &dataset.schema,
            &dataset.truth,
            WorkerPoolConfig { num_workers: 109, ..Default::default() },
            11,
        );
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());
        let result = match label {
            "T-Crowd (structure-aware)" => {
                let mut policy = StructureAwarePolicy;
                runner.run(label, &mut pool, &mut policy, &backend)
            }
            _ => {
                let mut policy = RandomPolicy::seeded(3);
                runner.run(label, &mut pool, &mut policy, &backend)
            }
        };
        results.push(result);
    }

    println!("answers/task    T-Crowd err   T-Crowd MNAD    random err   random MNAD");
    let (tc, rnd) = (&results[0], &results[1]);
    for (a, b) in tc.points.iter().zip(&rnd.points) {
        println!(
            "{:>12.2}    {:>11.4}   {:>12.4}    {:>10.4}   {:>11.4}",
            a.avg_answers,
            a.error_rate.unwrap_or(f64::NAN),
            a.mnad.unwrap_or(f64::NAN),
            b.error_rate.unwrap_or(f64::NAN),
            b.mnad.unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nfinal: T-Crowd err={:.4} MNAD={:.4} | random err={:.4} MNAD={:.4}",
        tc.final_report.error_rate.unwrap(),
        tc.final_report.mnad.unwrap(),
        rnd.final_report.error_rate.unwrap(),
        rnd.final_report.mnad.unwrap(),
    );
    println!("Informed assignment should reach the same quality with fewer answers —");
    println!("the paper reports roughly half the budget on its datasets.");
}
