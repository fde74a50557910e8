//! Extension experiment: confidence-based adaptive stopping versus the
//! paper's fixed-budget collection.
//!
//! Not a figure from the paper — it traces the cost/quality frontier of the
//! stopping rule (a CDAS-style idea rebuilt on T-Crowd posteriors, see
//! `tcrowd_sim::stopping`). The budget is fixed high enough to never bind;
//! sweeping the rule's strictness from lenient to strict shows how many
//! answers confidence-based termination spends to reach which quality,
//! against the paper's fixed-redundancy collection at the same budget.

use tcrowd_bench::{emit, reps};
use tcrowd_core::{StructureAwarePolicy, TCrowd};
use tcrowd_sim::{
    ExperimentConfig, InferenceBackend, Runner, StoppingRule, WorkerPool, WorkerPoolConfig,
};
use tcrowd_tabular::tsv::TsvTable;
use tcrowd_tabular::{generate_dataset, GeneratorConfig, RowFamiliarity};

fn world(seed: u64) -> (tcrowd_tabular::Dataset, WorkerPool) {
    let cfg = GeneratorConfig {
        rows: 60,
        columns: 6,
        categorical_ratio: 0.5,
        num_workers: 40,
        answers_per_task: 1,
        row_familiarity: Some(RowFamiliarity::default()),
        ..Default::default()
    };
    let d = generate_dataset(&cfg, seed);
    let pool = WorkerPool::new(
        &d.schema,
        &d.truth,
        WorkerPoolConfig { num_workers: 40, ..Default::default() },
        seed * 19 + 2,
    );
    (d, pool)
}

const BUDGET: f64 = 8.0;

fn main() {
    let reps = reps();
    // Lenient → strict; None = the paper's fixed-budget collection.
    let rules: [(&str, Option<StoppingRule>); 6] = [
        ("fixed (no stopping)", None),
        ("p=0.70 σ=0.50", Some(StoppingRule { p_stop: 0.70, max_std: 0.50, min_answers: 2 })),
        ("p=0.80 σ=0.35", Some(StoppingRule { p_stop: 0.80, max_std: 0.35, min_answers: 2 })),
        ("p=0.90 σ=0.25", Some(StoppingRule { p_stop: 0.90, max_std: 0.25, min_answers: 2 })),
        ("p=0.95 σ=0.18", Some(StoppingRule { p_stop: 0.95, max_std: 0.18, min_answers: 3 })),
        ("p=0.99 σ=0.10", Some(StoppingRule { p_stop: 0.99, max_std: 0.10, min_answers: 3 })),
    ];
    let mut table =
        TsvTable::new(&["rule", "answers_per_task", "error_rate", "mnad", "settled_cells"]);

    for (name, stopping) in rules {
        let mut spent = 0.0;
        let mut err = 0.0;
        let mut mnad = 0.0;
        let mut settled = 0usize;
        for seed in 0..reps as u64 {
            let (d, mut pool) = world(seed);
            let runner = Runner::new(ExperimentConfig {
                budget_avg_answers: BUDGET,
                checkpoint_step: 1.0,
                stopping,
                ..Default::default()
            });
            let mut policy = StructureAwarePolicy;
            let backend = InferenceBackend::TCrowd(TCrowd::default_full());
            let r = runner.run(name, &mut pool, &mut policy, &backend);
            spent += r.total_answers as f64 / (d.rows() * d.cols()) as f64;
            err += r.final_report.error_rate.unwrap();
            mnad += r.final_report.mnad.unwrap();
            settled += r.terminated_cells;
        }
        let n = reps as f64;
        table.push_row(vec![
            name.to_string(),
            format!("{:.2}", spent / n),
            format!("{:.4}", err / n),
            format!("{:.4}", mnad / n),
            format!("{:.1}", settled as f64 / n),
        ]);
        eprintln!("{name} done");
    }

    emit(
        &table,
        "ext_adaptive_stopping.tsv",
        &format!(
            "Extension: stopping-rule cost/quality frontier at budget {BUDGET} ({reps} seed(s))"
        ),
    );
    println!("\nShape to check: stricter rules spend more answers and reach lower error;");
    println!("the strictest rules approach the fixed-budget row's quality at a fraction");
    println!("of its cost (the cells that stay open longest are the hard ones).");
}
