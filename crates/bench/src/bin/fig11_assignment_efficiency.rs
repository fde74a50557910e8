//! Figure 11: efficiency of task assignment — wall-clock seconds to compute
//! the structure-aware information gain for all candidate tasks, as the
//! answer log grows from 2 to 5 answers per task (Celebrity-shaped data).
//! The paper's claims: cost linear in |A|, and real-time per arrival.

use std::time::Instant;
use tcrowd_bench::{emit, reps};
use tcrowd_core::{
    AssignmentContext, AssignmentPolicy, InherentGainPolicy, StructureAwarePolicy, TCrowd,
};
use tcrowd_tabular::tsv::TsvTable;
use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerId};

fn main() {
    let reps = reps().max(3);
    let mut table =
        TsvTable::new(&["answers_per_task", "inherent_seconds", "structure_aware_seconds"]);
    for ans in [2usize, 3, 4, 5] {
        let cfg = GeneratorConfig {
            rows: 174,
            columns: 7,
            num_workers: 109,
            answers_per_task: ans,
            ..Default::default()
        };
        let d = generate_dataset(&cfg, 42);
        let inference = TCrowd::default_full().infer(&d.schema, &d.answers);
        let matrix = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &matrix,
            freeze: matrix.freeze_view(),
            inference: Some(&inference),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let mut t_inherent = 0.0;
        let mut t_sa = 0.0;
        for rep in 0..reps {
            let worker = WorkerId(1000 + rep as u32); // fresh incoming worker
            let mut inherent = InherentGainPolicy;
            let start = Instant::now();
            let picks = inherent.select(worker, 7, &ctx);
            t_inherent += start.elapsed().as_secs_f64();
            assert_eq!(picks.len(), 7);

            let mut sa = StructureAwarePolicy;
            let start = Instant::now();
            let picks = sa.select(worker, 7, &ctx);
            t_sa += start.elapsed().as_secs_f64();
            assert_eq!(picks.len(), 7);
        }
        table.push_row(vec![
            ans.to_string(),
            format!("{:.6}", t_inherent / reps as f64),
            format!("{:.6}", t_sa / reps as f64),
        ]);
        eprintln!("answers/task = {ans} done");
    }
    emit(&table, "fig11_assignment_efficiency.tsv", "Figure 11: assignment cost");
    println!("\nPaper shape to check: cost grows roughly linearly with the answers");
    println!("collected so far and stays well inside real-time per arrival.");
    println!("(The Criterion bench `bench_assignment` measures the same quantity rigorously.)");
}
