//! Figure 5: assignment heuristics on Restaurant — Random, Looping, Entropy,
//! Inherent Information Gain and Structure-Aware Information Gain, all backed
//! by T-Crowd truth inference (the paper fixes the inference method and
//! varies only the heuristic).
//!
//! Two extension series beyond the paper's five: a QASCA-style
//! expected-accuracy policy (§2 ref \[39\]) and the §7 entity-aware policy
//! with learned row groups.

use tcrowd_baselines::{EntropyPolicy, LoopingPolicy, QascaPolicy, RandomPolicy};
use tcrowd_bench::{emit, reps};
use tcrowd_core::{
    AssignmentPolicy, EntityAwarePolicy, InherentGainPolicy, RowGrouping, StructureAwarePolicy,
    TCrowd,
};
use tcrowd_sim::{ExperimentConfig, InferenceBackend, Runner, WorkerPool, WorkerPoolConfig};
use tcrowd_tabular::real_sim;
use tcrowd_tabular::tsv::TsvTable;

fn main() {
    let reps = reps();
    let labels = [
        "Random",
        "Looping",
        "Entropy",
        "Inherent Information Gain",
        "Structure-Aware Information Gain",
        "QASCA (ext)",
        "Entity-Aware (ext)",
    ];
    let mut acc: Vec<std::collections::BTreeMap<i64, (f64, f64, usize)>> =
        vec![Default::default(); labels.len()];

    for seed in 0..reps as u64 {
        let d = real_sim::restaurant(seed);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 4.0,
            checkpoint_step: 0.25,
            ..Default::default()
        });
        for (li, label) in labels.iter().enumerate() {
            let mut pool = WorkerPool::new(
                &d.schema,
                &d.truth,
                WorkerPoolConfig { num_workers: 96, ..Default::default() },
                seed * 13 + 3,
            );
            let mut random = RandomPolicy::seeded(seed + 11);
            let mut looping = LoopingPolicy::default();
            let mut entropy = EntropyPolicy;
            let mut inherent = InherentGainPolicy;
            let mut sa = StructureAwarePolicy;
            let mut qasca = QascaPolicy;
            let mut entity =
                EntityAwarePolicy::new(RowGrouping::Learned { groups: 5, seed: seed + 1 });
            let policy: &mut dyn AssignmentPolicy = match *label {
                "Random" => &mut random,
                "Looping" => &mut looping,
                "Entropy" => &mut entropy,
                "Inherent Information Gain" => &mut inherent,
                "QASCA (ext)" => &mut qasca,
                "Entity-Aware (ext)" => &mut entity,
                _ => &mut sa,
            };
            let backend = InferenceBackend::TCrowd(TCrowd::default_full());
            let result = runner.run(label, &mut pool, policy, &backend);
            for p in &result.points {
                let key = (p.avg_answers * 100.0).round() as i64;
                let e = acc[li].entry(key).or_insert((0.0, 0.0, 0));
                e.0 += p.error_rate.unwrap_or(f64::NAN);
                e.1 += p.mnad.unwrap_or(f64::NAN);
                e.2 += 1;
            }
            eprintln!("seed {seed} {label} done");
        }
    }

    let mut table = TsvTable::new(&["heuristic", "avg_answers", "error_rate", "mnad"]);
    for (li, label) in labels.iter().enumerate() {
        for (key, (er, mnad, n)) in &acc[li] {
            table.push_row(vec![
                label.to_string(),
                format!("{:.2}", *key as f64 / 100.0),
                format!("{:.6}", er / *n as f64),
                format!("{:.6}", mnad / *n as f64),
            ]);
        }
    }
    emit(
        &table,
        "fig5_assignment_heuristics.tsv",
        &format!("Figure 5: assignment heuristics on Restaurant ({reps} seed(s))"),
    );
    println!("\nPaper shape to check: Random/Looping slowest; Entropy drops MNAD fast but");
    println!("not Error Rate; both gain heuristics drop both; Structure-Aware fastest on MNAD.");
}
