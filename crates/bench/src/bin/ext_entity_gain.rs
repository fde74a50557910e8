//! Extension experiment: the §7 entity-correlation policy on data with a
//! planted entity-group familiarity effect.
//!
//! Not a figure from the paper — it evaluates the future-work direction the
//! paper sketches in §7 ("a worker may be more familiar to celebrities
//! starring in a certain category of films"). Worlds are generated with
//! per-(worker, group) familiarity coins; the experiment compares four
//! policies at equal budget:
//!
//! * structure-aware information gain (the paper's best, group-blind),
//! * entity-aware with **known** groups (requester metadata),
//! * entity-aware with **learned** groups (clustered from the history),
//! * entity-aware with known groups but *without* the attribute-correlation
//!   component (isolates the entity effect).

use tcrowd_bench::{emit, reps};
use tcrowd_core::{AssignmentPolicy, EntityAwarePolicy, RowGrouping, StructureAwarePolicy, TCrowd};
use tcrowd_sim::{ExperimentConfig, InferenceBackend, Runner, WorkerPool, WorkerPoolConfig};
use tcrowd_tabular::generator::EntityGroups;
use tcrowd_tabular::tsv::TsvTable;
use tcrowd_tabular::{generate_dataset, GeneratorConfig};

const ROWS: usize = 60;
const GROUPS: usize = 4;

fn world(seed: u64) -> (tcrowd_tabular::Dataset, WorkerPool) {
    let eg = EntityGroups { groups: GROUPS, p_unfamiliar: 0.3, difficulty_factor: 30.0 };
    let cfg = GeneratorConfig {
        rows: ROWS,
        columns: 6,
        categorical_ratio: 0.5,
        num_workers: 30,
        answers_per_task: 1,
        entity_groups: Some(eg),
        ..Default::default()
    };
    let d = generate_dataset(&cfg, seed);
    let pool = WorkerPool::new(
        &d.schema,
        &d.truth,
        WorkerPoolConfig { num_workers: 30, entity_groups: Some(eg), ..Default::default() },
        seed * 23 + 11,
    );
    (d, pool)
}

fn main() {
    let reps = reps();
    let known: Vec<usize> = (0..ROWS).map(|i| i % GROUPS).collect();
    let labels = [
        "Structure-Aware",
        "Entity-Aware (known groups)",
        "Entity-Aware (learned groups)",
        "Entity-only (no attr corr)",
    ];
    let mut acc: Vec<std::collections::BTreeMap<i64, (f64, f64, usize)>> =
        vec![Default::default(); labels.len()];

    for seed in 0..reps as u64 {
        for (li, label) in labels.iter().enumerate() {
            let (_, mut pool) = world(seed);
            let mut sa = StructureAwarePolicy;
            let mut known_p = EntityAwarePolicy::new(RowGrouping::Known(known.clone()));
            let mut learned_p =
                EntityAwarePolicy::new(RowGrouping::Learned { groups: GROUPS, seed: seed + 3 });
            let mut entity_only = EntityAwarePolicy::new(RowGrouping::Known(known.clone()))
                .without_attribute_correlation();
            let policy: &mut dyn AssignmentPolicy = match li {
                0 => &mut sa,
                1 => &mut known_p,
                2 => &mut learned_p,
                _ => &mut entity_only,
            };
            let runner = Runner::new(ExperimentConfig {
                budget_avg_answers: 5.0,
                checkpoint_step: 0.5,
                ..Default::default()
            });
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

    let mut table = TsvTable::new(&["policy", "avg_answers", "error_rate", "mnad"]);
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
        "ext_entity_gain.tsv",
        &format!("Extension: entity-aware assignment on grouped data ({reps} seed(s))"),
    );
    println!("\nShape to check: with a planted group effect the entity-aware series should");
    println!("converge at least as fast as structure-aware; known groups should be at");
    println!("least as good as learned ones (learning pays a discovery cost early on).");
}
