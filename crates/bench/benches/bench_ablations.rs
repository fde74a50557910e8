//! Ablation benches for two design choices:
//!
//! * learning vs freezing the row/column difficulties (`EmOptions`'
//!   `learn_row_difficulty` / `learn_col_difficulty`),
//! * the cost of the assignment policies, the paper's two gain policies
//!   against the entity-aware extension.

use criterion::{criterion_group, criterion_main, Criterion};
use tcrowd_core::em::EmOptions;
use tcrowd_core::{AssignmentContext, AssignmentPolicy, InherentGainPolicy, TCrowd, TCrowdOptions};
use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerId};

fn difficulty_ablation(c: &mut Criterion) {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 60,
            columns: 6,
            num_workers: 30,
            answers_per_task: 4,
            ..Default::default()
        },
        3,
    );
    let mut group = c.benchmark_group("ablation_difficulty");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for (label, learn_row, learn_col) in
        [("full", true, true), ("no_row", false, true), ("flat", false, false)]
    {
        let opts = TCrowdOptions {
            em: EmOptions {
                learn_row_difficulty: learn_row,
                learn_col_difficulty: learn_col,
                ..Default::default()
            },
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let r = TCrowd::new(opts).infer(&d.schema, &d.answers);
                std::hint::black_box(r.iterations)
            })
        });
    }
    group.finish();
}

/// Cost of the policy variants an assignment round can use: the paper's two
/// gain policies against the extension policies (entity-aware fit included —
/// the fit happens inside `select`, mirroring how the runner invokes it).
fn policy_cost(c: &mut Criterion) {
    use tcrowd_core::{EntityAwarePolicy, RowGrouping, StructureAwarePolicy};
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 100,
            columns: 6,
            num_workers: 40,
            answers_per_task: 3,
            ..Default::default()
        },
        9,
    );
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
    let mut group = c.benchmark_group("ablation_policy_cost");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    group.bench_function("inherent", |b| {
        let mut policy = InherentGainPolicy;
        b.iter(|| std::hint::black_box(policy.select(WorkerId(9_999), 6, &ctx)))
    });
    group.bench_function("structure_aware", |b| {
        let mut policy = StructureAwarePolicy;
        b.iter(|| std::hint::black_box(policy.select(WorkerId(9_999), 6, &ctx)))
    });
    group.bench_function("entity_known", |b| {
        let groups: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let mut policy = EntityAwarePolicy::new(RowGrouping::Known(groups));
        b.iter(|| std::hint::black_box(policy.select(WorkerId(9_999), 6, &ctx)))
    });
    group.bench_function("entity_learned", |b| {
        let mut policy = EntityAwarePolicy::new(RowGrouping::Learned { groups: 4, seed: 1 });
        b.iter(|| std::hint::black_box(policy.select(WorkerId(9_999), 6, &ctx)))
    });
    group.finish();
}

criterion_group!(benches, difficulty_ablation, policy_cost);
criterion_main!(benches);
