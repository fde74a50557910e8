//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * exact vs sampled expected-entropy for continuous gains,
//! * learning vs freezing the row/column difficulties,
//! * the cost of the assignment policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcrowd_core::em::EmOptions;
use tcrowd_core::gain::{gain_with_params, GainEstimator};
use tcrowd_core::{
    AssignmentContext, AssignmentPolicy, InherentGainPolicy, TCrowd, TCrowdOptions, TruthDist,
};
use tcrowd_stat::Normal;
use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerId};

fn gain_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gain_estimator");
    let truth = TruthDist::Continuous(Normal::new(0.2, 1.7));
    group.bench_function("exact", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            std::hint::black_box(gain_with_params(&truth, 0.4, 0.8, GainEstimator::Exact, &mut rng))
        })
    });
    for &samples in &[10usize, 100] {
        group.bench_with_input(BenchmarkId::new("sampling", samples), &samples, |b, &s| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                std::hint::black_box(gain_with_params(
                    &truth,
                    0.4,
                    0.8,
                    GainEstimator::Sampling { samples: s },
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

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
        let mut policy = InherentGainPolicy::default();
        b.iter(|| std::hint::black_box(policy.select(WorkerId(9_999), 6, &ctx)))
    });
    group.bench_function("structure_aware", |b| {
        let mut policy = StructureAwarePolicy::default();
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

criterion_group!(benches, gain_estimators, difficulty_ablation, policy_cost);
criterion_main!(benches);
