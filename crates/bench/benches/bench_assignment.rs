//! Per-request cost of the two gain policies' `select` (paper §5, Figure 11),
//! for a worker the fit has seen and one it has not. Records
//! `BENCH_assignment.json`.
//!
//! ## Protocol
//!
//! Two generated tables with the default 109-worker pool: 300×10 with 8
//! answers per cell (the shape `svcbench`'s live-crowd workload serves) and
//! 1000×10 with 5. Each table is fitted once; the correlation model is fitted
//! once and passed in the context, as the service caches one per published
//! snapshot. The seen worker is the one with the most answers (the most row
//! errors to condition on); the unseen worker has no answers, so `select`
//! scores every cell with the population-median `φ`. Each case records the
//! median wall-clock time of `reps` calls of `select(worker, K)` after
//! `WARMUP` untimed calls, and the candidate count; the seen and unseen
//! workers' calls alternate.
//!
//! CI gates `unseen_us / seen_us ≤ 1.5` per policy and table
//! (`ci/gates/assignment.py`): resolving the worker's parameters costs the
//! same whether or not the fit saw the worker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;
use tcrowd_core::{
    AssignmentContext, AssignmentPolicy, CorrelationModel, InherentGainPolicy,
    StructureAwarePolicy, TCrowd,
};
use tcrowd_tabular::{generate_dataset, AnswerMatrix, Dataset, GeneratorConfig, WorkerId};

/// Cells per request, as `svcbench`'s live-crowd visits ask for.
const K: usize = 5;
/// Untimed calls before measuring.
const WARMUP: usize = 2;
/// A worker id no generated table uses.
const UNSEEN: WorkerId = WorkerId(9_999);

fn table(rows: usize, answers_per_cell: usize) -> Dataset {
    let cfg = GeneratorConfig {
        rows,
        columns: 10,
        answers_per_task: answers_per_cell,
        ..Default::default()
    };
    generate_dataset(&cfg, 42)
}

/// The worker with the most answers, lowest id first on ties.
fn busiest_worker(m: &AnswerMatrix) -> WorkerId {
    (0..m.num_workers())
        .max_by_key(|&w| (m.worker_answer_indices(w).len(), std::cmp::Reverse(w)))
        .map(|w| m.worker_id(w))
        .expect("generated table has workers")
}

/// Median wall-clock µs of `select` for each of the two `workers`. Their
/// calls alternate, so a slow spell on the host lands on both and their
/// ratio stays meaningful.
fn median_select_us(
    policy: &mut dyn AssignmentPolicy,
    workers: [WorkerId; 2],
    ctx: &AssignmentContext<'_>,
    reps: usize,
) -> [f64; 2] {
    for _ in 0..WARMUP {
        for &w in &workers {
            std::hint::black_box(policy.select(w, K, ctx));
        }
    }
    let mut us = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps {
        for (&w, samples) in workers.iter().zip(&mut us) {
            let t = Instant::now();
            std::hint::black_box(policy.select(std::hint::black_box(w), K, ctx));
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    us.map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
        v[v.len() / 2]
    })
}

type MakePolicy = fn() -> Box<dyn AssignmentPolicy>;

fn policies() -> [(&'static str, MakePolicy); 2] {
    [
        ("inherent", || Box::new(InherentGainPolicy::default())),
        ("structure_aware", || Box::new(StructureAwarePolicy::default())),
    ]
}

fn assignment_select(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("CRITERION_QUICK").is_some();
    let reps = if quick { 21 } else { 61 };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut table_json = Vec::new();
    for (rows, per_cell) in [(300usize, 8usize), (1_000, 5)] {
        let d = table(rows, per_cell);
        let fit = TCrowd::default_full().infer(&d.schema, &d.answers);
        let matrix = d.answers.to_matrix();
        let model = CorrelationModel::fit_matrix(&d.schema, &matrix, &fit);
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &matrix,
            freeze: matrix.freeze_view(),
            inference: Some(&fit),
            max_answers_per_cell: None,
            terminated: None,
            correlation: Some(&model),
        };
        let seen = busiest_worker(&matrix);
        let (seen_n, unseen_n) = (ctx.candidates(seen).len(), ctx.candidates(UNSEEN).len());
        let mut policy_json = Vec::new();
        for (name, make) in policies() {
            let [seen_us, unseen_us] =
                median_select_us(make().as_mut(), [seen, UNSEEN], &ctx, reps);
            println!(
                "assignment_select {rows}x10/{per_cell} per cell {name}: seen {seen_us:.0} µs \
                 ({seen_n} candidates), unseen {unseen_us:.0} µs ({unseen_n} candidates) -> \
                 unseen/seen {:.2}",
                unseen_us / seen_us
            );
            policy_json.push(format!(
                "        \"{name}\": {{\"seen_us\": {seen_us:.1}, \"unseen_us\": {unseen_us:.1}, \
                 \"seen_candidates\": {seen_n}, \"unseen_candidates\": {unseen_n}, \
                 \"unseen_over_seen\": {:.3}}}",
                unseen_us / seen_us
            ));
        }
        table_json.push(format!(
            "    {{\"rows\": {rows}, \"columns\": 10, \"answers_per_cell\": {per_cell}, \
             \"answers\": {}, \"workers\": {}, \"seen_worker\": {},\n      \"policies\": {{\n{}\n      }}}}",
            d.answers.len(),
            matrix.num_workers(),
            seen.0,
            policy_json.join(",\n"),
        ));

        if rows == 300 {
            // Register the live-crowd-shaped cases with criterion for its reporting.
            let mut group = c.benchmark_group("assignment_select_300x10");
            group.sample_size(10);
            group.measurement_time(std::time::Duration::from_secs(3));
            for (name, make) in policies() {
                for (kind, worker) in [("seen", seen), ("unseen", UNSEEN)] {
                    let mut policy = make();
                    group.bench_with_input(BenchmarkId::new(name, kind), &ctx, |b, ctx| {
                        b.iter(|| std::hint::black_box(policy.select(worker, K, ctx)))
                    });
                }
            }
            group.finish();
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"assignment_select\",\n  \"threads\": {threads},\n  \
         \"protocol\": {{\"k\": {K}, \"reps\": {reps}, \"warmup\": {WARMUP}, \"timer\": \
         \"median wall-clock per select call\", \"seen_worker\": \"most answers in the table\", \
         \"unseen_worker\": {}, \"correlation\": \"pre-fitted, passed in the context\"}},\n  \
         \"tables\": [\n{}\n  ]\n}}\n",
        UNSEEN.0,
        table_json.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_assignment.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: could not write {out}: {e}");
    }
}

criterion_group!(benches, assignment_select);
criterion_main!(benches);
