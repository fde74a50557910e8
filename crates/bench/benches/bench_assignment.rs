//! Per-request cost of the two gain policies' `select` (paper §5, Figure 11),
//! for a worker the fit has seen and one it has not, against a full-scoring
//! reference. Records `BENCH_assignment.json`.
//!
//! ## Protocol
//!
//! Two generated tables with the default 109-worker pool: 300×10 with 8
//! answers per cell (the shape `svcbench`'s live-crowd workload serves) and
//! 1000×10 with 5. Each table is fitted once; the correlation model is fitted
//! once and passed in the context, as the service caches one per published
//! snapshot. The seen worker is the one with the most answers (the most row
//! errors to condition on); the unseen worker has no answers, so `select`
//! considers every cell with the population-median `φ`. The full-scoring
//! reference scores every cell's inherent gain for the unseen worker through
//! the public per-cell API (`effective_variance`, `cell_quality`,
//! `gain_with_params`) and ranks them, as `select` did before it skipped the
//! cells that cannot make the top k; its picks must equal the inherent
//! policy's. Each case records the median wall-clock time of `reps` calls
//! after `WARMUP` untimed calls, and the candidate count; the reference's and
//! every policy's seen- and unseen-worker calls alternate, so a slow spell on
//! the host lands on all of them.
//!
//! CI gates, per policy and table (`ci/gates/assignment.py`):
//! `unseen_us / seen_us ≤ 1.5` (resolving the worker's parameters costs the
//! same whether or not the fit saw the worker), and both medians at most
//! half the table's `full_us`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tcrowd_core::gain::gain_with_params;
use tcrowd_core::{
    AssignmentContext, AssignmentPolicy, CorrelationModel, InherentGainPolicy,
    StructureAwarePolicy, TCrowd,
};
use tcrowd_tabular::{generate_dataset, AnswerMatrix, CellId, Dataset, GeneratorConfig, WorkerId};

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

/// The full-scoring reference: every candidate's inherent gain through the
/// public per-cell API, then the top `K` in (gain desc, cell asc) order.
fn full_scoring(ctx: &AssignmentContext<'_>, worker: WorkerId) -> Vec<CellId> {
    let fit = ctx.inference.expect("the bench passes a fit");
    let mut scored: Vec<(f64, CellId)> = ctx
        .candidates(worker)
        .into_iter()
        .map(|c| {
            let v = fit.effective_variance(worker, c);
            let q = fit.cell_quality(worker, c);
            (gain_with_params(fit.truth_z(c), v, q), c)
        })
        .collect();
    let rank = |a: &(f64, CellId), b: &(f64, CellId)| {
        b.0.partial_cmp(&a.0).expect("finite gain").then(a.1.cmp(&b.1))
    };
    let k = K.min(scored.len());
    if k > 0 {
        scored.select_nth_unstable_by(k - 1, rank);
    }
    scored.truncate(k);
    scored.sort_unstable_by(rank);
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Median wall-clock µs of each of `calls`. They alternate rep by rep, so a
/// slow spell on the host lands on all of them and their ratios stay
/// meaningful.
fn median_us(calls: &mut [Box<dyn FnMut() + '_>], reps: usize) -> Vec<f64> {
    for _ in 0..WARMUP {
        calls.iter_mut().for_each(|call| call());
    }
    let mut us = vec![Vec::with_capacity(reps); calls.len()];
    for _ in 0..reps {
        for (call, samples) in calls.iter_mut().zip(&mut us) {
            let t = Instant::now();
            call();
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    us.into_iter()
        .map(|mut v| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
            v[v.len() / 2]
        })
        .collect()
}

type MakePolicy = fn() -> Box<dyn AssignmentPolicy>;

fn policies() -> [(&'static str, MakePolicy); 2] {
    [
        ("inherent", || Box::new(InherentGainPolicy)),
        ("structure_aware", || Box::new(StructureAwarePolicy)),
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
        assert_eq!(
            full_scoring(&ctx, UNSEEN),
            InherentGainPolicy.select(UNSEEN, K, &ctx),
            "the inherent policy's picks must equal full scoring's"
        );
        let mut calls: Vec<Box<dyn FnMut() + '_>> = vec![Box::new(|| {
            black_box(full_scoring(&ctx, black_box(UNSEEN)));
        })];
        for (_, make) in policies() {
            for worker in [seen, UNSEEN] {
                let mut policy = make();
                let ctx = &ctx;
                calls.push(Box::new(move || {
                    black_box(policy.select(black_box(worker), K, ctx));
                }));
            }
        }
        let medians = median_us(&mut calls, reps);
        drop(calls);
        let full_us = medians[0];
        println!("assignment_select {rows}x10/{per_cell} per cell full scoring: {full_us:.0} µs");
        let mut policy_json = Vec::new();
        for ((name, _), times) in policies().iter().zip(medians[1..].chunks(2)) {
            let (seen_us, unseen_us) = (times[0], times[1]);
            println!(
                "assignment_select {rows}x10/{per_cell} per cell {name}: seen {seen_us:.0} µs \
                 ({seen_n} candidates), unseen {unseen_us:.0} µs ({unseen_n} candidates) -> \
                 unseen/seen {:.2}, over full scoring {:.2}/{:.2}",
                unseen_us / seen_us,
                seen_us / full_us,
                unseen_us / full_us,
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
             \"answers\": {}, \"workers\": {}, \"seen_worker\": {}, \"full_us\": {full_us:.1},\n      \
             \"policies\": {{\n{}\n      }}}}",
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
                        b.iter(|| black_box(policy.select(worker, K, ctx)))
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
         \"unseen_worker\": {}, \"correlation\": \"pre-fitted, passed in the context\", \
         \"full_us\": \"every cell's inherent gain for the unseen worker via the per-cell API, then \
         ranked\"}},\n  \
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
