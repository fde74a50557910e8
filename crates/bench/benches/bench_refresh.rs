//! Criterion bench behind the incremental freeze pipeline: steady-state
//! refit cost — `AnswerMatrix::build` + cold EM versus
//! `AnswerMatrix::merge_delta` + warm-started EM — on the 1 000×10 synthetic
//! table at growing answer counts, with a correctness gate pinning the warm
//! path to the cold path's fixed point. Records `BENCH_refresh.json`.
//!
//! ## Protocol
//!
//! The answer stream is a shuffled copy of the generated answer set (the
//! simulator's steady state: answers land on random cells). At each measured
//! size the two pipelines replay the same refit chain — `CYCLES` refits of
//! `DELTA` answers each:
//!
//! * **full-rebuild-cold** — every refit rebuilds the matrix from the log
//!   and runs EM from scratch at the default (production) tolerance.
//! * **delta-merge-warm** — every refit merges the log tail into the
//!   previous freeze and runs a short warm-started EM polish (loose ELBO
//!   tolerance sized for refits — the next refit re-polishes anyway).
//!
//! Both chains' final fits are scored against a deeply-converged reference;
//! at 20k/50k answers the warm chain matches or beats the cold chain's
//! accuracy, so the speedup is not bought with quality. At the sparsest
//! point (5k ≈ 0.5 answers/cell) a weakly-pinned categorical cell can
//! settle in a different local attractor than the reference — the recorded
//! `dist_*` fields keep that visible rather than hiding it. The separate
//! convergence gate runs both paths under the deep configuration and
//! asserts estimate agreement within 1e-6 (z-score units, i.e. 1e-6 of a
//! column spread in the original scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tcrowd_core::diagnostics::max_z_discrepancy;
use tcrowd_core::{EmOptions, FitParams, InferenceResult, Seed, TCrowd, TCrowdOptions};
use tcrowd_tabular::{generate_dataset, Answer, AnswerLog, AnswerMatrix, GeneratorConfig};

/// Refit cadence: answers collected between refits (matches the simulator's
/// default `inference_every = 5` HITs × 10-cell HITs).
const DELTA: usize = 50;
/// Refit cycles averaged per measurement.
const CYCLES: usize = 4;
/// EM budget of one steady-state warm refit: a loose ELBO tolerance sized
/// for refits (the next refit re-polishes anyway) with a small iteration
/// cap. Near the fixed point this stops after ~2 iterations; in sparse,
/// weakly-pinned regimes it keeps going until the fit settles. Tuned so the
/// warm chain's distance from the converged fixed point matches the cold
/// pipeline's; the recorded `dist_*` fields keep that claim honest.
const WARM_POLISH_TOL: f64 = 1e-5;
const WARM_POLISH_MAX_ITERS: usize = 12;

fn warm_refit_opts() -> EmOptions {
    EmOptions { max_iters: WARM_POLISH_MAX_ITERS, tol: WARM_POLISH_TOL, ..Default::default() }
}

fn log_of(stream: &[Answer], rows: usize, cols: usize, n: usize) -> AnswerLog {
    let mut log = AnswerLog::new(rows, cols);
    for a in &stream[..n] {
        log.push(*a);
    }
    log
}

struct Point {
    answers: usize,
    cold_ns: f64,
    warm_ns: f64,
    build_ns: f64,
    merge_ns: f64,
    dist_cold: f64,
    dist_warm: f64,
}

fn measure_point(
    schema: &tcrowd_tabular::Schema,
    stream: &[Answer],
    rows: usize,
    cols: usize,
    n: usize,
    reps: usize,
) -> Point {
    let cold_model = TCrowd::default_full();
    let warm_model = TCrowd::new(TCrowdOptions { em: warm_refit_opts(), ..Default::default() });
    let start = n - CYCLES * DELTA;
    let base_log = log_of(stream, rows, cols, start);
    let base_matrix = AnswerMatrix::build(&base_log);
    // Both chains start from the same fit of the pre-chain history.
    let chain_seed = cold_model.infer_matrix(schema, &base_matrix);
    let full_log = log_of(stream, rows, cols, n);

    // Deeply-converged reference on the final log (accuracy yardstick).
    let reference =
        TCrowd::new(TCrowdOptions { em: EmOptions::deep_convergence(), ..Default::default() })
            .infer_matrix(schema, &AnswerMatrix::build(&full_log));

    let best_of = |f: &mut dyn FnMut() -> (f64, InferenceResult)| -> (f64, InferenceResult) {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..reps {
            let (ns, fit) = f();
            best = best.min(ns);
            last = Some(fit);
        }
        (best, last.expect("reps >= 1"))
    };

    // Cold pipeline: rebuild + cold EM at every cycle.
    let (cold_ns, cold_fit) = best_of(&mut || {
        let t0 = std::time::Instant::now();
        let mut fit = None;
        for c in 1..=CYCLES {
            let log = log_of(stream, rows, cols, start + c * DELTA);
            let m = AnswerMatrix::build(&log);
            fit = Some(cold_model.infer_matrix(schema, &m));
        }
        (t0.elapsed().as_nanos() as f64 / CYCLES as f64, fit.expect("cycles >= 1"))
    });

    // Warm pipeline: delta-merge + warm polish at every cycle.
    let (warm_ns, warm_fit) = best_of(&mut || {
        let t0 = std::time::Instant::now();
        let mut matrix = base_matrix.clone();
        let mut fit = chain_seed.clone();
        for c in 1..=CYCLES {
            matrix = matrix.merge_delta(&stream[start + (c - 1) * DELTA..start + c * DELTA]);
            fit = warm_model.fit(schema, &matrix, Seed::Warm(&FitParams::of(&fit)));
        }
        (t0.elapsed().as_nanos() as f64 / CYCLES as f64, fit)
    });

    // Matrix-only refresh cost at this size (best of 5 — cheap).
    let prefix_matrix = AnswerMatrix::build(&log_of(stream, rows, cols, n - DELTA));
    let tail = &full_log.all()[n - DELTA..];
    let time_ns = |f: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    };
    let build_ns = time_ns(&mut || AnswerMatrix::build(&full_log).len());
    let merge_ns = time_ns(&mut || prefix_matrix.merge_delta(tail).len());

    Point {
        answers: n,
        cold_ns,
        warm_ns,
        build_ns,
        merge_ns,
        dist_cold: max_z_discrepancy(&cold_fit, &reference),
        dist_warm: max_z_discrepancy(&warm_fit, &reference),
    }
}

fn refresh_refit(c: &mut Criterion) {
    let cfg =
        GeneratorConfig { rows: 1_000, columns: 10, answers_per_task: 5, ..Default::default() };
    let d = generate_dataset(&cfg, 7);
    let (rows, cols) = (d.rows(), d.cols());
    let mut stream = d.answers.all().to_vec();
    stream.shuffle(&mut StdRng::seed_from_u64(99));

    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("CRITERION_QUICK").is_some();
    let reps = if quick { 1 } else { 3 };

    // ---- Convergence gate: warm and cold, both driven to the fixed point,
    // must agree within 1e-6 (the `estimates_equal_within` contract).
    let deep_model =
        TCrowd::new(TCrowdOptions { em: EmOptions::deep_convergence(), ..Default::default() });
    let n = stream.len();
    let prev_matrix = AnswerMatrix::build(&log_of(&stream, rows, cols, n - DELTA));
    let deep_prev = deep_model.infer_matrix(&d.schema, &prev_matrix);
    let merged = prev_matrix.merge_delta(&stream[n - DELTA..]);
    let deep_warm = deep_model.fit(&d.schema, &merged, Seed::Warm(&FitParams::of(&deep_prev)));
    let deep_cold = deep_model.infer_matrix(&d.schema, &merged);
    let gate = max_z_discrepancy(&deep_warm, &deep_cold);
    assert!(gate < 1e-6, "warm path diverged from cold at convergence: {gate:.3e}");

    // ---- Steady-state refit cost at growing answer counts.
    let points: Vec<Point> = [5_000usize, 20_000, 50_000]
        .iter()
        .map(|&size| measure_point(&d.schema, &stream, rows, cols, size, reps))
        .collect();

    for p in &points {
        println!(
            "refresh_refit {} answers: cold {:.2} ms/refit (dist {:.2e}), warm {:.2} ms/refit \
             (dist {:.2e}) -> {:.2}x; matrix build {:.0} µs vs merge {:.0} µs",
            p.answers,
            p.cold_ns / 1e6,
            p.dist_cold,
            p.warm_ns / 1e6,
            p.dist_warm,
            p.cold_ns / p.warm_ns,
            p.build_ns / 1e3,
            p.merge_ns / 1e3,
        );
    }
    let last = points.last().expect("three points");
    println!(
        "steady-state 50k: {:.2}x refit speedup, converged estimates agree within {gate:.2e}",
        last.cold_ns / last.warm_ns
    );

    let point_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"answers\": {}, \"full_rebuild_cold_ns_per_refit\": {:.0}, \
                 \"delta_merge_warm_ns_per_refit\": {:.0}, \"speedup\": {:.3}, \
                 \"matrix_build_ns\": {:.0}, \"matrix_merge_ns\": {:.0}, \
                 \"dist_from_converged_cold\": {:.3e}, \"dist_from_converged_warm\": {:.3e}}}",
                p.answers,
                p.cold_ns,
                p.warm_ns,
                p.cold_ns / p.warm_ns,
                p.build_ns,
                p.merge_ns,
                p.dist_cold,
                p.dist_warm,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"refresh_refit\",\n  \"dataset\": {{\"rows\": 1000, \"columns\": \
         10}},\n  \"protocol\": {{\"delta_answers_per_refit\": {DELTA}, \"refit_cycles\": \
         {CYCLES}, \"cold_em\": \"default options, cold start\", \"warm_em\": \
         \"warm start, ELBO tol {WARM_POLISH_TOL}, max {WARM_POLISH_MAX_ITERS} iters\", \
         \"dist_reference\": \
         \"deeply-converged cold fit; max z-space discrepancy\"}},\n  \"points\": [\n{}\n  ],\n  \
         \"steady_state_speedup_50k\": {:.3},\n  \"converged_estimates_max_z_diff\": \
         {gate:.3e},\n  \"estimates_equal_within\": 1e-6\n}}\n",
        point_json.join(",\n"),
        last.cold_ns / last.warm_ns,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_refresh.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: could not write {out}: {e}");
    }

    // Register the 50k single-refit cases with criterion for its reporting.
    let mut group = c.benchmark_group("refresh_refit_50k");
    group.sample_size(reps.max(2));
    group.measurement_time(std::time::Duration::from_secs(20));
    group.throughput(Throughput::Elements(DELTA as u64));
    let full_log = log_of(&stream, rows, cols, n);
    let cold_model = TCrowd::default_full();
    group.bench_with_input(
        BenchmarkId::from_parameter("full_rebuild_cold"),
        &full_log,
        |b, log| {
            b.iter(|| cold_model.infer_matrix(&d.schema, &AnswerMatrix::build(log)).iterations)
        },
    );
    let warm_model = TCrowd::new(TCrowdOptions { em: warm_refit_opts(), ..Default::default() });
    group.bench_with_input(
        BenchmarkId::from_parameter("delta_merge_warm"),
        &(&prev_matrix, &deep_prev),
        |b, (m, prev)| {
            b.iter(|| {
                let merged = m.merge_delta(&stream[n - DELTA..]);
                warm_model.fit(&d.schema, &merged, Seed::Warm(&FitParams::of(prev))).iterations
            })
        },
    );
    group.finish();
}

criterion_group!(benches, refresh_refit);
criterion_main!(benches);
