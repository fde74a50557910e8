//! Regression suite for the incremental freeze pipeline: the simulator's
//! steady-state refit chain (delta-merge + warm-started EM) must converge to
//! the same estimates as the one-shot cold path.
//!
//! The comparison replays a recorded answer stream — the chain refits every
//! Δ answers, warm-starting from its previous fit, while the cold path runs
//! one cold fit on the final log. Both use a deep convergence configuration
//! (tight parameter tolerance, tight inner ascent) so each is pinned to the
//! shared EM fixed point; agreement is asserted to 1e-6 in z-score units
//! (equivalently, 1e-6 of a column spread in the original scale — the ELBO
//! surface is flat enough near the optimum that looser, wall-clock-friendly
//! tolerances leave parameter slack far above this bar; see
//! `EmOptions::param_tol`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tcrowd_core::diagnostics::max_z_discrepancy;
use tcrowd_core::{EmOptions, FitState, Seed, TCrowd, TCrowdOptions};
use tcrowd_sim::{ExperimentConfig, InferenceBackend, Runner};
use tcrowd_tabular::{generate_dataset, AnswerLog, CellId, GeneratorConfig};

#[test]
fn warm_refit_chain_matches_cold_fit_within_1e6() {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 40,
            columns: 5,
            num_workers: 20,
            answers_per_task: 4,
            ..Default::default()
        },
        11,
    );
    // Steady-state stream: answers arrive in shuffled order.
    let mut stream = d.answers.all().to_vec();
    stream.shuffle(&mut StdRng::seed_from_u64(3));
    let n = stream.len();
    let seed_len = n / 2;
    let delta = 50usize;

    let model =
        TCrowd::new(TCrowdOptions { em: EmOptions::deep_convergence(), ..Default::default() });

    // Warm chain: cold fit on the seed prefix, then delta-merge + warm refit
    // every Δ answers until the stream is exhausted.
    let mut log = AnswerLog::new(d.rows(), d.cols());
    for a in &stream[..seed_len] {
        log.push(*a);
    }
    let mut chain =
        FitState::new(model.clone(), d.schema.clone(), log.to_matrix(), Vec::new(), Seed::Cold);
    let mut at = seed_len;
    let mut refits = 0;
    while at < n {
        let next = (at + delta).min(n);
        for a in &stream[at..next] {
            log.push(*a);
        }
        chain.absorb(&log.slice_since(chain.epoch()));
        chain.refit(true);
        refits += 1;
        at = next;
    }
    assert!(refits >= 3, "the chain must exercise several warm refits, got {refits}");
    assert_eq!(chain.epoch(), n);

    // Cold path: one cold fit on the full log.
    let cold = model.infer_matrix(&d.schema, chain.matrix());
    let fit = chain.result();

    let gap = max_z_discrepancy(fit, &cold);
    assert!(gap < 1e-6, "warm chain diverged from the cold fit: max z-space gap {gap:.3e}");
    // Point estimates: categorical cells must agree exactly.
    for i in 0..d.rows() as u32 {
        for j in 0..d.cols() as u32 {
            let cell = CellId::new(i, j);
            if let (tcrowd_tabular::Value::Categorical(a), tcrowd_tabular::Value::Categorical(b)) =
                (cold.estimate(cell), fit.estimate(cell))
            {
                assert_eq!(a, b, "categorical estimate flipped at ({i},{j})");
            }
        }
    }
}

#[test]
fn runner_with_warm_refits_produces_sound_estimates() {
    // End-to-end: the Runner drives a `FitState` and warm-starts every
    // refit. The run must stay healthy (finite metrics, sane error
    // rate on an easy table) — this is the guard against a warm-start bug
    // quietly corrupting the steady-state loop.
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 15,
            columns: 4,
            num_workers: 12,
            answers_per_task: 1,
            avg_difficulty: 0.8,
            ..Default::default()
        },
        21,
    );
    let mut pool = tcrowd_sim::WorkerPool::new(
        &d.schema,
        &d.truth,
        tcrowd_sim::WorkerPoolConfig { num_workers: 12, ..Default::default() },
        21,
    );
    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: 4.0,
        checkpoint_step: 1.0,
        inference_every: 3,
        ..Default::default()
    });
    let mut policy = tcrowd_core::StructureAwarePolicy;
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    let result = runner.run("warm-runner", &mut pool, &mut policy, &backend);
    assert!(!result.points.is_empty());
    let err = result.final_report.error_rate.expect("categorical columns present");
    assert!(err.is_finite() && err <= 0.35, "error rate {err} suggests a corrupted refit chain");
    let mnad = result.final_report.mnad.expect("continuous columns present");
    assert!(mnad.is_finite() && mnad < 1.0, "MNAD {mnad} suggests a corrupted refit chain");
}
