//! Property-based tests over the whole stack: invariants that must hold for
//! *any* table shape, worker population, or answer pattern the generator can
//! produce.

use proptest::prelude::*;
use tcrowd::core::entity::EntityModelOptions;
use tcrowd::core::{
    EntityModel, InherentGainPolicy, RowGrouping, StructureAwarePolicy, TCrowd, TruthDist,
};
use tcrowd::prelude::*;
use tcrowd::sim::{StoppingRule, TerminationState};
use tcrowd::tabular::generator::WorkerQualityConfig;
use tcrowd::tabular::noise::add_noise;

/// A compact strategy over generator configurations (kept small so each
/// proptest case stays fast).
fn config_strategy() -> impl Strategy<Value = (GeneratorConfig, u64)> {
    (
        2usize..10,   // rows
        1usize..5,    // columns
        0.0f64..=1.0, // categorical ratio
        1usize..4,    // answers per task
        4usize..10,   // workers
        0.3f64..3.0,  // avg difficulty
        any::<u64>(), // seed
    )
        .prop_map(|(rows, columns, ratio, ans, workers, diff, seed)| {
            (
                GeneratorConfig {
                    rows,
                    columns,
                    categorical_ratio: ratio,
                    answers_per_task: ans,
                    num_workers: workers,
                    avg_difficulty: diff,
                    quality: WorkerQualityConfig {
                        median_phi: 0.2,
                        sigma_ln_phi: 0.8,
                        spammer_fraction: 0.1,
                        spammer_factor: 10.0,
                    },
                    ..Default::default()
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn em_objective_is_monotone_and_estimates_valid((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        // ELBO trace is non-decreasing.
        for w in r.objective_trace.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()),
                "ELBO decreased: {} -> {}", w[0], w[1]);
        }
        // Posterior probabilities are normalised; variances positive.
        for i in 0..d.rows() as u32 {
            for j in 0..d.cols() as u32 {
                match r.truth_z(CellId::new(i, j)) {
                    TruthDist::Categorical(p) => {
                        let total: f64 = p.iter().sum();
                        prop_assert!((total - 1.0).abs() < 1e-9);
                        prop_assert!(p.iter().all(|x| *x >= 0.0));
                    }
                    TruthDist::Continuous(n) => prop_assert!(n.var > 0.0),
                }
            }
        }
        // Estimates match the schema.
        for (i, row) in r.estimates().iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                prop_assert!(d.schema.column_type(j).accepts(v), "({i},{j})");
            }
        }
        // Worker qualities are probabilities; difficulties positive.
        for w in &r.workers {
            let q = r.quality_of(*w).unwrap();
            prop_assert!(q > 0.0 && q < 1.0);
        }
        prop_assert!(r.alpha.iter().all(|a| *a > 0.0));
        prop_assert!(r.beta.iter().all(|b| *b > 0.0));
    }

    #[test]
    fn generator_is_deterministic_and_shape_correct((cfg, seed) in config_strategy()) {
        let a = generate_dataset(&cfg, seed);
        let b = generate_dataset(&cfg, seed);
        prop_assert_eq!(a.truth.clone(), b.truth.clone());
        prop_assert_eq!(a.answers.all(), b.answers.all());
        prop_assert_eq!(a.answers.len(), cfg.rows * cfg.columns * cfg.answers_per_task);
        prop_assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn noise_preserves_counts_and_types(
        (cfg, seed) in config_strategy(),
        gamma in 0.0f64..=0.5,
        noise_seed in any::<u64>(),
    ) {
        let d = generate_dataset(&cfg, seed);
        let n = add_noise(&d, gamma, noise_seed);
        prop_assert_eq!(n.answers.len(), d.answers.len());
        prop_assert_eq!(n.validate(), Ok(()));
        for (a, b) in d.answers.all().iter().zip(n.answers.all()) {
            prop_assert_eq!(a.cell, b.cell);
            prop_assert_eq!(a.worker, b.worker);
            prop_assert_eq!(a.value.is_categorical(), b.value.is_categorical());
        }
    }

    #[test]
    fn policies_return_distinct_unanswered_cells(
        (cfg, seed) in config_strategy(),
        k in 1usize..6,
    ) {
        let d = generate_dataset(&cfg, seed);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let m = d.answers.to_matrix();
        let ctx = tcrowd::core::AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let fresh = WorkerId(1_000_000);
        for policy in [
            &mut InherentGainPolicy::default() as &mut dyn AssignmentPolicy,
            &mut StructureAwarePolicy::default() as &mut dyn AssignmentPolicy,
        ] {
            let picks = policy.select(fresh, k, &ctx);
            prop_assert_eq!(picks.len(), k.min(d.rows() * d.cols()));
            let mut dedup = picks.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), picks.len(), "duplicate cells from {}", policy.name());
            for c in &picks {
                prop_assert!(!d.answers.has_answered(fresh, *c));
            }
        }
    }

    #[test]
    fn evaluation_metrics_are_bounded((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let rep = evaluate(&d.schema, &d.truth, &r.estimates());
        if let Some(er) = rep.error_rate {
            prop_assert!((0.0..=1.0).contains(&er));
        }
        if let Some(mnad) = rep.mnad {
            prop_assert!(mnad >= 0.0 && mnad.is_finite());
        }
        // Perfect estimates give perfect scores.
        let perfect = evaluate(&d.schema, &d.truth, &d.truth);
        if let Some(er) = perfect.error_rate {
            prop_assert_eq!(er, 0.0);
        }
        if let Some(mnad) = perfect.mnad {
            prop_assert!(mnad.abs() < 1e-12);
        }
    }

    #[test]
    fn entity_lambdas_stay_in_configured_range((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let opts = EntityModelOptions::default();
        let groups: Vec<usize> = (0..d.rows()).map(|i| i % 3).collect();
        let m = EntityModel::fit(&d.schema, &d.answers, &r, &RowGrouping::Known(groups), &opts);
        let (lo, hi) = opts.lambda_range;
        for &w in d.answers.to_matrix().worker_ids() {
            for i in 0..d.rows() as u32 {
                let l = m.lambda(w, i);
                prop_assert!(l >= lo * 0.99 && l <= hi * 1.01, "lambda {} escaped [{}, {}]", l, lo, hi);
            }
        }
        // Unknown worker always gets exactly 1.
        prop_assert_eq!(m.lambda(WorkerId(1_000_000), 0), 1.0);
    }

    #[test]
    fn learned_grouping_yields_a_valid_partition((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let k = 3usize;
        let m = EntityModel::fit(
            &d.schema, &d.answers, &r,
            &RowGrouping::Learned { groups: k, seed },
            &EntityModelOptions::default(),
        );
        prop_assert_eq!(m.groups().len(), d.rows());
        for &g in m.groups() {
            prop_assert!(g < k);
        }
    }

    #[test]
    fn termination_is_monotone_and_idempotent((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let mut state = TerminationState::new();
        let strict = StoppingRule { p_stop: 0.999, max_std: 1e-6, min_answers: 1 };
        let lenient = StoppingRule { p_stop: 0.5, max_std: 1.0, min_answers: 1 };
        let first = state.update(&r, &strict, |c| d.answers.count_for_cell(c));
        let after_strict = state.len();
        prop_assert_eq!(first, after_strict);
        // A more lenient rule can only add cells.
        state.update(&r, &lenient, |c| d.answers.count_for_cell(c));
        prop_assert!(state.len() >= after_strict);
        // Idempotent under re-application.
        let again = state.update(&r, &lenient, |c| d.answers.count_for_cell(c));
        prop_assert_eq!(again, 0);
        prop_assert!(state.len() <= d.rows() * d.cols());
    }

    #[test]
    fn answer_matrix_views_agree_with_naive_log_scan((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let log = &d.answers;
        let m = log.to_matrix();
        prop_assert_eq!(m.len(), log.len());
        // Worker table: sorted, and exactly the log's worker set.
        let mut log_workers: Vec<WorkerId> = log.all().iter().map(|a| a.worker).collect();
        log_workers.sort_unstable();
        log_workers.dedup();
        prop_assert_eq!(m.worker_ids(), log_workers.as_slice());
        // By-cell view agrees with a naive scan (same multiset, same
        // insertion order within the cell).
        for cell in log.cells() {
            let naive: Vec<_> = log.for_cell(cell).copied().collect();
            let csr: Vec<_> = m.cell_answers(cell)
                .map(|a| tcrowd::tabular::Answer { worker: a.worker, cell: a.cell, value: a.value })
                .collect();
            prop_assert_eq!(naive, csr, "cell {:?}", cell);
        }
        // By-worker and by-(worker, row) views partition the payload.
        for (w, &wid) in m.worker_ids().iter().enumerate() {
            let mine = || log.all().iter().filter(move |a| a.worker == wid);
            prop_assert_eq!(m.worker_answers(w).count(), mine().count());
            for row in 0..log.rows() as u32 {
                let mut naive: Vec<String> =
                    mine().filter(|a| a.cell.row == row).map(|a| format!("{:?}", a)).collect();
                let mut csr: Vec<String> = m
                    .worker_row_answers(w, row)
                    .map(|a| format!("{:?}", tcrowd::tabular::Answer {
                        worker: a.worker, cell: a.cell, value: a.value,
                    }))
                    .collect();
                naive.sort();
                csr.sort();
                prop_assert_eq!(naive, csr, "worker {} row {}", wid, row);
            }
        }
    }

    #[test]
    fn columnar_and_reference_paths_agree((cfg, seed) in config_strategy()) {
        let d = generate_dataset(&cfg, seed);
        let model = TCrowd::default_full();
        let fast = model.infer(&d.schema, &d.answers);
        let naive = model.infer_reference(&d.schema, &d.answers);
        prop_assert_eq!(fast.iterations, naive.iterations);
        prop_assert_eq!(fast.workers.clone(), naive.workers.clone());
        for (a, b) in fast.phi.iter().zip(&naive.phi) {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "phi {} vs {}", a, b);
        }
        for i in 0..d.rows() as u32 {
            for j in 0..d.cols() as u32 {
                let cell = CellId::new(i, j);
                match (fast.estimate(cell), naive.estimate(cell)) {
                    (Value::Categorical(a), Value::Categorical(b)) =>
                        prop_assert_eq!(a, b, "cell ({},{})", i, j),
                    (Value::Continuous(a), Value::Continuous(b)) =>
                        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                            "cell ({},{}): {} vs {}", i, j, a, b),
                    _ => prop_assert!(false, "datatype mismatch at ({},{})", i, j),
                }
            }
        }
    }

    #[test]
    fn new_baselines_always_produce_schema_valid_tables((cfg, seed) in config_strategy()) {
        use tcrowd::baselines::{Accu, MinimaxEntropy, PerColumnTCrowd, TruthMethod};
        let d = generate_dataset(&cfg, seed);
        let methods: Vec<Box<dyn TruthMethod>> = vec![
            Box::new(MinimaxEntropy::default()),
            Box::new(Accu::default()),
            Box::new(Accu::exact()),
            Box::new(PerColumnTCrowd::default()),
        ];
        for m in methods {
            let est = m.estimate(&d.schema, &d.answers);
            prop_assert_eq!(est.len(), d.rows(), "{} row count", m.name());
            for (i, row) in est.iter().enumerate() {
                prop_assert_eq!(row.len(), d.cols());
                for (j, v) in row.iter().enumerate() {
                    prop_assert!(
                        d.schema.column_type(j).accepts(v),
                        "{} produced an invalid value at ({}, {})", m.name(), i, j
                    );
                }
            }
        }
    }
}
