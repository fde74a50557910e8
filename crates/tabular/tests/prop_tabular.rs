//! Property-based tests for the tabular substrate.

use proptest::prelude::*;
use tcrowd_tabular::{
    evaluate, generate_dataset, Answer, AnswerLog, CellId, ColumnType, GeneratorConfig, Value,
    WorkerId,
};

fn small_cfg() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..8, 1usize..5, 0.0f64..=1.0, 1usize..4, 4usize..9).prop_map(
        |(rows, columns, ratio, ans, workers)| GeneratorConfig {
            rows,
            columns,
            categorical_ratio: ratio,
            answers_per_task: ans,
            num_workers: workers,
            ..Default::default()
        },
    )
}

proptest! {
    #[test]
    fn freeze_point_queries_match_a_log_scan(
        cfg in small_cfg(),
        seed in any::<u64>(),
    ) {
        let d = generate_dataset(&cfg, seed);
        let log = &d.answers;
        let m = log.to_matrix();
        // Per-cell counts sum to the total length.
        let by_cell_total: usize = log.cells().map(|c| m.count_for_cell(c)).sum();
        prop_assert_eq!(by_cell_total, log.len());
        // Each cell lists exactly that cell's answers, in log order, and
        // `has_answered` agrees with a scan for every worker (plus one the
        // freeze never saw).
        let unseen = WorkerId(u32::MAX);
        for c in log.cells() {
            let frozen: Vec<Answer> =
                m.cell_answers(c).map(|a| m.to_answer(a.index as usize)).collect();
            let scanned: Vec<Answer> = log.all().iter().filter(|a| a.cell == c).copied().collect();
            for &w in m.worker_ids().iter().chain([&unseen]) {
                prop_assert_eq!(m.has_answered(w, c), scanned.iter().any(|a| a.worker == w));
            }
            prop_assert_eq!(frozen, scanned);
        }
    }

    #[test]
    fn every_answer_matches_its_column_type(cfg in small_cfg(), seed in any::<u64>()) {
        let d = generate_dataset(&cfg, seed);
        prop_assert_eq!(d.answers.validate(&d.schema), Ok(()));
        for a in d.answers.all() {
            match d.schema.column_type(a.cell.col as usize) {
                ColumnType::Categorical { labels } => {
                    prop_assert!((a.value.expect_categorical() as usize) < labels.len());
                }
                ColumnType::Continuous { .. } => {
                    prop_assert!(a.value.expect_continuous().is_finite());
                }
            }
        }
    }

    #[test]
    fn evaluation_error_rate_counts_exact_mismatches(
        cfg in small_cfg(),
        seed in any::<u64>(),
        flips in prop::collection::vec(any::<u16>(), 1..8),
    ) {
        let d = generate_dataset(&cfg, seed);
        let cats = d.schema.categorical_columns();
        prop_assume!(!cats.is_empty());
        // Corrupt a known set of categorical cells and verify the metric.
        let mut est = d.truth.clone();
        let mut corrupted = std::collections::HashSet::new();
        for f in flips {
            let i = f as usize % d.rows();
            let j = cats[f as usize % cats.len()];
            let card = d.schema.column_type(j).cardinality().unwrap();
            if card < 2 {
                continue;
            }
            let t = d.truth[i][j].expect_categorical();
            est[i][j] = Value::Categorical((t + 1) % card);
            corrupted.insert((i, j));
        }
        let rep = evaluate(&d.schema, &d.truth, &est);
        let expect = corrupted.len() as f64 / (d.rows() * cats.len()) as f64;
        prop_assert!((rep.error_rate.unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn statistics_are_internally_consistent(cfg in small_cfg(), seed in any::<u64>()) {
        let d = generate_dataset(&cfg, seed);
        let s = d.statistics();
        prop_assert_eq!(s.cells, s.rows * s.columns);
        prop_assert_eq!(s.categorical_columns + s.continuous_columns, s.columns);
        prop_assert!((s.answers_per_task - cfg.answers_per_task as f64).abs() < 1e-12);
        prop_assert!(s.workers <= cfg.num_workers);
    }
}

#[test]
fn answer_log_push_order_is_preserved() {
    let mut log = AnswerLog::new(2, 2);
    for k in 0..4u32 {
        log.push(Answer {
            worker: WorkerId(k),
            cell: CellId::new(k / 2, k % 2),
            value: Value::Categorical(0),
        });
    }
    let order: Vec<u32> = log.all().iter().map(|a| a.worker.0).collect();
    assert_eq!(order, vec![0, 1, 2, 3]);
}
