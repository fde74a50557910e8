//! Evaluation metrics (paper §6.2) and case-study error matrices (Fig. 3).
//!
//! * **Error Rate** — fraction of categorical cells whose estimated label
//!   mismatches the ground truth.
//! * **MNAD** — per continuous column, the RMSE between estimate and ground
//!   truth normalised by the column's standard deviation, averaged over
//!   columns. The paper normalises by the standard deviation of the *answers*
//!   in the column (explicitly stated in §6.5.2); [`evaluate`] falls back to
//!   the ground-truth std when no answers are supplied.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::answer::{AnswerLog, WorkerId};
use crate::dataset::Dataset;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;
use tcrowd_stat::describe::{rmse, std_dev};

/// Per-column quality of a set of estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnQuality {
    /// Column name.
    pub name: String,
    /// Error rate (categorical columns only).
    pub error_rate: Option<f64>,
    /// Raw RMSE (continuous columns only).
    pub rmse: Option<f64>,
    /// Normalised absolute distance = RMSE / denominator (continuous only).
    pub nad: Option<f64>,
}

/// Aggregate quality of a set of estimates against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Error rate over all categorical cells, `None` if there are none.
    pub error_rate: Option<f64>,
    /// Mean normalised absolute distance over continuous columns, `None` if
    /// there are none.
    pub mnad: Option<f64>,
    /// Per-column breakdown.
    pub columns: Vec<ColumnQuality>,
}

fn column_denominators_from_truth(schema: &Schema, truth: &[Vec<Value>]) -> Vec<f64> {
    (0..schema.num_columns())
        .map(|j| {
            if schema.column_type(j).is_categorical() {
                1.0
            } else {
                let col: Vec<f64> = truth.iter().map(|r| r[j].expect_continuous()).collect();
                std_dev(&col).max(tcrowd_stat::EPS)
            }
        })
        .collect()
}

fn column_denominators_from_answers(schema: &Schema, answers: &AnswerLog) -> Vec<f64> {
    (0..schema.num_columns())
        .map(|j| {
            if schema.column_type(j).is_categorical() {
                1.0
            } else {
                let col: Vec<f64> = answers
                    .all()
                    .iter()
                    .filter(|a| a.cell.col as usize == j)
                    .map(|a| a.value.expect_continuous())
                    .collect();
                std_dev(&col).max(tcrowd_stat::EPS)
            }
        })
        .collect()
}

fn evaluate_with_denominators(
    schema: &Schema,
    truth: &[Vec<Value>],
    estimates: &[Vec<Value>],
    denoms: &[f64],
) -> QualityReport {
    assert_eq!(truth.len(), estimates.len(), "row count mismatch");
    let m = schema.num_columns();
    let mut columns = Vec::with_capacity(m);
    let mut cat_wrong = 0usize;
    let mut cat_total = 0usize;
    let mut nads = Vec::new();
    for j in 0..m {
        if schema.column_type(j).is_categorical() {
            let mut wrong = 0usize;
            for (t_row, e_row) in truth.iter().zip(estimates) {
                if t_row[j].expect_categorical() != e_row[j].expect_categorical() {
                    wrong += 1;
                }
            }
            cat_wrong += wrong;
            cat_total += truth.len();
            columns.push(ColumnQuality {
                name: schema.columns[j].name.clone(),
                error_rate: Some(wrong as f64 / truth.len().max(1) as f64),
                rmse: None,
                nad: None,
            });
        } else {
            let t: Vec<f64> = truth.iter().map(|r| r[j].expect_continuous()).collect();
            let e: Vec<f64> = estimates.iter().map(|r| r[j].expect_continuous()).collect();
            let col_rmse = rmse(&e, &t);
            let nad = col_rmse / denoms[j];
            nads.push(nad);
            columns.push(ColumnQuality {
                name: schema.columns[j].name.clone(),
                error_rate: None,
                rmse: Some(col_rmse),
                nad: Some(nad),
            });
        }
    }
    QualityReport {
        error_rate: (cat_total > 0).then(|| cat_wrong as f64 / cat_total as f64),
        mnad: (!nads.is_empty()).then(|| nads.iter().sum::<f64>() / nads.len() as f64),
        columns,
    }
}

/// Evaluate estimates against ground truth, normalising continuous RMSE by
/// the *ground-truth* column standard deviation.
pub fn evaluate(schema: &Schema, truth: &[Vec<Value>], estimates: &[Vec<Value>]) -> QualityReport {
    let denoms = column_denominators_from_truth(schema, truth);
    evaluate_with_denominators(schema, truth, estimates, &denoms)
}

/// Evaluate estimates, normalising continuous RMSE by the standard deviation
/// of the collected *answers* per column — the paper's exact MNAD definition
/// (it is what makes MNAD decline under added noise in Fig. 10).
pub fn evaluate_with_answers(
    schema: &Schema,
    truth: &[Vec<Value>],
    estimates: &[Vec<Value>],
    answers: &AnswerLog,
) -> QualityReport {
    let denoms = column_denominators_from_answers(schema, answers);
    evaluate_with_denominators(schema, truth, estimates, &denoms)
}

/// Per-worker per-attribute error matrix (paper Fig. 3).
///
/// For each of the `top_k` workers with the most answers, compute per column:
/// the fraction of wrong answers (categorical) or the standard deviation of
/// the answer−truth differences (continuous), optionally normalised by the
/// column's truth std so the two datatypes share a colour scale.
pub fn worker_attribute_errors(
    dataset: &Dataset,
    top_k: usize,
    normalize_continuous: bool,
) -> (Vec<WorkerId>, Vec<Vec<f64>>) {
    let mut counts: BTreeMap<WorkerId, usize> = BTreeMap::new();
    for a in dataset.answers.all() {
        *counts.entry(a.worker).or_default() += 1;
    }
    let mut by_count: Vec<(WorkerId, usize)> = counts.into_iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_count.truncate(top_k);
    let workers: Vec<_> = by_count.into_iter().map(|(w, _)| w).collect();
    let denoms = column_denominators_from_truth(&dataset.schema, &dataset.truth);

    let m = dataset.cols();
    let mut matrix = Vec::with_capacity(workers.len());
    for &w in &workers {
        let mut row = Vec::with_capacity(m);
        for j in 0..m {
            let answers: Vec<_> = dataset
                .answers
                .all()
                .iter()
                .filter(|a| a.worker == w && a.cell.col as usize == j)
                .collect();
            if answers.is_empty() {
                row.push(f64::NAN);
                continue;
            }
            if dataset.schema.column_type(j).is_categorical() {
                let wrong = answers
                    .iter()
                    .filter(|a| {
                        a.value.expect_categorical()
                            != dataset.truth_of(a.cell).expect_categorical()
                    })
                    .count();
                row.push(wrong as f64 / answers.len() as f64);
            } else {
                let diffs: Vec<f64> = answers
                    .iter()
                    .map(|a| {
                        a.value.expect_continuous() - dataset.truth_of(a.cell).expect_continuous()
                    })
                    .collect();
                let sd = std_dev(&diffs);
                row.push(if normalize_continuous { sd / denoms[j] } else { sd });
            }
        }
        matrix.push(row);
    }
    (workers, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{Answer, CellId, WorkerId};
    use crate::schema::{Column, ColumnType};
    use std::collections::HashMap;

    fn schema2() -> Schema {
        Schema::new(
            "t",
            "k",
            vec![
                Column::new("cat", ColumnType::categorical_with_cardinality(3)),
                Column::new("num", ColumnType::Continuous { min: 0.0, max: 10.0 }),
            ],
        )
    }

    #[test]
    fn perfect_estimates_score_zero() {
        let schema = schema2();
        let truth = vec![
            vec![Value::Categorical(1), Value::Continuous(4.0)],
            vec![Value::Categorical(0), Value::Continuous(8.0)],
        ];
        let rep = evaluate(&schema, &truth, &truth);
        assert_eq!(rep.error_rate, Some(0.0));
        assert_eq!(rep.mnad, Some(0.0));
    }

    #[test]
    fn error_rate_counts_mismatches() {
        let schema = schema2();
        let truth = vec![
            vec![Value::Categorical(1), Value::Continuous(4.0)],
            vec![Value::Categorical(0), Value::Continuous(8.0)],
        ];
        let mut est = truth.clone();
        est[0][0] = Value::Categorical(2);
        let rep = evaluate(&schema, &truth, &est);
        assert_eq!(rep.error_rate, Some(0.5));
        assert_eq!(rep.columns[0].error_rate, Some(0.5));
    }

    #[test]
    fn mnad_normalised_by_truth_std() {
        let schema = schema2();
        let truth = vec![
            vec![Value::Categorical(0), Value::Continuous(0.0)],
            vec![Value::Categorical(0), Value::Continuous(10.0)],
        ];
        let mut est = truth.clone();
        est[0][1] = Value::Continuous(1.0);
        est[1][1] = Value::Continuous(9.0);
        // RMSE = 1, truth std = 5 → NAD = 0.2.
        let rep = evaluate(&schema, &truth, &est);
        assert!((rep.mnad.unwrap() - 0.2).abs() < 1e-12);
        assert!((rep.columns[1].rmse.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn answer_denominator_differs_from_truth_denominator() {
        let schema = schema2();
        let truth = vec![
            vec![Value::Categorical(0), Value::Continuous(0.0)],
            vec![Value::Categorical(0), Value::Continuous(10.0)],
        ];
        let mut answers = AnswerLog::new(2, 2);
        // Answers with a huge spread inflate the denominator and shrink MNAD.
        for (i, v) in [(0u32, -50.0), (1u32, 60.0)] {
            answers.push(Answer {
                worker: WorkerId(0),
                cell: CellId::new(i, 1),
                value: Value::Continuous(v),
            });
        }
        let est = truth.clone();
        let a = evaluate_with_answers(&schema, &truth, &est, &answers);
        assert_eq!(a.mnad, Some(0.0));
        let mut est2 = truth.clone();
        est2[0][1] = Value::Continuous(5.0);
        let with_answers = evaluate_with_answers(&schema, &truth, &est2, &answers);
        let with_truth = evaluate(&schema, &truth, &est2);
        assert!(with_answers.mnad.unwrap() < with_truth.mnad.unwrap());
    }

    #[test]
    fn all_categorical_has_no_mnad() {
        let schema = Schema::new(
            "c",
            "k",
            vec![Column::new("a", ColumnType::categorical_with_cardinality(2))],
        );
        let truth = vec![vec![Value::Categorical(0)]];
        let rep = evaluate(&schema, &truth, &truth);
        assert_eq!(rep.mnad, None);
        assert_eq!(rep.error_rate, Some(0.0));
    }

    #[test]
    fn worker_error_matrix_shapes_and_values() {
        let schema = schema2();
        let truth = vec![
            vec![Value::Categorical(1), Value::Continuous(4.0)],
            vec![Value::Categorical(0), Value::Continuous(8.0)],
        ];
        let mut answers = AnswerLog::new(2, 2);
        // Worker 0: 1 wrong categorical out of 2; continuous diffs ±1.
        answers.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(0, 0),
            value: Value::Categorical(1),
        });
        answers.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(1, 0),
            value: Value::Categorical(2),
        });
        answers.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(0, 1),
            value: Value::Continuous(5.0),
        });
        answers.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(1, 1),
            value: Value::Continuous(7.0),
        });
        // Worker 1: answers only one cell.
        answers.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 0),
            value: Value::Categorical(1),
        });
        let dataset = Dataset { schema, truth, answers, worker_truth: HashMap::new() };
        let (workers, matrix) = worker_attribute_errors(&dataset, 2, false);
        assert_eq!(workers, vec![WorkerId(0), WorkerId(1)]);
        assert!((matrix[0][0] - 0.5).abs() < 1e-12);
        // diffs are +1 and -1 → std = 1.
        assert!((matrix[0][1] - 1.0).abs() < 1e-12);
        assert_eq!(matrix[1][0], 0.0);
        assert!(matrix[1][1].is_nan(), "no continuous answers from worker 1");
    }

    #[test]
    fn top_k_truncates_by_answer_count() {
        let d = crate::generator::generate_dataset(
            &crate::generator::GeneratorConfig {
                rows: 20,
                columns: 3,
                num_workers: 15,
                answers_per_task: 3,
                ..Default::default()
            },
            8,
        );
        let (workers, matrix) = worker_attribute_errors(&d, 5, true);
        assert_eq!(workers.len(), 5);
        assert_eq!(matrix.len(), 5);
        assert_eq!(matrix[0].len(), 3);
    }
}
