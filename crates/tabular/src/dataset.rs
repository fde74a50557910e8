//! Datasets: schema + ground truth + answers (+ simulation ground truth about
//! the workers themselves, for calibration case studies).

use crate::answer::{AnswerLog, CellId, WorkerId};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Simulation-side ground truth about one worker.
///
/// Only generators populate this; inference never reads it. It exists so the
/// case studies (paper Fig. 3/4) can compare *estimated* worker quality
/// against *actual* quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerProfile {
    /// The worker's inherent answer variance `φ_u` (paper §4.1), in the
    /// generator's normalised noise units.
    pub phi: f64,
}

/// A full dataset: schema, ground-truth table, collected answers, and
/// (for simulated data) the true worker profiles.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The table schema.
    pub schema: Schema,
    /// Ground truth `T*_ij`, row-major: `truth[i][j]`.
    pub truth: Vec<Vec<Value>>,
    /// The collected answer set `A`.
    pub answers: AnswerLog,
    /// True worker profiles (empty for non-simulated data).
    pub worker_truth: HashMap<WorkerId, WorkerProfile>,
}

/// Summary statistics in the shape of the paper's Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStatistics {
    /// Dataset name.
    pub name: String,
    /// Number of rows (entities).
    pub rows: usize,
    /// Number of value columns.
    pub columns: usize,
    /// Number of cells (tasks).
    pub cells: usize,
    /// Number of categorical columns.
    pub categorical_columns: usize,
    /// Number of continuous columns.
    pub continuous_columns: usize,
    /// Total answers collected.
    pub answers: usize,
    /// Average answers per task.
    pub answers_per_task: f64,
    /// Number of distinct workers.
    pub workers: usize,
}

impl Dataset {
    /// Number of rows `N`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.truth.len()
    }

    /// Number of columns `M`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.schema.num_columns()
    }

    /// Ground truth of one cell.
    #[inline]
    pub fn truth_of(&self, cell: CellId) -> Value {
        self.truth[cell.row as usize][cell.col as usize]
    }

    /// Check internal consistency: shapes line up and every truth value and
    /// answer matches its column's datatype/domain.
    pub fn validate(&self) -> Result<(), String> {
        let (n, m) = (self.rows(), self.cols());
        if self.answers.rows() != n || self.answers.cols() != m {
            return Err(format!(
                "answer log shape {}×{} does not match table {}×{}",
                self.answers.rows(),
                self.answers.cols(),
                n,
                m
            ));
        }
        for (i, row) in self.truth.iter().enumerate() {
            if row.len() != m {
                return Err(format!("truth row {i} has {} cells, want {m}", row.len()));
            }
            for (j, v) in row.iter().enumerate() {
                if !self.schema.column_type(j).accepts(v) {
                    return Err(format!("truth value at ({i},{j}) violates column type"));
                }
            }
        }
        if let Err(idx) = self.answers.validate(&self.schema) {
            return Err(format!("answer #{idx} violates its column type"));
        }
        Ok(())
    }

    /// Table-6-style statistics.
    pub fn statistics(&self) -> DatasetStatistics {
        DatasetStatistics {
            name: self.schema.name.clone(),
            rows: self.rows(),
            columns: self.cols(),
            cells: self.rows() * self.cols(),
            categorical_columns: self.schema.categorical_columns().len(),
            continuous_columns: self.schema.continuous_columns().len(),
            answers: self.answers.len(),
            answers_per_task: self.answers.avg_answers_per_task(),
            workers: self.answers.all().iter().map(|a| a.worker).collect::<HashSet<_>>().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Answer;
    use crate::schema::{Column, ColumnType};

    fn tiny_dataset() -> Dataset {
        let schema = Schema::new(
            "tiny",
            "id",
            vec![
                Column::new("cat", ColumnType::categorical_with_cardinality(3)),
                Column::new("num", ColumnType::Continuous { min: 0.0, max: 10.0 }),
            ],
        );
        let truth = vec![
            vec![Value::Categorical(0), Value::Continuous(1.0)],
            vec![Value::Categorical(2), Value::Continuous(9.0)],
        ];
        let mut answers = AnswerLog::new(2, 2);
        answers.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(0, 0),
            value: Value::Categorical(0),
        });
        answers.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(0, 1),
            value: Value::Continuous(1.4),
        });
        Dataset { schema, truth, answers, worker_truth: HashMap::new() }
    }

    #[test]
    fn validate_accepts_consistent_dataset() {
        assert_eq!(tiny_dataset().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_truth() {
        let mut d = tiny_dataset();
        d.truth[0][0] = Value::Continuous(3.0);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let mut d = tiny_dataset();
        d.answers = AnswerLog::new(5, 2);
        assert!(d.validate().unwrap_err().contains("shape"));
    }

    #[test]
    fn statistics_reflect_content() {
        let s = tiny_dataset().statistics();
        assert_eq!(s.rows, 2);
        assert_eq!(s.columns, 2);
        assert_eq!(s.cells, 4);
        assert_eq!(s.categorical_columns, 1);
        assert_eq!(s.continuous_columns, 1);
        assert_eq!(s.answers, 2);
        assert_eq!(s.workers, 1);
        assert!((s.answers_per_task - 0.5).abs() < 1e-12);
    }
}
