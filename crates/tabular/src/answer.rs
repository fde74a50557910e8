//! Workers, cells and the append-only answer log.
//!
//! The answer set `A = {a^u_ij}` is the sole input of truth inference
//! (Definition 3) and the main input of task assignment (§5). Model code
//! reads it three ways — all answers of a *cell* (E-step, Eq. 4; the
//! assignment policies' point queries), all answers of a *worker* (M-step
//! quality update), and all answers of a worker on one *row*
//! (structure-aware gain, Eq. 7). Every one of those reads goes through the
//! frozen [`crate::AnswerMatrix`], which serves all three groupings from one
//! CSR layout; the log itself is the write side — answers in arrival order
//! and nothing else, so an append is one `Vec` push.

use crate::schema::Schema;
use crate::value::Value;

/// Identifier of a worker `u ∈ U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a cell `c_ij` (row-major position in the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Row (entity) index `i`.
    pub row: u32,
    /// Column (attribute) index `j`.
    pub col: u32,
}

impl CellId {
    /// Construct a cell id.
    #[inline]
    pub fn new(row: u32, col: u32) -> Self {
        CellId { row, col }
    }
}

/// One answer `a^u_ij`: worker `u` claims cell `c_ij` has `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The answering worker.
    pub worker: WorkerId,
    /// The answered cell.
    pub cell: CellId,
    /// The claimed value.
    pub value: Value,
}

/// The answer set `A` of a fixed `rows × cols` table, in arrival order.
///
/// Every read grouped by cell, worker or (worker, row) goes through
/// [`AnswerLog::to_matrix`]. Two logs compare equal exactly when they hold
/// the same answers in the same order for the same shape.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerLog {
    rows: usize,
    cols: usize,
    answers: Vec<Answer>,
}

impl AnswerLog {
    /// Create an empty log for a `rows × cols` table.
    pub fn new(rows: usize, cols: usize) -> Self {
        AnswerLog { rows, cols, answers: Vec::new() }
    }

    /// Number of rows `N`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `M`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of answers `|A|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True if no answers have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Append one answer. Panics if the cell is out of the table's shape.
    pub fn push(&mut self, answer: Answer) {
        assert!(
            (answer.cell.row as usize) < self.rows && (answer.cell.col as usize) < self.cols,
            "answer for cell outside the table shape"
        );
        self.answers.push(answer);
    }

    /// Validate every answer against a schema (datatype + domain), returning
    /// the index of the first offending answer if any.
    pub fn validate(&self, schema: &Schema) -> Result<(), usize> {
        assert_eq!(schema.num_columns(), self.cols, "schema shape mismatch");
        for (i, a) in self.answers.iter().enumerate() {
            if !schema.column_type(a.cell.col as usize).accepts(&a.value) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// All answers, in insertion order.
    #[inline]
    pub fn all(&self) -> &[Answer] {
        &self.answers
    }

    /// Freeze this log into its columnar sweep-side form.
    pub fn to_matrix(&self) -> crate::matrix::AnswerMatrix {
        crate::matrix::AnswerMatrix::build(self)
    }

    /// Average number of answers per cell — the x-axis of Fig. 2/5.
    pub fn avg_answers_per_task(&self) -> f64 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        self.answers.len() as f64 / (self.rows * self.cols) as f64
    }

    /// Iterate over all cells of the table in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let cols = self.cols;
        (0..self.rows * self.cols).map(move |s| CellId::new((s / cols) as u32, (s % cols) as u32))
    }

    /// A copy of the log without the given workers' answers — the curation
    /// step after diagnostics flag spammers (re-run inference on the rest).
    pub fn without_workers(&self, excluded: &[WorkerId]) -> AnswerLog {
        let mut out = AnswerLog::new(self.rows, self.cols);
        for a in &self.answers {
            if !excluded.contains(&a.worker) {
                out.push(*a);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn log_with_answers() -> AnswerLog {
        let mut log = AnswerLog::new(3, 2);
        log.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 0),
            value: Value::Categorical(0),
        });
        log.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 1),
            value: Value::Continuous(5.0),
        });
        log.push(Answer {
            worker: WorkerId(2),
            cell: CellId::new(0, 0),
            value: Value::Categorical(1),
        });
        log.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(2, 1),
            value: Value::Continuous(7.0),
        });
        log
    }

    #[test]
    fn has_answered_and_average() {
        let log = log_with_answers();
        let m = log.to_matrix();
        assert!(m.has_answered(WorkerId(1), CellId::new(0, 0)));
        assert!(!m.has_answered(WorkerId(2), CellId::new(0, 1)));
        assert_eq!(m.count_for_cell(CellId::new(0, 0)), 2);
        assert_eq!(m.count_for_cell(CellId::new(1, 0)), 0);
        assert!((log.avg_answers_per_task() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn cells_enumeration_is_row_major() {
        let log = AnswerLog::new(2, 2);
        let cells: Vec<CellId> = log.cells().collect();
        assert_eq!(
            cells,
            vec![CellId::new(0, 0), CellId::new(0, 1), CellId::new(1, 0), CellId::new(1, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "outside the table shape")]
    fn push_rejects_out_of_shape() {
        let mut log = AnswerLog::new(1, 1);
        log.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(5, 0),
            value: Value::Categorical(0),
        });
    }

    #[test]
    fn validate_catches_type_mismatch() {
        let schema = Schema::new(
            "t",
            "k",
            vec![
                Column::new("c", ColumnType::categorical_with_cardinality(2)),
                Column::new("x", ColumnType::Continuous { min: 0.0, max: 10.0 }),
            ],
        );
        let log = log_with_answers();
        assert_eq!(log.validate(&schema), Ok(()));

        let mut bad = AnswerLog::new(3, 2);
        bad.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 0),
            value: Value::Continuous(3.0), // column 0 is categorical
        });
        assert_eq!(bad.validate(&schema), Err(0));
    }

    #[test]
    fn without_workers_drops_only_their_answers() {
        let log = log_with_answers();
        let all_workers = [WorkerId(1), WorkerId(2)];
        let victim = all_workers[0];
        let filtered = log.without_workers(&[victim]);
        assert_eq!(filtered.rows(), log.rows());
        assert_eq!(filtered.cols(), log.cols());
        assert_eq!(filtered.len(), log.len() - 3, "worker 1 gave three answers");
        assert!(filtered.all().iter().all(|a| a.worker != victim));
        // Excluding nobody is the identity on contents.
        let same = log.without_workers(&[]);
        assert_eq!(same.len(), log.len());
        // Excluding everyone empties the log but keeps the shape.
        let none = log.without_workers(&all_workers);
        assert!(none.is_empty());
        assert_eq!(none.rows(), log.rows());
    }
}
