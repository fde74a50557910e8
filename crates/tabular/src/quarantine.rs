//! Quarantine: serve truth inference over an answer set *minus* a set of
//! excluded workers, without deleting anything from the underlying log.
//!
//! Quarantining a worker must be cheap, reversible and exact: the answer log
//! is the system of record (answers are expensive and unrepeatable), so a
//! defense layer that *deleted* a suspected spammer's answers could never be
//! undone. Instead, [`AnswerMatrix::without_workers`] materialises the
//! exclusion as a standalone freeze for EM (truth inference iterates whole
//! payload lanes, so a filtered freeze beats per-answer membership tests
//! there). Un-quarantining is the identity: drop the exclusion and the
//! original log/matrix is still exactly what it was.
//!
//! The differential contract (regression-tested by proptest): inference over
//! the filtered freeze ≡ inference over a log rebuilt without the excluded
//! workers' answers ([`AnswerLog::without_workers`]), and an empty exclusion
//! set reproduces the unfiltered fit bit-for-bit.

use crate::answer::{AnswerLog, WorkerId};
use crate::matrix::AnswerMatrix;

impl AnswerMatrix {
    /// A standalone freeze of this matrix's answers **minus** the excluded
    /// workers, in original log order — field-for-field identical to
    /// `AnswerMatrix::build(&log.without_workers(excluded))` on the log this
    /// matrix froze (the differential tests assert it). `excluded` must be
    /// sorted ascending. `O(n)`; runs on the refresher thread, never under
    /// the ingest lock.
    pub fn without_workers(&self, excluded: &[WorkerId]) -> AnswerMatrix {
        debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]), "exclusion set must be sorted");
        // The payload is cell-major; `log_position` is the permutation back
        // to append order, which the rebuilt log must preserve.
        let mut ordered = vec![usize::MAX; self.len()];
        for k in 0..self.len() {
            ordered[self.log_position(k)] = k;
        }
        let mut log = AnswerLog::new(self.rows(), self.cols());
        for &k in &ordered {
            let a = self.to_answer(k);
            if excluded.binary_search(&a.worker).is_err() {
                log.push(a);
            }
        }
        AnswerMatrix::build(&log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{Answer, CellId};
    use crate::value::Value;

    fn log() -> AnswerLog {
        let mut log = AnswerLog::new(3, 2);
        let push = |log: &mut AnswerLog, w: u32, r: u32, c: u32, v: Value| {
            log.push(Answer { worker: WorkerId(w), cell: CellId::new(r, c), value: v });
        };
        push(&mut log, 1, 0, 0, Value::Categorical(0));
        push(&mut log, 2, 0, 0, Value::Categorical(1));
        push(&mut log, 1, 0, 1, Value::Continuous(5.0));
        push(&mut log, 3, 1, 1, Value::Continuous(7.5));
        push(&mut log, 2, 2, 0, Value::Categorical(1));
        push(&mut log, 2, 2, 1, Value::Continuous(-1.0));
        log
    }

    #[test]
    fn without_workers_matches_rebuilt_log_for_every_exclusion() {
        let log = log();
        let matrix = AnswerMatrix::build(&log);
        let workers = matrix.worker_ids().to_vec();
        // Every subset of the three workers (sorted by construction).
        for mask in 0u32..(1 << workers.len()) {
            let excluded: Vec<WorkerId> = workers
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &w)| w)
                .collect();
            assert_eq!(
                matrix.without_workers(&excluded),
                AnswerMatrix::build(&log.without_workers(&excluded)),
                "{excluded:?}"
            );
        }
    }

    #[test]
    fn empty_exclusion_is_the_identity() {
        let log = log();
        let matrix = AnswerMatrix::build(&log);
        assert_eq!(matrix.without_workers(&[]), matrix);
    }

    #[test]
    fn unknown_workers_hide_nothing() {
        let log = log();
        let matrix = AnswerMatrix::build(&log);
        assert_eq!(matrix.without_workers(&[WorkerId(999)]), matrix);
    }
}
