//! Differential property suite for the incremental freeze pipeline:
//! `merge_delta(build(log[..k]), log[k..])` must equal `build(log)`
//! **field-for-field** — same cell offsets, same payload order, same worker
//! table — across random logs, random split points, and chained deltas.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcrowd_tabular::{Answer, AnswerLog, AnswerMatrix, CellId, Value, WorkerId};

/// A random mixed-type answer log: shape from the strategy, contents from a
/// seeded RNG (workers repeat, cells repeat, both value kinds appear).
fn random_log(rows: usize, cols: usize, n: usize, seed: u64) -> AnswerLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = AnswerLog::new(rows, cols);
    for _ in 0..n {
        let cell = CellId::new(rng.gen_range(0..rows as u32), rng.gen_range(0..cols as u32));
        let value = if cell.col % 2 == 0 {
            Value::Categorical(rng.gen_range(0..4))
        } else {
            Value::Continuous(rng.gen_range(-5.0..5.0))
        };
        log.push(Answer { worker: WorkerId(rng.gen_range(0..10)), cell, value });
    }
    log
}

/// Rebuild the prefix `log[..k]` as its own log.
fn prefix_log(log: &AnswerLog, k: usize) -> AnswerLog {
    let mut out = AnswerLog::new(log.rows(), log.cols());
    for a in &log.all()[..k] {
        out.push(*a);
    }
    out
}

/// Field-for-field comparison with readable failure messages before the
/// final whole-struct equality (which covers every private lane).
fn assert_matrices_equal(
    merged: &AnswerMatrix,
    rebuilt: &AnswerMatrix,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(merged.len(), rebuilt.len(), "payload length");
    prop_assert_eq!(merged.cell_offsets(), rebuilt.cell_offsets(), "cell offsets");
    prop_assert_eq!(merged.worker_ids(), rebuilt.worker_ids(), "worker table");
    prop_assert_eq!(merged.answer_rows(), rebuilt.answer_rows(), "row lane");
    prop_assert_eq!(merged.answer_cols(), rebuilt.answer_cols(), "col lane");
    prop_assert_eq!(merged.answer_workers(), rebuilt.answer_workers(), "worker index lane");
    prop_assert_eq!(merged.answer_labels(), rebuilt.answer_labels(), "label lane");
    prop_assert_eq!(merged.answer_values(), rebuilt.answer_values(), "value lane");
    for k in 0..merged.len() {
        prop_assert_eq!(merged.log_position(k), rebuilt.log_position(k), "log position {}", k);
    }
    for w in 0..merged.num_workers() {
        prop_assert_eq!(
            merged.worker_answer_indices(w),
            rebuilt.worker_answer_indices(w),
            "worker view {}",
            w
        );
    }
    // The derived PartialEq sweeps every remaining private field.
    prop_assert_eq!(merged, rebuilt);
    Ok(())
}

proptest! {
    #[test]
    fn merge_delta_equals_rebuild_at_every_split(
        (rows, cols) in (1usize..6, 1usize..5),
        n in 0usize..80,
        split in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let log = random_log(rows, cols, n, seed);
        let k = ((log.len() as f64) * split).round() as usize;
        let base = AnswerMatrix::build(&prefix_log(&log, k));
        prop_assert_eq!(base.epoch(), k);
        let merged = base.merge_delta(&log.all()[k..]);
        prop_assert_eq!(merged.epoch(), log.len());
        prop_assert!(!merged.is_stale(&log));
        assert_matrices_equal(&merged, &AnswerMatrix::build(&log))?;
    }

    #[test]
    fn chained_small_deltas_equal_one_rebuild(
        (rows, cols) in (1usize..6, 1usize..5),
        n in 1usize..60,
        step in 1usize..7,
        seed in any::<u64>(),
    ) {
        // The simulator's steady state: many tiny merges, one after another.
        let log = random_log(rows, cols, n, seed);
        let mut m = AnswerMatrix::build(&AnswerLog::new(rows, cols));
        let mut at = 0usize;
        while at < log.len() {
            let next = (at + step).min(log.len());
            m = m.merge_delta(&log.all()[at..next]);
            at = next;
        }
        assert_matrices_equal(&m, &AnswerMatrix::build(&log))?;
    }

    /// The worker-view splice (old `worker_order` moved through the per-slot
    /// shift map) must reproduce the counting-sort views exactly, including
    /// when the delta is dominated by workers the base freeze never saw
    /// (the remap + fresh-worker interleave paths). Checked at the finest
    /// granularity — every (worker, row) slice — on top of the whole-array
    /// equality of `assert_matrices_equal`.
    #[test]
    fn spliced_worker_views_match_rebuild_under_worker_churn(
        (rows, cols) in (1usize..6, 1usize..5),
        n_base in 0usize..40,
        n_delta in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = random_log(rows, cols, n_base, seed);
        // Delta drawn from a mostly-disjoint worker population: ids 5..25
        // overlap the base's 0..10 only partially, so most merges exercise
        // the fresh-worker remap.
        let base = AnswerMatrix::build(&log);
        for _ in 0..n_delta {
            let cell = CellId::new(rng.gen_range(0..rows as u32), rng.gen_range(0..cols as u32));
            let value = if cell.col % 2 == 0 {
                Value::Categorical(rng.gen_range(0..4))
            } else {
                Value::Continuous(rng.gen_range(-5.0..5.0))
            };
            log.push(Answer { worker: WorkerId(rng.gen_range(5..25)), cell, value });
        }
        let merged = base.merge_delta(&log.all()[base.epoch()..]);
        let rebuilt = AnswerMatrix::build(&log);
        for w in 0..rebuilt.num_workers() {
            prop_assert_eq!(
                merged.worker_answer_indices(w),
                rebuilt.worker_answer_indices(w),
                "worker view {}", w
            );
            for row in 0..rows as u32 {
                prop_assert_eq!(
                    merged.worker_row_answer_indices(w, row),
                    rebuilt.worker_row_answer_indices(w, row),
                    "worker {} row {}", w, row
                );
            }
        }
        assert_matrices_equal(&merged, &rebuilt)?;
    }

    #[test]
    fn refresh_is_idempotent_and_tracks_epoch(
        (rows, cols) in (1usize..6, 1usize..5),
        n in 0usize..40,
        extra in 0usize..20,
        seed in any::<u64>(),
    ) {
        let log = random_log(rows, cols, n + extra, seed);
        let frozen = AnswerMatrix::build(&prefix_log(&log, n));
        let refreshed = frozen.merge_delta(&log.all()[frozen.epoch()..]);
        prop_assert!(!refreshed.is_stale(&log));
        assert_matrices_equal(&refreshed, &AnswerMatrix::build(&log))?;
        // Merging the (now empty) tail again is the identity.
        assert_matrices_equal(&refreshed.merge_delta(&log.all()[refreshed.epoch()..]), &refreshed)?;
    }
}
