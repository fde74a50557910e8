//! Differential property suite for the freeze pipeline.
//!
//! `build` is itself a merge onto an empty matrix, so the
//! `merge_delta(build(log[..k]), log[k..]) == build(log)` properties check
//! the one builder against itself: **field-for-field** — same cell offsets,
//! same payload order, same worker table — across random logs, random split
//! points, and chained deltas. The oracle property checks it against an
//! independent model built by comparison sorts.

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

/// An independent model of a freeze, derived by comparison sorts: the
/// payload is the log's positions stably sorted by cell, the worker table
/// is the sorted, deduplicated ids, and the worker views sort payload
/// indices by (worker index, row, index).
struct Oracle {
    cell_offsets: Vec<u32>,
    worker_ids: Vec<WorkerId>,
    /// Log position per payload index.
    payload: Vec<usize>,
    /// Dense worker index per payload index.
    worker_of: Vec<u32>,
    /// Payload indices sorted by (worker index, row, index).
    worker_view: Vec<u32>,
}

impl Oracle {
    fn of(log: &AnswerLog) -> Oracle {
        let answers = log.all();
        let slot = |pos: usize| {
            let c = answers[pos].cell;
            c.row as usize * log.cols() + c.col as usize
        };
        let mut payload: Vec<usize> = (0..answers.len()).collect();
        payload.sort_by_key(|&pos| (slot(pos), pos));
        let mut cell_offsets = vec![0u32; log.rows() * log.cols() + 1];
        for &pos in &payload {
            cell_offsets[slot(pos) + 1] += 1;
        }
        for s in 1..cell_offsets.len() {
            cell_offsets[s] += cell_offsets[s - 1];
        }
        let mut worker_ids: Vec<WorkerId> = answers.iter().map(|a| a.worker).collect();
        worker_ids.sort();
        worker_ids.dedup();
        let worker_of: Vec<u32> = payload
            .iter()
            .map(|&pos| worker_ids.binary_search(&answers[pos].worker).unwrap() as u32)
            .collect();
        let mut worker_view: Vec<u32> = (0..payload.len() as u32).collect();
        worker_view
            .sort_by_key(|&k| (worker_of[k as usize], answers[payload[k as usize]].cell.row, k));
        Oracle { cell_offsets, worker_ids, payload, worker_of, worker_view }
    }

    /// The oracle's payload indices of one worker, optionally on one row.
    fn view(&self, log: &AnswerLog, w: usize, row: Option<u32>) -> Vec<u32> {
        self.worker_view
            .iter()
            .copied()
            .filter(|&k| self.worker_of[k as usize] as usize == w)
            .filter(|&k| row.is_none_or(|r| log.all()[self.payload[k as usize]].cell.row == r))
            .collect()
    }
}

/// `m` must equal the oracle of `log` lane by lane and view by view.
fn assert_matches_oracle(m: &AnswerMatrix, log: &AnswerLog) -> Result<(), TestCaseError> {
    let o = Oracle::of(log);
    prop_assert_eq!(m.epoch(), log.len(), "epoch");
    prop_assert_eq!((m.rows(), m.cols()), (log.rows(), log.cols()), "shape");
    prop_assert_eq!(m.cell_offsets(), &o.cell_offsets[..], "cell offsets");
    prop_assert_eq!(m.worker_ids(), &o.worker_ids[..], "worker table");
    prop_assert_eq!(m.answer_workers(), &o.worker_of[..], "worker index lane");
    for (k, &pos) in o.payload.iter().enumerate() {
        let a = log.all()[pos];
        prop_assert_eq!(m.log_position(k), pos, "log position {}", k);
        prop_assert_eq!(m.answer_rows()[k], a.cell.row, "row lane {}", k);
        prop_assert_eq!(m.answer_cols()[k], a.cell.col, "col lane {}", k);
        let (label, value, categorical) = match a.value {
            Value::Categorical(l) => (l, 0.0, true),
            Value::Continuous(x) => (0, x, false),
        };
        prop_assert_eq!(m.answer_labels()[k], label, "label lane {}", k);
        prop_assert_eq!(m.answer_values()[k].to_bits(), value.to_bits(), "value lane {}", k);
        prop_assert_eq!(m.is_categorical(k), categorical, "categorical lane {}", k);
    }
    for w in 0..o.worker_ids.len() {
        prop_assert_eq!(m.worker_answer_indices(w), &o.view(log, w, None)[..], "worker {}", w);
        for row in 0..log.rows() as u32 {
            prop_assert_eq!(
                m.worker_row_answer_indices(w, row),
                &o.view(log, w, Some(row))[..],
                "worker {} row {}",
                w,
                row
            );
        }
    }
    Ok(())
}

/// A log whose workers keep arriving: answer `i` draws from the first
/// `1 + i / 3` workers of a scrambled id sequence, so new ids land anywhere
/// in sorted order mid-chain. About one answer in five repeats the previous
/// answer's worker and cell with a fresh value.
fn churning_log(rows: usize, cols: usize, n: usize, seed: u64) -> AnswerLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = AnswerLog::new(rows, cols);
    for i in 0..n {
        let (worker, cell) = match log.all().last() {
            Some(prev) if rng.gen_bool(0.2) => (prev.worker, prev.cell),
            _ => (
                WorkerId(rng.gen_range(0..=i as u32 / 3) * 37 % 101),
                CellId::new(rng.gen_range(0..rows as u32), rng.gen_range(0..cols as u32)),
            ),
        };
        let value = if cell.col % 2 == 0 {
            Value::Categorical(rng.gen_range(0..4))
        } else {
            Value::Continuous(rng.gen_range(-5.0..5.0))
        };
        log.push(Answer { worker, cell, value });
    }
    log
}

/// Table shapes with the degenerate ones drawn often: 1×1, 1×C and R×1.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (0u8..4, 1usize..6, 1usize..5).prop_map(|(kind, rows, cols)| match kind {
        0 => (1, 1),
        1 => (1, cols),
        2 => (rows, 1),
        _ => (rows, cols),
    })
}

proptest! {
    #[test]
    fn build_and_merge_chains_match_the_oracle(
        (rows, cols) in shape(),
        n in 0usize..60,
        steps in prop::collection::vec(0usize..8, 0..16),
        seed in any::<u64>(),
    ) {
        let log = churning_log(rows, cols, n, seed);
        assert_matches_oracle(&AnswerMatrix::build(&log), &log)?;
        // A chain of merges, empty tails included, checked after every link.
        let mut m = AnswerMatrix::build(&AnswerLog::new(rows, cols));
        assert_matches_oracle(&m, &prefix_log(&log, 0))?;
        let mut at = 0usize;
        for step in steps {
            let next = (at + step).min(log.len());
            m = m.merge_delta(&log.all()[at..next]);
            at = next;
            assert_matches_oracle(&m, &prefix_log(&log, at))?;
        }
        assert_matches_oracle(&m.merge_delta(&log.all()[at..]), &log)?;
    }
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

    /// A merge must reproduce the rebuilt worker views exactly, including
    /// when the delta is dominated by workers the base freeze never saw (the
    /// worker-index remap of the old payload). Checked at the finest
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
