//! Differential property suite for the quarantine filter: inference over the
//! filtered view must equal inference over a log *rebuilt without* the
//! quarantined workers' answers — the filter is a view, never a mutation —
//! and releasing every exclusion must restore the unfiltered fit
//! bit-for-bit. Exercised over both production paths:
//!
//! * the batch path — [`QuarantineView::to_matrix`] / `infer_matrix` against
//!   `infer(&log.without_workers(..))`;
//! * the online path — [`FitState::set_exclusions`] + `refit` against the
//!   same rebuilt-log batch fit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcrowd_core::{FitState, TCrowd};
use tcrowd_tabular::{Answer, AnswerLog, AnswerMatrix, CellId, QuarantineView, Value, WorkerId};

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

/// A schema matching `random_log`'s value pattern: even columns categorical
/// (4 labels), odd columns continuous over the generator's range.
fn schema_for(cols: usize) -> tcrowd_tabular::Schema {
    use tcrowd_tabular::{Column, ColumnType, Schema};
    Schema::new(
        "prop",
        "key",
        (0..cols)
            .map(|j| Column {
                name: format!("c{j}"),
                ty: if j % 2 == 0 {
                    ColumnType::categorical_with_cardinality(4)
                } else {
                    ColumnType::Continuous { min: -5.0, max: 5.0 }
                },
            })
            .collect(),
    )
}

/// The log's distinct workers, ascending: the freeze's worker table.
fn workers_of(log: &AnswerLog) -> Vec<WorkerId> {
    log.to_matrix().worker_ids().to_vec()
}

/// Pick a subset of the log's workers from a selection mask.
fn pick_excluded(log: &AnswerLog, mask: u16) -> Vec<WorkerId> {
    workers_of(log).into_iter().filter(|w| mask & (1u16 << (w.0 % 16)) != 0).collect()
}

/// `filtered` and `rebuilt` must describe the same fit to within `tol`:
/// identical categorical estimates, continuous estimates within `tol`, the
/// same surviving-worker qualities within `tol`, and no fitted quality at
/// all for the excluded workers.
fn assert_fits_equal(
    filtered: &tcrowd_core::InferenceResult,
    rebuilt: &tcrowd_core::InferenceResult,
    excluded: &[WorkerId],
    survivors: &[WorkerId],
    tol: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(filtered.rows(), rebuilt.rows());
    prop_assert_eq!(filtered.cols(), rebuilt.cols());
    for (i, (fr, rr)) in filtered.estimates().iter().zip(rebuilt.estimates().iter()).enumerate() {
        for (j, (fv, rv)) in fr.iter().zip(rr.iter()).enumerate() {
            match (fv, rv) {
                (Value::Categorical(a), Value::Categorical(b)) => {
                    prop_assert_eq!(a, b, "categorical estimate at ({}, {})", i, j);
                }
                (Value::Continuous(a), Value::Continuous(b)) => {
                    prop_assert!(
                        (a - b).abs() <= tol,
                        "continuous estimate at ({}, {}): {} vs {}",
                        i,
                        j,
                        a,
                        b
                    );
                }
                _ => prop_assert!(false, "estimate kinds differ at ({}, {})", i, j),
            }
        }
    }
    for w in excluded {
        prop_assert_eq!(
            filtered.quality_of(*w),
            None,
            "excluded worker {} must carry no fitted quality",
            w.0
        );
    }
    for w in survivors {
        match (filtered.quality_of(*w), rebuilt.quality_of(*w)) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() <= tol,
                "quality of surviving worker {}: {} vs {}",
                w.0,
                a,
                b
            ),
            (a, b) => prop_assert_eq!(a, b, "quality presence for worker {}", w.0),
        }
    }
    Ok(())
}

proptest! {
    /// Batch path: EM over the quarantine view's filtered matrix equals EM
    /// over a log physically rebuilt without those workers, to 1e-9.
    #[test]
    fn filtered_view_inference_equals_rebuilt_log(
        (rows, cols) in (1usize..6, 1usize..5),
        n in 0usize..80,
        mask in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let log = random_log(rows, cols, n, seed);
        let schema = schema_for(cols);
        let excluded = pick_excluded(&log, mask);
        let survivors: Vec<WorkerId> =
            workers_of(&log).into_iter().filter(|w| !excluded.contains(w)).collect();

        let matrix = AnswerMatrix::build(&log);
        let view = QuarantineView::new(&matrix, &excluded);
        // The view filters the fit, never the data underneath it.
        prop_assert_eq!(view.matrix().len(), log.len());

        let model = TCrowd::default_full();
        let filtered = model.infer_matrix(&schema, &view.to_matrix());
        let rebuilt = model.infer(&schema, &log.without_workers(&excluded));
        assert_fits_equal(&filtered, &rebuilt, &excluded, &survivors, 1e-9)?;
    }

    /// Online path: a [`FitState`] with exclusions set refits to the same
    /// posterior as the rebuilt-log batch fit, and *releasing* every
    /// exclusion restores the unfiltered fit bit-identically.
    #[test]
    fn fit_state_exclusion_matches_rebuild_and_release_is_bit_identical(
        (rows, cols) in (1usize..6, 1usize..5),
        n in 0usize..60,
        mask in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let log = random_log(rows, cols, n, seed);
        let schema = schema_for(cols);
        let excluded = pick_excluded(&log, mask);
        let survivors: Vec<WorkerId> =
            workers_of(&log).into_iter().filter(|w| !excluded.contains(w)).collect();
        let model = TCrowd::default_full();

        let mut fit = FitState::empty(model.clone(), schema.clone(), rows);
        fit.absorb(&log.slice_since(0));
        fit.set_exclusions(excluded.clone());
        fit.refit(false);
        // Quarantine filters the fit; the freeze still covers the full log.
        prop_assert_eq!(fit.matrix().len(), log.len());
        let rebuilt = model.infer(&schema, &log.without_workers(&excluded));
        assert_fits_equal(fit.result(), &rebuilt, &excluded, &survivors, 1e-9)?;

        // Release: clearing the exclusions must reproduce a fit that never
        // excluded anyone, bit-for-bit (same estimates, same iteration count).
        fit.set_exclusions(Vec::new());
        fit.refit(false);
        let full = model.infer(&schema, &log);
        prop_assert_eq!(fit.result().estimates(), full.estimates());
        prop_assert_eq!(fit.result().iterations, full.iterations);
        for w in workers_of(&log) {
            prop_assert_eq!(fit.result().quality_of(w), full.quality_of(w));
        }
    }
}
