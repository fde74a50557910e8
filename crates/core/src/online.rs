//! Online truth inference: maintain estimates while answers stream in.
//!
//! A live platform (paper Fig. 1) interleaves answer collection with
//! inference. Re-running full EM on every answer is wasteful — §5.1 already
//! notes that one answer barely moves anything except the answered cell's
//! posterior — so the online loop applies each incoming answer as an
//! incremental Bayesian update and re-fits the full model only at the
//! caller's own cadence. Between refits the worker/difficulty parameters are
//! frozen; after a refit everything is exact again.
//!
//! ## Mutate vs. fit state
//!
//! The streaming state splits cleanly in two, and the split is load-bearing
//! for serving deployments:
//!
//! * the **mutate state** — the append-only [`AnswerLog`] — is all the
//!   collection path ever touches: `O(1)` push, `O(Δ)` tail slicing
//!   ([`AnswerLog::slice_since`]);
//! * the **fit state** — [`FitState`]: the evolving freeze plus the current
//!   [`InferenceResult`] — is what EM reads and writes, and it advances
//!   *only* by absorbing epoch-tagged [`LogSlice`]s.
//!
//! Every caller runs the same loop over a `FitState`: the simulator's
//! `Runner` catches up on each HIT's answers and refits every few HITs; a
//! service that must not stall collection while EM runs holds the two
//! states behind separate locks — slice the tail under the ingest lock
//! (`O(Δ)`), [`FitState::absorb`] + [`FitState::refit`] outside it, then a
//! brief catch-up ([`FitState::catch_up`]) for the answers that arrived
//! mid-fit (see `tcrowd-service`).

use crate::assign::apply_answer_incrementally;
use crate::inference::{FitParams, InferenceResult, Seed, TCrowd};
use std::sync::Arc;
use tcrowd_tabular::{AnswerLog, AnswerMatrix, LogSlice, Schema, WorkerId};

/// The fit half of the online loop: the evolving freeze and the inference
/// result over it, advanced exclusively by epoch-tagged log slices.
///
/// A `FitState` never sees the answer log itself — whoever owns the log
/// hands it [`LogSlice`]s ([`AnswerLog::slice_since`]) and the state
/// delta-merges them into its freeze ([`AnswerMatrix::merge_delta`]). That
/// makes it safe to run EM over a `FitState` on one thread while another
/// keeps appending to the log: the fit works on a consistent prefix, and
/// [`FitState::catch_up`] folds in whatever arrived mid-fit with the §5.1
/// incremental posterior update.
///
/// The freeze lives behind an [`Arc`] so publishing it (handing an
/// immutable matrix to readers) is one refcount bump, not an `O(n)` clone.
#[derive(Debug, Clone)]
pub struct FitState {
    model: TCrowd,
    schema: Schema,
    matrix: Arc<AnswerMatrix>,
    result: InferenceResult,
    /// Quarantined workers, sorted ascending. The freeze always covers the
    /// full log; when this is non-empty, [`FitState::refit`] fits over
    /// [`AnswerMatrix::without_workers`] and [`FitState::catch_up`] skips
    /// these workers' incremental updates — the exclusion is a property of
    /// the *fit*, never of the data.
    exclude: Vec<WorkerId>,
}

impl FitState {
    /// Start the online loop at `matrix` (a freeze of the log so far): the
    /// first fit runs over it without `excluded`'s answers, exactly as
    /// [`Self::refit`] does, and starts EM as `seed` says — cold for a new
    /// table, [`Seed::Evaluate`] to republish stored parameters on recovery.
    pub fn new(
        model: TCrowd,
        schema: Schema,
        matrix: AnswerMatrix,
        mut excluded: Vec<WorkerId>,
        seed: Seed<'_>,
    ) -> FitState {
        excluded.sort_unstable();
        excluded.dedup();
        let result = fit_excluding(&model, &schema, &matrix, &excluded, seed);
        FitState { model, schema, matrix: Arc::new(matrix), result, exclude: excluded }
    }

    /// An empty fit state for a `rows`-row table (runs the initial fit of
    /// the empty answer set).
    pub fn empty(model: TCrowd, schema: Schema, rows: usize) -> FitState {
        let matrix = AnswerMatrix::build(&AnswerLog::new(rows, schema.num_columns()));
        FitState::new(model, schema, matrix, Vec::new(), Seed::Cold)
    }

    /// Replace the quarantined-worker set (deduplicated and sorted
    /// internally). Returns whether the set actually changed; when it did,
    /// the current result still reflects the old set until the next
    /// [`Self::refit`].
    pub fn set_exclusions(&mut self, mut excluded: Vec<WorkerId>) -> bool {
        excluded.sort_unstable();
        excluded.dedup();
        if excluded == self.exclude {
            return false;
        }
        self.exclude = excluded;
        true
    }

    /// The quarantined-worker set the next refit will exclude (sorted).
    #[inline]
    pub fn exclusions(&self) -> &[WorkerId] {
        &self.exclude
    }

    /// The epoch this fit state has absorbed up to (= its freeze's epoch).
    #[inline]
    pub fn epoch(&self) -> usize {
        self.matrix.epoch()
    }

    /// Merge an epoch-tagged log tail into the freeze (`O(Δ)` per-answer
    /// work plus bulk copies; no EM). Panics if the slice's base is not this
    /// state's epoch — it belongs to a different prefix.
    pub fn absorb(&mut self, slice: &LogSlice) {
        assert_eq!(slice.base(), self.epoch(), "fit state absorbed a slice from a different epoch");
        if slice.is_empty() {
            return;
        }
        self.matrix = Arc::new(self.matrix.merge_delta(slice.answers()));
    }

    /// Run full EM over the current freeze: cold by default (the result is a
    /// pure function of the absorbed prefix), warm-started from the current
    /// result when `warm` is set. With a non-empty exclusion set
    /// ([`Self::set_exclusions`]) EM runs over the filtered freeze instead —
    /// identical to fitting a log that never contained those workers'
    /// answers, while the published freeze keeps covering the full log.
    pub fn refit(&mut self, warm: bool) {
        let params = warm.then(|| FitParams::of(&self.result));
        let seed = params.as_ref().map_or(Seed::Cold, Seed::Warm);
        self.result = fit_excluding(&self.model, &self.schema, &self.matrix, &self.exclude, seed);
    }

    /// Fold in the answers that arrived while a fit was running: absorb the
    /// slice into the freeze and apply the §5.1 incremental posterior
    /// update per answer (skipping excluded workers — their answers join the
    /// freeze but must not move the posteriors). `O(Δ')` — no EM. The next
    /// [`Self::refit`] makes the state exact again.
    pub fn catch_up(&mut self, slice: &LogSlice) {
        self.absorb(slice);
        for a in slice.answers() {
            if self.exclude.binary_search(&a.worker).is_err() {
                apply_answer_incrementally(&mut self.result, a.worker, a.cell, &a.value);
            }
        }
    }

    /// The current freeze.
    #[inline]
    pub fn matrix(&self) -> &AnswerMatrix {
        &self.matrix
    }

    /// The current freeze behind its `Arc` (share with readers for free).
    #[inline]
    pub fn matrix_arc(&self) -> Arc<AnswerMatrix> {
        Arc::clone(&self.matrix)
    }

    /// The current inference result.
    #[inline]
    pub fn result(&self) -> &InferenceResult {
        &self.result
    }
}

/// Fit `matrix` without `excluded`'s answers (sorted; empty = fit it all).
fn fit_excluding(
    model: &TCrowd,
    schema: &Schema,
    matrix: &AnswerMatrix,
    excluded: &[WorkerId],
    seed: Seed<'_>,
) -> InferenceResult {
    if excluded.is_empty() {
        model.fit(schema, matrix, seed)
    } else {
        model.fit(schema, &matrix.without_workers(excluded), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{evaluate, generate_dataset, GeneratorConfig};

    fn dataset(seed: u64) -> tcrowd_tabular::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 25,
                columns: 4,
                num_workers: 15,
                answers_per_task: 4,
                ..Default::default()
            },
            seed,
        )
    }

    /// The categorical error rate of a report. Every dataset in this module
    /// mixes datatypes, so a missing rate means the generator layout changed
    /// out from under the test — say so instead of panicking on a bare
    /// `Option::unwrap` that leaves CI logs undiagnosable.
    fn error_rate(report: &tcrowd_tabular::QualityReport) -> f64 {
        report.error_rate.expect(
            "report has no categorical error rate — the test dataset should contain categorical \
             columns (did the generator's column layout change?)",
        )
    }

    /// Stream `d`'s answers one at a time through a fresh fit state — each
    /// caught up incrementally, with a full refit (warm or cold) after every
    /// `refit_every` answers — and return the log alongside the state.
    fn stream(
        d: &tcrowd_tabular::Dataset,
        refit_every: usize,
        warm: bool,
    ) -> (AnswerLog, FitState) {
        let mut log = AnswerLog::new(d.rows(), d.cols());
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        for (i, &a) in d.answers.all().iter().enumerate() {
            log.push(a);
            fit.catch_up(&log.slice_since(fit.epoch()));
            if (i + 1) % refit_every == 0 {
                fit.refit(warm);
            }
        }
        (log, fit)
    }

    #[test]
    fn streaming_matches_batch_after_refit() {
        let d = dataset(1);
        let (_, mut fit) = stream(&d, 64, false);
        fit.refit(false);
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(fit.result().estimates(), batch.estimates());
        assert_eq!(fit.result().iterations, batch.iterations);
    }

    #[test]
    fn incremental_estimates_stay_close_to_batch() {
        // Between refits the estimates are approximate; they must still be
        // useful (here: within a small error-rate gap of the batch fit).
        let d = dataset(3);
        let (_, fit) = stream(&d, usize::MAX, false); // never refit: pure incremental
        let online_rep = evaluate(&d.schema, &d.truth, &fit.result().estimates());
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        let batch_rep = evaluate(&d.schema, &d.truth, &batch.estimates());
        assert!(
            error_rate(&online_rep) <= error_rate(&batch_rep) + 0.15,
            "incremental {} vs batch {}",
            error_rate(&online_rep),
            error_rate(&batch_rep)
        );
    }

    #[test]
    fn warm_refits_stay_close_to_cold_refits() {
        let d = dataset(5);
        let (log, mut warm) = stream(&d, 25, true);
        let (_, mut cold) = stream(&d, 25, false);
        warm.refit(true);
        cold.refit(false);
        // Both chains see identical data; the warm chain's estimates must be
        // statistically indistinguishable (same error rate ballpark).
        let rw = evaluate(&d.schema, &d.truth, &warm.result().estimates());
        let rc = evaluate(&d.schema, &d.truth, &cold.result().estimates());
        assert!(
            (error_rate(&rw) - error_rate(&rc)).abs() <= 0.05,
            "warm {} vs cold {}",
            error_rate(&rw),
            error_rate(&rc)
        );
        // The freeze tracks the log.
        assert!(!warm.matrix().is_stale(&log));
    }

    #[test]
    fn new_fits_the_filtered_freeze_and_evaluates_stored_params() {
        // The recovery constructor: the first fit honours the exclusion set
        // exactly as a refit does, and evaluating that fit's own parameters
        // republishes it without EM.
        let d = dataset(11);
        let model = TCrowd::default_full();
        let excluded: Vec<tcrowd_tabular::WorkerId> = d.answers.workers().take(2).collect();
        let mut refit = FitState::empty(model.clone(), d.schema.clone(), d.rows());
        refit.absorb(&d.answers.slice_since(0));
        refit.set_exclusions(excluded.clone());
        refit.refit(false);
        let cold = FitState::new(
            model.clone(),
            d.schema.clone(),
            d.answers.to_matrix(),
            excluded.iter().rev().copied().collect(),
            Seed::Cold,
        );
        assert_eq!(cold.exclusions(), refit.exclusions());
        assert_eq!(cold.result().estimates(), refit.result().estimates());
        assert_eq!(cold.result().iterations, refit.result().iterations);
        let params = FitParams::of(cold.result());
        let eval = FitState::new(
            model,
            d.schema.clone(),
            d.answers.to_matrix(),
            excluded,
            Seed::Evaluate(&params),
        );
        assert_eq!(eval.result().iterations, 0);
        let gap = crate::diagnostics::max_z_discrepancy(eval.result(), cold.result());
        assert!(gap < 1e-9, "evaluated posteriors drifted from the fit: {gap:.3e}");
    }

    #[test]
    fn fit_state_absorb_refit_equals_batch() {
        // The lock-split protocol a service runs, exercised serially: slice
        // the log tail, absorb + refit out of band, catch up, repeat. At a
        // quiescent refit the state must equal the batch fit exactly.
        let d = dataset(7);
        let mut log = AnswerLog::new(d.rows(), d.cols());
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        let stream = d.answers.all();
        let mut fed = 0usize;
        while fed < stream.len() {
            // "Collection" appends a burst…
            let burst = (stream.len() - fed).min(17);
            for &a in &stream[fed..fed + burst] {
                log.push(a);
            }
            fed += burst;
            // …the fitter takes the tail slice and fits outside the lock…
            let slice = log.slice_since(fit.epoch());
            fit.absorb(&slice);
            fit.refit(false);
            // …and a mid-fit arrival is caught up without EM.
            if fed < stream.len() {
                log.push(stream[fed]);
                fed += 1;
                fit.catch_up(&log.slice_since(fit.epoch()));
            }
        }
        // Final quiescent refit: everything absorbed, no catch-up pending.
        assert_eq!(fit.epoch(), log.len());
        fit.refit(false);
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(fit.result().estimates(), batch.estimates());
        assert_eq!(fit.result().iterations, batch.iterations);
        assert_eq!(fit.matrix(), &AnswerMatrix::build(&log));
    }

    #[test]
    fn fit_state_exclusions_match_a_log_without_those_workers() {
        let d = dataset(9);
        let mut log = AnswerLog::new(d.rows(), d.cols());
        for &a in d.answers.all() {
            log.push(a);
        }
        let excluded: Vec<tcrowd_tabular::WorkerId> = log.workers().take(3).collect();
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        fit.absorb(&log.slice_since(0));
        assert!(fit.set_exclusions(excluded.clone()));
        assert!(!fit.set_exclusions(excluded.clone()), "same set again is a no-op");
        fit.refit(false);
        // The freeze still covers the full log; only the fit is filtered.
        assert_eq!(fit.matrix().len(), log.len());
        let batch = TCrowd::default_full().infer(&d.schema, &log.without_workers(&excluded));
        assert_eq!(fit.result().estimates(), batch.estimates());
        assert_eq!(fit.result().iterations, batch.iterations);
        // Excluded workers carry no fitted quality; the rest match the batch.
        for w in &excluded {
            assert_eq!(fit.result().quality_of(*w), None);
        }
        // Dropping the exclusion restores the unfiltered fit bit-for-bit.
        assert!(fit.set_exclusions(Vec::new()));
        fit.refit(false);
        let full = TCrowd::default_full().infer(&d.schema, &log);
        assert_eq!(fit.result().estimates(), full.estimates());
        assert_eq!(fit.result().iterations, full.iterations);
    }

    #[test]
    fn catch_up_skips_excluded_workers() {
        let d = dataset(10);
        let stream = d.answers.all();
        let split = stream.len() / 2;
        let mut log = AnswerLog::new(d.rows(), d.cols());
        for &a in &stream[..split] {
            log.push(a);
        }
        let excluded = vec![stream[split].worker];
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        fit.absorb(&log.slice_since(0));
        fit.set_exclusions(excluded.clone());
        fit.refit(false);
        let before = fit.result().clone();
        // Catch up with a tail that starts with the excluded worker's answer:
        // the freeze advances, the posteriors ignore it.
        log.push(stream[split]);
        fit.catch_up(&log.slice_since(fit.epoch()));
        assert_eq!(fit.epoch(), log.len());
        assert_eq!(fit.result().estimates(), before.estimates());
    }

    #[test]
    #[should_panic(expected = "different epoch")]
    fn fit_state_rejects_misaligned_slices() {
        let d = dataset(8);
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        fit.absorb(&d.answers.slice_since(3)); // state is at epoch 0
    }
}
