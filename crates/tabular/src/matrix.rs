//! [`AnswerMatrix`] — the frozen columnar (CSR) answer store.
//!
//! [`crate::AnswerLog`] is the *mutable* append log a live platform feeds:
//! answers in arrival order and nothing else. Every inference or assignment
//! read, however, wants answers **grouped** — by cell (E-step, Eq. 4, and
//! the policies' point queries: a cell's count, its values, whether a worker
//! already answered it), by worker (M-step quality update, Eq. 5), or by
//! (worker, row) (structure-aware gain, Eq. 7) — and the matrix is the one
//! place those groupings live.
//!
//! `AnswerMatrix` is the sweep-side dual: frozen from a log, it stores
//! the answers as a struct-of-arrays payload in **cell-major order** with
//! three compressed-sparse (CSR-style) views over contiguous `u32` arrays:
//!
//! * **by cell** — the payload itself is cell-major, so the view is just an
//!   offset array (`rows·cols + 1` entries); a cell's answers are one
//!   contiguous slice.
//! * **by worker** — one permutation array ordered by (worker, row,
//!   insertion) plus a `W + 1` offset array.
//! * **by (worker, row)** — the *same* permutation array with a finer
//!   `W·rows + 1` offset array; the two views share storage because the
//!   permutation is sorted by row within each worker.
//!
//! Workers are indexed **densely and in sorted id order**, which makes every
//! downstream iteration deterministic — the `HashMap`-iteration
//! nondeterminism the side indexes used to leak is structurally gone.
//!
//! ## Complexity
//!
//! | Operation | Cost |
//! |---|---|
//! | `merge_delta` of `Δ` answers onto `n` | `O((W + Δ) log(W + Δ) + n + R·C + W·R)`: the worker tables merged, one counting sort by cell, block moves of the old payload, the worker views re-counted (`R×C` table, `W` workers) |
//! | `build` of `n` answers | `merge_delta` onto an empty matrix: `O(n log n + R·C + W·R)`, the `n log n` being the worker-id sort |
//! | one full by-cell sweep | `O(n + R·C)`, contiguous |
//! | one full by-worker sweep | `O(n + W)`, one indirection per answer |
//! | answers of one cell | `O(1)` slice lookup |
//! | answers of one (worker, row) | `O(1)` slice lookup after `O(log W)` id resolution |
//!
//! The payload is split by datatype (label array + value array) so numeric
//! kernels read dense `u32`/`f64` lanes instead of matching an enum per
//! answer.
//!
//! ## Incremental refresh
//!
//! An online loop (assign → collect → re-infer) freezes the log over and
//! over, with only a handful of new answers between freezes.
//! [`AnswerMatrix::merge_delta`] folds the log tail into an existing freeze
//! and is the only construction algorithm: [`AnswerMatrix::build`] merges
//! the whole log onto an empty matrix. The per-answer work of resolving ids
//! and decoding values is confined to the delta; the old payload moves by
//! bulk copies between the cells the delta touches, and the worker views
//! are re-counted over the merged payload. A merge is **field-for-field
//! identical** to a rebuild of the whole log (property-tested against an
//! independent oracle). The matrix's [`epoch`](AnswerMatrix::epoch) — the
//! number of log answers it froze — tells consumers whether their freeze is
//! stale.

use crate::answer::{Answer, AnswerLog, CellId, WorkerId};
use crate::value::Value;
use std::marker::PhantomData;

/// One answer as viewed through the matrix: the payload row `index` plus the
/// decoded fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixAnswer {
    /// Position in the matrix payload (cell-major).
    pub index: u32,
    /// The answering worker's id.
    pub worker: WorkerId,
    /// The answering worker's dense index (sorted-id order).
    pub worker_index: u32,
    /// The answered cell.
    pub cell: CellId,
    /// The claimed value.
    pub value: Value,
}

/// Compressed-sparse columnar store over a fixed answer set. See the module
/// docs for the layout and complexity table.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerMatrix {
    n_rows: usize,
    n_cols: usize,
    // ---- struct-of-arrays payload, cell-major, ties by insertion order ----
    row_of: Vec<u32>,
    col_of: Vec<u32>,
    worker_of: Vec<u32>,
    labels: Vec<u32>,
    values: Vec<f64>,
    categorical: Vec<bool>,
    /// Original position in the source [`AnswerLog`] per payload row.
    log_position: Vec<u32>,
    // ---- worker table ----
    worker_ids: Vec<WorkerId>,
    // ---- CSR views ----
    cell_offsets: Vec<u32>,
    worker_order: Vec<u32>,
    worker_offsets: Vec<u32>,
    worker_row_offsets: Vec<u32>,
}

/// The by-worker and by-(worker, row) views of a payload: one counting sort
/// of the payload indices by (worker, row). Within a key the indices keep
/// payload (cell-major) order, so each worker's run is sorted by row and one
/// permutation serves both views.
fn build_worker_views(
    n_rows: usize,
    n_workers: usize,
    row_of: &[u32],
    worker_of: &[u32],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let key = |k: usize| worker_of[k] as usize * n_rows + row_of[k] as usize;
    // Count each key, then turn the counts into run ends.
    let mut worker_row_offsets = vec![0u32; n_workers * n_rows + 1];
    for k in 0..row_of.len() {
        worker_row_offsets[key(k)] += 1;
    }
    let mut end = 0u32;
    for off in &mut worker_row_offsets {
        end += *off;
        *off = end;
    }
    // Filling each run from its end while scanning the payload backwards
    // leaves every offset at its run's start.
    let mut worker_order = vec![0u32; row_of.len()];
    for k in (0..row_of.len()).rev() {
        let start = &mut worker_row_offsets[key(k)];
        *start -= 1;
        worker_order[*start as usize] = k as u32;
    }
    let worker_offsets = (0..=n_workers).map(|w| worker_row_offsets[w * n_rows]).collect();
    (worker_order, worker_offsets, worker_row_offsets)
}

/// What [`AnswerMatrix::freeze_view`] returns: a zero-sized, copyable
/// borrow of a freeze. It carries no data — a consumer that needs the
/// matrix holds `&AnswerMatrix` — and exists as the type of
/// `tcrowd_core::AssignmentContext::freeze`, which no policy reads.
#[derive(Debug, Clone, Copy)]
pub struct FrozenView<'a>(PhantomData<&'a AnswerMatrix>);

impl AnswerMatrix {
    /// The freeze of an empty log of the given shape.
    fn empty(n_rows: usize, n_cols: usize) -> AnswerMatrix {
        AnswerMatrix {
            n_rows,
            n_cols,
            row_of: Vec::new(),
            col_of: Vec::new(),
            worker_of: Vec::new(),
            labels: Vec::new(),
            values: Vec::new(),
            categorical: Vec::new(),
            log_position: Vec::new(),
            worker_ids: Vec::new(),
            cell_offsets: vec![0; n_rows * n_cols + 1],
            worker_order: Vec::new(),
            worker_offsets: vec![0],
            worker_row_offsets: vec![0],
        }
    }

    /// Freeze an [`AnswerLog`] into its columnar form: the whole log merged
    /// onto an empty matrix of its shape.
    pub fn build(log: &AnswerLog) -> AnswerMatrix {
        AnswerMatrix::empty(log.rows(), log.cols()).merge_delta(log.all())
    }

    /// Merge the log tail `tail` (the answers appended since this matrix was
    /// frozen, in log order) into a new frozen matrix covering the full log.
    /// It is the only way a matrix is built: [`AnswerMatrix::build`] merges
    /// the whole log onto an empty matrix, so the result is field-for-field
    /// identical to `AnswerMatrix::build(full_log)` — same payload order,
    /// same offsets, same worker table — which the differential proptest
    /// suite asserts.
    ///
    /// One counting sort: the delta is counted per cell, which fixes every
    /// cell's new range (its old answers, then its delta answers, which are
    /// newer). The old payload moves in blocks — a run of cells between two
    /// touched ones keeps one shift — with worker indices remapped into the
    /// merged worker table, the delta is scattered in log order to the top
    /// of its cells' ranges, and `build_worker_views` re-counts both
    /// worker views over the merged payload.
    ///
    /// Cost: `O((W + Δ) log(W + Δ))` to merge the worker tables and resolve
    /// the ids, `O(R·C)` for the cell counts and offsets, and `O(n + W·R)`
    /// for the block moves and the worker views.
    ///
    /// # Panics
    /// If a delta answer lies outside the table shape.
    pub fn merge_delta(&self, tail: &[Answer]) -> AnswerMatrix {
        if tail.is_empty() {
            return self.clone();
        }
        let (n_rows, n_cols) = (self.n_rows, self.n_cols);
        let slots = n_rows * n_cols;
        let n_old = self.len();
        let n = n_old + tail.len();
        let slot = |a: &Answer| a.cell.row as usize * n_cols + a.cell.col as usize;

        // Dense worker table in sorted-id order; `remap` takes an old dense
        // index to its index in the merged table.
        let mut worker_ids: Vec<WorkerId> =
            self.worker_ids.iter().copied().chain(tail.iter().map(|a| a.worker)).collect();
        worker_ids.sort_unstable();
        worker_ids.dedup();
        let widx =
            |w: WorkerId| -> u32 { worker_ids.binary_search(&w).expect("worker present") as u32 };
        let remap: Vec<u32> = self.worker_ids.iter().map(|&w| widx(w)).collect();

        // Count the delta per cell; a cell's new range holds its old answers
        // and then its delta answers.
        let mut added = vec![0u32; slots];
        for a in tail {
            assert!(
                (a.cell.row as usize) < n_rows && (a.cell.col as usize) < n_cols,
                "delta answer outside the table shape"
            );
            added[slot(a)] += 1;
        }
        let mut cell_offsets = Vec::with_capacity(slots + 1);
        cell_offsets.push(0u32);
        let mut end = 0u32;
        for (old, &d) in self.cell_offsets.windows(2).zip(&added) {
            end += old[1] - old[0] + d;
            cell_offsets.push(end);
        }

        let mut row_of = vec![0u32; n];
        let mut col_of = vec![0u32; n];
        let mut worker_of = vec![0u32; n];
        let mut labels = vec![0u32; n];
        let mut values = vec![0.0f64; n];
        let mut categorical = vec![false; n];
        let mut log_position = vec![0u32; n];

        // Move the old payload: the cells between two touched ones share one
        // shift, so each such run moves as a block.
        let mut moved = 0usize;
        let mut move_block = |end: usize, shift: usize| {
            // A merge onto an empty matrix has an empty run at every cell.
            if end == moved {
                return;
            }
            let (src, dst) = (moved..end, moved + shift..end + shift);
            row_of[dst.clone()].copy_from_slice(&self.row_of[src.clone()]);
            col_of[dst.clone()].copy_from_slice(&self.col_of[src.clone()]);
            for (w, &old) in worker_of[dst.clone()].iter_mut().zip(&self.worker_of[src.clone()]) {
                *w = remap[old as usize];
            }
            labels[dst.clone()].copy_from_slice(&self.labels[src.clone()]);
            values[dst.clone()].copy_from_slice(&self.values[src.clone()]);
            categorical[dst.clone()].copy_from_slice(&self.categorical[src.clone()]);
            log_position[dst].copy_from_slice(&self.log_position[src]);
            moved = end;
        };
        let mut shift = 0usize;
        for (s, &d) in added.iter().enumerate() {
            if d > 0 {
                move_block(self.cell_offsets[s + 1] as usize, shift);
                shift += d as usize;
            }
        }
        move_block(n_old, shift);

        // Scatter the delta, in log order, to the top of each cell's range.
        let mut cursor: Vec<u32> =
            added.iter().zip(&cell_offsets[1..]).map(|(&d, &end)| end - d).collect();
        for (i, a) in tail.iter().enumerate() {
            let s = slot(a);
            let k = cursor[s] as usize;
            cursor[s] += 1;
            row_of[k] = a.cell.row;
            col_of[k] = a.cell.col;
            worker_of[k] = widx(a.worker);
            match a.value {
                Value::Categorical(l) => {
                    labels[k] = l;
                    categorical[k] = true;
                }
                Value::Continuous(x) => values[k] = x,
            }
            log_position[k] = (n_old + i) as u32;
        }

        let (worker_order, worker_offsets, worker_row_offsets) =
            build_worker_views(n_rows, worker_ids.len(), &row_of, &worker_of);

        AnswerMatrix {
            n_rows,
            n_cols,
            row_of,
            col_of,
            worker_of,
            labels,
            values,
            categorical,
            log_position,
            worker_ids,
            cell_offsets,
            worker_order,
            worker_offsets,
            worker_row_offsets,
        }
    }

    /// The freeze epoch: the source-log length this matrix reflects. A
    /// matrix always covers the whole log it was built/merged from, so the
    /// epoch equals [`Self::len`]; the distinct name marks the *staleness*
    /// semantics (compare against the live log's length).
    #[inline]
    pub fn epoch(&self) -> usize {
        self.len()
    }

    /// True when `log` has grown past (or shrunk below) this freeze.
    #[inline]
    pub fn is_stale(&self, log: &AnswerLog) -> bool {
        self.epoch() != log.len()
    }

    /// The [`FrozenView`] borrow of this freeze.
    #[inline]
    pub fn freeze_view(&self) -> FrozenView<'_> {
        FrozenView(PhantomData)
    }

    // ---- shape ----

    /// Number of table rows `N`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of table columns `M`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// Total number of answers `|A|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.row_of.len()
    }

    /// True when no answers are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.row_of.is_empty()
    }

    // ---- worker table ----

    /// Number of distinct workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.worker_ids.len()
    }

    /// The distinct worker ids, ascending.
    #[inline]
    pub fn worker_ids(&self) -> &[WorkerId] {
        &self.worker_ids
    }

    /// Dense index of a worker id, if the worker contributed answers.
    #[inline]
    pub fn worker_index(&self, worker: WorkerId) -> Option<usize> {
        self.worker_ids.binary_search(&worker).ok()
    }

    /// The worker id behind a dense index.
    #[inline]
    pub fn worker_id(&self, index: usize) -> WorkerId {
        self.worker_ids[index]
    }

    // ---- raw struct-of-arrays lanes (cell-major) ----

    /// Row per payload position.
    #[inline]
    pub fn answer_rows(&self) -> &[u32] {
        &self.row_of
    }

    /// Column per payload position.
    #[inline]
    pub fn answer_cols(&self) -> &[u32] {
        &self.col_of
    }

    /// Dense worker index per payload position.
    #[inline]
    pub fn answer_workers(&self) -> &[u32] {
        &self.worker_of
    }

    /// Categorical label lane (meaningful where [`Self::is_categorical`]).
    #[inline]
    pub fn answer_labels(&self) -> &[u32] {
        &self.labels
    }

    /// Continuous value lane (meaningful where not categorical).
    #[inline]
    pub fn answer_values(&self) -> &[f64] {
        &self.values
    }

    /// Whether the payload position holds a categorical answer.
    #[inline]
    pub fn is_categorical(&self, index: usize) -> bool {
        self.categorical[index]
    }

    /// Position of a payload row in the source [`AnswerLog`].
    #[inline]
    pub fn log_position(&self, index: usize) -> usize {
        self.log_position[index] as usize
    }

    /// Decode one payload position.
    #[inline]
    pub fn answer(&self, index: usize) -> MatrixAnswer {
        let widx = self.worker_of[index];
        MatrixAnswer {
            index: index as u32,
            worker: self.worker_ids[widx as usize],
            worker_index: widx,
            cell: CellId::new(self.row_of[index], self.col_of[index]),
            value: if self.categorical[index] {
                Value::Categorical(self.labels[index])
            } else {
                Value::Continuous(self.values[index])
            },
        }
    }

    // ---- by-cell view ----

    #[inline]
    fn slot(&self, cell: CellId) -> usize {
        debug_assert!(
            (cell.row as usize) < self.n_rows && (cell.col as usize) < self.n_cols,
            "cell outside the table shape"
        );
        cell.row as usize * self.n_cols + cell.col as usize
    }

    /// Payload range holding a cell's answers (contiguous, insertion order).
    #[inline]
    pub fn cell_range(&self, cell: CellId) -> std::ops::Range<usize> {
        let s = self.slot(cell);
        self.cell_offsets[s] as usize..self.cell_offsets[s + 1] as usize
    }

    /// The raw cell offset array (`rows·cols + 1` entries, row-major slots).
    #[inline]
    pub fn cell_offsets(&self) -> &[u32] {
        &self.cell_offsets
    }

    /// Number of answers on a cell.
    #[inline]
    pub fn count_for_cell(&self, cell: CellId) -> usize {
        self.cell_range(cell).len()
    }

    /// Decoded answers of one cell.
    pub fn cell_answers(&self, cell: CellId) -> impl Iterator<Item = MatrixAnswer> + '_ {
        self.cell_range(cell).map(move |k| self.answer(k))
    }

    /// True if `worker` answered `cell` in this freeze. `O(log W)` id
    /// resolution plus a scan of the cell's (small) answer run.
    pub fn has_answered(&self, worker: WorkerId, cell: CellId) -> bool {
        match self.worker_index(worker) {
            None => false,
            Some(w) => self.cell_range(cell).any(|k| self.worker_of[k] == w as u32),
        }
    }

    // ---- by-worker and by-(worker, row) views ----

    /// Payload indices of one worker's answers, grouped by row ascending.
    #[inline]
    pub fn worker_answer_indices(&self, worker_index: usize) -> &[u32] {
        let lo = self.worker_offsets[worker_index] as usize;
        let hi = self.worker_offsets[worker_index + 1] as usize;
        &self.worker_order[lo..hi]
    }

    /// Decoded answers of one worker (dense index), rows ascending.
    pub fn worker_answers(&self, worker_index: usize) -> impl Iterator<Item = MatrixAnswer> + '_ {
        self.worker_answer_indices(worker_index).iter().map(move |&k| self.answer(k as usize))
    }

    /// Payload indices of one worker's answers on one row.
    #[inline]
    pub fn worker_row_answer_indices(&self, worker_index: usize, row: u32) -> &[u32] {
        let key = worker_index * self.n_rows + row as usize;
        let lo = self.worker_row_offsets[key] as usize;
        let hi = self.worker_row_offsets[key + 1] as usize;
        &self.worker_order[lo..hi]
    }

    /// Decoded answers of one worker on one row (`L^u_i` of Eq. 7).
    pub fn worker_row_answers(
        &self,
        worker_index: usize,
        row: u32,
    ) -> impl Iterator<Item = MatrixAnswer> + '_ {
        self.worker_row_answer_indices(worker_index, row)
            .iter()
            .map(move |&k| self.answer(k as usize))
    }

    /// Decoded answers of a worker by id — empty iterator for unseen workers.
    pub fn answers_of(&self, worker: WorkerId) -> impl Iterator<Item = MatrixAnswer> + '_ {
        let range: &[u32] = match self.worker_index(worker) {
            Some(w) => self.worker_answer_indices(w),
            None => &[],
        };
        range.iter().map(move |&k| self.answer(k as usize))
    }

    /// Iterate all answers in cell-major payload order.
    pub fn iter(&self) -> impl Iterator<Item = MatrixAnswer> + '_ {
        (0..self.len()).map(move |k| self.answer(k))
    }

    /// Reconstruct the [`Answer`] at a payload position.
    #[inline]
    pub fn to_answer(&self, index: usize) -> Answer {
        let a = self.answer(index);
        Answer { worker: a.worker, cell: a.cell, value: a.value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> AnswerLog {
        let mut log = AnswerLog::new(3, 2);
        let push = |log: &mut AnswerLog, w: u32, r: u32, c: u32, v: Value| {
            log.push(Answer { worker: WorkerId(w), cell: CellId::new(r, c), value: v });
        };
        push(&mut log, 7, 0, 0, Value::Categorical(1));
        push(&mut log, 2, 2, 1, Value::Continuous(4.0));
        push(&mut log, 7, 0, 1, Value::Continuous(1.5));
        push(&mut log, 2, 0, 0, Value::Categorical(0));
        push(&mut log, 9, 1, 0, Value::Categorical(2));
        push(&mut log, 7, 2, 1, Value::Continuous(2.5));
        log
    }

    #[test]
    fn workers_are_densely_indexed_in_sorted_order() {
        let m = AnswerMatrix::build(&sample_log());
        assert_eq!(m.worker_ids(), &[WorkerId(2), WorkerId(7), WorkerId(9)]);
        assert_eq!(m.worker_index(WorkerId(7)), Some(1));
        assert_eq!(m.worker_index(WorkerId(3)), None);
        assert_eq!(m.worker_id(2), WorkerId(9));
    }

    #[test]
    fn payload_is_cell_major_and_insertion_stable() {
        let m = AnswerMatrix::build(&sample_log());
        let slots: Vec<(u32, u32)> = m.iter().map(|a| (a.cell.row, a.cell.col)).collect();
        let mut sorted = slots.clone();
        sorted.sort();
        assert_eq!(slots, sorted, "payload must be cell-major");
        // Cell (0,0) got answers from workers 7 then 2 — insertion order kept.
        let c00: Vec<WorkerId> = m.cell_answers(CellId::new(0, 0)).map(|a| a.worker).collect();
        assert_eq!(c00, vec![WorkerId(7), WorkerId(2)]);
    }

    #[test]
    fn views_agree_with_a_naive_scan() {
        let log = sample_log();
        let m = AnswerMatrix::build(&log);
        assert_eq!(m.len(), log.len());
        // By cell: the cell's answers in arrival order, and the point
        // queries over them.
        for cell in log.cells() {
            let naive: Vec<Answer> = log.all().iter().filter(|a| a.cell == cell).copied().collect();
            let csr: Vec<Answer> =
                m.cell_answers(cell).map(|a| m.to_answer(a.index as usize)).collect();
            assert_eq!(naive, csr, "cell {cell:?}");
            assert_eq!(m.count_for_cell(cell), naive.len());
            for w in [2, 4, 7, 9].map(WorkerId) {
                assert_eq!(m.has_answered(w, cell), naive.iter().any(|a| a.worker == w));
            }
        }
        // By worker and by (worker, row): within a row the view is
        // cell-major, so the naive scan is sorted by column (stable, so
        // arrival order breaks ties).
        let mut ids: Vec<WorkerId> = log.all().iter().map(|a| a.worker).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(m.worker_ids(), ids);
        for (w, &wid) in ids.iter().enumerate() {
            let mine = || log.all().iter().filter(move |a| a.worker == wid);
            assert_eq!(m.worker_answers(w).count(), mine().count());
            for row in 0..log.rows() as u32 {
                let mut naive: Vec<&Answer> = mine().filter(|a| a.cell.row == row).collect();
                naive.sort_by_key(|a| a.cell.col);
                let naive: Vec<Value> = naive.iter().map(|a| a.value).collect();
                let csr: Vec<Value> = m.worker_row_answers(w, row).map(|a| a.value).collect();
                assert_eq!(naive, csr, "worker {wid} row {row}");
            }
        }
    }

    #[test]
    fn worker_view_is_grouped_by_ascending_row() {
        let m = AnswerMatrix::build(&sample_log());
        for w in 0..m.num_workers() {
            let rows: Vec<u32> = m.worker_answers(w).map(|a| a.cell.row).collect();
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            assert_eq!(rows, sorted);
        }
    }

    #[test]
    fn split_value_lanes_round_trip() {
        let m = AnswerMatrix::build(&sample_log());
        for k in 0..m.len() {
            let a = m.answer(k);
            match a.value {
                Value::Categorical(l) => {
                    assert!(m.is_categorical(k));
                    assert_eq!(m.answer_labels()[k], l);
                }
                Value::Continuous(x) => {
                    assert!(!m.is_categorical(k));
                    assert_eq!(m.answer_values()[k], x);
                }
            }
        }
    }

    #[test]
    fn log_positions_invert_the_permutation() {
        let log = sample_log();
        let m = AnswerMatrix::build(&log);
        for k in 0..m.len() {
            assert_eq!(log.all()[m.log_position(k)], m.to_answer(k));
        }
    }

    #[test]
    fn merge_delta_equals_full_rebuild() {
        let full = sample_log();
        for k in 0..=full.len() {
            let mut prefix = AnswerLog::new(full.rows(), full.cols());
            for a in &full.all()[..k] {
                prefix.push(*a);
            }
            let merged = AnswerMatrix::build(&prefix).merge_delta(&full.all()[k..]);
            assert_eq!(merged, AnswerMatrix::build(&full), "split at {k}");
        }
    }

    #[test]
    fn merge_delta_handles_new_workers_and_empty_base() {
        let full = sample_log();
        // Empty base: the delta is the whole log.
        let empty = AnswerMatrix::build(&AnswerLog::new(full.rows(), full.cols()));
        assert_eq!(empty.merge_delta(full.all()), AnswerMatrix::build(&full));
        // Base with one worker, delta introducing workers 2 and 9 (both sides
        // of worker 7 in sorted order).
        let mut base = AnswerLog::new(full.rows(), full.cols());
        base.push(Answer {
            worker: WorkerId(7),
            cell: CellId::new(0, 0),
            value: Value::Categorical(1),
        });
        let mut log = base.clone();
        for a in full.all().iter().filter(|a| a.worker != WorkerId(7)) {
            log.push(*a);
        }
        let merged = AnswerMatrix::build(&base).merge_delta(&log.all()[base.len()..]);
        assert_eq!(merged, AnswerMatrix::build(&log));
        assert_eq!(merged.worker_ids(), &[WorkerId(2), WorkerId(7), WorkerId(9)]);
    }

    #[test]
    fn epoch_and_staleness_track_the_log() {
        let mut log = sample_log();
        let m = AnswerMatrix::build(&log);
        assert_eq!(m.epoch(), log.len());
        assert!(!m.is_stale(&log));
        log.push(Answer {
            worker: WorkerId(4),
            cell: CellId::new(1, 1),
            value: Value::Continuous(3.0),
        });
        assert!(m.is_stale(&log));
        let m2 = m.merge_delta(&log.all()[m.epoch()..]);
        assert!(!m2.is_stale(&log));
        assert_eq!(m2, AnswerMatrix::build(&log));
        // Merging an empty tail into an up-to-date freeze is the identity.
        assert_eq!(m2.merge_delta(&log.all()[m2.epoch()..]), m2);
    }

    #[test]
    fn empty_log_builds_empty_matrix() {
        let m = AnswerMatrix::build(&AnswerLog::new(2, 3));
        assert!(m.is_empty());
        assert_eq!(m.num_workers(), 0);
        assert_eq!(m.count_for_cell(CellId::new(1, 2)), 0);
        assert_eq!(m.cell_offsets().len(), 7);
    }
}
