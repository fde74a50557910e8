//! [`AnswerMatrix`] — the frozen columnar (CSR) answer store.
//!
//! [`crate::AnswerLog`] is the *mutable* append log a live platform feeds:
//! answers in arrival order plus a per-cell index for point queries. Every
//! inference or assignment sweep, however, wants to scan answers
//! **grouped** — by cell (E-step, Eq. 4), by worker (M-step quality update,
//! Eq. 5), or by (worker, row) (structure-aware gain, Eq. 7) — and the
//! matrix is the one place those groupings live.
//!
//! `AnswerMatrix` is the sweep-side dual: built once from a log, it stores
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
//! | `build` | `O(n + R·C + W·R)` counting sorts (`n` answers, `R×C` table, `W` workers; ≤ the `O(n log n)` comparison-sort bound) |
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
//! over, with only a handful of new answers between freezes. Rebuilding from
//! scratch re-scans the whole log and re-resolves every worker id;
//! [`AnswerMatrix::merge_delta`] instead splices a small sorted delta into
//! the existing cell-major payload: the per-answer work (id resolution,
//! value decoding, counting-sort scatter) is confined to the delta, the
//! untouched payload regions move by bulk `memcpy`, and the result is
//! **field-for-field identical** to a full rebuild (property-tested). The
//! matrix's [`epoch`](AnswerMatrix::epoch) — the number of log answers it
//! froze — tells consumers whether their freeze is stale; [`FrozenView`]
//! packages the `(matrix, epoch)` pair as a copyable handle.

use crate::answer::{Answer, AnswerLog, CellId, WorkerId};
use crate::value::Value;

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

/// Second counting sort of [`AnswerMatrix::build`]: payload indices grouped
/// by (worker, row). Scanning the payload in cell-major order keeps the
/// grouping sorted by row (and insertion) within each worker, so one
/// permutation serves both the by-worker and the by-(worker, row) views.
/// [`AnswerMatrix::merge_delta`] does not re-run this — it splices the old
/// permutation through the per-slot shift map instead — but both paths
/// produce the same pure function of the payload lanes, so a delta-merged
/// matrix and a full rebuild get bit-identical view arrays.
fn build_worker_views(
    n_rows: usize,
    n_workers: usize,
    row_of: &[u32],
    worker_of: &[u32],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = row_of.len();
    let mut worker_row_offsets = vec![0u32; n_workers * n_rows + 1];
    for k in 0..n {
        let key = worker_of[k] as usize * n_rows + row_of[k] as usize;
        worker_row_offsets[key + 1] += 1;
    }
    for s in 0..n_workers * n_rows {
        worker_row_offsets[s + 1] += worker_row_offsets[s];
    }
    let mut wr_cursor = worker_row_offsets.clone();
    let mut worker_order = vec![0u32; n];
    for k in 0..n {
        let key = worker_of[k] as usize * n_rows + row_of[k] as usize;
        worker_order[wr_cursor[key] as usize] = k as u32;
        wr_cursor[key] += 1;
    }
    let worker_offsets: Vec<u32> =
        (0..=n_workers).map(|w| worker_row_offsets[w * n_rows]).collect();
    (worker_order, worker_offsets, worker_row_offsets)
}

/// A copyable handle pairing a frozen [`AnswerMatrix`] with the epoch it was
/// frozen at (the number of log answers it covers). Consumers holding a view
/// across log appends can ask [`FrozenView::is_stale`] whether the freeze
/// still reflects the log before trusting sweep results.
#[derive(Debug, Clone, Copy)]
pub struct FrozenView<'a> {
    matrix: &'a AnswerMatrix,
    epoch: usize,
}

impl<'a> FrozenView<'a> {
    /// The frozen matrix behind this view.
    #[inline]
    pub fn matrix(&self) -> &'a AnswerMatrix {
        self.matrix
    }

    /// The freeze epoch: the source-log length at freeze time.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// True when `log` has grown past (or shrunk below) this freeze.
    #[inline]
    pub fn is_stale(&self, log: &AnswerLog) -> bool {
        self.epoch != log.len()
    }
}

impl AnswerMatrix {
    /// Freeze an [`AnswerLog`] into its columnar form.
    pub fn build(log: &AnswerLog) -> AnswerMatrix {
        let n_rows = log.rows();
        let n_cols = log.cols();
        let n = log.len();
        let slots = n_rows * n_cols;

        // Dense worker table in sorted-id order.
        let mut worker_ids: Vec<WorkerId> = log.all().iter().map(|a| a.worker).collect();
        worker_ids.sort_unstable();
        worker_ids.dedup();
        let widx =
            |w: WorkerId| -> u32 { worker_ids.binary_search(&w).expect("worker present") as u32 };

        // Counting sort into cell-major payload order (stable: the log is
        // scanned in insertion order).
        let mut cell_offsets = vec![0u32; slots + 1];
        for a in log.all() {
            cell_offsets[a.cell.row as usize * n_cols + a.cell.col as usize + 1] += 1;
        }
        for s in 0..slots {
            cell_offsets[s + 1] += cell_offsets[s];
        }
        let mut cursor = cell_offsets.clone();
        let mut row_of = vec![0u32; n];
        let mut col_of = vec![0u32; n];
        let mut worker_of = vec![0u32; n];
        let mut labels = vec![0u32; n];
        let mut values = vec![0.0f64; n];
        let mut categorical = vec![false; n];
        let mut log_position = vec![0u32; n];
        for (pos, a) in log.all().iter().enumerate() {
            let slot = a.cell.row as usize * n_cols + a.cell.col as usize;
            let k = cursor[slot] as usize;
            cursor[slot] += 1;
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
            log_position[k] = pos as u32;
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

    /// Splice the log tail `tail` (the answers appended since this matrix was
    /// frozen, in log order) into a new frozen matrix covering the full log.
    ///
    /// The result is field-for-field identical to
    /// `AnswerMatrix::build(full_log)` — same payload order, same offsets,
    /// same worker table — which the differential proptest suite asserts.
    ///
    /// Cost: the per-answer work (worker-id resolution, value decoding,
    /// counting-sort scatter) is `O(Δ log Δ + Δ log W)` on the delta alone;
    /// the untouched payload moves by bulk `memcpy` between touched cells
    /// (`O(n)` bytes, no per-answer branching), the cell-offset shift is one
    /// `O(R·C)` pass, and the worker views are **spliced** from the old
    /// permutation through the per-slot shift map (see
    /// `splice_worker_views`) — delta-only per-answer work plus
    /// bulk shifted copies — instead of being re-derived by counting sort.
    /// A full [`AnswerMatrix::build`] pays the per-answer constant on all
    /// `n` answers instead; in the steady-state refit loop (small `Δ`) the
    /// merge is the cheaper path, which `bench_refresh` records.
    pub fn merge_delta(&self, tail: &[Answer]) -> AnswerMatrix {
        if tail.is_empty() {
            return self.clone();
        }
        let n_rows = self.n_rows;
        let n_cols = self.n_cols;
        let slots = n_rows * n_cols;
        let n_old = self.len();
        let n_new = n_old + tail.len();

        // Delta in cell-major order, ties by log order (`i` breaks ties, so
        // the unstable sort is deterministic).
        let mut delta: Vec<(usize, u32)> = tail
            .iter()
            .enumerate()
            .map(|(i, a)| {
                assert!(
                    (a.cell.row as usize) < n_rows && (a.cell.col as usize) < n_cols,
                    "delta answer outside the table shape"
                );
                (a.cell.row as usize * n_cols + a.cell.col as usize, i as u32)
            })
            .collect();
        delta.sort_unstable();

        // Merge the (sorted) worker tables. Steady state — no unseen worker
        // in the delta — keeps the old table and skips the index remap.
        let mut fresh_ids: Vec<WorkerId> = tail
            .iter()
            .map(|a| a.worker)
            .filter(|w| self.worker_ids.binary_search(w).is_err())
            .collect();
        fresh_ids.sort_unstable();
        fresh_ids.dedup();
        let (worker_ids, old_remap) = if fresh_ids.is_empty() {
            (self.worker_ids.clone(), None)
        } else {
            let mut merged = Vec::with_capacity(self.worker_ids.len() + fresh_ids.len());
            let mut remap = vec![0u32; self.worker_ids.len()];
            let (mut i, mut j) = (0, 0);
            while i < self.worker_ids.len() || j < fresh_ids.len() {
                if j >= fresh_ids.len()
                    || (i < self.worker_ids.len() && self.worker_ids[i] < fresh_ids[j])
                {
                    remap[i] = merged.len() as u32;
                    merged.push(self.worker_ids[i]);
                    i += 1;
                } else {
                    merged.push(fresh_ids[j]);
                    j += 1;
                }
            }
            (merged, Some(remap))
        };
        let widx =
            |w: WorkerId| -> u32 { worker_ids.binary_search(&w).expect("worker present") as u32 };

        // New cell offsets: old offsets shifted by the running delta count.
        let mut cell_offsets = vec![0u32; slots + 1];
        {
            let mut d = 0usize;
            let mut added = 0u32;
            for (s, off) in cell_offsets.iter_mut().enumerate().take(slots) {
                *off = self.cell_offsets[s] + added;
                while d < delta.len() && delta[d].0 == s {
                    added += 1;
                    d += 1;
                }
            }
            cell_offsets[slots] = n_new as u32;
        }

        // Splice plan: alternating (old payload run, delta run) pairs. Delta
        // answers of a cell go after its old answers — they are newer, so
        // insertion order within the cell is preserved — and old runs between
        // touched cells move in one piece.
        let mut segs: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> = Vec::new();
        {
            let mut copied = 0usize;
            let mut d = 0usize;
            while d < delta.len() {
                let slot = delta[d].0;
                let old_end = self.cell_offsets[slot + 1] as usize;
                let d0 = d;
                while d < delta.len() && delta[d].0 == slot {
                    d += 1;
                }
                segs.push((copied..old_end, d0..d));
                copied = old_end;
            }
            segs.push((copied..n_old, delta.len()..delta.len()));
        }
        // Per-lane splices: bulk `extend_from_slice` for old runs, decoded
        // pushes for the delta.
        let tail_at = |dr: &std::ops::Range<usize>| delta[dr.clone()].iter();
        let mut row_of = Vec::with_capacity(n_new);
        let mut col_of = Vec::with_capacity(n_new);
        let mut worker_of = Vec::with_capacity(n_new);
        let mut labels = Vec::with_capacity(n_new);
        let mut values = Vec::with_capacity(n_new);
        let mut categorical = Vec::with_capacity(n_new);
        let mut log_position = Vec::with_capacity(n_new);
        for (o, dr) in &segs {
            row_of.extend_from_slice(&self.row_of[o.clone()]);
            row_of.extend(tail_at(dr).map(|&(_, i)| tail[i as usize].cell.row));
            col_of.extend_from_slice(&self.col_of[o.clone()]);
            col_of.extend(tail_at(dr).map(|&(_, i)| tail[i as usize].cell.col));
            match &old_remap {
                None => worker_of.extend_from_slice(&self.worker_of[o.clone()]),
                Some(r) => {
                    worker_of.extend(self.worker_of[o.clone()].iter().map(|&w| r[w as usize]))
                }
            }
            worker_of.extend(tail_at(dr).map(|&(_, i)| widx(tail[i as usize].worker)));
            labels.extend_from_slice(&self.labels[o.clone()]);
            labels.extend(tail_at(dr).map(|&(_, i)| match tail[i as usize].value {
                Value::Categorical(l) => l,
                Value::Continuous(_) => 0,
            }));
            values.extend_from_slice(&self.values[o.clone()]);
            values.extend(tail_at(dr).map(|&(_, i)| match tail[i as usize].value {
                Value::Categorical(_) => 0.0,
                Value::Continuous(x) => x,
            }));
            categorical.extend_from_slice(&self.categorical[o.clone()]);
            categorical.extend(tail_at(dr).map(|&(_, i)| tail[i as usize].value.is_categorical()));
            log_position.extend_from_slice(&self.log_position[o.clone()]);
            log_position.extend(tail_at(dr).map(|&(_, i)| (n_old + i as usize) as u32));
        }

        let (worker_order, worker_offsets, worker_row_offsets) = self.splice_worker_views(
            tail,
            &delta,
            &cell_offsets,
            &worker_ids,
            old_remap.as_deref(),
            &widx,
        );

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

    /// Splice the old by-worker views through the per-slot shift map instead
    /// of re-deriving them with a counting sort over the whole payload.
    ///
    /// The new cell offsets pin down where every old payload row lands
    /// (`new index = old index + (new_offsets[slot] − old_offsets[slot])`,
    /// since a cell's delta answers go *after* its old answers) and where
    /// every delta answer lands (the top of its cell's new range). Old
    /// `worker_order` runs are therefore still correctly ordered — within a
    /// (worker, row) group the payload indices stay ascending under the
    /// shift — so each group is a two-list merge of the shifted old run and
    /// that group's delta entries.
    ///
    /// Cost: per-answer work (sorting by (worker, row), worker-id
    /// resolution, merge interleaving) is confined to the delta
    /// (`O(Δ log Δ + Δ log W)`); the untouched runs move as bulk shifted
    /// copies (`O(n)` sequential, branch-free per answer — the same class as
    /// the payload memcpys); the offset arithmetic is `O(W·R + R·C)`. The
    /// previous path re-ran [`build_worker_views`], paying the counting-sort
    /// scatter on all `n` answers.
    ///
    /// Returns `(worker_order, worker_offsets, worker_row_offsets)`,
    /// bit-identical to what [`build_worker_views`] would produce for the
    /// merged payload (the differential proptest suite asserts it).
    #[allow(clippy::too_many_arguments)]
    fn splice_worker_views(
        &self,
        tail: &[Answer],
        delta: &[(usize, u32)],
        new_cell_offsets: &[u32],
        new_worker_ids: &[WorkerId],
        old_remap: Option<&[u32]>,
        widx: &dyn Fn(WorkerId) -> u32,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let n_rows = self.n_rows;
        let n_old = self.len();
        let n_new = n_old + delta.len();
        let n_workers = new_worker_ids.len();

        // Old payload index -> new payload index: one sequential pass over
        // the cell-major payload, adding each slot's shift to its run.
        let mut new_index_of_old = vec![0u32; n_old];
        for (&new_off, old) in new_cell_offsets.iter().zip(self.cell_offsets.windows(2)) {
            let shift = new_off - old[0];
            for k in old[0]..old[1] {
                new_index_of_old[k as usize] = k + shift;
            }
        }

        // Delta view entries (new worker index, row, new payload index),
        // sorted by that triple. A cell's delta answers sit at the top of its
        // new range, in `delta` (= cell-major, log-order ties) order.
        let mut dv: Vec<(u32, u32, u32)> = Vec::with_capacity(delta.len());
        {
            let mut d = 0usize;
            while d < delta.len() {
                let s = delta[d].0;
                // First delta position in slot s: old end + this slot's shift.
                let mut idx =
                    self.cell_offsets[s + 1] + (new_cell_offsets[s] - self.cell_offsets[s]);
                while d < delta.len() && delta[d].0 == s {
                    let a = &tail[delta[d].1 as usize];
                    dv.push((widx(a.worker), a.cell.row, idx));
                    idx += 1;
                    d += 1;
                }
            }
        }
        dv.sort_unstable();

        // New (worker, row) offsets. Steady state (no unseen worker): the
        // old offsets shifted by the delta's running count — one memcpy plus
        // bulk `+= constant` runs between touched keys, no counting sort.
        // With fresh workers the key space itself changes, so fall back to
        // re-counting through the remap.
        let wr = match old_remap {
            None => {
                let mut wr = self.worker_row_offsets.clone();
                let mut cum = 0u32;
                let mut from = 0usize;
                let mut d = 0usize;
                while d < dv.len() {
                    let key = dv[d].0 as usize * n_rows + dv[d].1 as usize;
                    // Offsets in (previous touched key, key] gained `cum`
                    // delta entries at strictly-smaller keys.
                    if cum > 0 {
                        for slot in &mut wr[from..=key] {
                            *slot += cum;
                        }
                    }
                    from = key + 1;
                    while d < dv.len() && dv[d].0 as usize * n_rows + dv[d].1 as usize == key {
                        cum += 1;
                        d += 1;
                    }
                }
                for slot in &mut wr[from..] {
                    *slot += cum;
                }
                wr
            }
            Some(remap) => {
                let mut wr = vec![0u32; n_workers * n_rows + 1];
                for (w_old, &w_new) in remap.iter().enumerate() {
                    let w_new = w_new as usize;
                    for r in 0..n_rows {
                        wr[w_new * n_rows + r + 1] += self.worker_row_offsets
                            [w_old * n_rows + r + 1]
                            - self.worker_row_offsets[w_old * n_rows + r];
                    }
                }
                for &(w, r, _) in &dv {
                    wr[w as usize * n_rows + r as usize + 1] += 1;
                }
                for s in 0..n_workers * n_rows {
                    wr[s + 1] += wr[s];
                }
                wr
            }
        };

        // New worker index -> old worker index (fresh workers have none).
        let old_of_new: Vec<Option<usize>> = match old_remap {
            None => (0..n_workers).map(Some).collect(),
            Some(remap) => {
                let mut inv = vec![None; n_workers];
                for (old, &new) in remap.iter().enumerate() {
                    inv[new as usize] = Some(old);
                }
                inv
            }
        };

        // Splice: per worker, bulk-shift the old run; workers with delta
        // entries merge them in row group by row group.
        let mut order = Vec::with_capacity(n_new);
        let mut dp = 0usize;
        for (w_new, &w_old) in old_of_new.iter().enumerate() {
            let d0 = dp;
            while dp < dv.len() && dv[dp].0 == w_new as u32 {
                dp += 1;
            }
            let dw = &dv[d0..dp];
            let old_seg: &[u32] = match w_old {
                Some(wo) => {
                    let lo = self.worker_offsets[wo] as usize;
                    let hi = self.worker_offsets[wo + 1] as usize;
                    &self.worker_order[lo..hi]
                }
                None => &[],
            };
            if dw.is_empty() {
                order.extend(old_seg.iter().map(|&k| new_index_of_old[k as usize]));
                continue;
            }
            let Some(wo) = w_old else {
                // Fresh worker: delta entries only, already in (row, index)
                // order.
                order.extend(dw.iter().map(|&(_, _, idx)| idx));
                continue;
            };
            let wr_base = wo * n_rows;
            let seg_start = self.worker_offsets[wo];
            let mut pos = 0usize;
            let mut di = 0usize;
            while di < dw.len() {
                let row = dw[di].1 as usize;
                let row_start = (self.worker_row_offsets[wr_base + row] - seg_start) as usize;
                let row_end = (self.worker_row_offsets[wr_base + row + 1] - seg_start) as usize;
                // Rows before this delta row move untouched.
                order.extend(old_seg[pos..row_start].iter().map(|&k| new_index_of_old[k as usize]));
                pos = row_start;
                // Merge this row group by new payload index.
                let dj = {
                    let mut j = di;
                    while j < dw.len() && dw[j].1 as usize == row {
                        j += 1;
                    }
                    j
                };
                for &(_, _, didx) in &dw[di..dj] {
                    while pos < row_end && new_index_of_old[old_seg[pos] as usize] < didx {
                        order.push(new_index_of_old[old_seg[pos] as usize]);
                        pos += 1;
                    }
                    order.push(didx);
                }
                order.extend(old_seg[pos..row_end].iter().map(|&k| new_index_of_old[k as usize]));
                pos = row_end;
                di = dj;
            }
            order.extend(old_seg[pos..].iter().map(|&k| new_index_of_old[k as usize]));
        }
        debug_assert_eq!(order.len(), n_new);

        let worker_offsets: Vec<u32> = (0..=n_workers).map(|w| wr[w * n_rows]).collect();
        (order, worker_offsets, wr)
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

    /// A copyable `(matrix, epoch)` handle for consumers that hold the
    /// freeze across log appends.
    #[inline]
    pub fn freeze_view(&self) -> FrozenView<'_> {
        FrozenView { matrix: self, epoch: self.epoch() }
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

/// The freeze answers the same point queries as the mutable log, from its
/// CSR views. Within a cell both representations agree answer-for-answer
/// (insertion order is preserved cell-locally); whole-column scans come
/// back in cell-major rather than arrival order, which every consumer of
/// this trait treats as a set.
impl crate::answer::AnswerQueries for AnswerMatrix {
    fn rows(&self) -> usize {
        AnswerMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        AnswerMatrix::cols(self)
    }
    fn len(&self) -> usize {
        AnswerMatrix::len(self)
    }
    fn count_for_cell(&self, cell: CellId) -> usize {
        AnswerMatrix::count_for_cell(self, cell)
    }
    fn has_answered(&self, worker: WorkerId, cell: CellId) -> bool {
        AnswerMatrix::has_answered(self, worker, cell)
    }
    fn cell_values(&self, cell: CellId) -> Vec<Value> {
        self.cell_answers(cell).map(|a| a.value).collect()
    }
    fn for_each_cell_value(&self, cell: CellId, f: &mut dyn FnMut(&Value)) {
        for k in self.cell_range(cell) {
            let v = if self.categorical[k] {
                Value::Categorical(self.labels[k])
            } else {
                Value::Continuous(self.values[k])
            };
            f(&v);
        }
    }
    fn continuous_column_values(&self, col: u32) -> Vec<f64> {
        (0..self.len())
            .filter(|&k| self.col_of[k] == col && !self.categorical[k])
            .map(|k| self.values[k])
            .collect()
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
        // By cell.
        for cell in log.cells() {
            let mut naive: Vec<Answer> = log.for_cell(cell).copied().collect();
            let mut csr: Vec<Answer> =
                m.cell_answers(cell).map(|a| m.to_answer(a.index as usize)).collect();
            naive.sort_by_key(|a| a.worker);
            csr.sort_by_key(|a| a.worker);
            assert_eq!(naive, csr, "cell {cell:?}");
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
        let view = m.freeze_view();
        assert_eq!(view.epoch(), log.len());
        assert!(!view.is_stale(&log));
        log.push(Answer {
            worker: WorkerId(4),
            cell: CellId::new(1, 1),
            value: Value::Continuous(3.0),
        });
        assert!(m.is_stale(&log));
        assert!(view.is_stale(&log));
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
