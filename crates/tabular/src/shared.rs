//! Shareable, append-only views of the answer log: [`LogSlice`] (an
//! epoch-tagged tail handle) and [`SharedLog`] (a structurally-shared
//! immutable answer sequence).
//!
//! The online loop (paper §5.1) wants answer *collection* to keep flowing
//! while truth inference refreshes in the background. The mutable
//! [`AnswerLog`] lives behind the collection path's lock, so everything a
//! background refresher takes from it must be cheap to extract:
//!
//! * [`AnswerLog::slice_since`] hands out a [`LogSlice`] — the answers
//!   appended since a given epoch, copied once into an `Arc` slice. Taking
//!   it costs `O(Δ)`, independent of the log length, and the handle can
//!   then be shared freely (merged into a freeze, appended to a
//!   [`SharedLog`], framed into a store snapshot delta) without touching
//!   the lock again.
//! * [`SharedLog`] is the publish-side dual: an immutable sequence built
//!   from those slices. Internally it is a list of `Arc`'d chunks, so
//!   *cloning is `O(chunks)`* (the chunk list is copied, the answers are
//!   shared) and *appending a slice is amortised `O(Δ)`* — a published
//!   snapshot of the log no longer deep-copies `n` answers per publish.
//!
//! Chunks are coalesced geometrically (a new chunk absorbs trailing chunks
//! until every survivor is more than twice its successor), which bounds
//! the chunk count at `O(log n)` and keeps per-answer append cost
//! amortised `O(log n)` worst case — in the steady publish loop the common
//! case is a single memcpy of the delta.

use crate::answer::{Answer, AnswerLog};
use std::sync::Arc;

/// An epoch-tagged slice of an answer log's tail: the answers at log
/// positions `base .. base + len`, detached from the log behind one `Arc`.
///
/// This is the unit a background refresher extracts under the ingest lock
/// (`O(Δ)`) and then owns outside it: the same handle feeds
/// [`crate::AnswerMatrix::merge_delta`], [`SharedLog::append`], and the
/// store layer's incremental snapshot deltas.
#[derive(Debug, Clone)]
pub struct LogSlice {
    base: usize,
    answers: Arc<[Answer]>,
}

impl LogSlice {
    /// Wrap `answers` as the log tail starting at position `base`.
    pub fn new(base: usize, answers: impl Into<Arc<[Answer]>>) -> LogSlice {
        LogSlice { base, answers: answers.into() }
    }

    /// First log position this slice covers.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the last log position this slice covers.
    #[inline]
    pub fn end(&self) -> usize {
        self.base + self.answers.len()
    }

    /// Number of answers in the slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when the slice holds no answers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The answers, in log order.
    #[inline]
    pub fn answers(&self) -> &[Answer] {
        &self.answers
    }

    /// The shared chunk behind this slice (an `Arc` clone, no copy).
    #[inline]
    pub fn chunk(&self) -> Arc<[Answer]> {
        Arc::clone(&self.answers)
    }
}

impl AnswerLog {
    /// Copy the tail `self[epoch..]` into a shareable [`LogSlice`]. `O(Δ)`
    /// where `Δ = len − epoch` — this is the only per-publish work a
    /// refresher needs to do while holding the ingest lock. Panics if
    /// `epoch` exceeds the log length (that slice never existed).
    pub fn slice_since(&self, epoch: usize) -> LogSlice {
        assert!(epoch <= self.len(), "slice_since({epoch}) on a log of {} answers", self.len());
        LogSlice::new(epoch, &self.all()[epoch..])
    }
}

/// An immutable, structurally-shared answer sequence in arrival order.
///
/// Cloning copies only the chunk list (`O(log n)` `Arc` bumps); appending a
/// [`LogSlice`] adds one chunk and coalesces trailing chunks no larger than
/// the new one. Like [`AnswerLog`] it answers no grouped or point query —
/// those belong to the frozen [`crate::AnswerMatrix`]; this type exists for
/// the arrival-order consumers (log dumps, store snapshot deltas, offline
/// replay).
#[derive(Debug, Clone)]
pub struct SharedLog {
    rows: usize,
    cols: usize,
    len: usize,
    /// Chunk start positions (parallel to `chunks`), for `O(log chunks)`
    /// point lookup.
    starts: Vec<usize>,
    chunks: Vec<Arc<[Answer]>>,
}

impl SharedLog {
    /// An empty shared log for a `rows × cols` table.
    pub fn new(rows: usize, cols: usize) -> SharedLog {
        SharedLog { rows, cols, len: 0, starts: Vec::new(), chunks: Vec::new() }
    }

    /// Snapshot an [`AnswerLog`] into a single-chunk shared log (`O(n)` —
    /// the one-time conversion at boot/recovery, not the publish path).
    pub fn from_log(log: &AnswerLog) -> SharedLog {
        let mut out = SharedLog::new(log.rows(), log.cols());
        if !log.is_empty() {
            out.append(&log.slice_since(0));
        }
        out
    }

    /// Number of table rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of table columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total answers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no answers are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of internal chunks (`O(log n)` by the coalescing invariant —
    /// exposed for tests and diagnostics).
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Append a slice taken at this log's current epoch. Panics if the
    /// slice's base does not equal [`Self::len`] — that slice belongs to a
    /// different prefix and splicing it in would reorder history.
    pub fn append(&mut self, slice: &LogSlice) {
        assert_eq!(
            slice.base(),
            self.len,
            "slice base does not match the shared log epoch (stale or future slice)"
        );
        if slice.is_empty() {
            return;
        }
        let mut tail = slice.chunk();
        // Geometric coalescing: fold trailing chunks into the incoming one
        // until every remaining chunk is more than twice its successor.
        // Sizes then at least double going left, so at most ⌈log₂ n⌉ + 1
        // chunks ever exist, and each answer is re-copied only into
        // ever-doubling chunks (amortised O(log n) per answer, one memcpy
        // of the delta in the common case).
        while let Some(last) = self.chunks.last() {
            if last.len() > 2 * tail.len() {
                break;
            }
            let last = self.chunks.pop().expect("non-empty");
            self.starts.pop();
            let mut merged = Vec::with_capacity(last.len() + tail.len());
            merged.extend_from_slice(&last);
            merged.extend_from_slice(&tail);
            tail = merged.into();
        }
        self.starts.push(self.len + slice.len() - tail.len());
        self.chunks.push(tail);
        self.len += slice.len();
    }

    /// The answer at log position `i`.
    pub fn get(&self, i: usize) -> &Answer {
        assert!(i < self.len, "position {i} out of a {}-answer shared log", self.len);
        let c = match self.starts.binary_search(&i) {
            Ok(c) => c,
            Err(c) => c - 1,
        };
        &self.chunks[c][i - self.starts[c]]
    }

    /// Iterate all answers in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Answer> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Iterate the answers at log positions `from .. to`.
    pub fn iter_range(&self, from: usize, to: usize) -> impl Iterator<Item = &Answer> + '_ {
        assert!(from <= to && to <= self.len, "range {from}..{to} out of {} answers", self.len);
        self.iter().skip(from).take(to - from)
    }

    /// Copy the answers at log positions `from .. to` (what an incremental
    /// store snapshot frames: the answers since the last snapshot).
    pub fn range_vec(&self, from: usize, to: usize) -> Vec<Answer> {
        self.iter_range(from, to).copied().collect()
    }

    /// Copy every answer in arrival order.
    pub fn to_vec(&self) -> Vec<Answer> {
        self.iter().copied().collect()
    }

    /// Rebuild the indexed mutable form (`O(n)` — for offline replay and
    /// full store snapshots, never the publish path).
    pub fn to_log(&self) -> AnswerLog {
        let mut log = AnswerLog::new(self.rows, self.cols);
        for &a in self.iter() {
            log.push(a);
        }
        log
    }
}

impl PartialEq for SharedLog {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.len == other.len
            && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{CellId, WorkerId};
    use crate::value::Value;

    fn answer(i: u32) -> Answer {
        Answer {
            worker: WorkerId(i % 7),
            cell: CellId::new(i % 5, i % 3),
            value: if i % 2 == 0 {
                Value::Categorical(i % 4)
            } else {
                Value::Continuous(i as f64 / 3.0)
            },
        }
    }

    fn filled_log(n: usize) -> AnswerLog {
        let mut log = AnswerLog::new(5, 3);
        for i in 0..n {
            log.push(answer(i as u32));
        }
        log
    }

    #[test]
    fn slice_since_is_the_epoch_tagged_tail() {
        let log = filled_log(10);
        let slice = log.slice_since(6);
        assert_eq!(slice.base(), 6);
        assert_eq!(slice.end(), 10);
        assert_eq!(slice.len(), 4);
        assert_eq!(slice.answers(), &log.all()[6..]);
        assert!(log.slice_since(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "slice_since")]
    fn slice_since_rejects_future_epochs() {
        filled_log(3).slice_since(4);
    }

    #[test]
    fn shared_log_tracks_appends_in_order() {
        let log = filled_log(23);
        let mut shared = SharedLog::new(5, 3);
        let mut at = 0usize;
        for step in [1usize, 4, 2, 9, 7] {
            shared.append(&LogSlice::new(at, &log.all()[at..at + step]));
            at += step;
        }
        assert_eq!(shared.len(), 23);
        assert_eq!(shared.to_vec(), log.all());
        for i in 0..23 {
            assert_eq!(shared.get(i), &log.all()[i]);
        }
        assert_eq!(shared.range_vec(5, 14), &log.all()[5..14]);
        assert_eq!(shared.to_log(), log);
    }

    #[test]
    fn coalescing_bounds_chunk_count() {
        let log = filled_log(512);
        let mut shared = SharedLog::new(5, 3);
        for i in 0..512 {
            shared.append(&LogSlice::new(i, &log.all()[i..i + 1]));
        }
        assert_eq!(shared.len(), 512);
        assert!(
            shared.chunk_count() <= 10,
            "512 single-answer appends left {} chunks",
            shared.chunk_count()
        );
        // Chunk sizes at least double going left (the coalescing invariant).
        let sizes: Vec<usize> = shared.chunks.iter().map(|c| c.len()).collect();
        for w in sizes.windows(2) {
            assert!(w[0] > 2 * w[1], "chunk sizes must at least double leftward: {sizes:?}");
        }
        assert_eq!(shared.to_vec(), log.all());
    }

    #[test]
    fn coalescing_bounds_chunks_under_decreasing_appends() {
        // The adversarial pattern for a weaker (strictly-decreasing-only)
        // invariant: ever-smaller slices. The geometric rule must still keep
        // the chunk count logarithmic in the total length.
        let mut shared = SharedLog::new(5, 3);
        let mut at = 0usize;
        for step in (1..=31usize).rev() {
            let answers: Vec<Answer> = (0..step).map(|k| answer((at + k) as u32)).collect();
            shared.append(&LogSlice::new(at, answers));
            at += step;
        }
        assert_eq!(shared.len(), 496);
        assert!(
            shared.chunk_count() <= 10,
            "decreasing appends left {} chunks over {} answers",
            shared.chunk_count(),
            shared.len()
        );
    }

    #[test]
    fn clone_shares_chunks_structurally() {
        let log = filled_log(64);
        let mut shared = SharedLog::from_log(&log);
        let published = shared.clone();
        // Appending to the original leaves the clone at its epoch.
        let mut grown = filled_log(64);
        grown.push(answer(99));
        shared.append(&LogSlice::new(64, &grown.all()[64..]));
        assert_eq!(shared.len(), 65);
        assert_eq!(published.len(), 64);
        assert_eq!(published.to_vec(), log.all());
        // The shared prefix chunks are the same allocation, not copies.
        assert!(Arc::ptr_eq(&published.chunks[0], &shared.chunks[0]));
    }

    #[test]
    #[should_panic(expected = "does not match the shared log epoch")]
    fn append_rejects_mismatched_slices() {
        let log = filled_log(8);
        let mut shared = SharedLog::new(5, 3);
        shared.append(&log.slice_since(4)); // base 4 on an empty shared log
    }

    #[test]
    fn equality_is_content_based() {
        let log = filled_log(20);
        let one = SharedLog::from_log(&log);
        let mut many = SharedLog::new(5, 3);
        for i in 0..20 {
            many.append(&LogSlice::new(i, &log.all()[i..i + 1]));
        }
        assert_eq!(one, many);
        assert_ne!(one, SharedLog::from_log(&filled_log(19)));
    }
}
