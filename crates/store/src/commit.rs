//! **Group commit**: one thread per table coalesces concurrently submitted
//! answer batches into a single `write + fsync`.
//!
//! ```text
//! submitter A ──┐  submit(batch) → Ticket         ┌─▶ wal.append_group
//! submitter B ──┼─▶ queue (mutex+condvar) ─ drain ┤   (N frames, 1 commit)
//! submitter C ──┘                                 └─▶ sink.committed(…)
//!                                                     tickets resolved
//! ```
//!
//! Each submitter parks on its [`Ticket`] and is woken only after the
//! commit thread has (a) durably committed the group (per the WAL's
//! [`crate::FsyncPolicy`]) and (b) handed the batches, in WAL order, to the
//! [`CommitSink`] — the service's sink pushes them into the in-memory
//! answer log and advances the [`DurableMark`]. WAL-before-ack is
//! preserved exactly: a ticket resolves `Ok` only when its frame's commit
//! completed; on any append error every ticket in the group resolves `Err`
//! and the WAL is poisoned (nothing partial was acknowledged; recovery's
//! CRC truncation drops the partial frame).
//!
//! The payoff is the lock profile: submitters never hold any lock across
//! an fsync, and under load one fsync amortises over many frames — which
//! is what closes the `fsync=always` vs `flush` throughput gap
//! (`bench_persistence` measures it; CI gates it at ≤ 3x).

use crate::obs::{noop_obs, ObsHandle};
use crate::wal::{Wal, WalPosition};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use tcrowd_tabular::Answer;

/// The commit thread's **durable watermark**: the last WAL position whose
/// batches have been both committed and delivered to the sink. The
/// refresher pins snapshots to this mark instead of syncing the WAL under
/// the ingest lock; the sink's contract is to advance it *while holding
/// whatever lock guards the in-memory log*, so `mark.answers` always
/// equals the log length under that lock.
#[derive(Debug, Clone, Default)]
pub struct DurableMark(Arc<Mutex<WalPosition>>);

impl DurableMark {
    /// A mark starting at `pos` (recovery's reopened position).
    pub fn starting_at(pos: WalPosition) -> DurableMark {
        DurableMark(Arc::new(Mutex::new(pos)))
    }

    /// The current watermark.
    pub fn get(&self) -> WalPosition {
        *self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Advance (or, after a WAL rebuild, reset) the watermark.
    pub fn set(&self, pos: WalPosition) {
        *self.0.lock().unwrap_or_else(|p| p.into_inner()) = pos;
    }
}

/// One batch the commit thread just made durable, in WAL order.
pub struct CommittedBatch<'a> {
    /// The batch's answers.
    pub answers: &'a [Answer],
    /// The WAL position just past the batch's frame.
    pub position: WalPosition,
}

/// Where committed batches land *before* their submitters are woken. The
/// service implements this to push answers into the in-memory log and
/// advance the [`DurableMark`] under the ingest lock, keeping "log ==
/// acknowledged prefix" true at every instant.
pub trait CommitSink: Send + Sync {
    /// Called once per commit group, after durability, before any ticket
    /// in the group resolves. `batches` is in WAL order.
    fn committed(&self, batches: &[CommittedBatch<'_>]);
}

/// A closure over each group's batches is a sink too.
impl<F: Fn(&[CommittedBatch<'_>]) + Send + Sync> CommitSink for F {
    fn committed(&self, batches: &[CommittedBatch<'_>]) {
        self(batches)
    }
}

/// A sink that only advances a [`DurableMark`] (store-level tests and
/// benches that keep no in-memory log).
pub struct MarkSink(pub DurableMark);

impl CommitSink for MarkSink {
    fn committed(&self, batches: &[CommittedBatch<'_>]) {
        if let Some(last) = batches.last() {
            self.0.set(last.position);
        }
    }
}

/// A submitter's parking spot: resolved by the commit thread with the
/// batch's durable position, or the group's append error.
pub struct Ticket {
    done: Mutex<Option<Result<WalPosition, String>>>,
    cond: Condvar,
}

impl Ticket {
    fn new() -> Arc<Ticket> {
        Arc::new(Ticket { done: Mutex::new(None), cond: Condvar::new() })
    }

    fn resolve(&self, result: Result<WalPosition, String>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        *done = Some(result);
        self.cond.notify_all();
    }

    /// Block until the commit thread resolves this ticket.
    pub fn wait(&self) -> Result<WalPosition, String> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self.cond.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

struct Entry {
    answers: Vec<Answer>,
    ticket: Arc<Ticket>,
}

struct QueueState {
    pending: Vec<Entry>,
    shutdown: bool,
}

struct Queue {
    state: Mutex<QueueState>,
    cond: Condvar,
}

/// Coalescing counters — `frames > groups` under load is the observable
/// proof that group commit actually batches.
#[derive(Debug, Default)]
pub struct CommitStats {
    groups: AtomicU64,
    frames: AtomicU64,
    answers: AtomicU64,
}

/// A point-in-time copy of [`CommitStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitStatsView {
    /// Commit groups written (one `write+fsync` each).
    pub groups: u64,
    /// Frames (submitted batches) committed across all groups.
    pub frames: u64,
    /// Answers committed across all groups.
    pub answers: u64,
}

/// The per-table commit thread and its submission queue.
pub struct GroupCommit {
    queue: Arc<Queue>,
    stats: Arc<CommitStats>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit").field("stats", &self.stats()).finish()
    }
}

impl GroupCommit {
    /// Spawn the commit thread over `wal`. The thread takes the WAL mutex
    /// only while appending (never while touching the queue or the sink),
    /// so direct appenders — quarantine records, tombstones — interleave
    /// freely under their own lock orders.
    pub fn spawn(wal: Arc<Mutex<Wal>>, sink: Arc<dyn CommitSink>, obs: ObsHandle) -> GroupCommit {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState { pending: Vec::new(), shutdown: false }),
            cond: Condvar::new(),
        });
        let stats = Arc::new(CommitStats::default());
        let worker = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("tcrowd-commit".to_string())
                .spawn(move || commit_loop(&queue, &wal, &sink, &stats, &obs))
                .expect("spawn commit thread")
        };
        GroupCommit { queue, stats, handle: Mutex::new(Some(worker)) }
    }

    /// Like [`GroupCommit::spawn`] without observability (tests/benches).
    pub fn spawn_plain(wal: Arc<Mutex<Wal>>, sink: Arc<dyn CommitSink>) -> GroupCommit {
        GroupCommit::spawn(wal, sink, noop_obs())
    }

    /// Enqueue one batch and return the ticket to park on. Errs only when
    /// the committer is already shut down (the table is being removed).
    pub fn submit(&self, answers: Vec<Answer>) -> Result<Arc<Ticket>, String> {
        let ticket = Ticket::new();
        {
            let mut state = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
            if state.shutdown {
                return Err("commit thread is shut down".to_string());
            }
            state.pending.push(Entry { answers, ticket: Arc::clone(&ticket) });
        }
        self.queue.cond.notify_all();
        Ok(ticket)
    }

    /// Coalescing counters.
    pub fn stats(&self) -> CommitStatsView {
        CommitStatsView {
            groups: self.stats.groups.load(Ordering::Relaxed),
            frames: self.stats.frames.load(Ordering::Relaxed),
            answers: self.stats.answers.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting submissions, drain what is already queued, and join
    /// the thread. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut state = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
            state.shutdown = true;
        }
        self.queue.cond.notify_all();
        let handle = self.handle.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn commit_loop(
    queue: &Queue,
    wal: &Mutex<Wal>,
    sink: &Arc<dyn CommitSink>,
    stats: &CommitStats,
    obs: &ObsHandle,
) {
    loop {
        let group: Vec<Entry> = {
            let mut state = queue.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if !state.pending.is_empty() {
                    break std::mem::take(&mut state.pending);
                }
                if state.shutdown {
                    return;
                }
                state = queue.cond.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        };
        let t = std::time::Instant::now();
        let batches: Vec<&[Answer]> = group.iter().map(|e| e.answers.as_slice()).collect();
        let appended = {
            let mut wal = wal.lock().unwrap_or_else(|p| p.into_inner());
            wal.append_group(&batches)
        };
        match appended {
            Ok(positions) => {
                let answers: u64 = batches.iter().map(|b| b.len() as u64).sum();
                stats.groups.fetch_add(1, Ordering::Relaxed);
                stats.frames.fetch_add(group.len() as u64, Ordering::Relaxed);
                stats.answers.fetch_add(answers, Ordering::Relaxed);
                let committed: Vec<CommittedBatch<'_>> = group
                    .iter()
                    .zip(&positions)
                    .map(|(e, &position)| CommittedBatch { answers: &e.answers, position })
                    .collect();
                // Deliver before waking anyone: an acked submitter must be
                // able to read its own write from the in-memory log.
                sink.committed(&committed);
                obs.commit_group(
                    group.len() as u64,
                    answers,
                    t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                );
                for (e, position) in group.iter().zip(positions) {
                    e.ticket.resolve(Ok(position));
                }
            }
            Err(e) => {
                // The WAL poisoned itself and discarded the buffered group;
                // nothing was acknowledged. Later groups fail fast on the
                // poison check until the service's repair path rebuilds the
                // log.
                let msg = format!("WAL group append failed: {e}");
                for entry in &group {
                    entry.ticket.resolve(Err(msg.clone()));
                }
            }
        }
    }
}
