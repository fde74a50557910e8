//! One live table's files behind one value: the open WAL and its commit
//! thread, the durable watermark, and the write side of the snapshot chain.
//!
//! ```text
//! TableStore ── wal (Arc<Mutex<Wal>>) ◀── commit thread ──▶ CommitSink
//!            ├─ mark: DurableMark        (the sink advances it)
//!            └─ chain ── persist(publish):
//!                 chain tip already at this publish?  ─▶ Current
//!                 base missing/broken, > 32 links or
//!                 ≥ 1,024 answers and base-sized?     ─▶ Base: write base,
//!                                                        drop stale deltas,
//!                                                        compact cold segments
//!                 otherwise                           ─▶ Delta: O(Δ) link
//! ```
//!
//! The caller decides *when* to persist and what a publish is; this type
//! decides what the table's directory holds. Every rewrite of a WAL goes
//! through one routine ([`crate::store`]'s `rewrite_wal`): the snapshot
//! chain is removed first, so no stale offset can point into the new
//! layout.
//!
//! Lock order: the commit thread takes the WAL mutex alone and calls its
//! sink without it, so a caller may hold the lock its sink takes while it
//! appends directly (quarantine records, the tombstone, a rebuild) without
//! deadlocking against the commit thread. The chain mutex is leaf-level.

use crate::commit::{CommitSink, DurableMark, GroupCommit};
use crate::io::IoHandle;
use crate::obs::ObsHandle;
use crate::segment;
use crate::snapshot::{self, ChainInfo, SnapshotDelta, TableSnapshot};
use crate::store::rewrite_wal;
use crate::wal::{QuarantineEntry, TableMeta, Wal, WAL_FILE};
use crate::StoreError;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use tcrowd_core::{FitParams, InferenceResult};
use tcrowd_tabular::{Answer, SharedLog};

/// Chain links after which the next persist collapses into a full base
/// (bounds recovery's chain walk and the table directory's file count).
const SNAPSHOT_CHAIN_MAX_LINKS: u64 = 32;
/// Collapse is also triggered once the chain carries at least this many
/// answers *and* as many as the base — geometric growth, so the amortised
/// serialization cost per published answer stays constant.
const SNAPSHOT_CHAIN_MIN_COLLAPSE: u64 = 1024;

/// The snapshot chain's position: what the next persist chains from.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    /// Whether a full base snapshot exists on disk.
    has_base: bool,
    /// Epoch the chain (base + links) covers.
    epoch: u64,
    /// [`Publish::seq`] of the publish the chain tip holds.
    seq: u64,
    /// Delta links on top of the base.
    links: u64,
    /// Next free delta sequence number.
    next_seq: u64,
    /// Answers in the base snapshot.
    base_answers: u64,
    /// Answers across the chain's links.
    chain_answers: u64,
    /// Force the next persist to collapse into a full base (recovery found
    /// a broken chain; the orphan links get cleaned up with it).
    force_full: bool,
}

impl Chain {
    fn fresh() -> Chain {
        Chain { next_seq: 1, ..Chain::default() }
    }

    /// The chain recovery found. Its tip holds publish 0: the recovered
    /// table's first publish is the one recovery makes.
    fn recovered(info: &ChainInfo) -> Chain {
        Chain {
            has_base: true,
            epoch: info.base_answers + info.chain_answers,
            seq: 0,
            links: info.links,
            next_seq: info.max_seq_on_disk + 1,
            base_answers: info.base_answers,
            chain_answers: info.chain_answers,
            force_full: info.broken.is_some(),
        }
    }
}

/// One published state of the table, to be made durable.
#[derive(Debug)]
pub struct Publish<'a> {
    /// The caller's publish counter. A republish at an unchanged epoch (a
    /// new fit over the same answers) carries a higher one, so its fit
    /// reaches the chain too.
    pub seq: u64,
    /// WAL offset just past the record that holds `log`'s last answer
    /// (synced before the call).
    pub wal_offset: u64,
    /// The published answers, in WAL order.
    pub log: &'a SharedLog,
    /// The published fit.
    pub fit: &'a InferenceResult,
    /// The quarantined-worker set the publish was made under.
    pub quarantine: &'a [QuarantineEntry],
}

/// What [`TableStore::persist`] wrote.
#[derive(Debug)]
pub enum Persisted {
    /// The chain tip already holds this publish or a later one.
    Current,
    /// One delta link with the answers since the chain tip.
    Delta(Result<(), StoreError>),
    /// A fresh base (the chain collapsed), with how many cold WAL segments
    /// were then removed.
    Base(Result<u64, StoreError>),
}

/// The durable half of one live table. See the module docs.
pub struct TableStore {
    wal: Arc<Mutex<Wal>>,
    dir: PathBuf,
    meta: TableMeta,
    chain: Mutex<Chain>,
    /// The commit thread; `None` before [`TableStore::start_committer`] and
    /// after [`TableStore::shutdown_committer`].
    committer: Mutex<Option<Arc<GroupCommit>>>,
    mark: DurableMark,
    io: IoHandle,
    obs: ObsHandle,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl TableStore {
    /// Take over an open WAL: a freshly created one (`chain: None`, so the
    /// first persist writes a base) or the one recovery reopened, with the
    /// chain it found. `io` must be the handle the WAL was opened with;
    /// `obs` receives the WAL's and the snapshots' timings and the segment
    /// count.
    pub fn open(
        mut wal: Wal,
        meta: TableMeta,
        chain: Option<&ChainInfo>,
        io: IoHandle,
        obs: ObsHandle,
    ) -> TableStore {
        wal.set_obs(obs.clone());
        let dir = wal.dir().to_path_buf();
        let mark = DurableMark::starting_at(wal.position());
        let store = TableStore {
            wal: Arc::new(Mutex::new(wal)),
            dir,
            meta,
            chain: Mutex::new(chain.map_or_else(Chain::fresh, Chain::recovered)),
            committer: Mutex::new(None),
            mark,
            io,
            obs,
        };
        store.obs.wal_segments(store.segments());
        store
    }

    /// Start the commit thread. It hands each durably committed group to
    /// `sink`, which must advance [`TableStore::mark`], before any of the
    /// group's submitters is woken.
    pub fn start_committer(&self, sink: Arc<dyn CommitSink>) {
        let committer = GroupCommit::spawn(Arc::clone(&self.wal), sink, self.obs.clone());
        *lock(&self.committer) = Some(Arc::new(committer));
    }

    /// The live commit thread, if any.
    pub fn committer(&self) -> Option<Arc<GroupCommit>> {
        lock(&self.committer).clone()
    }

    /// Drain the submission queue, commit what is queued, and join the
    /// commit thread; no batch submitted later is acknowledged. Idempotent.
    /// Must not be called holding the lock the sink takes or the WAL lock.
    pub fn shutdown_committer(&self) {
        let committer = lock(&self.committer).take();
        if let Some(c) = committer {
            c.shutdown();
        }
    }

    /// The durable watermark: the WAL position whose answers are committed
    /// and delivered to the sink.
    pub fn mark(&self) -> &DurableMark {
        &self.mark
    }

    /// Live WAL segment files on disk.
    pub fn segments(&self) -> u64 {
        segment::count_segments(&self.dir)
    }

    /// The epoch the snapshot chain covers (0 before the first persist).
    pub fn chain_epoch(&self) -> u64 {
        lock(&self.chain).epoch
    }

    /// Delta links on top of the chain's base.
    pub fn chain_links(&self) -> u64 {
        lock(&self.chain).links
    }

    /// Sync the WAL under its lock alone.
    pub fn sync(&self) -> std::io::Result<()> {
        lock(&self.wal).sync()
    }

    /// Durably append a full-replacement quarantine record.
    pub fn append_quarantine(&self, set: &[QuarantineEntry]) -> Result<(), StoreError> {
        lock(&self.wal).append_quarantine(set).map(|_| ())
    }

    /// Durably append the deletion tombstone. Shut the commit thread down
    /// first, so no acknowledged batch can follow it.
    pub fn append_delete(&self) -> Result<(), StoreError> {
        lock(&self.wal).append_delete()
    }

    /// Make `publish` durable unless the chain already holds it: as a delta
    /// link normally, as a full base when the chain is new, broken or due
    /// for collapse (32 links, or ≥ 1,024 answers and as many as the base).
    /// After a base, the stale deltas and then the WAL segments wholly
    /// below its offset are removed; both are best-effort cleanup.
    pub fn persist(&self, publish: &Publish<'_>) -> Persisted {
        let epoch = publish.log.len() as u64;
        // The chain mutex serialises check → write → advance, so a slower
        // writer can never chain a delta from (or rename a base over) a
        // position the faster one already superseded.
        let mut chain = lock(&self.chain);
        // Recovery and shutdown persist an unchanged publish, so a restart
        // never grows the chain. At epoch 0 a broken chain still collapses.
        let persisted = (chain.epoch, chain.seq) >= (epoch, publish.seq);
        if chain.has_base && persisted && !(epoch == 0 && chain.force_full) {
            return Persisted::Current;
        }
        let delta_answers = epoch - chain.epoch;
        let fit = Some(FitParams::of(publish.fit));
        let collapse =
            !chain.has_base || chain.force_full || chain.links + 1 > SNAPSHOT_CHAIN_MAX_LINKS || {
                let grown = chain.chain_answers + delta_answers;
                grown >= SNAPSHOT_CHAIN_MIN_COLLAPSE && grown >= chain.base_answers
            };
        if !collapse {
            let delta = SnapshotDelta {
                seq: chain.next_seq,
                parent_epoch: chain.epoch,
                epoch,
                wal_offset: publish.wal_offset,
                answers: publish.log.range_vec(chain.epoch as usize, epoch as usize),
                fit,
                quarantine: publish.quarantine.to_vec(),
            };
            let written =
                self.timed(|| snapshot::write_snapshot_delta_with_io(&self.dir, &delta, &self.io));
            if written.is_ok() {
                chain.epoch = epoch;
                chain.seq = publish.seq;
                chain.links += 1;
                chain.next_seq += 1;
                chain.chain_answers += delta_answers;
            }
            return Persisted::Delta(written);
        }
        let base = TableSnapshot {
            epoch,
            wal_offset: publish.wal_offset,
            meta: self.meta.clone(),
            log: publish.log.to_log(),
            fit,
            quarantine: publish.quarantine.to_vec(),
        };
        if let Err(e) = self.timed(|| snapshot::write_snapshot_with_io(&self.dir, &base, &self.io))
        {
            return Persisted::Base(Err(e));
        }
        // Old links chain from epochs below the new base, so they are
        // unreachable once its rename lands: removing them is cleanup.
        if let Err(e) = snapshot::remove_snapshot_deltas(&self.dir) {
            eprintln!(
                "tcrowd-store: stale snapshot deltas in {} not removed: {e}",
                self.dir.display()
            );
        }
        *chain = Chain {
            has_base: true,
            epoch,
            seq: publish.seq,
            base_answers: epoch,
            ..Chain::fresh()
        };
        // The base covers every answer at or below its offset, so rotated
        // segments wholly below it are replay-dead weight. A failed unlink
        // costs replay time, not correctness: the next collapse retries.
        let compacted = segment::compact_cold_segments(&self.dir, publish.wal_offset)
            .unwrap_or_else(|e| {
                eprintln!(
                    "tcrowd-store: cold WAL segments in {} not compacted: {e}",
                    self.dir.display()
                );
                0
            });
        if compacted > 0 {
            self.obs.wal_segments(self.segments());
        }
        Persisted::Base(Ok(compacted))
    }

    /// Rewrite a poisoned WAL from `answers` and `quarantine`, which must be
    /// exactly the acknowledged answers and the current quarantine set. The
    /// snapshot chain goes first (its offsets describe the old layout), the
    /// rewritten log is reopened as one fresh segment, the durable mark
    /// moves to its end and the chain restarts, so the next persist writes
    /// a base. A WAL that is not poisoned is left alone. Call it holding
    /// the lock the commit sink takes, so the mark moves in the same hold
    /// as the answers it describes.
    pub fn rebuild_wal(
        &self,
        answers: &[Answer],
        quarantine: &[QuarantineEntry],
    ) -> Result<(), StoreError> {
        let mut wal = lock(&self.wal);
        if !wal.is_poisoned() {
            return Ok(());
        }
        let pos = rewrite_wal(&self.dir, &self.meta, answers, quarantine, &self.io)?;
        debug_assert_eq!(pos.answers as usize, answers.len());
        let mut fresh = Wal::open_for_append_with_io(
            self.dir.join(WAL_FILE),
            pos,
            wal.fsync_policy(),
            self.io.clone(),
        )?;
        fresh.set_segment_max(wal.segment_max());
        fresh.set_obs(self.obs.clone());
        *wal = fresh;
        self.mark.set(pos);
        *lock(&self.chain) = Chain::fresh();
        drop(wal);
        self.obs.wal_segments(self.segments());
        Ok(())
    }

    /// Run one snapshot write, reporting its duration when it succeeds.
    fn timed(&self, write: impl FnOnce() -> Result<(), StoreError>) -> Result<(), StoreError> {
        let t = Instant::now();
        write()?;
        self.obs.snapshot_persist_ns(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommittedBatch;
    use crate::io::{FaultOp, FaultyIo, EIO};
    use crate::obs::ObsSink;
    use crate::store::Store;
    use crate::wal::FsyncPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tcrowd_tabular::{CellId, Column, ColumnType, Schema, Value, WorkerId};

    /// Counts the WAL appends it is told about.
    #[derive(Debug, Default)]
    struct Appends(AtomicU64);

    impl ObsSink for Appends {
        fn wal_append_ns(&self, _ns: u64) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_rebuilt_wal_keeps_the_stores_segment_size_and_obs_sink() {
        let dir = std::env::temp_dir()
            .join("tcrowd_store_table_tests")
            .join(format!("{}_rebuild", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let io = FaultyIo::new();
        let store = Store::open_with_io(&dir, FsyncPolicy::Always, io.clone() as _)
            .unwrap()
            .with_segment_max(512);
        let column = Column::new("c", ColumnType::categorical_with_cardinality(2));
        let meta =
            TableMeta { rows: 4, schema: Schema::new("t", "k", vec![column]), config: Vec::new() };
        let wal = store.create_table("t", &meta).unwrap();
        let appends = Arc::new(Appends::default());
        let files = TableStore::open(wal, meta, None, store.io_handle(), appends.clone());
        files.start_committer(Arc::new(|_: &[CommittedBatch<'_>]| {}));
        let committer = files.committer().unwrap();
        let answer = |i: u32| Answer {
            worker: WorkerId(i),
            cell: CellId::new(i % 4, 0),
            value: Value::Categorical(i % 2),
        };
        let acked: Vec<Answer> = (0..4).map(answer).collect();
        committer.submit(acked.clone()).unwrap().wait().unwrap();
        // A failed fsync poisons the WAL; the repair rewrites it from the
        // acknowledged answers.
        io.break_op(FaultOp::Sync, Some("wal"), EIO);
        assert!(committer.submit(vec![answer(9)]).unwrap().wait().is_err());
        io.heal();
        files.rebuild_wal(&acked, &[]).unwrap();
        assert_eq!(files.mark().get().answers, 4);
        assert_eq!(files.segments(), 1);
        let before = appends.0.load(Ordering::Relaxed);
        for i in 0..40 {
            committer.submit(vec![answer(i)]).unwrap().wait().unwrap();
        }
        assert!(appends.0.load(Ordering::Relaxed) > before, "rebuilt WAL reports no appends");
        assert!(files.segments() > 1, "rebuilt WAL does not rotate at the store's segment size");
        files.shutdown_committer();
        std::fs::remove_dir_all(&dir).ok();
    }
}
