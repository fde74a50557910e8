//! The data-dir root: one directory per table, each holding a WAL and
//! (usually) a snapshot, plus the recovery / compaction / verification
//! orchestration over them.
//!
//! ```text
//! <data-dir>/
//!   tables/
//!     <table-id>/
//!       wal.log            WAL segment 0 (system of record; may be
//!                          compacted away once a snapshot covers it)
//!       wal.<seq>.log      rotated WAL segments (header-chained)
//!       snapshot.snap      latest snapshot base (recovery accelerator —
//!                          and recovery *requirement* once cold segments
//!                          are compacted)
//! ```

use crate::io::{real_io, IoHandle};
use crate::segment;
use crate::snapshot::{self, ChainInfo, TableSnapshot};
use crate::wal::{
    self, FsyncPolicy, QuarantineEntry, RecordInfo, TableMeta, TornTail, Wal, WalPosition, WAL_FILE,
};
use crate::StoreError;
use std::fs;
use std::path::{Path, PathBuf};
use tcrowd_core::FitParams;
use tcrowd_tabular::{Answer, AnswerLog};

/// A data directory hosting many tables' durable state.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    policy: FsyncPolicy,
    io: IoHandle,
    segment_max: u64,
}

/// One table's reconstructed state after a crash (or a clean restart —
/// recovery cannot tell and does not need to).
#[derive(Debug)]
pub struct Recovered {
    /// The table id (directory name).
    pub id: String,
    /// Shape, schema and service configuration from the Create record (or
    /// the snapshot, when the snapshot path was taken).
    pub meta: TableMeta,
    /// The recovered answer log — exactly the longest checksummed prefix of
    /// the WAL, bit-identical to what was acknowledged.
    pub log: AnswerLog,
    /// The persisted warm-start seed, when a snapshot carried one.
    pub fit: Option<FitParams>,
    /// The quarantined-worker set in force at the recovered position: the
    /// latest WAL Quarantine record, falling back to the snapshot's set when
    /// the replayed tail carried none.
    pub quarantine: Vec<QuarantineEntry>,
    /// Epoch of the snapshot chain that accelerated recovery (`None` = full
    /// replay).
    pub snapshot_epoch: Option<u64>,
    /// The snapshot chain's bookkeeping, when one was used — what a writer
    /// needs to *extend* the chain (tip epoch, link count, next free
    /// sequence) instead of starting a fresh full snapshot.
    pub chain: Option<ChainInfo>,
    /// Answers decoded from the WAL tail beyond the snapshot (equals
    /// `log.len()` on a full replay).
    pub replayed_tail: u64,
    /// The torn tail that was truncated, if any.
    pub torn: Option<TornTail>,
    /// Whether a deletion tombstone was found — the table is dead and
    /// `wal` is `None`.
    pub deleted: bool,
    /// The reopened WAL, positioned for further appends (absent for dead
    /// tables).
    pub wal: Option<Wal>,
}

impl Recovered {
    /// The stored fit, when it covers the whole recovered log: recovery
    /// replayed no WAL tail past the snapshot chain. A fit that missed the
    /// tail must not be republished, or persisted as the table's fit.
    pub fn covering_fit(&self) -> Option<&FitParams> {
        self.fit.as_ref().filter(|_| self.replayed_tail == 0)
    }
}

/// What `compact` did to one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// WAL bytes before compaction (after torn-tail truncation).
    pub wal_bytes_before: u64,
    /// WAL bytes after rewriting (Create + a few large Appends).
    pub wal_bytes_after: u64,
    /// WAL records before compaction.
    pub records_before: usize,
    /// WAL records after compaction (the Create plus one Append per
    /// `REWRITE_CHUNK` answers; empty tables keep just the Create).
    pub records_after: usize,
    /// Answers carried through (compaction never drops answers).
    pub answers: u64,
    /// Whether a warm-start fit was preserved into the fresh snapshot.
    pub fit_preserved: bool,
    /// Live WAL segment files before the rewrite.
    pub segments_before: u64,
    /// Live WAL segment files after the rewrite (always 1: the rewritten
    /// log is a single fresh `wal.log`).
    pub segments_after: u64,
}

/// Snapshot-chain/WAL consistency as seen by `verify`.
#[derive(Debug, Clone)]
pub struct SnapshotCheck {
    /// The chain's combined epoch (base + applied deltas).
    pub epoch: u64,
    /// The chain tip's claimed WAL resume offset.
    pub wal_offset: u64,
    /// Delta links applied on top of the base.
    pub links: u64,
    /// Whether the combined snapshot log is exactly the WAL prefix at
    /// `epoch` and every chain element's `wal_offset` is a real record
    /// boundary at its epoch.
    pub consistent: bool,
    /// Whether the chain carries a warm-start fit.
    pub has_fit: bool,
}

/// The full integrity report of one table's on-disk state.
#[derive(Debug)]
pub struct VerifyReport {
    /// The table id.
    pub id: String,
    /// Physical bytes across every live WAL segment.
    pub wal_bytes: u64,
    /// Live WAL segment files in the chain.
    pub segments: u64,
    /// Whether segment 0 (the Create record) was compacted away — the
    /// snapshot chain is then load-bearing, not just an accelerator.
    pub head_compacted: bool,
    /// Valid WAL records in the surviving chain.
    pub records: usize,
    /// Answers the WAL accounts for, in absolute terms: answers vouched
    /// for by a compacted-away head plus those decoded from the chain.
    pub answers: u64,
    /// Whether a deletion tombstone is present.
    pub deleted: bool,
    /// Torn tail, if the file extends past the valid prefix.
    pub torn: Option<TornTail>,
    /// Quarantine records in the valid WAL prefix.
    pub quarantine_records: usize,
    /// Workers in the effective quarantined set (latest WAL record, or the
    /// snapshot's set when the snapshot is ahead of the WAL).
    pub quarantined: usize,
    /// Snapshot consistency (absent when no snapshot exists).
    pub snapshot: Option<SnapshotCheck>,
    /// Hard failures (empty = the table recovers cleanly). A torn tail is
    /// *not* an error — it is the condition recovery is designed for.
    pub errors: Vec<String>,
}

impl Store {
    /// Open (creating if needed) a data directory.
    pub fn open(root: impl Into<PathBuf>, policy: FsyncPolicy) -> std::io::Result<Store> {
        Store::open_with_io(root, policy, real_io())
    }

    /// [`Store::open`] with an explicit [`IoHandle`]: every durable write
    /// this store (and the WALs/snapshots it hands out) performs goes
    /// through `io`, so a [`crate::FaultyIo`] here fault-injects the whole
    /// table lifecycle.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        policy: FsyncPolicy,
        io: IoHandle,
    ) -> std::io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("tables"))?;
        Ok(Store { root, policy, io, segment_max: segment::SEGMENT_MAX_DEFAULT })
    }

    /// Override the WAL segment rotation threshold for every table this
    /// store creates or recovers (tests and benches use small values to
    /// exercise rotation; `u64::MAX` disables it).
    pub fn with_segment_max(mut self, max: u64) -> Store {
        self.segment_max = max.max(1);
        self
    }

    /// The WAL segment rotation threshold (bytes).
    pub fn segment_max(&self) -> u64 {
        self.segment_max
    }

    /// The I/O handle this store threads through its WALs and snapshots.
    pub fn io_handle(&self) -> IoHandle {
        self.io.clone()
    }

    /// The data directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fsync policy new and reopened WALs use.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The directory of one table.
    pub fn table_dir(&self, id: &str) -> PathBuf {
        self.root.join("tables").join(id)
    }

    /// Every table id with a directory on disk, sorted.
    pub fn table_ids(&self) -> std::io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(self.root.join("tables"))? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Ok(name) = entry.file_name().into_string() {
                    ids.push(name);
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Claim a table id and durably write its Create record. Returns the
    /// open WAL for ingestion.
    pub fn create_table(&self, id: &str, meta: &TableMeta) -> Result<Wal, StoreError> {
        let mut wal = Wal::create_with_io(&self.table_dir(id), meta, self.policy, self.io.clone())?;
        wal.set_segment_max(self.segment_max);
        Ok(wal)
    }

    /// Delete this table's cold WAL segments — every non-active segment
    /// wholly below `covered`, a logical offset the durable snapshot-chain
    /// base vouches for (see [`segment::compact_cold_segments`]). Safe
    /// while the table is live and its WAL open: only immutable,
    /// never-again-read files are unlinked. Returns how many were removed.
    pub fn compact_cold_segments(&self, id: &str, covered: u64) -> std::io::Result<u64> {
        segment::compact_cold_segments(&self.table_dir(id), covered)
    }

    /// Remove a (tombstoned) table's directory.
    pub fn remove_table_dir(&self, id: &str) -> std::io::Result<()> {
        match fs::remove_dir_all(self.table_dir(id)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// Recover one table: longest-checksummed-prefix WAL replay (snapshot
    /// assisted when possible), torn-tail truncation, and a WAL reopened for
    /// appending.
    pub fn recover_table(&self, id: &str) -> Result<Recovered, StoreError> {
        let dir = self.table_dir(id);
        let wal_path = dir.join(WAL_FILE);
        let mut scan = segment::scan_segments(&dir)?;
        if scan.segments.is_empty() {
            if let Some(reason) = scan.orphan_reason.take() {
                // Segment-named files exist but none chains — the head of
                // whatever survived is unreadable. This is rot, not a clean
                // "no WAL": deleting or seeding over it could destroy a
                // recoverable tail, so surface it.
                return Err(StoreError::corrupt(
                    &wal_path,
                    0,
                    format!("WAL segment chain is unreadable: {reason}"),
                ));
            }
            if snapshot::read_snapshot(&dir).unwrap_or(None).is_some() {
                // The WAL vanished but a snapshot survived — e.g. a crash
                // mid `remove_dir_all` that unlinked wal.log (tombstone and
                // all) before snapshot.snap. Seed an empty file so the
                // rebuild branch below reconstructs the WAL from the
                // snapshot: resurrecting a half-deleted table is recoverable
                // (delete it again); refusing to boot the whole service is
                // not.
                fs::write(&wal_path, b"")?;
                scan = segment::scan_segments(&dir)?;
            } else {
                return Err(StoreError::corrupt(
                    &wal_path,
                    0,
                    "table directory exists but has no WAL (crash during creation?)".to_string(),
                ));
            }
        }
        let head_compacted = scan.head_compacted();
        // Logical end/base of the on-disk chain: every offset comparison
        // below is against these, never a single file's length.
        let log_end = scan.end_offset();
        let chain_base = scan.base_offset();
        // A corrupt snapshot *base* is a recovery accelerator failure, not a
        // data failure: note it and fall back to the full replay. Broken
        // chain links never error — the chain reader truncates there and
        // the WAL tail replay covers the difference. Once cold segments were
        // compacted, though, the full-replay fallback is gone **by design**
        // and a missing/corrupt snapshot is fatal.
        let mut snap = snapshot::read_snapshot_chain(&dir).unwrap_or(None);
        if head_compacted && snap.is_none() {
            return Err(StoreError::corrupt(
                &wal_path,
                chain_base,
                format!(
                    "WAL head is compacted away (chain starts at logical offset {chain_base}) \
                     but no snapshot is readable — cold-segment compaction only ever runs \
                     against a durable snapshot base, so this is snapshot loss/rot"
                ),
            ));
        }

        // The fast path trusts `snapshot.wal_offset` to be a record boundary,
        // which holds for every snapshot this store wrote. If the very first
        // tail frame fails its checksum, we cannot tell a genuine torn first
        // record from a misaligned offset (stale snapshot restored next to a
        // newer WAL) — and truncating on a misaligned offset would destroy
        // valid acknowledged records. Per `replay_tail`'s contract, that case
        // falls back to a full replay, which distinguishes the two for free
        // (except on a head-compacted chain, where no full replay exists and
        // the ambiguity is fatal).
        let mut tail_replay = None;
        if let Some((s, _)) = &snap {
            if s.wal_offset <= log_end && s.wal_offset >= chain_base {
                let probe = wal::replay_tail(&wal_path, s.wal_offset)?;
                if probe.records.is_empty() && probe.torn.is_some() {
                    if head_compacted {
                        return Err(StoreError::corrupt(
                            &wal_path,
                            s.wal_offset,
                            "snapshot offset is not a valid record boundary and the WAL head \
                             is compacted away — no full replay can arbitrate"
                                .to_string(),
                        ));
                    }
                    snap = None;
                } else {
                    tail_replay = Some(probe);
                }
            }
        }

        if let Some((s, _)) = &snap {
            if s.wal_offset < chain_base {
                // Compaction only ever deletes segments below the chain
                // base, and base offsets never regress — a snapshot pointing
                // below the surviving chain means the snapshot files were
                // swapped/rotted. Rebuilding from it would silently drop the
                // acknowledged tail still on disk; refuse instead.
                return Err(StoreError::corrupt(
                    &wal_path,
                    s.wal_offset,
                    format!(
                        "snapshot offset {} is below the compacted chain head {chain_base}",
                        s.wal_offset
                    ),
                ));
            }
        }

        let (
            meta,
            log,
            fit,
            quarantine,
            snapshot_epoch,
            chain,
            replayed_tail,
            valid_len,
            torn,
            deleted,
        );
        match snap {
            Some((s, info)) if s.wal_offset <= log_end => {
                // Fast path: resume decoding at the snapshot's offset; the
                // snapshot's log (shape-validated at decode) absorbs the
                // tail. A Quarantine record in the tail supersedes the
                // snapshot's set (records are full replacements).
                let tail = tail_replay.take().expect("tail probed above");
                snapshot_epoch = Some(s.epoch);
                chain = Some(info);
                replayed_tail = tail.answers.len() as u64;
                valid_len = tail.valid_len;
                torn = tail.torn;
                deleted = tail.deleted;
                meta = s.meta;
                fit = s.fit;
                quarantine = tail.quarantine.unwrap_or(s.quarantine);
                let mut all = s.log;
                push_validated(&mut all, &meta, &wal_path, tail.answers)?;
                log = all;
            }
            Some((s, _)) => {
                // The WAL is *shorter* than the snapshot's offset: un-synced
                // WAL bytes died with the crash after the snapshot had been
                // fsynced (possible under `FsyncPolicy::Never`). The snapshot
                // is the more durable record — rebuild the WAL from it so the
                // "WAL alone determines the table" invariant holds again.
                let report = TornTail {
                    at: log_end,
                    dropped_bytes: 0,
                    reason: format!(
                        "wal ({log_end} logical bytes) ends before the snapshot offset {}; \
                         rebuilt from the snapshot",
                        s.wal_offset
                    ),
                };
                // The stale chain's wal_offsets describe the OLD layout:
                // left in place, it would make the next recovery take this
                // branch again, rebuilding from epoch `s.epoch` and
                // destroying any answers acknowledged in between.
                let pos =
                    self.rewrite_with_base(&dir, &s.meta, &s.log, s.fit.clone(), &s.quarantine)?;
                snapshot_epoch = Some(s.epoch);
                chain = Some(ChainInfo {
                    base_epoch: s.epoch,
                    base_answers: s.log.len() as u64,
                    link_marks: vec![(s.epoch, pos.offset)],
                    ..ChainInfo::default()
                });
                replayed_tail = 0;
                valid_len = pos.offset;
                torn = Some(report);
                deleted = false;
                meta = s.meta;
                fit = s.fit;
                quarantine = s.quarantine;
                log = s.log;
            }
            None => {
                let full = wal::replay(&wal_path)?;
                meta = match full.meta {
                    Some(m) => m,
                    None => {
                        return Err(StoreError::corrupt(
                            &wal_path,
                            full.base_offset,
                            match full.torn {
                                Some(t) => format!("no valid create record: {}", t.reason),
                                None => "empty WAL".to_string(),
                            },
                        ))
                    }
                };
                snapshot_epoch = None;
                chain = None;
                replayed_tail = full.answers.len() as u64;
                valid_len = full.valid_len;
                torn = full.torn;
                deleted = full.deleted;
                fit = None;
                quarantine = full.quarantine.unwrap_or_default();
                let mut built = AnswerLog::new(meta.rows, meta.schema.num_columns());
                push_validated(&mut built, &meta, &wal_path, full.answers)?;
                log = built;
            }
        }

        // Drop the torn bytes (truncating the containing segment, deleting
        // later/orphaned segments) so future appends extend the valid
        // prefix. Idempotent no-op on a clean chain.
        wal::truncate_to_valid(&dir, valid_len)?;
        let wal = if deleted {
            None
        } else {
            let mut w = Wal::open_for_append_with_io(
                &wal_path,
                WalPosition { offset: valid_len, answers: log.len() as u64 },
                self.policy,
                self.io.clone(),
            )?;
            w.set_segment_max(self.segment_max);
            Some(w)
        };
        Ok(Recovered {
            id: id.to_string(),
            meta,
            log,
            fit: if deleted { None } else { fit },
            quarantine: if deleted { Vec::new() } else { quarantine },
            snapshot_epoch,
            chain: if deleted { None } else { chain },
            replayed_tail,
            torn,
            deleted,
            wal,
        })
    }

    /// Recover every live table in the store. Tombstoned tables (deletion
    /// committed, directory removal lost to the crash) and **aborted
    /// creations** (a directory whose Create record never became durable —
    /// the creation was never acknowledged, so there is nothing to lose)
    /// are cleaned up and skipped. Anything else that fails aborts with the
    /// failing table's error — a durability layer must not silently serve a
    /// subset.
    pub fn recover_all(&self) -> Result<Vec<Recovered>, StoreError> {
        let mut out = Vec::new();
        for id in self.table_ids()? {
            if self.is_aborted_creation(&id)? {
                self.remove_table_dir(&id)?;
                continue;
            }
            let rec = self.recover_table(&id)?;
            if rec.deleted {
                self.remove_table_dir(&id)?;
                continue;
            }
            out.push(rec);
        }
        Ok(out)
    }

    /// True when `id`'s directory is the residue of a crashed `POST /tables`:
    /// no usable snapshot *and* a WAL that ends mid-Create-frame (see
    /// [`wal::CreateProbe`]). Such a creation was never acknowledged
    /// ([`Wal::create`] fsyncs before returning), so garbage-collecting the
    /// directory cannot lose data. A table with a valid snapshot is
    /// recoverable even with a rotted WAL head and is never treated as
    /// aborted; a *complete-but-undecodable* Create frame is rot, not an
    /// abort — it surfaces as a recovery error instead of a silent delete.
    ///
    /// The snapshot chain is decoded only when the cheap checks say
    /// "aborted", so a live table's chain is decoded once per boot (by
    /// [`Self::recover_table`]).
    fn is_aborted_creation(&self, id: &str) -> Result<bool, StoreError> {
        let dir = self.table_dir(id);
        // A rotated segment can only exist after at least one successful
        // rotation, which happens strictly after the Create was durable and
        // acknowledged — whatever state `wal.log` is in (compacted away,
        // rotted), this directory is not creation residue.
        if !segment::rotated_segment_files(&dir)?.is_empty() {
            return Ok(false);
        }
        if wal::probe_create(&dir.join(WAL_FILE))? != wal::CreateProbe::AbortedCreation {
            return Ok(false);
        }
        Ok(snapshot::read_snapshot(&dir).unwrap_or(None).is_none())
    }

    /// Rewrite one table's WAL as `Create + a few large Appends` (defragmenting every
    /// per-batch frame) and write a fresh snapshot at the full epoch. The
    /// snapshot keeps the stored fit only when that fit covers the whole
    /// log ([`Recovered::covering_fit`]).
    pub fn compact_table(&self, id: &str) -> Result<CompactReport, StoreError> {
        let dir = self.table_dir(id);
        let wal_path = dir.join(WAL_FILE);
        // Audit figures first: what the chain looked like before the
        // rewrite. (Compaction touches every live record anyway, so this
        // costs nothing extra.)
        let before = wal::replay(&wal_path)?;
        let segments_before = segment::count_segments(&dir);
        let wal_bytes_before = before.valid_len - before.base_offset;
        let records_before = before.records.len();
        // Recovery is the arbiter of `(log, fit, quarantine)`: it already
        // implements snapshot-vs-WAL preference, head-compacted chains and
        // torn tails. Re-deriving those rules here would be a second
        // codepath to keep correct.
        let rec = self.recover_table(id)?;
        let fit = rec.covering_fit().cloned();
        let Recovered { meta, log, quarantine, wal, deleted, .. } = rec;
        drop(wal);
        if deleted {
            return Err(StoreError::corrupt(
                &wal_path,
                0,
                "cannot compact a deleted table".to_string(),
            ));
        }
        let fit_preserved = fit.is_some();
        let pos = self.rewrite_with_base(&dir, &meta, &log, fit, &quarantine)?;
        Ok(CompactReport {
            wal_bytes_before,
            wal_bytes_after: pos.offset,
            records_before,
            records_after: 1
                + log.len().div_ceil(REWRITE_CHUNK)
                + usize::from(!quarantine.is_empty()),
            answers: log.len() as u64,
            fit_preserved,
            segments_before,
            segments_after: 1,
        })
    }

    /// [`rewrite_wal`], then a fresh base snapshot of `log` pinned to the
    /// rewritten layout.
    fn rewrite_with_base(
        &self,
        dir: &Path,
        meta: &TableMeta,
        log: &AnswerLog,
        fit: Option<FitParams>,
        quarantine: &[QuarantineEntry],
    ) -> Result<WalPosition, StoreError> {
        let pos = rewrite_wal(dir, meta, log.all(), quarantine, &self.io)?;
        let base = TableSnapshot {
            epoch: log.len() as u64,
            wal_offset: pos.offset,
            meta: meta.clone(),
            log: log.clone(),
            fit,
            quarantine: quarantine.to_vec(),
        };
        snapshot::write_snapshot_with_io(dir, &base, &self.io)?;
        Ok(pos)
    }

    /// Full integrity scan of one table: WAL framing, snapshot/WAL
    /// consistency, epoch monotonicity.
    pub fn verify_table(&self, id: &str) -> Result<VerifyReport, StoreError> {
        let dir = self.table_dir(id);
        let wal_path = dir.join(WAL_FILE);
        let mut errors = Vec::new();
        let scan = segment::scan_segments(&dir)?;
        let full = wal::replay(&wal_path)?;
        let head_compacted = scan.head_compacted();
        let segments = scan.segments.len() as u64;
        let wal_bytes = scan.total_bytes();
        // The number of answers a full replay accounts for, in *absolute*
        // terms: answers vouched for by the compacted-away head plus those
        // decoded from the surviving chain.
        let replayed_answers = full.base_answers + full.answers.len() as u64;
        if let Some(reason) = &scan.orphan_reason {
            // An orphan may be a rotation/rewrite crash leftover (harmless)
            // or a segment stranded by a lost/rotted predecessor (acked data
            // unreachable) — verify cannot tell, so it flags both.
            errors.push(format!(
                "segment file(s) do not continue the chain and will be deleted by recovery: \
                 {reason}"
            ));
        }
        if full.meta.is_none() && !head_compacted {
            errors.push("no valid create record at the head of the WAL".to_string());
        }
        // Epoch monotonicity across records (a violated invariant would mean
        // the decoder itself is broken — checked anyway: this is the audit
        // tool). The sentinel starts at the chain base so a head-compacted
        // chain's first record compares against where the chain begins.
        let mut last =
            RecordInfo { kind: 0, end_offset: full.base_offset, answers_after: full.base_answers };
        for r in &full.records {
            if r.end_offset <= last.end_offset
                && !(last.kind == 0 && r.end_offset > full.base_offset)
            {
                errors.push(format!("non-monotone record offsets at {}", r.end_offset));
            }
            if r.answers_after < last.answers_after {
                errors.push(format!("answer count regressed at offset {}", r.end_offset));
            }
            last = *r;
        }
        let snapshot = match snapshot::read_snapshot_chain(&dir) {
            Err(e) => {
                errors.push(format!("snapshot unreadable: {e}"));
                None
            }
            Ok(None) => None,
            Ok(Some((s, info))) => {
                let mut consistent = true;
                if let Some(why) = &info.broken {
                    errors.push(format!(
                        "snapshot chain truncated after {} link(s): {why} — recovery will \
                         replay the WAL tail past the valid prefix",
                        info.links
                    ));
                    consistent = false;
                }
                if s.epoch > replayed_answers {
                    // Legal only after an fsync=never crash; recovery rebuilds
                    // the WAL from the snapshot. Flag it so operators see it.
                    errors.push(format!(
                        "snapshot epoch {} is ahead of the WAL ({replayed_answers} answers) — \
                         recovery will rebuild the WAL from the snapshot",
                        s.epoch
                    ));
                    consistent = false;
                } else if s.epoch < full.base_answers {
                    // Compaction only ever deletes segments the snapshot
                    // *base* vouches for, so the chain can never end up ahead
                    // of its own snapshot — this is file swap/rot.
                    errors.push(format!(
                        "snapshot epoch {} is below the compacted chain head ({} answers \
                         precede the surviving WAL)",
                        s.epoch, full.base_answers
                    ));
                    consistent = false;
                } else {
                    // Only the overlap is comparable: the snapshot carries the
                    // whole log, the chain only answers past `base_answers`.
                    if s.log.all()[full.base_answers as usize..]
                        != full.answers[..(s.epoch - full.base_answers) as usize]
                    {
                        errors.push(format!(
                            "snapshot chain log is not the WAL prefix at epoch {}",
                            s.epoch
                        ));
                        consistent = false;
                    }
                    // The quarantine set recovery would adopt (tail record,
                    // else the snapshot's set) must agree with what a full
                    // replay sees — a disagreement means the snapshot and
                    // WAL tell different stories about who is excluded. On a
                    // head-compacted chain with no surviving quarantine
                    // record the snapshot *is* the only source, so there is
                    // nothing to cross-check.
                    if let Ok(tail) = wal::replay_tail(&wal_path, s.wal_offset) {
                        let recovered = tail.quarantine.unwrap_or_else(|| s.quarantine.clone());
                        let replayed_set = match (&full.quarantine, head_compacted) {
                            (None, true) => None,
                            (q, _) => Some(q.clone().unwrap_or_default()),
                        };
                        if replayed_set.is_some_and(|expect| recovered != expect) {
                            errors.push(format!(
                                "snapshot quarantine set ({} workers) disagrees with the \
                                 WAL's latest quarantine record",
                                s.quarantine.len()
                            ));
                            consistent = false;
                        }
                    }
                    // Every chain element — the base and each applied delta —
                    // must point at a real record boundary for its epoch,
                    // otherwise a recovery landing on that element would fall
                    // back to a full replay. The chain base itself is a valid
                    // boundary (a snapshot taken exactly at the compaction
                    // point has no surviving record ending there).
                    for &(epoch, offset) in &info.link_marks {
                        if offset < full.base_offset {
                            errors.push(format!(
                                "snapshot chain wal_offset {offset} lies below the compacted \
                                 chain head at {}",
                                full.base_offset
                            ));
                            consistent = false;
                            continue;
                        }
                        let boundary = (offset == full.base_offset && epoch == full.base_answers)
                            || full
                                .records
                                .iter()
                                .any(|r| r.end_offset == offset && r.answers_after == epoch);
                        if !boundary {
                            errors.push(format!(
                                "snapshot chain wal_offset {offset} is not a record boundary \
                                 at epoch {epoch}"
                            ));
                            consistent = false;
                        }
                    }
                }
                Some(SnapshotCheck {
                    epoch: s.epoch,
                    wal_offset: s.wal_offset,
                    links: info.links,
                    consistent,
                    has_fit: s.fit.is_some(),
                })
            }
        };
        if head_compacted && snapshot.is_none() {
            errors.push(format!(
                "the WAL head is compacted away (chain starts at logical offset {}) but no \
                 snapshot chain is readable — the table cannot recover",
                full.base_offset
            ));
        }
        let quarantine_records =
            full.records.iter().filter(|r| wal::record_kind_name(r.kind) == "quarantine").count();
        let quarantined = match (&full.quarantine, &snapshot) {
            (Some(q), _) => q.len(),
            // Snapshot ahead of the WAL — or the head (with any quarantine
            // record it held) compacted away: the snapshot's set is what
            // recovery adopts.
            (None, Some(c)) if head_compacted || c.epoch > replayed_answers => {
                snapshot::read_snapshot(&dir)
                    .ok()
                    .flatten()
                    .map(|s| s.quarantine.len())
                    .unwrap_or(0)
            }
            (None, _) => 0,
        };
        Ok(VerifyReport {
            id: id.to_string(),
            wal_bytes,
            segments,
            head_compacted,
            records: full.records.len(),
            answers: replayed_answers,
            deleted: full.deleted,
            torn: full.torn,
            quarantine_records,
            quarantined,
            snapshot,
            errors,
        })
    }
}

/// How many answers one rewritten Append frame holds (~17 MiB encoded).
/// Chunking keeps every frame far below the replay sanity bound
/// (`MAX_RECORD` in the wal module): framing a whole multi-GiB log as one
/// record would make the rewritten WAL read back as corrupt.
const REWRITE_CHUNK: usize = 1 << 20;

/// Drop `dir`'s snapshot chain, then replace its WAL with a freshly-written
/// `Create + chunked Appends (+ Quarantine)` sequence holding `answers` and
/// the current quarantined set, atomically (tmp + rename + dir sync). The
/// one way a table's WAL is rewritten: by compaction, by recovery when the
/// WAL ends before the snapshot, and by the repair of a poisoned WAL. The
/// chain goes first, so a crash at any step can never pair a stale snapshot
/// offset with the new layout; the caller writes a fresh base afterwards.
pub(crate) fn rewrite_wal(
    dir: &Path,
    meta: &TableMeta,
    answers: &[Answer],
    quarantine: &[QuarantineEntry],
    io: &IoHandle,
) -> Result<WalPosition, StoreError> {
    snapshot::remove_snapshot(dir)?;
    let tmp_dir = dir.join("wal.rewrite.tmp");
    fs::remove_dir_all(&tmp_dir).ok();
    let mut wal = Wal::create_with_io(&tmp_dir, meta, FsyncPolicy::Always, io.clone())?;
    // The rewritten log is a single segment by definition — a rotation
    // inside the tmp dir would leave files the rename below cannot move.
    wal.set_segment_max(u64::MAX);
    for chunk in answers.chunks(REWRITE_CHUNK) {
        wal.append_answers(chunk)?;
    }
    if !quarantine.is_empty() {
        wal.append_quarantine(quarantine)?;
    }
    wal.sync()?;
    let pos = wal.position();
    drop(wal);
    io.rename(&tmp_dir.join(WAL_FILE), &dir.join(WAL_FILE))?;
    fs::remove_dir_all(&tmp_dir).ok();
    // The fresh log replaces the *whole* chain; stale rotated segments
    // describe the old layout and must go. Rename-first ordering keeps this
    // crash safe: a crash here leaves them as base-offset-discontinuity
    // orphans, which the next recovery deletes.
    for stale in segment::rotated_segment_files(dir)? {
        fs::remove_file(&stale)?;
    }
    wal::sync_dir(dir);
    Ok(pos)
}

/// Append recovered answers into `log`, validating the shape invariant
/// every answer passed at ingest time.
fn push_validated(
    log: &mut AnswerLog,
    meta: &TableMeta,
    wal_path: &Path,
    answers: Vec<Answer>,
) -> Result<(), StoreError> {
    let cols = meta.schema.num_columns();
    for (i, a) in answers.into_iter().enumerate() {
        if a.cell.row as usize >= meta.rows || a.cell.col as usize >= cols {
            return Err(StoreError::corrupt(
                wal_path,
                0,
                format!(
                    "recovered answer {i} addresses cell ({}, {}) outside the {}x{cols} table",
                    a.cell.row, a.cell.col, meta.rows
                ),
            ));
        }
        log.push(a);
    }
    Ok(())
}
