//! The per-table **write-ahead log**: an append-only file of length-prefixed,
//! CRC-checksummed binary records that is the table's system of record.
//!
//! ## Frame format
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len bytes)          │
//! └────────────┴────────────┴──────────────────────────────┘
//! payload = kind: u8 ++ body   (tcrowd_tabular::io::binary codec)
//! ```
//!
//! `crc` is the CRC-32 of the payload. Four record kinds exist:
//!
//! * **Create** (`kind 1`) — the table's birth certificate: shape, schema
//!   and service configuration. Always the first record of a WAL.
//! * **Append** (`kind 2`) — a batch of answers. One record per ingest
//!   batch: the batch is the *group-commit unit* — however many answers a
//!   client posts together are framed, checksummed and (policy permitting)
//!   fsynced once.
//! * **Delete** (`kind 3`) — a tombstone. A deleted table's directory is
//!   removed after the tombstone commits; recovery that finds the tombstone
//!   (crash between the two steps) finishes the cleanup instead of
//!   resurrecting the table.
//! * **Quarantine** (`kind 4`) — the complete quarantined-worker set at a
//!   point in the log, with a manual/automatic flag per worker. Records are
//!   *full replacements* (the last one wins), so replay is idempotent and a
//!   record torn off the tail loses only the newest decision, never corrupts
//!   the set. Quarantine excludes a worker from truth inference; it never
//!   touches the answers themselves, which is why it is a separate record
//!   kind and not a rewrite of Append history.
//! * **Segment** (`kind 5`) — the first record of every rotated segment
//!   file (see [`crate::segment`]): `{seq, base_offset, answers_before}`,
//!   chaining the segment to where its predecessor ended. Offsets stay
//!   *logical* (cumulative across segments), so positions and snapshot
//!   offsets are rotation-oblivious.
//!
//! ## Torn tails
//!
//! A crash can leave a partially-written frame at the end of the active
//! segment. Replay tolerates this by construction: decoding stops at the
//! first frame whose header is truncated, whose length is implausible, or
//! whose CRC does not match, and reports the logical offset of the valid
//! prefix — recovery truncates there ([`truncate_to_valid`]) and continues.
//! Rotation only ever happens at record boundaries and fsyncs the outgoing
//! segment, so a tear in a *non-last* segment is rot, not a crash artifact;
//! replay stops there too and recovery drops the later segments (they are
//! unreachable past the tear). An acknowledged batch is never dropped:
//! acknowledgement happens only after its frame is fully written (and
//! flushed/fsynced per [`FsyncPolicy`]), so the frame before any torn bytes
//! is complete.

use crate::crc::crc32;
use crate::io::{real_io, IoHandle};
use crate::obs::{noop_obs, ObsHandle};
use crate::segment::{self, SegmentHeader, KIND_SEGMENT};
use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use tcrowd_tabular::io::binary::{self, Cursor};
use tcrowd_tabular::{Answer, Schema, WorkerId};

/// File name of the per-table WAL inside its table directory.
pub const WAL_FILE: &str = "wal.log";

/// Frame header size: `u32` length + `u32` CRC.
const FRAME_HEADER: u64 = 8;
/// Upper bound on a single record's payload — anything larger is treated as
/// a corrupt length field, not an allocation request.
const MAX_RECORD: u32 = 1 << 30;

const KIND_CREATE: u8 = 1;
const KIND_APPEND: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_QUARANTINE: u8 = 4;
// KIND_SEGMENT (5) lives in `crate::segment`.

/// Human-readable name of a record kind byte (for `inspect`/`verify`).
pub fn record_kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_CREATE => "create",
        KIND_APPEND => "append",
        KIND_DELETE => "delete",
        KIND_QUARANTINE => "quarantine",
        KIND_SEGMENT => "segment",
        _ => "unknown",
    }
}

/// One quarantined worker in a Quarantine record (and in snapshots):
/// who, and whether an operator pinned the decision by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QuarantineEntry {
    /// The quarantined worker.
    pub worker: WorkerId,
    /// `true` when the quarantine was imposed via the manual endpoint —
    /// manual decisions are never auto-released by the trust scorer.
    pub manual: bool,
}

/// Encode a quarantined-worker set (shared between WAL records and
/// snapshots): `count: u32 ++ (worker: u32 ++ flags: u8)*`, flag bit 0 =
/// manual.
pub(crate) fn encode_quarantine(buf: &mut Vec<u8>, entries: &[QuarantineEntry]) {
    binary::put_u32(buf, entries.len() as u32);
    for e in entries {
        binary::put_u32(buf, e.worker.0);
        buf.push(e.manual as u8);
    }
}

/// Decode a quarantined-worker set (see [`encode_quarantine`]). Rejects
/// unknown flag bits so a future format change fails loudly instead of
/// being silently misread.
pub(crate) fn decode_quarantine(
    c: &mut Cursor<'_>,
) -> Result<Vec<QuarantineEntry>, binary::CodecError> {
    let n = c.u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let worker = WorkerId(c.u32()?);
        let flags = c.u8()?;
        if flags > 1 {
            return Err(binary::CodecError {
                at: c.position(),
                message: format!("unknown quarantine flags 0b{flags:b}"),
            });
        }
        entries.push(QuarantineEntry { worker, manual: flags & 1 == 1 });
    }
    Ok(entries)
}

/// When the WAL pushes bytes toward the platters.
///
/// The policy trades ingest throughput against the failure domain the log
/// survives; `bench_persistence` measures all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every committed batch: acknowledged answers survive
    /// power loss. The slowest and strongest option.
    Always,
    /// Flush to the OS after every committed batch (no `fsync`):
    /// acknowledged answers survive a process crash/`SIGKILL` but not a
    /// kernel panic or power cut. The default.
    #[default]
    Flush,
    /// Leave bytes in the user-space buffer until a snapshot or shutdown
    /// forces them out: fastest, survives only a clean close. Snapshots
    /// still flush+fsync the WAL before they are written, so recovery never
    /// sees a snapshot that is ahead of a *durable* WAL without handling it.
    Never,
}

impl FsyncPolicy {
    /// The canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Flush => "flush",
            FsyncPolicy::Never => "never",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Result<FsyncPolicy, String> {
        match name {
            "always" => Ok(FsyncPolicy::Always),
            "flush" => Ok(FsyncPolicy::Flush),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("unknown fsync policy '{other}' (expected always|flush|never)")),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a table needs beyond its answers: shape, schema, and the
/// service-layer configuration as opaque key/value pairs (the store does not
/// interpret them, so the service can evolve its config without a WAL
/// format change).
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Table height (the schema fixes the width).
    pub rows: usize,
    /// The table schema.
    pub schema: Schema,
    /// Service configuration, sorted key/value pairs.
    pub config: Vec<(String, String)>,
}

impl TableMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        binary::put_u64(buf, self.rows as u64);
        binary::put_schema(buf, &self.schema);
        binary::put_u32(buf, self.config.len() as u32);
        for (k, v) in &self.config {
            binary::put_str(buf, k);
            binary::put_str(buf, v);
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<TableMeta, binary::CodecError> {
        let rows = c.u64()? as usize;
        let schema = binary::get_schema(c)?;
        let n = c.u32()? as usize;
        let mut config = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let k = c.str()?;
            let v = c.str()?;
            config.push((k, v));
        }
        Ok(TableMeta { rows, schema, config })
    }
}

/// Encode a [`TableMeta`] with the WAL's codec (shared with snapshots).
pub(crate) fn encode_meta(buf: &mut Vec<u8>, meta: &TableMeta) {
    meta.encode(buf)
}

/// Decode a [`TableMeta`] with the WAL's codec (shared with snapshots).
pub(crate) fn decode_meta(c: &mut Cursor<'_>) -> Result<TableMeta, binary::CodecError> {
    TableMeta::decode(c)
}

/// A committed position in the WAL: logical byte length of the segment
/// chain and the number of answers every record up to there carries.
/// Snapshots persist the pair so recovery can resume decoding at `offset`
/// instead of at byte zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalPosition {
    /// Byte offset just past the last committed record.
    pub offset: u64,
    /// Total answers appended up to `offset`.
    pub answers: u64,
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER as usize);
    binary::put_u32(&mut out, payload.len() as u32);
    binary::put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Best-effort directory fsync so a rename/create survives power loss on
/// filesystems that need it; ignored on platforms where directories cannot
/// be opened.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// An open, appendable WAL.
///
/// Buffering is managed explicitly (`buf`) rather than through a
/// `BufWriter`: when an append fails, the buffered bytes of the failed
/// frame must be *discarded*, and `BufWriter` would flush them on drop —
/// turning a NACKed batch into durable, CRC-valid, acknowledged-looking
/// data after the next restart.
pub struct Wal {
    file: File,
    /// Frames committed to the caller but not yet written to the file
    /// (non-empty only under [`FsyncPolicy::Never`] between syncs).
    buf: Vec<u8>,
    /// The table directory (segments live here).
    dir: PathBuf,
    /// Path of the **active** segment file.
    path: PathBuf,
    /// Active segment sequence number.
    seg_seq: u64,
    /// Logical offset of the active segment's physical byte 0.
    seg_base: u64,
    /// Rotate once the active segment reaches this many physical bytes.
    segment_max: u64,
    /// Logical offset (cumulative across segments) just past the last
    /// committed record.
    offset: u64,
    answers: u64,
    policy: FsyncPolicy,
    /// All file writes/fsyncs go through this handle ([`crate::io`]).
    io: IoHandle,
    /// Timing observations (append / fsync durations) go through this sink
    /// ([`crate::obs`]); defaults to the free no-op.
    obs: ObsHandle,
    /// Set when an append failed mid-record: an unknown number of bytes of
    /// the failed frame may already sit in the file, so any further write
    /// would land *after* garbage and be unrecoverable. A poisoned WAL
    /// refuses all writes and syncs; recovery (replay + torn-tail
    /// truncation) is the only way back.
    poisoned: bool,
}

/// `Never`-policy frames accumulate in memory up to this many bytes before
/// they are written to the OS in one call.
const NEVER_BUF_BYTES: usize = 256 * 1024;

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("segment", &self.seg_seq)
            .field("offset", &self.offset)
            .field("answers", &self.answers)
            .field("policy", &self.policy)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Wal {
    /// Create a fresh WAL in `dir` and durably write the Create record.
    /// Fails if a WAL already exists there (a table id is claimed exactly
    /// once). Creation is always flushed+fsynced regardless of policy:
    /// tables are born durable.
    pub fn create(dir: &Path, meta: &TableMeta, policy: FsyncPolicy) -> Result<Wal, StoreError> {
        Wal::create_with_io(dir, meta, policy, real_io())
    }

    /// [`Wal::create`] with an explicit [`IoHandle`] (fault injection).
    pub fn create_with_io(
        dir: &Path,
        meta: &TableMeta,
        policy: FsyncPolicy,
        io: IoHandle,
    ) -> Result<Wal, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        let mut payload = vec![KIND_CREATE];
        meta.encode(&mut payload);
        let bytes = frame(&payload);
        let mut wal = Wal {
            file,
            buf: Vec::new(),
            dir: dir.to_path_buf(),
            path,
            seg_seq: 0,
            seg_base: 0,
            segment_max: segment::SEGMENT_MAX_DEFAULT,
            offset: 0,
            answers: 0,
            policy,
            io,
            obs: noop_obs(),
            poisoned: false,
        };
        wal.buf.extend_from_slice(&bytes);
        wal.guarded(|w| {
            w.write_buf()?;
            w.io.sync_data(&w.path, &w.file)
        })?;
        wal.offset = bytes.len() as u64;
        sync_dir(dir);
        Ok(wal)
    }

    /// Reopen a recovered WAL for appending. `path` is the table's
    /// `wal.log` path (the directory is what matters — the **last** segment
    /// of the chain is the one opened); `position` is the validated logical
    /// prefix the caller just replayed (and truncated to); appends continue
    /// from there.
    pub fn open_for_append(
        path: impl Into<PathBuf>,
        position: WalPosition,
        policy: FsyncPolicy,
    ) -> Result<Wal, StoreError> {
        Wal::open_for_append_with_io(path, position, policy, real_io())
    }

    /// [`Wal::open_for_append`] with an explicit [`IoHandle`] (fault
    /// injection).
    pub fn open_for_append_with_io(
        path: impl Into<PathBuf>,
        position: WalPosition,
        policy: FsyncPolicy,
        io: IoHandle,
    ) -> Result<Wal, StoreError> {
        let path = path.into();
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
        let scan = segment::scan_segments(&dir)?;
        let (active, seg_seq, seg_base) = match scan.segments.last() {
            Some(last) => (last.path.clone(), last.seq, last.base),
            None => (path.clone(), 0, 0),
        };
        let mut file = OpenOptions::new().write(true).open(&active)?;
        let len = file.metadata()?.len();
        if seg_base + len != position.offset {
            return Err(StoreError::corrupt(
                &active,
                position.offset,
                format!(
                    "cannot append at logical offset {}: active segment {} spans {}..{}",
                    position.offset,
                    seg_seq,
                    seg_base,
                    seg_base + len
                ),
            ));
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            buf: Vec::new(),
            dir,
            path: active,
            seg_seq,
            seg_base,
            segment_max: segment::SEGMENT_MAX_DEFAULT,
            offset: position.offset,
            answers: position.answers,
            policy,
            io,
            obs: noop_obs(),
            poisoned: false,
        })
    }

    /// Path of the active segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The table directory the segment chain lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Override the rotation threshold (bytes of the active segment).
    /// `u64::MAX` disables rotation (used by `rewrite_wal`, whose output
    /// must be a single fresh segment).
    pub fn set_segment_max(&mut self, max: u64) {
        self.segment_max = max.max(1);
    }

    /// The rotation threshold (bytes of the active segment).
    pub(crate) fn segment_max(&self) -> u64 {
        self.segment_max
    }

    /// The committed position (grows with every append).
    pub fn position(&self) -> WalPosition {
        WalPosition { offset: self.offset, answers: self.answers }
    }

    /// Whether a failed write has poisoned this WAL (see [`Wal`] docs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The fsync policy this WAL was opened with (so a repair path can
    /// reopen a rebuilt log under the same durability contract).
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Route append/fsync timing observations to `obs` (default: no-op).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// `sync_data` through the io handle, reporting the duration of a
    /// successful fsync to the obs sink.
    fn timed_sync(&self) -> std::io::Result<()> {
        let t = std::time::Instant::now();
        let res = self.io.sync_data(&self.path, &self.file);
        if res.is_ok() {
            self.obs.wal_fsync_ns(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        res
    }

    fn check_poisoned(&self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::corrupt(
                &self.path,
                self.offset,
                "WAL poisoned by an earlier failed write; restart (crash recovery truncates \
                 the partial frame) before writing again"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Push the owned buffer into the OS. On a partial-write error the file
    /// holds an unknown prefix of it — the caller (always [`Self::guarded`])
    /// must poison.
    fn write_buf(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.io.write_all(&self.path, &mut self.file, &self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Run `op`; on any error, poison the WAL and **discard the buffer** so
    /// no later write or sync can make a NACKed frame durable. Bytes the
    /// failed write already placed in the file are covered by CRC
    /// truncation at recovery.
    fn guarded<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> std::io::Result<T>,
    ) -> Result<T, StoreError> {
        match op(self) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = true;
                self.buf.clear();
                Err(e.into())
            }
        }
    }

    fn commit(&mut self) -> std::io::Result<()> {
        match self.policy {
            FsyncPolicy::Always => {
                self.write_buf()?;
                self.timed_sync()
            }
            FsyncPolicy::Flush => self.write_buf(),
            FsyncPolicy::Never => {
                if self.buf.len() >= NEVER_BUF_BYTES {
                    self.write_buf()?;
                }
                Ok(())
            }
        }
    }

    /// Append one batch of answers as a single group-committed record.
    /// Returns the position after the record — only once this returns may
    /// the batch be acknowledged to the client.
    pub fn append_answers(&mut self, batch: &[Answer]) -> Result<WalPosition, StoreError> {
        let positions = self.append_group(&[batch])?;
        Ok(positions[0])
    }

    /// Append many batches — one frame each — under a **single** commit
    /// (one flush/fsync for the whole group, per policy). Returns the
    /// per-batch positions, in order; only once this returns may any of the
    /// batches be acknowledged. This is the commit thread's
    /// ([`crate::GroupCommit`]) primitive: coalescing is what closes the
    /// `fsync=always` throughput gap. Batches whose encoding would exceed
    /// the replay sanity bound are rejected up front (they could be written
    /// but never read back).
    pub fn append_group(&mut self, batches: &[&[Answer]]) -> Result<Vec<WalPosition>, StoreError> {
        self.check_poisoned()?;
        let t = std::time::Instant::now();
        let mut positions = Vec::with_capacity(batches.len());
        let mut offset = self.offset;
        let mut answers = self.answers;
        let staged = self.buf.len();
        for batch in batches {
            let mut payload = vec![KIND_APPEND];
            binary::put_answers(&mut payload, batch);
            if payload.len() as u64 > MAX_RECORD as u64 {
                // Reject the whole group without staging anything new.
                self.buf.truncate(staged);
                return Err(StoreError::corrupt(
                    &self.path,
                    self.offset,
                    format!(
                        "batch of {} answers encodes to {} bytes, above the {} record bound — \
                         split it",
                        batch.len(),
                        payload.len(),
                        MAX_RECORD
                    ),
                ));
            }
            let bytes = frame(&payload);
            self.buf.extend_from_slice(&bytes);
            offset += bytes.len() as u64;
            answers += batch.len() as u64;
            positions.push(WalPosition { offset, answers });
        }
        self.guarded(Wal::commit)?;
        self.offset = offset;
        self.answers = answers;
        self.obs.wal_append_ns(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        // Rotation failure does NOT fail the append: the group is already
        // durable per policy and will be acknowledged; the failed rotation
        // poisons the WAL so the *next* write degrades loudly instead. The
        // inverse (failing an already-durable append) would let recovery
        // resurrect a NACKed batch.
        let _ = self.maybe_rotate();
        Ok(positions)
    }

    /// Rotate the active segment once it crosses the size trigger: fsync it
    /// (it becomes immutable), then tmp-write + fsync + rename a new
    /// segment starting with a Segment header record, and switch appends
    /// over. Any failure poisons the WAL — half a rotation must not accept
    /// further writes.
    fn maybe_rotate(&mut self) -> Result<(), StoreError> {
        if self.offset - self.seg_base < self.segment_max || self.poisoned {
            return Ok(());
        }
        // The outgoing segment becomes a *middle* segment, which replay
        // assumes is complete on disk — flush and fsync it regardless of
        // policy before the new segment exists.
        self.guarded(|w| {
            w.write_buf()?;
            w.io.sync_data(&w.path, &w.file)
        })?;
        let seq = self.seg_seq + 1;
        let name = segment::segment_file_name(seq);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        let header = SegmentHeader { seq, base_offset: self.offset, answers_before: self.answers };
        let mut payload = vec![KIND_SEGMENT];
        segment::encode_header_body(&mut payload, &header);
        let bytes = frame(&payload);
        let io = self.io.clone();
        let result = (|| -> std::io::Result<File> {
            match std::fs::remove_file(&tmp_path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            let mut f =
                OpenOptions::new().write(true).create(true).truncate(true).open(&tmp_path)?;
            io.write_all(&tmp_path, &mut f, &bytes)?;
            io.sync_data(&tmp_path, &f)?;
            io.rename(&tmp_path, &final_path)?;
            sync_dir(&self.dir);
            let mut f = OpenOptions::new().write(true).open(&final_path)?;
            f.seek(SeekFrom::End(0))?;
            Ok(f)
        })();
        match result {
            Ok(file) => {
                self.file = file;
                self.path = final_path;
                self.seg_seq = seq;
                self.seg_base = self.offset;
                self.offset += bytes.len() as u64;
                self.obs.wal_segments(segment::count_segments(&self.dir));
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                self.buf.clear();
                Err(e.into())
            }
        }
    }

    /// Append a Quarantine record carrying the **complete** quarantined
    /// worker set (`entries` need not be sorted; the record is normalised).
    /// Always flushed and fsynced regardless of policy: a quarantine is a
    /// safety decision — losing it to a buffered crash would re-admit a
    /// known-bad worker's answers to truth inference after recovery.
    pub fn append_quarantine(
        &mut self,
        entries: &[QuarantineEntry],
    ) -> Result<WalPosition, StoreError> {
        self.check_poisoned()?;
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        sorted.dedup_by_key(|e| e.worker);
        let mut payload = vec![KIND_QUARANTINE];
        encode_quarantine(&mut payload, &sorted);
        let bytes = frame(&payload);
        self.buf.extend_from_slice(&bytes);
        self.guarded(|w| {
            w.write_buf()?;
            w.timed_sync()
        })?;
        self.offset += bytes.len() as u64;
        let pos = self.position();
        let _ = self.maybe_rotate();
        Ok(pos)
    }

    /// Append the deletion tombstone. Tombstones are always flushed and
    /// fsynced — a table must not resurrect because its deletion was sitting
    /// in a buffer.
    pub fn append_delete(&mut self) -> Result<(), StoreError> {
        self.check_poisoned()?;
        let payload = vec![KIND_DELETE];
        let bytes = frame(&payload);
        self.buf.extend_from_slice(&bytes);
        self.guarded(|w| {
            w.write_buf()?;
            w.timed_sync()
        })?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Flush buffered bytes to the OS and fsync, regardless of policy.
    /// Snapshot writers call this first so a snapshot never refers to WAL
    /// bytes that are less durable than itself. Refuses on a poisoned WAL —
    /// syncing one could promote the partial frame of a NACKed batch.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "WAL poisoned by an earlier failed write; refusing to sync",
            ));
        }
        let res = (|| {
            self.write_buf()?;
            self.timed_sync()
        })();
        if res.is_err() {
            self.poisoned = true;
            self.buf.clear();
        }
        res
    }
}

/// What the first frame of a WAL file looks like — the evidence
/// [`crate::Store`] uses to tell a crashed, never-acknowledged
/// `create_table` from a table whose durable head later rotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateProbe {
    /// A complete, checksummed Create record: the table exists.
    Valid,
    /// The file is missing, empty, or **ends mid-frame**: the single
    /// `write_all + fsync` of [`Wal::create`] never completed, so the
    /// creation was never acknowledged to any client — safe to
    /// garbage-collect.
    AbortedCreation,
    /// The file holds at least the full length its first frame declares,
    /// but the frame does not decode as a valid Create (bad checksum, bad
    /// kind, implausible header). A completed creation that later rotted —
    /// must surface as corruption, never be silently deleted.
    Corrupt,
}

/// Probe the first frame of `path` (reading only that frame); see
/// [`CreateProbe`] for how the verdicts are told apart.
pub fn probe_create(path: &Path) -> std::io::Result<CreateProbe> {
    let mut file = match File::open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(CreateProbe::AbortedCreation)
        }
        other => other?,
    };
    let file_len = file.metadata()?.len();
    if file_len < FRAME_HEADER {
        return Ok(CreateProbe::AbortedCreation);
    }
    let mut head = [0u8; FRAME_HEADER as usize];
    file.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD {
        // A garbage length field on a file long enough to hold a header is
        // indistinguishable from rot; never auto-delete it.
        return Ok(CreateProbe::Corrupt);
    }
    if file_len < FRAME_HEADER + len as u64 {
        return Ok(CreateProbe::AbortedCreation);
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload)?;
    if crc32(&payload) == crc && payload.first() == Some(&KIND_CREATE) {
        Ok(CreateProbe::Valid)
    } else {
        Ok(CreateProbe::Corrupt)
    }
}

/// Where and why replay stopped before the end of the file.
#[derive(Debug, Clone, PartialEq)]
pub struct TornTail {
    /// Byte offset of the first invalid frame — the valid prefix ends here.
    pub at: u64,
    /// Bytes from `at` to the end of the file that were dropped.
    pub dropped_bytes: u64,
    /// Human-readable cause (truncated header, bad CRC, …).
    pub reason: String,
}

/// One decoded record's bookkeeping (for `verify`/`inspect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordInfo {
    /// Record kind byte.
    pub kind: u8,
    /// Byte offset just past this record.
    pub end_offset: u64,
    /// Cumulative answers including this record.
    pub answers_after: u64,
}

/// The result of replaying a WAL (or a tail of one).
#[derive(Debug)]
pub struct WalReplay {
    /// The Create record's metadata (`None` when replaying a tail, or when
    /// the head of the file is unreadable).
    pub meta: Option<TableMeta>,
    /// Every answer in the valid prefix, in append order.
    pub answers: Vec<Answer>,
    /// Per-record bookkeeping, in file order.
    pub records: Vec<RecordInfo>,
    /// Whether a deletion tombstone was found.
    pub deleted: bool,
    /// The latest quarantined-worker set in the valid prefix (`None` when no
    /// Quarantine record was seen — for a tail replay that means "whatever
    /// the snapshot said still stands", which is why this is not an empty
    /// `Vec`).
    pub quarantine: Option<Vec<QuarantineEntry>>,
    /// Logical offset where this replay started: 0 for an intact chain,
    /// the first surviving segment's base after head compaction, the tail
    /// offset for [`replay_tail`].
    pub base_offset: u64,
    /// Answers committed before `base_offset` (0 for tail replays, whose
    /// caller knows its own epoch).
    pub base_answers: u64,
    /// Logical byte length of the valid prefix (absolute, even for tail
    /// replays).
    pub valid_len: u64,
    /// Present when the chain extends past the valid prefix.
    pub torn: Option<TornTail>,
}

/// Replay a whole WAL segment chain. `path` is the table's `wal.log` path;
/// the sibling rotated segments are discovered and chained automatically.
/// For an intact chain the first record must be a valid Create; for a
/// head-compacted chain (`wal.log` deleted, rotated segments remain) the
/// replay starts at the first surviving segment's base and `meta` is
/// `None` — the caller must have a snapshot to recover from.
pub fn replay(path: &Path) -> Result<WalReplay, StoreError> {
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
    let scan = segment::scan_segments(&dir)?;
    if scan.segments.is_empty() {
        // No recognisable segments: preserve the single-file behaviour
        // (including the NotFound error for a missing file).
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        return Ok(decode_records(&bytes, 0, Some(0), true));
    }
    let base = scan.base_offset();
    let mut bytes = Vec::with_capacity((scan.end_offset() - base) as usize);
    for seg in &scan.segments {
        File::open(&seg.path)?.read_to_end(&mut bytes)?;
    }
    let mut out = decode_records(&bytes, base, Some(scan.base_answers()), !scan.head_compacted());
    if out.torn.is_none() {
        if let Some(reason) = scan.orphan_reason {
            // Chain-valid bytes end cleanly but orphaned segment files sit
            // past the end — report them as the torn tail so recovery's
            // truncation pass cleans them up.
            out.torn = Some(TornTail { at: out.valid_len, dropped_bytes: 0, reason });
        }
    }
    Ok(out)
}

/// Replay only the records at and after logical byte `offset` — the
/// snapshot-assisted recovery path. The caller owns the claim that `offset`
/// is a record boundary; a wrong claim fails the first CRC and surfaces as
/// a torn tail at `offset`, which the caller must treat as "fall back to a
/// full replay", not as data loss.
pub fn replay_tail(path: &Path, offset: u64) -> Result<WalReplay, StoreError> {
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
    let scan = segment::scan_segments(&dir)?;
    if scan.segments.is_empty() {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if offset > len {
            return Err(StoreError::corrupt(
                path,
                offset,
                format!("tail offset {offset} beyond the {len}-byte file"),
            ));
        }
        file.seek(SeekFrom::Start(offset))?;
        let mut bytes = Vec::with_capacity((len - offset) as usize);
        file.read_to_end(&mut bytes)?;
        return Ok(decode_records(&bytes, offset, None, false));
    }
    let end = scan.end_offset();
    if offset > end {
        return Err(StoreError::corrupt(
            path,
            offset,
            format!("tail offset {offset} beyond the {end}-byte chain"),
        ));
    }
    if offset < scan.base_offset() {
        return Err(StoreError::corrupt(
            path,
            offset,
            format!(
                "tail offset {offset} is below the compacted chain head {}",
                scan.base_offset()
            ),
        ));
    }
    // The last segment whose base is at or below the offset holds it.
    let idx = scan
        .segments
        .iter()
        .rposition(|s| s.base <= offset)
        .expect("offset >= base_offset implies a containing segment");
    let mut bytes = Vec::with_capacity((end - offset) as usize);
    for (i, seg) in scan.segments.iter().enumerate().skip(idx) {
        let mut file = File::open(&seg.path)?;
        if i == idx {
            file.seek(SeekFrom::Start(offset - seg.base))?;
        }
        file.read_to_end(&mut bytes)?;
    }
    Ok(decode_records(&bytes, offset, None, false))
}

fn decode_records(
    bytes: &[u8],
    base_offset: u64,
    base_answers: Option<u64>,
    expect_create: bool,
) -> WalReplay {
    let abs_base = base_answers.unwrap_or(0);
    let mut out = WalReplay {
        meta: None,
        answers: Vec::new(),
        records: Vec::new(),
        deleted: false,
        quarantine: None,
        base_offset,
        base_answers: abs_base,
        valid_len: base_offset,
        torn: None,
    };
    let total = bytes.len() as u64;
    let mut pos = 0u64;
    let torn = |at: u64, reason: String| TornTail {
        at: base_offset + at,
        dropped_bytes: total - at,
        reason,
    };
    while pos < total {
        let remaining = total - pos;
        if remaining < FRAME_HEADER {
            out.torn = Some(torn(pos, format!("truncated frame header ({remaining} bytes)")));
            break;
        }
        let head = &bytes[pos as usize..(pos + FRAME_HEADER) as usize];
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD || len as u64 > remaining - FRAME_HEADER {
            out.torn = Some(torn(pos, format!("implausible record length {len}")));
            break;
        }
        let start = (pos + FRAME_HEADER) as usize;
        let payload = &bytes[start..start + len as usize];
        if crc32(payload) != crc {
            out.torn = Some(torn(pos, "checksum mismatch".into()));
            break;
        }
        let mut c = Cursor::new(payload);
        let kind = match c.u8() {
            Ok(k) => k,
            Err(e) => {
                out.torn = Some(torn(pos, format!("empty payload: {e}")));
                break;
            }
        };
        let is_first = out.records.is_empty();
        let decode_failure = match kind {
            KIND_CREATE => {
                if !expect_create || !is_first {
                    Some("unexpected create record".to_string())
                } else {
                    match TableMeta::decode(&mut c) {
                        Ok(meta) if c.is_empty() => {
                            out.meta = Some(meta);
                            None
                        }
                        Ok(_) => Some("trailing bytes after create record".into()),
                        Err(e) => Some(format!("undecodable create record: {e}")),
                    }
                }
            }
            KIND_APPEND => {
                if expect_create && is_first {
                    Some("first record is not a create record".to_string())
                } else if out.deleted {
                    Some("append after deletion tombstone".to_string())
                } else {
                    match binary::get_answers(&mut c) {
                        Ok(batch) if c.is_empty() => {
                            out.answers.extend(batch);
                            None
                        }
                        Ok(_) => Some("trailing bytes after append record".into()),
                        Err(e) => Some(format!("undecodable append record: {e}")),
                    }
                }
            }
            KIND_DELETE => {
                if expect_create && is_first {
                    Some("first record is not a create record".to_string())
                } else {
                    out.deleted = true;
                    None
                }
            }
            KIND_QUARANTINE => {
                if expect_create && is_first {
                    Some("first record is not a create record".to_string())
                } else if out.deleted {
                    Some("quarantine after deletion tombstone".to_string())
                } else {
                    match decode_quarantine(&mut c) {
                        // Full-replacement semantics: the last record wins.
                        Ok(entries) if c.is_empty() => {
                            out.quarantine = Some(entries);
                            None
                        }
                        Ok(_) => Some("trailing bytes after quarantine record".into()),
                        Err(e) => Some(format!("undecodable quarantine record: {e}")),
                    }
                }
            }
            KIND_SEGMENT => {
                if expect_create && is_first {
                    Some("first record is not a create record".to_string())
                } else {
                    match segment::decode_header_body(&mut c) {
                        Ok(h) if c.is_empty() => {
                            let at = base_offset + pos;
                            if h.base_offset != at {
                                Some(format!(
                                    "segment header claims base offset {} at logical offset {at}",
                                    h.base_offset
                                ))
                            } else if base_answers
                                .is_some_and(|b| h.answers_before != b + out.answers.len() as u64)
                            {
                                Some(format!(
                                    "segment header claims {} answers before it; the chain \
                                     carries {}",
                                    h.answers_before,
                                    abs_base + out.answers.len() as u64
                                ))
                            } else {
                                None
                            }
                        }
                        Ok(_) => Some("trailing bytes after segment header".into()),
                        Err(e) => Some(format!("undecodable segment header: {e}")),
                    }
                }
            }
            other => Some(format!("unknown record kind {other}")),
        };
        if let Some(reason) = decode_failure {
            out.torn = Some(torn(pos, reason));
            break;
        }
        pos += FRAME_HEADER + len as u64;
        out.valid_len = base_offset + pos;
        out.records.push(RecordInfo {
            kind,
            end_offset: out.valid_len,
            answers_after: abs_base + out.answers.len() as u64,
        });
    }
    out
}

/// Enforce a replayed valid prefix on disk: truncate the segment containing
/// logical offset `valid_len`, delete every later segment, and clear
/// orphaned segment files and rotation residue. Idempotent and cheap when
/// there is nothing to drop; recovery runs it after every replay.
pub fn truncate_to_valid(dir: &Path, valid_len: u64) -> Result<(), StoreError> {
    let scan = segment::scan_segments(dir)?;
    for orphan in &scan.orphans {
        std::fs::remove_file(orphan)?;
    }
    segment::remove_stale_tmp(dir)?;
    for seg in &scan.segments {
        if seg.seq != 0 && seg.base >= valid_len {
            // Entirely past the prefix: the whole segment goes. (Segment 0
            // is kept and truncated instead — `wal.log` existing, possibly
            // empty, is what marks a non-head-compacted table.)
            std::fs::remove_file(&seg.path)?;
        } else if seg.base + seg.len > valid_len {
            let keep = valid_len.saturating_sub(seg.base);
            let f = std::fs::OpenOptions::new().write(true).open(&seg.path)?;
            f.set_len(keep)?;
            f.sync_data()?;
        }
    }
    sync_dir(dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{CellId, Column, ColumnType, Value, WorkerId};

    fn meta() -> TableMeta {
        TableMeta {
            rows: 4,
            schema: Schema::new(
                "t",
                "k",
                vec![
                    Column::new("c", ColumnType::categorical_with_cardinality(3)),
                    Column::new("x", ColumnType::Continuous { min: 0.0, max: 1.0 }),
                ],
            ),
            config: vec![("policy".into(), "structure-aware".into()), ("seed".into(), "1".into())],
        }
    }

    fn answer(i: u32) -> Answer {
        Answer {
            worker: WorkerId(i % 5),
            cell: CellId::new(i % 4, i % 2),
            value: if i % 2 == 0 {
                Value::Categorical(i % 3)
            } else {
                Value::Continuous(0.1 * i as f64)
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("tcrowd_store_wal_tests")
            .join(format!("{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_batches_and_positions() {
        let dir = tmp("roundtrip");
        let m = meta();
        let mut wal = Wal::create(&dir, &m, FsyncPolicy::Flush).unwrap();
        let batches: Vec<Vec<Answer>> =
            vec![(0..3).map(answer).collect(), vec![], (3..8).map(answer).collect()];
        let mut positions = vec![wal.position()];
        for b in &batches {
            positions.push(wal.append_answers(b).unwrap());
        }
        assert_eq!(positions.last().unwrap().answers, 8);
        drop(wal);
        let replayed = replay(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(replayed.meta.as_ref(), Some(&m));
        let expected: Vec<Answer> = batches.concat();
        assert_eq!(replayed.answers, expected);
        assert!(replayed.torn.is_none());
        assert!(!replayed.deleted);
        // Record boundaries line up with the positions the writer reported.
        let ends: Vec<u64> = replayed.records.iter().map(|r| r.end_offset).collect();
        assert_eq!(ends, positions.iter().map(|p| p.offset).collect::<Vec<_>>());
        // Tail replay from any committed position yields exactly the rest.
        for (i, p) in positions.iter().enumerate() {
            let tail = replay_tail(&dir.join(WAL_FILE), p.offset).unwrap();
            let expect: Vec<Answer> = batches[i..].concat();
            assert_eq!(tail.answers, expect, "tail from position {i}");
            assert!(tail.torn.is_none());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_at_first_bad_checksum() {
        let dir = tmp("torn");
        let m = meta();
        let mut wal = Wal::create(&dir, &m, FsyncPolicy::Always).unwrap();
        let p1 = wal.append_answers(&(0..4).map(answer).collect::<Vec<_>>()).unwrap();
        let p2 = wal.append_answers(&(4..9).map(answer).collect::<Vec<_>>()).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, p2.offset);

        // Cut anywhere strictly inside the second record: replay must return
        // exactly the first batch and report the torn tail at p1.
        for cut in (p1.offset + 1)..p2.offset {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let r = replay(&path).unwrap();
            assert_eq!(r.answers.len(), 4, "cut at {cut}");
            assert_eq!(r.valid_len, p1.offset);
            let torn = r.torn.expect("torn tail reported");
            assert_eq!(torn.at, p1.offset);
            assert_eq!(torn.dropped_bytes, cut - p1.offset);
        }

        // A flipped byte inside the *first* record drops everything after it.
        let mut flipped = full.clone();
        flipped[(p1.offset - 3) as usize] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.answers.len(), 0);
        assert!(r.torn.unwrap().reason.contains("checksum"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_tombstone_and_reopen_for_append() {
        let dir = tmp("delete");
        let m = meta();
        let mut wal = Wal::create(&dir, &m, FsyncPolicy::Never).unwrap();
        wal.append_answers(&[answer(0)]).unwrap();
        wal.sync().unwrap();
        let pos = wal.position();
        drop(wal);
        // Reopen and continue appending.
        let mut wal = Wal::open_for_append(dir.join(WAL_FILE), pos, FsyncPolicy::Always).unwrap();
        wal.append_answers(&[answer(1), answer(2)]).unwrap();
        wal.append_delete().unwrap();
        drop(wal);
        let r = replay(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(r.answers.len(), 3);
        assert!(r.deleted);
        assert!(r.torn.is_none());
        // Reopening at a stale position is rejected.
        assert!(Wal::open_for_append(dir.join(WAL_FILE), pos, FsyncPolicy::Flush).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_records_replace_and_survive_replay() {
        let dir = tmp("quarantine");
        let m = meta();
        let mut wal = Wal::create(&dir, &m, FsyncPolicy::Flush).unwrap();
        wal.append_answers(&(0..4).map(answer).collect::<Vec<_>>()).unwrap();
        let q1 = vec![
            QuarantineEntry { worker: WorkerId(3), manual: false },
            QuarantineEntry { worker: WorkerId(1), manual: true },
        ];
        wal.append_quarantine(&q1).unwrap();
        wal.append_answers(&(4..6).map(answer).collect::<Vec<_>>()).unwrap();
        // A later record replaces the whole set.
        let q2 = vec![QuarantineEntry { worker: WorkerId(1), manual: true }];
        let p_before_last = wal.position();
        wal.append_quarantine(&q2).unwrap();
        drop(wal);
        let r = replay(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(r.answers.len(), 6, "quarantine records carry no answers");
        assert_eq!(r.quarantine, Some(q2.clone()), "last record wins");
        assert!(r.torn.is_none());
        // Entries come back sorted by worker regardless of append order.
        let tail = replay_tail(&dir.join(WAL_FILE), 0).is_ok();
        assert!(tail);
        let head = replay_tail(&dir.join(WAL_FILE), p_before_last.offset).unwrap();
        assert_eq!(head.quarantine, Some(q2));
        // A tail that saw no quarantine record reports None, not empty.
        let full = replay(&dir.join(WAL_FILE)).unwrap();
        let first_q = full.records.iter().find(|rec| rec.kind == KIND_QUARANTINE).unwrap();
        let no_q_tail = replay_tail(&dir.join(WAL_FILE), first_q.end_offset).unwrap();
        assert_eq!(no_q_tail.answers.len(), 2);
        // The second quarantine record is after this offset, so it IS seen;
        // cut the file right before it to get a quarantine-free tail.
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        std::fs::write(dir.join(WAL_FILE), &bytes[..p_before_last.offset as usize]).unwrap();
        let cut_tail = replay_tail(&dir.join(WAL_FILE), first_q.end_offset).unwrap();
        assert_eq!(cut_tail.quarantine, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_logs_that_do_not_start_with_create() {
        let dir = tmp("nocreate");
        // A file whose first frame is an append record: valid CRC, wrong kind.
        let mut payload = vec![KIND_APPEND];
        binary::put_answers(&mut payload, &[answer(0)]);
        std::fs::write(dir.join(WAL_FILE), frame(&payload)).unwrap();
        let r = replay(&dir.join(WAL_FILE)).unwrap();
        assert!(r.meta.is_none());
        assert_eq!(r.valid_len, 0);
        assert!(r.torn.unwrap().reason.contains("not a create record"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
