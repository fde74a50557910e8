//! # tcrowd-store
//!
//! The **durability subsystem**: crowd answers are expensive and
//! unrepeatable, so the answer log — the system of record every posterior,
//! freeze and EM fit is a pure function of (paper §5, Algorithm 2) — must
//! survive process death. This crate gives each served table:
//!
//! * a per-table append-only **write-ahead log** ([`wal`]) of
//!   length-prefixed, CRC-32-checksummed binary records (table create,
//!   answer-batch append, quarantine set, deletion tombstone), rotated into
//!   segments ([`segment`]), with a group-commit thread ([`commit`]) and a
//!   configurable [`FsyncPolicy`];
//! * an incremental **snapshot chain** ([`snapshot`]): a base of
//!   `(log@epoch, warm-startable fit parameters, WAL offset)` plus delta
//!   links holding only the answers since the previous element, so
//!   recovery replays only the WAL tail and republishes the stored fit
//!   instead of re-running EM;
//! * one owner of a live table's files ([`TableStore`], in [`table`]): the
//!   open WAL and its commit thread, the durable watermark, and the chain's
//!   writer — delta or base, stale-delta removal, cold-segment compaction
//!   and the rewrite of a poisoned WAL;
//! * **crash recovery** ([`Store::recover_all`]) that tolerates torn tails
//!   (truncate at the first bad checksum) and reconstructs a bit-identical
//!   [`tcrowd_tabular::AnswerLog`] — exactly the acknowledged prefix — and
//!   the offline tools behind `tcrowd store {inspect,verify,compact}`.
//!
//! ```text
//! ingest batch ──▶ commit thread: wal.append_group (frame + CRC +
//!                  flush/fsync) ──▶ sink ──▶ ack
//!                        │           refresher, after publish:
//!                        │           TableStore::persist (chain delta, or
//!                        ▼           a fresh base; tmp+rename)
//!        crash ▶ Store::recover_table:
//!          fold the snapshot chain ──▶ replay WAL tail from its offset
//!          (none/corrupt ──▶ full replay from byte 0)
//!          truncate torn tail at first bad checksum
//!          AnswerLog (bit-identical) + FitParams (Recovered::covering_fit:
//!          republished only when no WAL tail was replayed)
//! ```
//!
//! Everything is `std`-only and hand-rolled (the build environment has no
//! `serde`); the byte-level codec lives in `tcrowd_tabular::io::binary` so
//! the answer wire format is owned by the storage crate that owns the
//! in-memory answer types.
//!
//! The store is deliberately **service-agnostic**: it persists a
//! [`TableMeta`] (shape + schema + opaque config key/values), batches of
//! answers and published fits, and knows nothing about HTTP, policies or
//! refresh cadences — `tcrowd-service` holds one [`TableStore`] per
//! durable table and decides when to persist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod crc;
pub mod io;
pub mod obs;
pub mod segment;
pub mod snapshot;
pub mod store;
pub mod table;
pub mod wal;

pub use commit::{
    CommitSink, CommitStatsView, CommittedBatch, DurableMark, GroupCommit, MarkSink, Ticket,
};
pub use crc::crc32;
pub use io::{
    real_io, Fault, FaultKind, FaultOp, FaultyIo, IoHandle, RealIo, StoreIo, EIO, ENOSPC,
};
pub use obs::{noop_obs, NoopObs, ObsHandle, ObsSink};
pub use segment::{
    compact_cold_segments, count_segments, parse_segment_file_name, scan_segments,
    segment_file_name, SegmentInfo, SegmentScan, SEGMENT_MAX_DEFAULT,
};
pub use snapshot::{
    read_snapshot, read_snapshot_chain, remove_snapshot, remove_snapshot_deltas, write_snapshot,
    write_snapshot_delta, write_snapshot_delta_with_io, write_snapshot_with_io, ChainInfo,
    SnapshotDelta, TableSnapshot, DELTA_PREFIX, SNAPSHOT_FILE,
};
pub use store::{CompactReport, Recovered, SnapshotCheck, Store, VerifyReport};
pub use table::{Persisted, Publish, TableStore};
pub use wal::{
    record_kind_name, replay, replay_tail, truncate_to_valid, FsyncPolicy, QuarantineEntry,
    RecordInfo, TableMeta, TornTail, Wal, WalPosition, WalReplay, WAL_FILE,
};

use std::path::{Path, PathBuf};

/// Errors of the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// On-disk state that cannot be trusted (failed checksum, impossible
    /// framing, violated invariant), with the file and byte offset.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the problem.
        offset: u64,
        /// What is wrong.
        message: String,
    },
}

impl StoreError {
    pub(crate) fn corrupt(path: impl AsRef<Path>, offset: u64, message: String) -> StoreError {
        StoreError::Corrupt { path: path.as_ref().to_path_buf(), offset, message }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt { path, offset, message } => {
                write!(f, "corrupt store file {} at byte {offset}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
