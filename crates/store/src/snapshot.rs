//! Snapshot files: a durable photograph of `(log@epoch, fit parameters)`
//! plus the WAL byte offset the epoch corresponds to — stored as an
//! **incremental chain**: one full base snapshot plus delta files each
//! carrying only the answers since the previous chain element.
//!
//! A snapshot exists to make recovery cheap, never to make it possible — the
//! WAL alone fully determines the table. What the snapshot buys:
//!
//! * **decode skip** — recovery resumes WAL decoding at the chain tip's
//!   `wal_offset` instead of byte zero (the chain carries the answers
//!   before it);
//! * **no EM on boot** — the persisted [`FitParams`] let recovery
//!   republish the pre-crash published fit by *evaluating* the posterior at
//!   the stored parameters (`tcrowd_core::Seed::Evaluate`, one E-step) when
//!   the chain covers the whole log, and warm-seed the catch-up refit when
//!   a WAL tail extends past it;
//! * **O(Δ) persistence** — a publish appends one delta with the answers
//!   since the last snapshot ([`write_snapshot_delta`]) instead of
//!   re-serializing the whole log (a publish that changes only the fit or
//!   the quarantine set appends a delta with zero answers); the writer
//!   collapses the chain back into a full base periodically (and `tcrowd
//!   store compact` always does), so chains stay short and geometrically
//!   bounded.
//!
//! A corrupt, stale or missing snapshot therefore degrades recovery time,
//! not correctness: a corrupt *base* falls back to a full WAL replay; a
//! corrupt *delta* truncates the chain at that link and WAL tail replay
//! covers the difference ([`ChainInfo::broken`] records what was dropped).
//!
//! ## File formats
//!
//! ```text
//! snapshot.snap      magic "TCSNAP02" ++ len: u64LE ++ crc: u32LE ++ payload
//!                    payload = epoch u64 ++ wal_offset u64 ++ TableMeta
//!                              ++ log (io::binary) ++ fit? ++ quarantine
//! snapshot.delta.N   magic "TCSNPD02" ++ len: u64LE ++ crc: u32LE ++ payload
//!                    payload = seq u64 ++ parent_epoch u64 ++ epoch u64
//!                              ++ wal_offset u64 ++ answers ++ fit?
//!                              ++ quarantine
//! ```
//!
//! `quarantine` is the complete quarantined-worker set at the file's epoch
//! (same codec as the WAL's Quarantine record); a delta's set supersedes the
//! chain's, mirroring the WAL's last-record-wins semantics. It must live in
//! the snapshot because snapshot-assisted recovery replays only the WAL
//! *tail* — a Quarantine record before `wal_offset` would otherwise be
//! skipped. Version-01 files (pre-quarantine) fail the magic check and take
//! the corrupt-base path: a full WAL replay, which is always correct.
//!
//! A delta is *chained*: it applies only when its `parent_epoch` equals the
//! epoch reached by the chain so far, and its `wal_offset` supersedes the
//! tip's. All files are written to a temporary name, flushed, fsynced and
//! renamed into place, so a crash mid-write leaves the previous chain
//! intact.

use crate::crc::crc32;
use crate::io::{real_io, IoHandle};
use crate::wal::{sync_dir, QuarantineEntry, TableMeta};
use crate::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::Read;
use std::path::Path;
use tcrowd_core::FitParams;
use tcrowd_tabular::io::binary::{self, Cursor};
use tcrowd_tabular::{Answer, AnswerLog, WorkerId};

/// File name of the per-table base snapshot inside its table directory.
pub const SNAPSHOT_FILE: &str = "snapshot.snap";
/// File-name prefix of incremental snapshot deltas (`snapshot.delta.<seq>`).
pub const DELTA_PREFIX: &str = "snapshot.delta.";
const TMP_FILE: &str = "snapshot.snap.tmp";
const DELTA_TMP_FILE: &str = "snapshot.delta.tmp";
const MAGIC: &[u8; 8] = b"TCSNAP02";
const DELTA_MAGIC: &[u8; 8] = b"TCSNPD02";
/// Header: magic + u64 payload length + u32 CRC.
const HEADER: usize = 8 + 8 + 4;

/// The decoded content of a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Number of answers this snapshot covers (`log.len()`).
    pub epoch: u64,
    /// WAL byte offset right after the record that brought the log to
    /// `epoch` answers — where tail replay resumes.
    pub wal_offset: u64,
    /// Table metadata (duplicated from the WAL Create record so the
    /// snapshot is self-contained).
    pub meta: TableMeta,
    /// The answer log at `epoch`, in append order (shape-validated against
    /// [`TableMeta`] at decode time).
    pub log: AnswerLog,
    /// The published fit's warm-start seed, when one existed.
    pub fit: Option<FitParams>,
    /// The complete quarantined-worker set at `epoch` (sorted by worker).
    /// Carried here because tail replay would miss Quarantine records
    /// before `wal_offset`.
    pub quarantine: Vec<QuarantineEntry>,
}

fn put_f64_lane(buf: &mut Vec<u8>, lane: &[f64]) {
    binary::put_u64(buf, lane.len() as u64);
    for &v in lane {
        binary::put_f64(buf, v);
    }
}

fn get_f64_lane(c: &mut Cursor<'_>) -> Result<Vec<f64>, binary::CodecError> {
    let n = c.u64()? as usize;
    if n.saturating_mul(8) > c.remaining() {
        return Err(binary::CodecError {
            at: c.position(),
            message: format!("lane of {n} floats overruns the buffer"),
        });
    }
    (0..n).map(|_| c.f64()).collect()
}

fn put_fit(buf: &mut Vec<u8>, fit: &FitParams) {
    binary::put_u64(buf, fit.rows as u64);
    binary::put_u64(buf, fit.cols as u64);
    put_f64_lane(buf, &fit.alpha);
    put_f64_lane(buf, &fit.beta);
    binary::put_u64(buf, fit.workers.len() as u64);
    for w in &fit.workers {
        binary::put_u32(buf, w.0);
    }
    put_f64_lane(buf, &fit.phi);
    binary::put_f64(buf, fit.renorm_shift.0);
    binary::put_f64(buf, fit.renorm_shift.1);
}

fn get_fit(c: &mut Cursor<'_>) -> Result<FitParams, binary::CodecError> {
    let rows = c.u64()? as usize;
    let cols = c.u64()? as usize;
    let alpha = get_f64_lane(c)?;
    let beta = get_f64_lane(c)?;
    let n_workers = c.u64()? as usize;
    if n_workers.saturating_mul(4) > c.remaining() {
        return Err(binary::CodecError {
            at: c.position(),
            message: format!("worker lane of {n_workers} ids overruns the buffer"),
        });
    }
    let workers: Vec<WorkerId> =
        (0..n_workers).map(|_| c.u32().map(WorkerId)).collect::<Result<_, _>>()?;
    let phi = get_f64_lane(c)?;
    if phi.len() != workers.len() {
        return Err(binary::CodecError {
            at: c.position(),
            message: format!(
                "phi lane ({}) does not match worker lane ({})",
                phi.len(),
                workers.len()
            ),
        });
    }
    let renorm_shift = (c.f64()?, c.f64()?);
    Ok(FitParams { rows, cols, alpha, beta, workers, phi, renorm_shift })
}

fn encode(snap: &TableSnapshot) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64 + snap.log.len() * 17);
    binary::put_u64(&mut payload, snap.epoch);
    binary::put_u64(&mut payload, snap.wal_offset);
    let mut meta = Vec::new();
    // TableMeta's codec is private to the wal module; reuse it through the
    // record-free helper below.
    crate::wal::encode_meta(&mut meta, &snap.meta);
    payload.extend_from_slice(&meta);
    binary::put_log(&mut payload, &snap.log);
    match &snap.fit {
        None => binary::put_u8(&mut payload, 0),
        Some(fit) => {
            binary::put_u8(&mut payload, 1);
            put_fit(&mut payload, fit);
        }
    }
    crate::wal::encode_quarantine(&mut payload, &snap.quarantine);
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(MAGIC);
    binary::put_u64(&mut out, payload.len() as u64);
    binary::put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

fn decode(path: &Path, bytes: &[u8]) -> Result<TableSnapshot, StoreError> {
    let corrupt = |at: usize, msg: String| StoreError::corrupt(path, at as u64, msg);
    if bytes.len() < HEADER || &bytes[..8] != MAGIC {
        return Err(corrupt(0, "missing snapshot magic".into()));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    // Compare in u64 with the header already subtracted: `HEADER + len`
    // would overflow on a corrupt/hostile length field.
    if (bytes.len() - HEADER) as u64 != len {
        return Err(corrupt(8, format!("payload length {len} does not match file size")));
    }
    let payload = &bytes[HEADER..];
    if crc32(payload) != crc {
        return Err(corrupt(16, "snapshot checksum mismatch".into()));
    }
    let mut c = Cursor::new(payload);
    let inner = (|| -> Result<TableSnapshot, binary::CodecError> {
        let epoch = c.u64()?;
        let wal_offset = c.u64()?;
        let meta = crate::wal::decode_meta(&mut c)?;
        let log = binary::get_log(&mut c)?;
        let fit = match c.u8()? {
            0 => None,
            1 => Some(get_fit(&mut c)?),
            tag => {
                return Err(binary::CodecError {
                    at: c.position() - 1,
                    message: format!("unknown fit tag {tag}"),
                })
            }
        };
        let quarantine = crate::wal::decode_quarantine(&mut c)?;
        Ok(TableSnapshot { epoch, wal_offset, meta, log, fit, quarantine })
    })();
    let snap = inner.map_err(|e| corrupt(HEADER + e.at, e.message))?;
    if !c.is_empty() {
        return Err(corrupt(HEADER + c.position(), "trailing bytes in snapshot".into()));
    }
    if snap.epoch != snap.log.len() as u64 {
        return Err(corrupt(
            HEADER,
            format!("epoch {} does not match {} stored answers", snap.epoch, snap.log.len()),
        ));
    }
    if snap.log.rows() != snap.meta.rows || snap.log.cols() != snap.meta.schema.num_columns() {
        return Err(corrupt(
            HEADER,
            format!(
                "snapshot log shape {}x{} does not match the table meta ({}x{})",
                snap.log.rows(),
                snap.log.cols(),
                snap.meta.rows,
                snap.meta.schema.num_columns()
            ),
        ));
    }
    Ok(snap)
}

/// One incremental link of a snapshot chain: the answers appended between
/// `parent_epoch` and `epoch`, plus the WAL offset and fit at `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Chain sequence number (also the file-name suffix); strictly
    /// increasing within a chain.
    pub seq: u64,
    /// The epoch this delta extends — must equal the chain's epoch so far.
    pub parent_epoch: u64,
    /// The epoch reached after applying this delta.
    pub epoch: u64,
    /// WAL byte offset right after the record that brought the log to
    /// `epoch` answers — supersedes the chain tip's offset.
    pub wal_offset: u64,
    /// The answers at log positions `parent_epoch .. epoch`, in log order.
    pub answers: Vec<Answer>,
    /// The fit published at `epoch` (supersedes the chain tip's fit).
    pub fit: Option<FitParams>,
    /// The complete quarantined-worker set at `epoch` (supersedes the chain
    /// tip's set — last link wins, like the WAL's Quarantine records).
    pub quarantine: Vec<QuarantineEntry>,
}

/// What a chain read found, beyond the combined [`TableSnapshot`]: the
/// bookkeeping a writer needs to *extend* the chain, and what `verify`
/// audits per link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainInfo {
    /// Delta links applied on top of the base.
    pub links: u64,
    /// Sequence number of the last applied delta (0 when none).
    pub tip_seq: u64,
    /// Highest delta sequence present on disk, applied or not — a writer
    /// must allocate above this so a stale orphan can never shadow a new
    /// link.
    pub max_seq_on_disk: u64,
    /// The base snapshot's epoch.
    pub base_epoch: u64,
    /// Answers carried by the base snapshot.
    pub base_answers: u64,
    /// Answers carried by the applied delta links.
    pub chain_answers: u64,
    /// `(epoch, wal_offset)` of the base and every applied link, in chain
    /// order — each must be a real WAL record boundary, which `verify`
    /// checks.
    pub link_marks: Vec<(u64, u64)>,
    /// Why the chain was truncated early, if it was (corrupt/mismatched
    /// link). Recovery proceeds with the prefix — the WAL tail replay
    /// covers the difference — but `verify` flags it.
    pub broken: Option<String>,
}

fn encode_delta(delta: &SnapshotDelta) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48 + delta.answers.len() * 17);
    binary::put_u64(&mut payload, delta.seq);
    binary::put_u64(&mut payload, delta.parent_epoch);
    binary::put_u64(&mut payload, delta.epoch);
    binary::put_u64(&mut payload, delta.wal_offset);
    binary::put_answers(&mut payload, &delta.answers);
    match &delta.fit {
        None => binary::put_u8(&mut payload, 0),
        Some(fit) => {
            binary::put_u8(&mut payload, 1);
            put_fit(&mut payload, fit);
        }
    }
    crate::wal::encode_quarantine(&mut payload, &delta.quarantine);
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(DELTA_MAGIC);
    binary::put_u64(&mut out, payload.len() as u64);
    binary::put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

fn decode_delta(path: &Path, bytes: &[u8]) -> Result<SnapshotDelta, StoreError> {
    let corrupt = |at: usize, msg: String| StoreError::corrupt(path, at as u64, msg);
    if bytes.len() < HEADER || &bytes[..8] != DELTA_MAGIC {
        return Err(corrupt(0, "missing snapshot-delta magic".into()));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if (bytes.len() - HEADER) as u64 != len {
        return Err(corrupt(8, format!("payload length {len} does not match file size")));
    }
    let payload = &bytes[HEADER..];
    if crc32(payload) != crc {
        return Err(corrupt(16, "snapshot-delta checksum mismatch".into()));
    }
    let mut c = Cursor::new(payload);
    let inner = (|| -> Result<SnapshotDelta, binary::CodecError> {
        let seq = c.u64()?;
        let parent_epoch = c.u64()?;
        let epoch = c.u64()?;
        let wal_offset = c.u64()?;
        let answers = binary::get_answers(&mut c)?;
        let fit = match c.u8()? {
            0 => None,
            1 => Some(get_fit(&mut c)?),
            tag => {
                return Err(binary::CodecError {
                    at: c.position() - 1,
                    message: format!("unknown fit tag {tag}"),
                })
            }
        };
        let quarantine = crate::wal::decode_quarantine(&mut c)?;
        Ok(SnapshotDelta { seq, parent_epoch, epoch, wal_offset, answers, fit, quarantine })
    })();
    let delta = inner.map_err(|e| corrupt(HEADER + e.at, e.message))?;
    if !c.is_empty() {
        return Err(corrupt(HEADER + c.position(), "trailing bytes in snapshot delta".into()));
    }
    if delta.epoch < delta.parent_epoch
        || delta.answers.len() as u64 != delta.epoch - delta.parent_epoch
    {
        return Err(corrupt(
            HEADER,
            format!(
                "delta claims epochs {}..{} but stores {} answers",
                delta.parent_epoch,
                delta.epoch,
                delta.answers.len()
            ),
        ));
    }
    Ok(delta)
}

/// Write `bytes` to `dir/tmp_name`, fsync, and rename to `dir/final_name`,
/// with every fallible step routed through `io` (fault injection).
fn write_atomically(
    dir: &Path,
    tmp_name: &str,
    final_name: &str,
    bytes: &[u8],
    io: &IoHandle,
) -> Result<(), StoreError> {
    let tmp = dir.join(tmp_name);
    {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        io.write_all(&tmp, &mut f, bytes)?;
        io.sync_data(&tmp, &f)?;
    }
    io.rename(&tmp, &dir.join(final_name))?;
    sync_dir(dir);
    Ok(())
}

/// Atomically (tmp + rename) write `snap` as `dir`'s current **base**
/// snapshot. Existing delta links are *not* removed here — a base write at
/// epoch `E` makes any older delta unreachable (its `parent_epoch` no
/// longer matches), and the caller deletes them afterwards with
/// [`remove_snapshot_deltas`]; that order is crash-safe at every step.
pub fn write_snapshot(dir: &Path, snap: &TableSnapshot) -> Result<(), StoreError> {
    write_snapshot_with_io(dir, snap, &real_io())
}

/// [`write_snapshot`] with an explicit [`IoHandle`] (fault injection).
pub fn write_snapshot_with_io(
    dir: &Path,
    snap: &TableSnapshot,
    io: &IoHandle,
) -> Result<(), StoreError> {
    write_atomically(dir, TMP_FILE, SNAPSHOT_FILE, &encode(snap), io)
}

/// Atomically write one chain link as `snapshot.delta.<seq>`. The caller
/// owns chain discipline: `parent_epoch` must equal the epoch already
/// durable (base + applied deltas) and `seq` must exceed every sequence on
/// disk ([`ChainInfo::max_seq_on_disk`]).
pub fn write_snapshot_delta(dir: &Path, delta: &SnapshotDelta) -> Result<(), StoreError> {
    write_snapshot_delta_with_io(dir, delta, &real_io())
}

/// [`write_snapshot_delta`] with an explicit [`IoHandle`] (fault injection).
pub fn write_snapshot_delta_with_io(
    dir: &Path,
    delta: &SnapshotDelta,
    io: &IoHandle,
) -> Result<(), StoreError> {
    write_atomically(
        dir,
        DELTA_TMP_FILE,
        &format!("{DELTA_PREFIX}{}", delta.seq),
        &encode_delta(delta),
        io,
    )
}

/// The delta files present in `dir`, sorted by sequence number ascending.
/// Files whose suffix is not a number are ignored (the tmp file).
fn delta_files(dir: &Path) -> std::io::Result<Vec<(u64, std::path::PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        other => other?,
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name.strip_prefix(DELTA_PREFIX).and_then(|s| s.parse::<u64>().ok()) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Read `dir`'s snapshot **chain**: the base snapshot with every valid
/// delta link folded in, plus the chain bookkeeping. `Ok(None)` when no
/// base snapshot exists; `Err(StoreError::Corrupt…)` when the base exists
/// but cannot be trusted (the caller falls back to a full WAL replay).
/// Broken *links* never error — the chain is truncated there and
/// [`ChainInfo::broken`] records why.
pub fn read_snapshot_chain(dir: &Path) -> Result<Option<(TableSnapshot, ChainInfo)>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
    }
    let mut snap = decode(&path, &bytes)?;
    let mut info = ChainInfo {
        base_epoch: snap.epoch,
        base_answers: snap.log.len() as u64,
        link_marks: vec![(snap.epoch, snap.wal_offset)],
        ..ChainInfo::default()
    };
    let rows = snap.meta.rows;
    let cols = snap.meta.schema.num_columns();
    for (seq, delta_path) in delta_files(dir)? {
        info.max_seq_on_disk = info.max_seq_on_disk.max(seq);
        if info.broken.is_some() {
            continue; // keep scanning only to compute max_seq_on_disk
        }
        let delta = match fs::read(&delta_path)
            .map_err(StoreError::from)
            .and_then(|bytes| decode_delta(&delta_path, &bytes))
        {
            Ok(d) => d,
            Err(e) => {
                info.broken = Some(format!("delta {seq}: {e}"));
                continue;
            }
        };
        if delta.seq != seq {
            info.broken = Some(format!("delta file {seq} claims sequence {}", delta.seq));
            continue;
        }
        if delta.parent_epoch != snap.epoch {
            info.broken = Some(format!(
                "delta {seq} chains from epoch {} but the chain is at {}",
                delta.parent_epoch, snap.epoch
            ));
            continue;
        }
        if let Some(bad) = delta
            .answers
            .iter()
            .find(|a| a.cell.row as usize >= rows || a.cell.col as usize >= cols)
        {
            info.broken = Some(format!(
                "delta {seq}: answer addresses cell ({}, {}) outside the {rows}x{cols} table",
                bad.cell.row, bad.cell.col
            ));
            continue;
        }
        for a in &delta.answers {
            snap.log.push(*a);
        }
        snap.epoch = delta.epoch;
        snap.wal_offset = delta.wal_offset;
        if delta.fit.is_some() {
            snap.fit = delta.fit;
        }
        snap.quarantine = delta.quarantine;
        info.links += 1;
        info.tip_seq = seq;
        info.chain_answers += delta.answers.len() as u64;
        info.link_marks.push((delta.epoch, delta.wal_offset));
    }
    debug_assert_eq!(snap.epoch, snap.log.len() as u64);
    Ok(Some((snap, info)))
}

/// Read `dir`'s snapshot chain as one combined [`TableSnapshot`]. `Ok(None)`
/// when no snapshot exists; `Err(StoreError::Corrupt…)` when the base
/// exists but cannot be trusted (the caller falls back to a full WAL
/// replay).
pub fn read_snapshot(dir: &Path) -> Result<Option<TableSnapshot>, StoreError> {
    Ok(read_snapshot_chain(dir)?.map(|(snap, _)| snap))
}

/// Remove `dir`'s delta links, leaving the base snapshot in place (a base
/// write at a newer epoch makes them unreachable; this reclaims the disk).
pub fn remove_snapshot_deltas(dir: &Path) -> std::io::Result<()> {
    for (_, path) in delta_files(dir)? {
        match fs::remove_file(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            other => other?,
        }
    }
    Ok(())
}

/// Remove `dir`'s snapshot — base and every delta link — if present
/// (compaction does this *before* rewriting the WAL, so a crash in between
/// can never pair a stale snapshot offset with a new WAL layout). The base
/// is removed first: a crash mid-removal must not leave a headless chain
/// that silently re-chains under a future base.
pub fn remove_snapshot(dir: &Path) -> std::io::Result<()> {
    match fs::remove_file(dir.join(SNAPSHOT_FILE)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        other => other?,
    }
    remove_snapshot_deltas(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{Answer, CellId, Column, ColumnType, Schema, Value};

    fn sample() -> TableSnapshot {
        TableSnapshot {
            epoch: 2,
            wal_offset: 777,
            meta: TableMeta {
                rows: 3,
                schema: Schema::new(
                    "t",
                    "k",
                    vec![
                        Column::new("c", ColumnType::categorical_with_cardinality(2)),
                        Column::new("x", ColumnType::Continuous { min: -1.0, max: 1.0 }),
                    ],
                ),
                config: vec![("refit_every".into(), "64".into())],
            },
            log: {
                let mut log = AnswerLog::new(3, 2);
                log.push(Answer {
                    worker: WorkerId(3),
                    cell: CellId::new(0, 0),
                    value: Value::Categorical(1),
                });
                log.push(Answer {
                    worker: WorkerId(5),
                    cell: CellId::new(2, 1),
                    value: Value::Continuous(0.25),
                });
                log
            },
            fit: Some(FitParams {
                rows: 3,
                cols: 2,
                alpha: vec![1.0, 0.9, 1.2],
                beta: vec![1.1, 0.8],
                workers: vec![WorkerId(3), WorkerId(5)],
                phi: vec![0.2, 0.4],
                renorm_shift: (0.01, -0.02),
            }),
            quarantine: vec![
                QuarantineEntry { worker: WorkerId(5), manual: true },
                QuarantineEntry { worker: WorkerId(7), manual: false },
            ],
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("tcrowd_store_snap_tests")
            .join(format!("{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_including_fit() {
        let dir = tmp_dir("roundtrip");
        let snap = sample();
        write_snapshot(&dir, &snap).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), snap);
        // Overwrite with a fit-less snapshot: atomic replacement.
        let mut no_fit = sample();
        no_fit.fit = None;
        write_snapshot(&dir, &no_fit).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), no_fit);
        remove_snapshot(&dir).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        remove_snapshot(&dir).unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_not_propagated() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&path).unwrap();
        // Any single corrupted byte must be caught (magic, length, crc or
        // payload).
        for at in [0usize, 9, 17, HEADER + 3, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_snapshot(&dir).is_err(), "flip at byte {at} went unnoticed");
        }
        // Truncations too.
        for cut in [0usize, 7, HEADER - 1, HEADER + 5, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(read_snapshot(&dir).is_err(), "truncation at {cut} went unnoticed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn delta_answer(i: u32) -> Answer {
        Answer {
            worker: WorkerId(10 + i),
            cell: CellId::new(i % 3, i % 2),
            value: if i % 2 == 0 { Value::Categorical(i % 2) } else { Value::Continuous(0.5) },
        }
    }

    /// Build `sample()` as a base plus `n` single-answer delta links.
    fn chained(dir: &std::path::Path, n: u32) -> Vec<Answer> {
        let base = sample();
        write_snapshot(dir, &base).unwrap();
        let mut appended = Vec::new();
        for i in 0..n {
            let epoch = base.epoch + i as u64;
            let a = delta_answer(i);
            appended.push(a);
            write_snapshot_delta(
                dir,
                &SnapshotDelta {
                    seq: (i + 1) as u64,
                    parent_epoch: epoch,
                    epoch: epoch + 1,
                    wal_offset: 1000 + i as u64,
                    answers: vec![a],
                    fit: base.fit.clone(),
                    quarantine: vec![QuarantineEntry { worker: WorkerId(100 + i), manual: false }],
                },
            )
            .unwrap();
        }
        appended
    }

    #[test]
    fn chain_read_folds_deltas_in_sequence() {
        let dir = tmp_dir("chain_fold");
        let appended = chained(&dir, 3);
        let (snap, info) = read_snapshot_chain(&dir).unwrap().unwrap();
        assert_eq!(snap.epoch, sample().epoch + 3);
        assert_eq!(snap.wal_offset, 1002, "tip offset supersedes the base's");
        assert_eq!(info.links, 3);
        assert_eq!(info.tip_seq, 3);
        assert_eq!(info.max_seq_on_disk, 3);
        assert_eq!(info.base_epoch, sample().epoch);
        assert_eq!(info.chain_answers, 3);
        assert_eq!(info.link_marks.len(), 4, "base + three links");
        assert!(info.broken.is_none());
        assert_eq!(&snap.log.all()[sample().epoch as usize..], appended.as_slice());
        assert_eq!(snap.log.all()[..sample().epoch as usize], *sample().log.all());
        // The tip delta's quarantine set supersedes the base's.
        assert_eq!(snap.quarantine, vec![QuarantineEntry { worker: WorkerId(102), manual: false }]);
        // The convenience reader returns the same combined snapshot.
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broken_link_truncates_the_chain_not_the_base() {
        let dir = tmp_dir("chain_broken");
        chained(&dir, 3);
        // Corrupt the middle link: the chain must stop before it and the
        // later link must become unreachable, without erroring.
        let victim = dir.join(format!("{DELTA_PREFIX}2"));
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let (snap, info) = read_snapshot_chain(&dir).unwrap().unwrap();
        assert_eq!(info.links, 1, "only the first link survives");
        assert_eq!(snap.epoch, sample().epoch + 1);
        assert_eq!(snap.wal_offset, 1000);
        assert!(info.broken.is_some(), "truncation must be reported");
        assert_eq!(info.max_seq_on_disk, 3, "orphans still reserve their sequences");
        // A delta chaining from the wrong epoch is equally fatal for the
        // tail: removing the corrupt file does not resurrect link 3.
        std::fs::remove_file(&victim).unwrap();
        let (snap, info) = read_snapshot_chain(&dir).unwrap().unwrap();
        assert_eq!(info.links, 1);
        assert_eq!(snap.epoch, sample().epoch + 1);
        assert!(info.broken.unwrap().contains("chains from epoch"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_snapshot_clears_the_whole_chain() {
        let dir = tmp_dir("chain_remove");
        chained(&dir, 2);
        remove_snapshot(&dir).unwrap();
        assert_eq!(read_snapshot_chain(&dir).unwrap(), None);
        assert!(!dir.join(format!("{DELTA_PREFIX}1")).exists());
        assert!(!dir.join(format!("{DELTA_PREFIX}2")).exists());
        // And deltas alone can be dropped after a base collapse.
        chained(&dir, 2);
        remove_snapshot_deltas(&dir).unwrap();
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let (_, info) = read_snapshot_chain(&dir).unwrap().unwrap();
        assert_eq!(info.links, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_rejects_epoch_answer_mismatch() {
        let dir = tmp_dir("chain_mismatch");
        let base = sample();
        write_snapshot(&dir, &base).unwrap();
        // Claims two epochs of growth but stores one answer.
        write_snapshot_delta(
            &dir,
            &SnapshotDelta {
                seq: 1,
                parent_epoch: base.epoch,
                epoch: base.epoch + 2,
                wal_offset: 999,
                answers: vec![delta_answer(0)],
                fit: None,
                quarantine: Vec::new(),
            },
        )
        .unwrap();
        let (snap, info) = read_snapshot_chain(&dir).unwrap().unwrap();
        assert_eq!(info.links, 0);
        assert_eq!(snap.epoch, base.epoch);
        assert!(info.broken.unwrap().contains("stores 1 answers"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_answer_mismatch_is_rejected() {
        let dir = tmp_dir("epoch");
        let mut snap = sample();
        snap.epoch = 9; // claims more answers than it stores
        write_snapshot(&dir, &snap).unwrap();
        let err = read_snapshot(&dir).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
