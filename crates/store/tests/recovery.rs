//! Crash-recovery integration and property tests for the store layer.
//!
//! The heart of the durability contract lives here: for *any* byte offset a
//! crash can tear the WAL at, recovery must reconstruct **exactly the
//! longest checksummed prefix** of the log — bit-identical answers, monotone
//! epochs — and keep the file appendable afterwards.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use tcrowd_store::{
    Fault, FaultKind, FaultOp, FaultyIo, FsyncPolicy, SnapshotDelta, Store, StoreError, TableMeta,
    TableSnapshot, EIO, ENOSPC,
};
use tcrowd_tabular::{Answer, CellId, Column, ColumnType, Schema, Value, WorkerId};

const ROWS: usize = 6;

fn meta() -> TableMeta {
    TableMeta {
        rows: ROWS,
        schema: Schema::new(
            "t",
            "k",
            vec![
                Column::new("kind", ColumnType::categorical_with_cardinality(4)),
                Column::new("size", ColumnType::Continuous { min: -10.0, max: 10.0 }),
                Column::new("tag", ColumnType::categorical_with_cardinality(2)),
            ],
        ),
        config: vec![("policy".into(), "structure-aware".into())],
    }
}

/// Random answers with both datatypes and repeated workers/cells — the same
/// distribution the matrix-delta property suite uses.
fn random_answers(n: usize, seed: u64) -> Vec<Answer> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cell = CellId::new(rng.gen_range(0..ROWS as u32), rng.gen_range(0..3u32));
            let value = if cell.col == 1 {
                Value::Continuous(rng.gen_range(-5.0..5.0))
            } else {
                Value::Categorical(rng.gen_range(0..2))
            };
            Answer { worker: WorkerId(rng.gen_range(0..8)), cell, value }
        })
        .collect()
}

/// Split `answers` into random non-empty batches (the group-commit units).
fn random_batches(answers: &[Answer], seed: u64) -> Vec<Vec<Answer>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let mut out = Vec::new();
    let mut at = 0;
    while at < answers.len() {
        let take = rng.gen_range(1..=5usize).min(answers.len() - at);
        out.push(answers[at..at + take].to_vec());
        at += take;
    }
    out
}

/// Index a slice of answers into an [`tcrowd_tabular::AnswerLog`] of the
/// test table's shape (what `TableSnapshot.log` stores).
fn log_of(answers: &[Answer]) -> tcrowd_tabular::AnswerLog {
    let mut log = tcrowd_tabular::AnswerLog::new(ROWS, 3);
    for &a in answers {
        log.push(a);
    }
    log
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tcrowd_store_recovery_tests")
        .join(format!("{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn clean_restart_recovers_the_full_log_bit_identically() {
    let dir = fresh_dir("clean");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(200, 1);
    let mut wal = store.create_table("t", &meta()).unwrap();
    for batch in random_batches(&answers, 1) {
        wal.append_answers(&batch).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let recs = store.recover_all().unwrap();
    assert_eq!(recs.len(), 1);
    let rec = &recs[0];
    assert_eq!(rec.id, "t");
    assert_eq!(rec.meta, meta());
    assert_eq!(rec.log.all(), answers.as_slice());
    assert_eq!(rec.snapshot_epoch, None);
    assert_eq!(rec.replayed_tail, answers.len() as u64);
    assert!(rec.torn.is_none());
    // Continuous payloads survive to the bit.
    for (a, b) in rec.log.all().iter().zip(&answers) {
        if let (Value::Continuous(x), Value::Continuous(y)) = (a.value, b.value) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_assisted_recovery_replays_only_the_tail() {
    let dir = fresh_dir("snap");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(150, 2);
    let mut wal = store.create_table("t", &meta()).unwrap();
    let batches = random_batches(&answers, 2);
    let half = batches.len() / 2;
    for batch in &batches[..half] {
        wal.append_answers(batch).unwrap();
    }
    wal.sync().unwrap();
    let pos = wal.position();
    tcrowd_store::write_snapshot(
        &store.table_dir("t"),
        &TableSnapshot {
            epoch: pos.answers,
            wal_offset: pos.offset,
            meta: meta(),
            log: log_of(&answers[..pos.answers as usize]),
            fit: None,
            quarantine: Vec::new(),
        },
    )
    .unwrap();
    for batch in &batches[half..] {
        wal.append_answers(batch).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.snapshot_epoch, Some(pos.answers));
    assert_eq!(rec.replayed_tail, answers.len() as u64 - pos.answers);
    assert_eq!(rec.log.all(), answers.as_slice());

    // A *corrupt* snapshot degrades to a full replay with the same result.
    let snap_path = store.table_dir("t").join(tcrowd_store::SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let len = bytes.len();
    bytes[len / 2] ^= 0xFF;
    std::fs::write(&snap_path, &bytes).unwrap();
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.snapshot_epoch, None, "corrupt snapshot must be ignored");
    assert_eq!(rec.log.all(), answers.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_wal_accepts_further_appends() {
    let dir = fresh_dir("continue");
    let store = Store::open(&dir, FsyncPolicy::Always).unwrap();
    let answers = random_answers(60, 3);
    let mut wal = store.create_table("t", &meta()).unwrap();
    wal.append_answers(&answers[..40]).unwrap();
    // Tear the tail: write half of another record by hand.
    let pos = wal.position();
    drop(wal);
    let path = store.table_dir("t").join(tcrowd_store::WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
    std::fs::write(&path, &bytes).unwrap();

    let mut rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.len(), 40);
    assert_eq!(rec.torn.as_ref().map(|t| t.at), Some(pos.offset));
    // The torn bytes were truncated; appending and re-recovering works.
    rec.wal.as_mut().unwrap().append_answers(&answers[40..]).unwrap();
    drop(rec);
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    assert!(rec.torn.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tombstoned_tables_stay_dead() {
    let dir = fresh_dir("tombstone");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let mut wal = store.create_table("t", &meta()).unwrap();
    wal.append_answers(&random_answers(10, 4)).unwrap();
    wal.append_delete().unwrap();
    drop(wal);
    // The directory still exists (crash before removal)…
    assert_eq!(store.table_ids().unwrap(), vec!["t".to_string()]);
    // …but recover_all finishes the cleanup and serves nothing.
    assert!(store.recover_all().unwrap().is_empty());
    assert!(store.table_ids().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_rebuild_from_snapshot_refreshes_the_snapshot_so_later_appends_survive() {
    // The fsync=never loss case: the snapshot is durable but the WAL tail
    // died with the crash, so recovery rebuilds the WAL from the snapshot.
    // Regression: the rebuild must also rewrite the snapshot for the NEW
    // layout — a stale snapshot (old-layout wal_offset) would make the next
    // recovery rebuild from the old epoch again and destroy every answer
    // acknowledged in between.
    let dir = fresh_dir("rebuild");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(40, 8);
    let mut wal = store.create_table("t", &meta()).unwrap();
    wal.append_answers(&answers[..30]).unwrap();
    wal.sync().unwrap();
    let pos = wal.position();
    drop(wal);
    tcrowd_store::write_snapshot(
        &store.table_dir("t"),
        &TableSnapshot {
            epoch: 30,
            wal_offset: pos.offset,
            meta: meta(),
            log: log_of(&answers[..30]),
            fit: None,
            quarantine: Vec::new(),
        },
    )
    .unwrap();
    // Lose the WAL tail: the file ends before the snapshot's offset.
    let wal_path = store.table_dir("t").join(tcrowd_store::WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..(pos.offset / 2) as usize]).unwrap();

    // First recovery: rebuilt from the snapshot, nothing lost beyond the
    // un-synced tail.
    let mut rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), &answers[..30]);
    assert!(rec.torn.as_ref().unwrap().reason.contains("rebuilt from the snapshot"));
    // Acknowledge more answers on the rebuilt WAL, then crash again.
    rec.wal.as_mut().unwrap().append_answers(&answers[30..]).unwrap();
    drop(rec);

    // Second recovery must see ALL acknowledged answers — the snapshot on
    // disk now matches the rebuilt layout, so nothing is rolled back.
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice(), "post-rebuild acks must survive");
    assert_eq!(rec.snapshot_epoch, Some(30));
    assert_eq!(rec.replayed_tail, 10);
    assert!(rec.torn.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aborted_creations_are_garbage_collected_without_bricking_boot() {
    // A crash between `create_dir_all` and the durable Create record leaves
    // a directory that was never acknowledged to any client. Boot must
    // garbage-collect it and serve the healthy tables — not refuse to start.
    let dir = fresh_dir("aborted");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(15, 9);
    let mut wal = store.create_table("good", &meta()).unwrap();
    wal.append_answers(&answers).unwrap();
    wal.sync().unwrap();
    drop(wal);
    // Three flavours of crashed creation: empty dir, empty WAL, torn Create.
    std::fs::create_dir_all(store.table_dir("empty-dir")).unwrap();
    std::fs::create_dir_all(store.table_dir("empty-wal")).unwrap();
    std::fs::write(store.table_dir("empty-wal").join(tcrowd_store::WAL_FILE), b"").unwrap();
    let good_head = std::fs::read(store.table_dir("good").join(tcrowd_store::WAL_FILE)).unwrap();
    std::fs::create_dir_all(store.table_dir("torn-create")).unwrap();
    std::fs::write(store.table_dir("torn-create").join(tcrowd_store::WAL_FILE), &good_head[..9])
        .unwrap();

    let recs = store.recover_all().unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].id, "good");
    assert_eq!(recs[0].log.all(), answers.as_slice());
    assert_eq!(store.table_ids().unwrap(), vec!["good".to_string()], "residue must be GC'd");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn half_deleted_directory_with_surviving_snapshot_boots_instead_of_bricking() {
    // A crash mid `remove_dir_all` can unlink wal.log (tombstone included)
    // while snapshot.snap survives. Boot must not refuse to start: the
    // table is rebuilt from the snapshot (re-deleting it is trivial;
    // a bricked service is not). The same holds when the surviving WAL is
    // a torn Create frame: the probe alone would call that an aborted
    // creation, but the readable snapshot proves the table was acked.
    let dir = fresh_dir("halfdel");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(20, 10);
    for id in ["t", "torn"] {
        let mut wal = store.create_table(id, &meta()).unwrap();
        wal.append_answers(&answers).unwrap();
        wal.sync().unwrap();
        let pos = wal.position();
        drop(wal);
        tcrowd_store::write_snapshot(
            &store.table_dir(id),
            &TableSnapshot {
                epoch: 20,
                wal_offset: pos.offset,
                meta: meta(),
                log: log_of(&answers),
                fit: None,
                quarantine: Vec::new(),
            },
        )
        .unwrap();
    }
    std::fs::remove_file(store.table_dir("t").join(tcrowd_store::WAL_FILE)).unwrap();
    let torn_wal = store.table_dir("torn").join(tcrowd_store::WAL_FILE);
    let head = std::fs::read(&torn_wal).unwrap();
    std::fs::write(&torn_wal, &head[..9]).unwrap();

    let recs = store.recover_all().unwrap();
    assert_eq!(recs.len(), 2);
    for rec in &recs {
        assert_eq!(rec.log.all(), answers.as_slice(), "table {}", rec.id);
        assert!(rec.torn.as_ref().unwrap().reason.contains("rebuilt from the snapshot"));
    }
    assert_eq!(store.table_ids().unwrap(), vec!["t".to_string(), "torn".to_string()]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotted_create_record_with_data_errors_instead_of_silent_deletion() {
    // A COMPLETE Create frame that fails its checksum is rot of durable,
    // acknowledged state — recovery must surface it as an error, never
    // garbage-collect the directory like an aborted creation.
    let dir = fresh_dir("rotted");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let mut wal = store.create_table("t", &meta()).unwrap();
    wal.append_answers(&random_answers(12, 11)).unwrap();
    wal.sync().unwrap();
    drop(wal);
    let wal_path = store.table_dir("t").join(tcrowd_store::WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[10] ^= 0x01; // one flipped bit inside the Create payload
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = store.recover_all().unwrap_err();
    assert!(err.to_string().contains("create record"), "{err}");
    assert_eq!(
        store.table_ids().unwrap(),
        vec!["t".to_string()],
        "rotted data must never be auto-deleted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_table_ids_are_rejected() {
    let dir = fresh_dir("dup");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let _wal = store.create_table("t", &meta()).unwrap();
    match store.create_table("t", &meta()) {
        Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
        other => panic!("expected AlreadyExists, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_preserves_answers_and_passes_verify() {
    let dir = fresh_dir("compact");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(120, 5);
    let mut wal = store.create_table("t", &meta()).unwrap();
    for batch in random_batches(&answers, 5) {
        wal.append_answers(&batch).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let report = store.compact_table("t").unwrap();
    assert_eq!(report.answers, answers.len() as u64);
    assert!(report.records_before > 2, "many batch records before compaction");
    assert!(
        report.wal_bytes_after <= report.wal_bytes_before,
        "defragmenting must not grow the WAL ({} -> {})",
        report.wal_bytes_before,
        report.wal_bytes_after
    );

    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.is_empty(), "{:?}", verify.errors);
    assert_eq!(verify.answers, answers.len() as u64);
    assert_eq!(verify.records, 2, "compacted WAL is create + one append");
    let check = verify.snapshot.expect("compaction writes a snapshot");
    assert!(check.consistent);
    assert_eq!(check.epoch, answers.len() as u64);

    // Recovery after compaction sees the identical log, via the snapshot.
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    assert_eq!(rec.snapshot_epoch, Some(answers.len() as u64));
    assert_eq!(rec.replayed_tail, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_survives_recovery_snapshots_and_compaction() {
    use tcrowd_store::QuarantineEntry;
    let dir = fresh_dir("quarantine");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(80, 13);
    let mut wal = store.create_table("t", &meta()).unwrap();
    wal.append_answers(&answers[..40]).unwrap();
    let set = vec![
        QuarantineEntry { worker: WorkerId(2), manual: false },
        QuarantineEntry { worker: WorkerId(5), manual: true },
    ];
    wal.append_answers(&answers[40..]).unwrap();
    wal.append_quarantine(&set).unwrap();
    wal.sync().unwrap();
    let pos = wal.position();
    drop(wal);

    // Full-replay recovery sees the set; the log is untouched by it.
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.quarantine, set);
    assert_eq!(rec.log.all(), answers.as_slice(), "quarantine never mutates the log");
    drop(rec);

    // Snapshot-assisted recovery: the snapshot carries the set, and a tail
    // Quarantine record supersedes it.
    tcrowd_store::write_snapshot(
        &store.table_dir("t"),
        &TableSnapshot {
            epoch: pos.answers,
            wal_offset: pos.offset,
            meta: meta(),
            log: log_of(&answers),
            fit: None,
            quarantine: set.clone(),
        },
    )
    .unwrap();
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.snapshot_epoch, Some(pos.answers));
    assert_eq!(rec.quarantine, set, "snapshot set adopted when the tail is silent");
    let shrunk = vec![QuarantineEntry { worker: WorkerId(5), manual: true }];
    rec.wal.unwrap().append_quarantine(&shrunk).unwrap();
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.quarantine, shrunk, "tail record supersedes the snapshot's set");
    assert_eq!(rec.log.all(), answers.as_slice());
    drop(rec);

    // Verify reports the records and the effective set; compaction carries
    // the set through the rewritten WAL and fresh snapshot.
    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.is_empty(), "{:?}", verify.errors);
    assert_eq!(verify.quarantine_records, 2);
    assert_eq!(verify.quarantined, 1);
    store.compact_table("t").unwrap();
    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.is_empty(), "{:?}", verify.errors);
    assert_eq!(verify.quarantine_records, 1, "compaction keeps one replacement record");
    assert_eq!(verify.quarantined, 1);
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.quarantine, shrunk);
    assert_eq!(rec.log.all(), answers.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn misaligned_snapshot_offset_falls_back_to_full_replay_without_data_loss() {
    // Regression: a CRC-valid snapshot whose wal_offset is NOT a record
    // boundary (e.g. restored from a backup next to a newer WAL) makes the
    // first tail frame fail its checksum. That must trigger a full-replay
    // fallback — truncating at the bogus offset would destroy valid
    // acknowledged records.
    let dir = fresh_dir("misaligned");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(50, 7);
    let mut wal = store.create_table("t", &meta()).unwrap();
    let mid = wal.append_answers(&answers[..20]).unwrap();
    wal.append_answers(&answers[20..]).unwrap();
    wal.sync().unwrap();
    let full_len = wal.position().offset;
    drop(wal);
    tcrowd_store::write_snapshot(
        &store.table_dir("t"),
        &TableSnapshot {
            epoch: 20,
            wal_offset: mid.offset + 3, // inside the second record
            meta: meta(),
            log: log_of(&answers[..20]),
            fit: None,
            quarantine: Vec::new(),
        },
    )
    .unwrap();
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.snapshot_epoch, None, "misaligned snapshot must be distrusted");
    assert_eq!(rec.log.all(), answers.as_slice(), "no acknowledged answer may be lost");
    assert!(rec.torn.is_none());
    drop(rec);
    let wal_len =
        std::fs::metadata(store.table_dir("t").join(tcrowd_store::WAL_FILE)).unwrap().len();
    assert_eq!(wal_len, full_len, "the WAL must not be truncated at the bogus offset");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_flags_inconsistent_snapshots() {
    let dir = fresh_dir("verify");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(30, 6);
    let mut wal = store.create_table("t", &meta()).unwrap();
    wal.append_answers(&answers).unwrap();
    wal.sync().unwrap();
    let pos = wal.position();
    drop(wal);
    // A snapshot whose offset is NOT a record boundary.
    tcrowd_store::write_snapshot(
        &store.table_dir("t"),
        &TableSnapshot {
            epoch: 30,
            wal_offset: pos.offset - 1,
            meta: meta(),
            log: log_of(&answers),
            fit: None,
            quarantine: Vec::new(),
        },
    )
    .unwrap();
    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.iter().any(|e| e.contains("record boundary")), "{:?}", verify.errors);
    assert!(!verify.snapshot.unwrap().consistent);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_snapshot_chain_assists_recovery_and_survives_compaction() {
    // The happy path of the chain: base + several deltas covering a prefix,
    // a WAL tail past the tip. Recovery must combine the chain and replay
    // only the tail; `compact` must collapse the chain into one base.
    let dir = fresh_dir("chain_happy");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
    let answers = random_answers(90, 12);
    let mut wal = store.create_table("t", &meta()).unwrap();
    let mut marks = Vec::new(); // positions after 30/50/70 answers
    for (i, batch) in answers.chunks(10).enumerate() {
        let pos = wal.append_answers(batch).unwrap();
        if [2usize, 4, 6].contains(&i) {
            marks.push(pos);
        }
    }
    wal.sync().unwrap();
    drop(wal);
    let tdir = store.table_dir("t");
    tcrowd_store::write_snapshot(
        &tdir,
        &TableSnapshot {
            epoch: marks[0].answers,
            wal_offset: marks[0].offset,
            meta: meta(),
            log: log_of(&answers[..marks[0].answers as usize]),
            fit: None,
            quarantine: Vec::new(),
        },
    )
    .unwrap();
    for (seq, w) in marks.windows(2).enumerate() {
        tcrowd_store::write_snapshot_delta(
            &tdir,
            &SnapshotDelta {
                seq: seq as u64 + 1,
                parent_epoch: w[0].answers,
                epoch: w[1].answers,
                wal_offset: w[1].offset,
                answers: answers[w[0].answers as usize..w[1].answers as usize].to_vec(),
                fit: None,
                quarantine: Vec::new(),
            },
        )
        .unwrap();
    }

    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    assert_eq!(rec.snapshot_epoch, Some(70), "chain tip is the resume point");
    assert_eq!(rec.replayed_tail, 20, "only the post-chain tail is replayed");
    let chain = rec.chain.as_ref().expect("chain info");
    assert_eq!(chain.links, 2);
    assert_eq!(chain.base_epoch, 30);
    assert_eq!(chain.chain_answers, 40);
    assert!(chain.broken.is_none());
    drop(rec);

    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.is_empty(), "{:?}", verify.errors);
    let check = verify.snapshot.expect("chain present");
    assert_eq!(check.links, 2);
    assert!(check.consistent);

    // Compaction collapses the chain: one base, zero links.
    store.compact_table("t").unwrap();
    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.is_empty(), "{:?}", verify.errors);
    let check = verify.snapshot.expect("compaction writes a full snapshot");
    assert_eq!(check.links, 0, "compaction must collapse the chain");
    assert_eq!(check.epoch, answers.len() as u64);
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    assert_eq!(rec.replayed_tail, 0);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Incremental-snapshot chain recovery under fire: append N answers in
    /// random batches, persist a snapshot chain (base + deltas) at random
    /// batch boundaries, tear the WAL at a random byte offset AND rot a
    /// random chain file (or none). Whatever survives, recovery must
    /// reconstruct a bit-identical prefix of the acknowledged order:
    ///
    /// * chain tip ahead of the torn WAL → the rebuild branch restores the
    ///   chain's epoch (the chain is the more durable record);
    /// * chain tip at/behind the cut → chain + WAL tail replay restore the
    ///   longest checksummed WAL prefix;
    /// * a rotten base degrades to a full replay, a rotten delta truncates
    ///   the chain at that link — never an error, never a lost ack.
    #[test]
    fn snapshot_chain_recovery_survives_torn_tails_and_rotten_links(
        n in 1usize..140,
        seed in any::<u64>(),
        cut_frac in 0.0f64..=1.0,
        rot_pick in any::<u64>(),
    ) {
        let dir = fresh_dir(&format!("prop_chain_{seed}_{n}"));
        let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
        let answers = random_answers(n, seed);
        let batches = random_batches(&answers, seed ^ 0x5EED);
        let mut wal = store.create_table("t", &meta()).unwrap();
        let mut boundaries = vec![wal.position()];
        for b in &batches {
            boundaries.push(wal.append_answers(b).unwrap());
        }
        wal.sync().unwrap();
        drop(wal);
        let tdir = store.table_dir("t");

        // Persist a chain at a random subset of batch boundaries: the first
        // chosen point becomes the full base, later ones delta links.
        let mut chain_rng = StdRng::seed_from_u64(seed ^ 0xC4A1);
        let mut chain_files: Vec<(PathBuf, u64, u64)> = Vec::new(); // (path, epoch, offset)
        let mut parent: Option<u64> = None;
        for pos in &boundaries[1..] {
            if !chain_rng.gen_bool(0.34) {
                continue;
            }
            match parent {
                None => {
                    tcrowd_store::write_snapshot(&tdir, &TableSnapshot {
                        epoch: pos.answers,
                        wal_offset: pos.offset,
                        meta: meta(),
                        log: log_of(&answers[..pos.answers as usize]),
                        fit: None,
                        quarantine: Vec::new(),
                    }).unwrap();
                    chain_files.push((tdir.join(tcrowd_store::SNAPSHOT_FILE), pos.answers, pos.offset));
                }
                Some(p) if pos.answers > p => {
                    let seq = chain_files.len() as u64;
                    tcrowd_store::write_snapshot_delta(&tdir, &SnapshotDelta {
                        seq,
                        parent_epoch: p,
                        epoch: pos.answers,
                        wal_offset: pos.offset,
                        answers: answers[p as usize..pos.answers as usize].to_vec(),
                        fit: None,
                        quarantine: Vec::new(),
                    }).unwrap();
                    chain_files.push((
                        tdir.join(format!("{}{seq}", tcrowd_store::DELTA_PREFIX)),
                        pos.answers,
                        pos.offset,
                    ));
                }
                Some(_) => continue, // empty delta: skip
            }
            parent = Some(pos.answers);
        }

        // Rot one random chain file (or none), one flipped byte.
        let rot = if chain_files.is_empty() { 0 } else { rot_pick % (chain_files.len() as u64 + 1) };
        let valid_links: &[(PathBuf, u64, u64)] = if rot == 0 {
            &chain_files
        } else {
            let (path, _, _) = &chain_files[(rot - 1) as usize];
            let mut bytes = std::fs::read(path).unwrap();
            let at = (rot_pick as usize / 7) % bytes.len();
            bytes[at] ^= 0x20;
            std::fs::write(path, &bytes).unwrap();
            &chain_files[..(rot - 1) as usize]
        };
        let tip = valid_links.last().map(|&(_, epoch, offset)| (epoch, offset));

        // Tear the WAL.
        let wal_path = tdir.join(tcrowd_store::WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        let cut = (full.len() as f64 * cut_frac).round() as u64;
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
        let survived = boundaries.iter().rev().find(|p| p.offset <= cut).map(|p| p.answers);

        let rebuilt = matches!(tip, Some((_, offset)) if offset > cut);
        let expected = match (tip, survived) {
            (Some((epoch, offset)), _) if offset > cut => Some(epoch), // rebuild branch
            (_, Some(prefix)) => Some(prefix),                         // tail replay / full replay
            (None, None) => None,                                      // create torn, no chain
            (Some(_), None) => unreachable!("a chain boundary is always at or past the create"),
        };
        match expected {
            None => {
                prop_assert!(store.recover_table("t").is_err());
            }
            Some(expected) => {
                let rec = store.recover_table("t").unwrap();
                prop_assert_eq!(rec.log.all(), &answers[..expected as usize]);
                if let (Some(info), false) = (&rec.chain, rebuilt) {
                    prop_assert_eq!(
                        info.links + 1, valid_links.len() as u64,
                        "applied links must be exactly the uncorrupted prefix"
                    );
                }
                drop(rec);
                // Idempotence: a second recovery reproduces the same state.
                let again = store.recover_table("t").unwrap();
                prop_assert_eq!(again.log.all(), &answers[..expected as usize]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The fault-injection half of the crash property: instead of tearing
    /// bytes post-hoc, the WAL and snapshot writers are driven through a
    /// [`FaultyIo`] schedule of short writes (`ENOSPC`), fsync failures
    /// (`EIO`) and rename failures, interleaved at random call counts.
    /// Invariant, whatever fires:
    ///
    /// * **acked is a bit-identical prefix of recovered** — every batch the
    ///   WAL acknowledged survives recovery exactly;
    /// * **recovered is a prefix of attempted** at a batch boundary — an
    ///   fsync that failed *after* a complete frame reached the file may
    ///   legitimately resurrect a NACKed batch, but never fabricate or
    ///   reorder answers;
    /// * recovery is idempotent.
    #[test]
    fn faulty_io_schedules_never_lose_an_acked_answer(
        n in 1usize..120,
        seed in any::<u64>(),
        n_faults in 0usize..5,
    ) {
        let dir = fresh_dir(&format!("prop_faulty_{seed}_{n}_{n_faults}"));
        let io = FaultyIo::new();
        let store =
            Store::open_with_io(&dir, FsyncPolicy::Always, io.clone() as _).unwrap();
        let answers = random_answers(n, seed);
        let batches = random_batches(&answers, seed ^ 0xFA17);
        // Create the table before arming faults: a failed creation is the
        // aborted-creation case (GC'd residue), covered elsewhere — this
        // property is about the life of an acknowledged table.
        let mut wal = store.create_table("t", &meta()).unwrap();
        let mut frng = StdRng::seed_from_u64(seed ^ 0xFA171);
        for _ in 0..n_faults {
            let op = match frng.gen_range(0..4u8) {
                0 | 1 => FaultOp::Write,
                2 => FaultOp::Sync,
                _ => FaultOp::Rename,
            };
            // `nth` counts from the handle's creation: offset past the calls
            // the creation already spent so every fault lands in this run.
            let (w, s, r) = io.counts();
            let base = match op {
                FaultOp::Write => w,
                FaultOp::Sync => s,
                FaultOp::Rename => r,
            };
            let nth = base + frng.gen_range(1..=batches.len() as u64 * 2 + 3);
            let kind = match op {
                FaultOp::Write if frng.gen_bool(0.5) => {
                    FaultKind::ShortWrite { keep: frng.gen_range(0..64), errno: ENOSPC }
                }
                FaultOp::Write => FaultKind::Error(ENOSPC),
                _ => FaultKind::Error(EIO),
            };
            io.arm(Fault { op, nth, path_contains: None, kind });
        }

        // Acks are a prefix of the batches: the WAL poisons itself on the
        // first failed append and refuses the rest.
        let mut acked = 0usize;
        let mut last_pos = None;
        for b in &batches {
            match wal.append_answers(b) {
                Ok(pos) => {
                    acked += b.len();
                    last_pos = Some(pos);
                }
                Err(_) => break,
            }
        }
        drop(wal);
        // Attempt a snapshot at the last acked boundary (exercising the
        // write/rename faults on the snapshot path); a failure may leave a
        // tmp file behind, which recovery must ignore.
        if let Some(pos) = last_pos {
            let _ = tcrowd_store::write_snapshot_with_io(
                &store.table_dir("t"),
                &TableSnapshot {
                    epoch: pos.answers,
                    wal_offset: pos.offset,
                    meta: meta(),
                    log: log_of(&answers[..pos.answers as usize]),
                    fit: None,
                    quarantine: Vec::new(),
                },
                &(io.clone() as _),
            );
        }

        // The disk now stops failing; recovery must restore every ack.
        io.heal();
        let rec = store.recover_table("t").unwrap();
        let recovered = rec.log.len();
        prop_assert!(recovered >= acked, "recovered {recovered} < acked {acked}");
        prop_assert_eq!(rec.log.all(), &answers[..recovered], "bit-identical prefix");
        let mut boundary = 0usize;
        let at_boundary = batches.iter().any(|b| {
            boundary += b.len();
            boundary == recovered
        }) || recovered == 0;
        prop_assert!(at_boundary, "recovered {recovered} answers is not a batch boundary");
        drop(rec);
        let again = store.recover_table("t").unwrap();
        prop_assert_eq!(again.log.all(), &answers[..recovered]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// THE crash-recovery property (torn-write half): append N answers in
    /// random group-commit batches, kill the WAL at a random byte offset,
    /// recover — the recovered log is exactly the concatenation of the
    /// batches whose frames survived in full (the longest checksummed
    /// prefix), epochs are monotone, and the truncated WAL re-recovers to
    /// the same state (idempotence).
    #[test]
    fn torn_wal_recovers_longest_checksummed_prefix(
        n in 1usize..160,
        seed in any::<u64>(),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = fresh_dir(&format!("prop_{seed}_{n}"));
        let store = Store::open(&dir, FsyncPolicy::Flush).unwrap();
        let answers = random_answers(n, seed);
        let batches = random_batches(&answers, seed);
        let mut wal = store.create_table("t", &meta()).unwrap();
        // Boundary i = (byte offset, cumulative answers) after batch i-1.
        let mut boundaries = vec![wal.position()];
        for b in &batches {
            boundaries.push(wal.append_answers(b).unwrap());
        }
        wal.sync().unwrap();
        drop(wal);

        // Epoch monotonicity of the committed positions.
        for w in boundaries.windows(2) {
            prop_assert!(w[1].offset > w[0].offset);
            prop_assert!(w[1].answers >= w[0].answers);
        }

        let path = store.table_dir("t").join(tcrowd_store::WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let total = full.len() as u64;
        prop_assert_eq!(total, boundaries.last().unwrap().offset);
        // Kill point anywhere in the file, including inside the create
        // record and exactly at the end (no tear).
        let cut = (total as f64 * cut_frac).round() as u64;
        std::fs::write(&path, &full[..cut as usize]).unwrap();

        // Expected: every batch whose frame ends at or before the cut.
        let survived = boundaries.iter().rev().find(|p| p.offset <= cut);
        match survived {
            None => {
                // Even the create record is torn: the table is unrecoverable
                // and recovery must say so, not fabricate an empty table.
                prop_assert!(store.recover_table("t").is_err());
            }
            Some(pos) => {
                let expected = &answers[..pos.answers as usize];
                let rec = store.recover_table("t").unwrap();
                prop_assert_eq!(rec.log.all(), expected);
                prop_assert_eq!(rec.log.len() as u64, pos.answers);
                prop_assert_eq!(rec.torn.is_some(), cut > pos.offset);
                drop(rec);
                // Idempotence: recovering the truncated file changes nothing.
                let again = store.recover_table("t").unwrap();
                prop_assert_eq!(again.log.all(), expected);
                prop_assert!(again.torn.is_none());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
