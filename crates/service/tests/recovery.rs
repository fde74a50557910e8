//! Durable-service crash recovery: the registry must come back from a data
//! directory with **zero acknowledged answers lost**, bit-identical logs,
//! and served truth that agrees with offline `TCrowd::infer` on the
//! recovered log — including when the crash tore the WAL mid-record.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tcrowd_core::diagnostics::max_z_discrepancy;
use tcrowd_core::TCrowd;
use tcrowd_service::{TableConfig, TableRegistry};
use tcrowd_store::WAL_FILE;
use tcrowd_store::{FsyncPolicy, Store};
use tcrowd_tabular::{generate_dataset, Answer, CellId, GeneratorConfig, Value, WorkerId};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tcrowd_service_recovery_tests")
        .join(format!("{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store(dir: &PathBuf) -> Arc<Store> {
    Arc::new(Store::open(dir, FsyncPolicy::Flush).unwrap())
}

/// A config whose refresher stays out of the way (tests drive refreshes
/// explicitly, so epochs are deterministic).
fn manual_config() -> TableConfig {
    TableConfig {
        refit_every: usize::MAX,
        refresh_interval: Duration::from_secs(3600),
        ..Default::default()
    }
}

#[test]
fn durable_lifecycle_survives_restart_with_snapshot_warm_start() {
    let dir = fresh_dir("lifecycle");
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 20,
            columns: 4,
            num_workers: 12,
            answers_per_task: 4,
            ..Default::default()
        },
        21,
    );

    // ---- Session 1: create, ingest, refresh (publishes + store snapshot),
    // ingest a tail that is covered by the WAL only, then "crash" (drop the
    // registry without shutdown — refreshers die unjoined, files stay).
    let n_snap = d.answers.len() / 2;
    {
        let reg = TableRegistry::with_store(store(&dir));
        let t =
            reg.create(Some("celeb".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
        assert!(t.durable());
        t.submit(&d.answers.all()[..n_snap]).unwrap();
        assert!(t.refresh_now());
        assert_eq!(t.last_store_snapshot_epoch(), Some(n_snap as u64));
        // WAL-only tail: acknowledged but never snapshotted.
        for chunk in d.answers.all()[n_snap..].chunks(7) {
            t.submit(chunk).unwrap();
        }
        t.stop_refresher(); // joins the thread; files are left as-is
    }

    // ---- Session 2: recover and check everything.
    let reg = TableRegistry::with_store(store(&dir));
    let report = reg.recover().unwrap();
    assert_eq!(report.tables, 1);
    assert_eq!(report.answers, d.answers.len() as u64);
    assert_eq!(report.with_snapshot, 1, "recovery must use the store snapshot");
    assert_eq!(
        report.replayed,
        (d.answers.len() - n_snap) as u64,
        "only the WAL tail beyond the snapshot is replayed"
    );
    let t = reg.get("celeb").expect("table recovered");
    let snap = t.snapshot();
    // Zero acknowledged answers lost, bit-identical order.
    assert_eq!(snap.epoch, d.answers.len());
    assert_eq!(snap.log.to_vec(), d.answers.all());
    assert_eq!(t.ingested() as usize, d.answers.len());
    // A WAL tail extends past the snapshot, so recovery re-fits the full
    // log exactly the way the refresher would have (cold by default):
    // served truth ≡ offline inference on the recovered log — exact, and a
    // fortiori within the 1e-6 acceptance bound.
    let offline = TCrowd::default_full().infer(&d.schema, &snap.log.to_log());
    let gap = max_z_discrepancy(&snap.result, &offline);
    assert_eq!(snap.result.estimates(), offline.estimates());
    assert!(gap < 1e-6, "recovered served truth diverges from offline inference: {gap:.3e}");
    // The config round-tripped through the WAL Create record.
    assert_eq!(t.config.refit_every, usize::MAX);
    // The table keeps working: ingest + refresh + assign.
    let extra =
        Answer { worker: WorkerId(999), cell: CellId::new(0, 0), value: d.answers.all()[0].value };
    if d.schema.column_type(0).accepts(&extra.value) {
        t.submit(&[extra]).unwrap();
        assert!(t.refresh_now());
        assert_eq!(t.snapshot().epoch, d.answers.len() + 1);
    }
    let (_, picks, _) = t.assign(WorkerId(777), 3, None).unwrap();
    assert_eq!(picks.len(), 3);
    reg.shutdown();

    // ---- Session 3: one more restart must see session 2's appends too.
    let n_now = {
        let reg = TableRegistry::with_store(store(&dir));
        reg.recover().unwrap();
        let t = reg.get("celeb").unwrap();
        let n = t.snapshot().epoch;
        reg.shutdown();
        n
    };
    assert!(n_now >= d.answers.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_covering_the_full_log_republishes_the_precrash_fit_without_em() {
    // The steady state: crash right after a publish (+ snapshot). Recovery
    // must republish the exact pre-crash served state — one E-step at the
    // persisted parameters, zero EM iterations — and that state is itself
    // the cold fit of the log, so offline agreement is ~float-rounding.
    let dir = fresh_dir("full_snapshot");
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 15,
            columns: 4,
            num_workers: 10,
            answers_per_task: 4,
            ..Default::default()
        },
        25,
    );
    let precrash = {
        let reg = TableRegistry::with_store(store(&dir));
        let t = reg.create(Some("t".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
        t.submit(d.answers.all()).unwrap();
        assert!(t.refresh_now());
        assert_eq!(t.last_store_snapshot_epoch(), Some(d.answers.len() as u64));
        let snap = t.snapshot();
        t.stop_refresher();
        snap
    };
    let reg = TableRegistry::with_store(store(&dir));
    let report = reg.recover().unwrap();
    assert_eq!(report.with_snapshot, 1);
    assert_eq!(report.replayed, 0, "nothing to replay past a full-epoch snapshot");
    let t = reg.get("t").unwrap();
    let snap = t.snapshot();
    assert_eq!(snap.log.to_vec(), precrash.log.to_vec());
    assert_eq!(snap.result.iterations, 0, "full-epoch snapshot recovery must not run EM");
    // Recovered state ≡ pre-crash published state.
    let pre_gap = max_z_discrepancy(&snap.result, &precrash.result);
    assert!(pre_gap < 1e-9, "recovered state differs from the pre-crash state: {pre_gap:.3e}");
    // …and therefore ≡ offline inference on the log, within the 1e-6 bound.
    let offline = TCrowd::default_full().infer(&d.schema, &snap.log.to_log());
    let gap = max_z_discrepancy(&snap.result, &offline);
    assert!(gap < 1e-6, "recovered served truth diverges from offline inference: {gap:.3e}");
    reg.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A 20×4 table with every answer ingested and published, plus the worker
/// with the most answers (the one the quarantine tests exclude).
fn published_table(
    reg: &TableRegistry,
    d: &tcrowd_tabular::Dataset,
) -> (Arc<tcrowd_service::TableState>, WorkerId) {
    let t = reg.create(Some("t".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
    t.submit(d.answers.all()).unwrap();
    assert!(t.refresh_now());
    let m = d.answers.to_matrix();
    let busiest = (0..m.num_workers()).max_by_key(|&w| m.worker_answer_indices(w).len()).unwrap();
    let worker = m.worker_id(busiest);
    (t, worker)
}

fn quarantine_dataset() -> tcrowd_tabular::Dataset {
    generate_dataset(
        &GeneratorConfig {
            rows: 20,
            columns: 4,
            num_workers: 10,
            answers_per_task: 4,
            ..Default::default()
        },
        27,
    )
}

#[test]
fn quarantine_republished_at_an_unchanged_epoch_survives_a_clean_restart() {
    // A quarantine change republishes the fit at the same epoch. That fit
    // must reach the store, so recovery republishes it without EM instead
    // of the older stored fit that still counted the quarantined worker.
    let dir = fresh_dir("quarantine_republish");
    let d = quarantine_dataset();
    let (worker, links) = {
        let reg = TableRegistry::with_store(store(&dir));
        let (t, worker) = published_table(&reg, &d);
        let links = t.store_snapshot_links().unwrap();
        // The quarantine wakes the refresher; stop it so the republish
        // below is this test's own, not a race with a background tick.
        t.stop_refresher();
        t.set_worker_quarantine(worker, true).unwrap();
        assert!(t.refresh_now(), "a quarantine change republishes");
        assert_eq!(t.snapshot().epoch, d.answers.len());
        assert_eq!(t.store_snapshot_links(), Some(links + 1), "one zero-answer link");
        reg.shutdown();
        assert_eq!(t.store_snapshot_links(), Some(links + 1), "shutdown publishes nothing");
        (worker, links + 1)
    };
    // The zero-answer link passes the store's own audit.
    let audit = store(&dir).verify_table("t").unwrap();
    assert!(audit.errors.is_empty(), "{:?}", audit.errors);
    assert!(audit.snapshot.is_some_and(|s| s.consistent && s.links == links));
    let reg = TableRegistry::with_store(store(&dir));
    assert_eq!(reg.recover().unwrap().replayed, 0);
    let t = reg.get("t").unwrap();
    assert_eq!(t.store_snapshot_links(), Some(links));
    reg.shutdown();
    assert_eq!(t.store_snapshot_links(), Some(links), "a restart never grows the chain");
    let snap = t.snapshot();
    assert_eq!(snap.trust.excluded, vec![worker]);
    assert_eq!(snap.result.iterations, 0, "the republished fit is evaluated, not refitted");
    let offline = TCrowd::default_full().infer(&d.schema, &d.answers.without_workers(&[worker]));
    let gap = max_z_discrepancy(&snap.result, &offline);
    assert!(gap < 1e-6, "recovered truth is not the filtered fit: {gap:.3e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_newer_than_the_stored_fit_is_honoured_after_a_crash() {
    // Crash after the quarantine record reached the WAL but before any
    // refresh applied it: the stored fit still counts the worker, so
    // recovery must refit without them rather than evaluate it.
    let dir = fresh_dir("quarantine_crash");
    let d = quarantine_dataset();
    let worker = {
        let reg = TableRegistry::with_store(store(&dir));
        let (t, worker) = published_table(&reg, &d);
        t.stop_refresher();
        t.set_worker_quarantine(worker, true).unwrap();
        worker
    };
    let reg = TableRegistry::with_store(store(&dir));
    assert_eq!(reg.recover().unwrap().replayed, 0);
    let snap = reg.get("t").unwrap().snapshot();
    assert_eq!(snap.trust.excluded, vec![worker]);
    let offline = TCrowd::default_full().infer(&d.schema, &d.answers.without_workers(&[worker]));
    let gap = max_z_discrepancy(&snap.result, &offline);
    assert!(gap < 1e-6, "recovered truth is not the filtered fit: {gap:.3e}");
    reg.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_without_snapshot_is_exact_cold_replay() {
    let dir = fresh_dir("cold");
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 10,
            columns: 3,
            num_workers: 6,
            answers_per_task: 3,
            ..Default::default()
        },
        22,
    );
    {
        let reg = TableRegistry::with_store(store(&dir));
        let t = reg.create(Some("t".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
        t.submit(d.answers.all()).unwrap();
        // No refresh → no store snapshot: pure WAL recovery.
        t.stop_refresher();
    }
    let reg = TableRegistry::with_store(store(&dir));
    let report = reg.recover().unwrap();
    assert_eq!(report.with_snapshot, 0);
    assert_eq!(report.replayed, d.answers.len() as u64);
    let t = reg.get("t").unwrap();
    let snap = t.snapshot();
    assert_eq!(snap.log.to_vec(), d.answers.all());
    // Cold recovery runs the default model on the recovered log — the
    // published state is the same pure function of the log the service
    // normally serves, so offline agreement is exact.
    let offline = TCrowd::default_full().infer(&d.schema, &snap.log.to_log());
    assert_eq!(snap.result.estimates(), offline.estimates());
    assert_eq!(max_z_discrepancy(&snap.result, &offline), 0.0);
    reg.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compacting_after_a_crash_drops_a_fit_that_misses_the_wal_tail() {
    // A crash leaves acknowledged answers past the last store snapshot, and
    // `tcrowd store compact` folds them into a fresh base. The stored fit
    // never saw them, so the base must not carry it: the next boot would
    // evaluate it over the whole log and serve it as settled.
    let dir = fresh_dir("compact_after_crash");
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 20,
            columns: 4,
            num_workers: 12,
            answers_per_task: 4,
            ..Default::default()
        },
        21,
    );
    let half = d.answers.len() / 2;
    {
        let reg = TableRegistry::with_store(store(&dir));
        let t = reg.create(Some("t".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
        t.submit(&d.answers.all()[..half]).unwrap();
        assert!(t.refresh_now());
        t.submit(&d.answers.all()[half..]).unwrap();
        t.stop_refresher();
    }
    store(&dir).compact_table("t").unwrap();
    let reg = TableRegistry::with_store(store(&dir));
    reg.recover().unwrap();
    let t = reg.get("t").unwrap();
    let snap = t.snapshot();
    assert_eq!(snap.log.to_vec(), d.answers.all());
    let offline = TCrowd::default_full().infer(&d.schema, &snap.log.to_log());
    let gap = max_z_discrepancy(&snap.result, &offline);
    assert!(gap < 1e-6, "served truth after compaction is a stale fit: {gap:.3e}");
    reg.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `name:size` of every file in a table directory: the other files by
/// name, then the snapshot deltas by sequence number, with each run of
/// consecutive deltas of one size folded into `snapshot.delta.A..=B:size`.
fn layout(dir: &std::path::Path) -> String {
    let mut files: Vec<(Option<u64>, String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            let seq = name.strip_prefix("snapshot.delta.").and_then(|s| s.parse().ok());
            (seq, name, e.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    let mut out: Vec<String> = Vec::new();
    let mut run: Option<(u64, u64, u64)> = None;
    for (seq, name, len) in files {
        if let (Some(s), Some((_, last, size))) = (seq, run.as_mut()) {
            if s == *last + 1 && len == *size {
                *last = s;
                continue;
            }
        }
        if let Some((first, last, size)) = run.take() {
            out.push(format!("snapshot.delta.{first}..={last}:{size}"));
        }
        match seq {
            Some(s) => run = Some((s, s, len)),
            None => out.push(format!("{name}:{len}")),
        }
    }
    if let Some((first, last, size)) = run {
        out.push(format!("snapshot.delta.{first}..={last}:{size}"));
    }
    out.join(" ")
}

#[test]
fn a_durable_tables_files_follow_a_fixed_history() {
    // Pins the on-disk layout a publish history leaves: a base on the first
    // persist, one delta per publish (zero answers for a republish at an
    // unchanged epoch), a collapse into a fresh base past 32 links that
    // drops the deltas and the cold WAL segments, and WAL rotation.
    let dir = fresh_dir("layout");
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 20,
            columns: 4,
            num_workers: 12,
            answers_per_task: 4,
            ..Default::default()
        },
        28,
    );
    let answers = d.answers.all();
    let s = Arc::new(Store::open(&dir, FsyncPolicy::Flush).unwrap().with_segment_max(2048));
    let reg = TableRegistry::with_store(Arc::clone(&s));
    let t = reg.create(Some("t".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
    t.stop_refresher();
    let tdir = s.table_dir("t");
    let mut seen = vec![layout(&tdir)];
    let publish = |range: std::ops::Range<usize>| {
        t.submit(&answers[range]).unwrap();
        assert!(t.refresh_now());
    };
    publish(0..100);
    seen.push(layout(&tdir));
    publish(100..140);
    seen.push(layout(&tdir));
    t.set_worker_quarantine(answers[0].worker, true).unwrap();
    assert!(t.refresh_now());
    seen.push(layout(&tdir));
    for i in 0..30 {
        publish(140 + 5 * i..145 + 5 * i);
    }
    seen.push(layout(&tdir));
    publish(290..300);
    seen.push(layout(&tdir));
    publish(300..answers.len());
    seen.push(layout(&tdir));
    reg.shutdown();
    seen.push(layout(&tdir));
    assert_eq!(t.store_snapshot_links(), Some(1));
    let links = "snapshot.delta.1..=1:1221 snapshot.delta.2..=2:454 \
                 snapshot.delta.3..=4:547 snapshot.delta.5..=6:551 snapshot.delta.7..=8:547 \
                 snapshot.delta.9..=10:551 snapshot.delta.11..=12:547 \
                 snapshot.delta.13..=14:551 snapshot.delta.15..=16:547 \
                 snapshot.delta.17..=18:551 snapshot.delta.19..=20:547 \
                 snapshot.delta.21..=22:551 snapshot.delta.23..=24:547 \
                 snapshot.delta.25..=26:551 snapshot.delta.27..=28:547 \
                 snapshot.delta.29..=30:551 snapshot.delta.31..=32:547";
    let expected = [
        // Created: the Create record alone.
        "wal.log:649".to_string(),
        // First publish: a base; wal.log rotated and, wholly below the
        // base, was compacted away.
        "snapshot.snap:3001 wal.00000001.log:33".to_string(),
        "snapshot.snap:3001 wal.00000001.log:806 snapshot.delta.1..=1:1221".to_string(),
        // The quarantine record, and a zero-answer link for its republish.
        "snapshot.snap:3001 wal.00000001.log:824 snapshot.delta.1..=1:1221 \
         snapshot.delta.2..=2:454"
            .to_string(),
        format!("snapshot.snap:3001 wal.00000001.log:2120 wal.00000002.log:1973 {links}"),
        // The 33rd link collapses the chain into a base.
        "snapshot.snap:6794 wal.00000003.log:33".to_string(),
        "snapshot.snap:6794 wal.00000003.log:426 snapshot.delta.1..=1:834".to_string(),
        // Shutdown persists nothing new.
        "snapshot.snap:6794 wal.00000003.log:426 snapshot.delta.1..=1:834".to_string(),
    ];
    assert_eq!(seen, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleted_tables_do_not_come_back() {
    let dir = fresh_dir("deleted");
    let d = generate_dataset(&GeneratorConfig { rows: 8, columns: 3, ..Default::default() }, 23);
    {
        let reg = TableRegistry::with_store(store(&dir));
        reg.create(Some("keep".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
        reg.create(Some("drop".into()), d.schema.clone(), d.rows(), manual_config()).unwrap();
        assert!(reg.remove("drop"));
        reg.shutdown();
    }
    let reg = TableRegistry::with_store(store(&dir));
    reg.recover().unwrap();
    assert_eq!(reg.list(), vec!["keep".to_string()]);
    reg.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Random schema-conforming answers (mixed datatypes, repeated workers).
fn random_stream(schema: &tcrowd_tabular::Schema, rows: u32, n: usize, seed: u64) -> Vec<Answer> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols = schema.num_columns() as u32;
    (0..n)
        .map(|_| {
            let cell = CellId::new(rng.gen_range(0..rows), rng.gen_range(0..cols));
            let value = match schema.column_type(cell.col as usize) {
                tcrowd_tabular::ColumnType::Categorical { labels } => {
                    Value::Categorical(rng.gen_range(0..labels.len() as u32))
                }
                tcrowd_tabular::ColumnType::Continuous { min, max } => {
                    Value::Continuous(rng.gen_range(*min..*max))
                }
            };
            Answer { worker: WorkerId(rng.gen_range(0..6)), cell, value }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// THE crash-recovery property (service half): ingest N answers in
    /// random batches through a durable table, kill the WAL at a random
    /// byte offset, recover through the registry — the service serves
    /// exactly the longest checksummed prefix and its published truth
    /// matches offline `TCrowd::infer` on that prefix.
    #[test]
    fn served_truth_after_torn_crash_matches_offline_inference(
        n in 1usize..60,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = fresh_dir(&format!("prop_{seed}_{n}"));
        let d = generate_dataset(
            &GeneratorConfig { rows: 8, columns: 3, num_workers: 6, ..Default::default() },
            24,
        );
        let answers = random_stream(&d.schema, d.rows() as u32, n, seed);
        let mut batch_ends = vec![0usize];
        {
            let reg = TableRegistry::with_store(store(&dir));
            let t = reg
                .create(Some("t".into()), d.schema.clone(), d.rows(), manual_config())
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51CE);
            let mut at = 0;
            while at < answers.len() {
                let take = rng.gen_range(1..=4usize).min(answers.len() - at);
                t.submit(&answers[at..at + take]).unwrap();
                at += take;
                batch_ends.push(at);
            }
            t.stop_refresher();
        }
        // Tear the WAL at a random byte offset.
        let wal_path = {
            let s = store(&dir);
            s.table_dir("t").join(WAL_FILE)
        };
        let create_end =
            tcrowd_store::replay(&wal_path).unwrap().records[0].end_offset as usize;
        let full = std::fs::read(&wal_path).unwrap();
        let cut = ((full.len() as f64) * cut_frac).round() as usize;
        std::fs::write(&wal_path, &full[..cut]).unwrap();

        let reg = TableRegistry::with_store(store(&dir));
        let report = reg.recover();
        prop_assert!(report.is_ok(), "recovery must not abort: {:?}", report.err());
        match reg.get("t") {
            None => {
                // The Create record itself was torn, so the directory is
                // indistinguishable from a crashed, never-acknowledged
                // `POST /tables` and is garbage-collected. Legal exactly
                // when the cut landed inside the create frame.
                prop_assert!(
                    cut < create_end,
                    "table vanished although its create record was intact (cut {} >= {})",
                    cut, create_end
                );
            }
            Some(t) => {
                let snap = t.snapshot();
                // The recovered log is a batch-aligned prefix of what was
                // acknowledged (the longest checksummed prefix).
                prop_assert!(
                    batch_ends.contains(&snap.epoch),
                    "epoch {} is not a group-commit boundary {:?}", snap.epoch, batch_ends
                );
                prop_assert_eq!(snap.log.to_vec(), &answers[..snap.epoch]);
                // Served truth ≡ offline inference on the served prefix
                // (cold recovery fit — exact agreement, asserted at the
                // 1e-6 contract the acceptance criteria name).
                let offline = TCrowd::default_full().infer(&d.schema, &snap.log.to_log());
                let gap = max_z_discrepancy(&snap.result, &offline);
                prop_assert!(gap < 1e-6, "served/offline gap {:.3e}", gap);
                reg.shutdown();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
