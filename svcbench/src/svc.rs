//! Shared plumbing: the in-process durable service, wire encodings, data
//! directories, request accounting and the correctness checks both
//! workloads run.

use crate::client::Client;
use crate::host::CpuWindow;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Out;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tcrowd_core::{InferenceResult, TCrowd, TruthDist};
use tcrowd_service::{Json, Request, ServerHandle, TableRegistry};
use tcrowd_store::{FsyncPolicy, Store};
use tcrowd_tabular::{
    evaluate, Answer, AnswerLog, CellId, ColumnType, Dataset, Schema, Value, WorkerId,
};

/// Server worker threads: one per generator connection (two at most).
pub const SERVER_THREADS: usize = 2;
/// The `tcrowd serve` default, so acks never wait on the disk's fsync.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Flush;
/// Table config that keeps the table's own refresher idle: a refit trigger
/// above any table size and a cadence longer than any run.
pub const IDLE_REFIT_EVERY: usize = 1 << 30;
/// See [`IDLE_REFIT_EVERY`].
pub const IDLE_INTERVAL_MS: u64 = 60_000;

/// A durable service over a store directory, served on loopback.
pub struct Server {
    /// The hosted tables.
    pub registry: Arc<TableRegistry>,
    /// Bound loopback address.
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Server {
    /// Open the store at `root` and start the service over it.
    pub fn start(root: &Path) -> Result<Server, String> {
        let store = Store::open(root, FSYNC).map_err(|e| format!("store open: {e}"))?;
        let (registry, handle, _) =
            tcrowd_service::start_durable("127.0.0.1:0", SERVER_THREADS, Arc::new(store))
                .map_err(|e| format!("server start: {e}"))?;
        Ok(Server { registry, addr: handle.addr(), handle })
    }

    /// Stop serving, then stop every table (commit threads drained, store
    /// snapshots persisted). Close client connections first: a worker on
    /// an idle keep-alive connection only returns at its read timeout.
    pub fn stop(self) {
        self.handle.shutdown();
        self.registry.shutdown();
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct DataDir(pub PathBuf);

impl DataDir {
    /// `.svcbench/<name>-<pid>` under the current directory, emptied first.
    pub fn new(name: &str) -> DataDir {
        let path = PathBuf::from(".svcbench").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        DataDir(path)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes under a store root, split by file kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreBytes {
    /// Every file.
    pub total: u64,
    /// WAL segments.
    pub wal: u64,
    /// Snapshot bases and deltas.
    pub snapshot: u64,
}

/// Walk `root` and sum file sizes by kind.
pub fn store_bytes(root: &Path) -> StoreBytes {
    let mut out = StoreBytes::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            out.total += meta.len();
            if name.starts_with("wal") {
                out.wal += meta.len();
            } else if name.starts_with("snapshot") {
                out.snapshot += meta.len();
            }
        }
    }
    out
}

/// `POST /tables` body for `ds`.
pub fn create_body(id: &str, ds: &Dataset, refit_every: usize, interval_ms: u64) -> String {
    let columns: Vec<Json> = ds
        .schema
        .columns
        .iter()
        .map(|c| match &c.ty {
            ColumnType::Categorical { labels } => Json::obj([
                ("name", Json::from(c.name.clone())),
                ("type", Json::from("categorical")),
                ("labels", Json::Arr(labels.iter().map(|l| Json::from(l.clone())).collect())),
            ]),
            ColumnType::Continuous { min, max } => Json::obj([
                ("name", Json::from(c.name.clone())),
                ("type", Json::from("continuous")),
                ("min", Json::from(*min)),
                ("max", Json::from(*max)),
            ]),
        })
        .collect();
    Json::obj([
        ("id", Json::from(id)),
        ("rows", Json::from(ds.rows())),
        ("schema", Json::obj([("columns", Json::Arr(columns))])),
        ("policy", Json::from("structure-aware")),
        ("refit_every", Json::from(refit_every)),
        ("refresh_interval_ms", Json::from(interval_ms as usize)),
        ("warm_refits", Json::from(false)),
    ])
    .to_string()
}

/// `POST /tables` with `body`; any status but 201 is an error.
pub fn create_table(client: &mut Client, body: &str) -> Result<(), String> {
    match client.request("POST", "/tables", body.as_bytes()) {
        Ok((201, _)) => Ok(()),
        Ok((status, reply)) => {
            Err(format!("create: status {status}: {}", String::from_utf8_lossy(&reply)))
        }
        Err(e) => Err(format!("create: {e}")),
    }
}

/// `POST …/answers` body for a batch (categorical values as label indices).
pub fn batch_body(answers: &[Answer]) -> String {
    let docs = answers
        .iter()
        .map(|a| {
            Json::obj([
                ("worker", Json::from(a.worker.0)),
                ("row", Json::from(a.cell.row)),
                ("col", Json::from(a.cell.col)),
                (
                    "value",
                    match a.value {
                        Value::Categorical(l) => Json::from(l),
                        Value::Continuous(x) => Json::from(x),
                    },
                ),
            ])
        })
        .collect();
    Json::obj([("answers", Json::Arr(docs))]).to_string()
}

/// The `Request` the HTTP front end would hand `api::route`.
pub fn route_request(method: &str, target: &str, body: &[u8]) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        ),
        None => (target.to_string(), Vec::new()),
    };
    Request {
        method: method.to_string(),
        path,
        query,
        body: body.to_vec(),
        keep_alive: true,
        request_id: "svcbench".to_string(),
    }
}

/// Parse a response body.
pub fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    tcrowd_service::json::parse(text)
}

/// Requests attempted and failed in one phase. Any non-2xx status counts
/// as failed, 429 and 503 included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent (or calls made).
    pub attempted: u64,
    /// Requests that did not succeed.
    pub failed: u64,
}

impl Tally {
    /// Count one outcome.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Print the phase's accounting line.
    pub fn report(&self, workload: &str, phase: &str) {
        println!(
            "{workload} {phase}: {} attempted, {} succeeded, {} failed ({:.4} failure share)",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 }
        );
    }
}

/// `(error_rate, mnad)` of a fit's estimates against the generator's truth.
pub fn quality(schema: &Schema, truth: &[Vec<Value>], result: &InferenceResult) -> (f64, f64) {
    let report = evaluate(schema, truth, &result.estimates());
    (report.error_rate.unwrap_or(f64::NAN), report.mnad.unwrap_or(f64::NAN))
}

/// Decode the served `GET …/answers` document back into a log.
fn served_log(doc: &Json, schema: &Schema, rows: usize) -> Result<AnswerLog, String> {
    let answers = doc.get("answers").and_then(Json::as_array).ok_or("no 'answers' array")?;
    let mut log = AnswerLog::new(rows, schema.num_columns());
    for a in answers {
        let field = |k: &str| a.get(k).ok_or_else(|| format!("served answer lacks '{k}'"));
        let col = field("col")?.as_u64().ok_or("bad col")? as usize;
        let value = match schema.column_type(col) {
            ColumnType::Categorical { labels } => {
                let name = field("value")?.as_str().ok_or("bad label")?;
                Value::Categorical(
                    labels.iter().position(|l| l == name).ok_or("unknown label")? as u32
                )
            }
            ColumnType::Continuous { .. } => {
                Value::Continuous(field("value")?.as_f64().ok_or("bad value")?)
            }
        };
        log.push(Answer {
            worker: WorkerId(field("worker")?.as_u64().ok_or("bad worker")? as u32),
            cell: CellId::new(field("row")?.as_u64().ok_or("bad row")? as u32, col as u32),
            value,
        });
    }
    Ok(log)
}

/// Largest z-space gap between the served `truth?z=1` and an offline
/// `TCrowd::infer` of the served log.
pub fn offline_gap(
    client: &mut Client,
    table: &str,
    schema: &Schema,
    rows: usize,
) -> Result<f64, String> {
    let get = |client: &mut Client, path: String| -> Result<Json, String> {
        match client.request("GET", &path, b"") {
            Ok((200, body)) => parse(&body),
            Ok((status, _)) => Err(format!("GET {path}: status {status}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    };
    let log = served_log(&get(client, format!("/tables/{table}/answers"))?, schema, rows)?;
    let offline = TCrowd::default_full().infer(schema, &log);
    let served = get(client, format!("/tables/{table}/truth?z=1"))?;
    let grid = served.get("truth_z").and_then(Json::as_array).ok_or("no 'truth_z'")?;
    let mut gap = 0.0f64;
    for (i, row) in grid.iter().enumerate() {
        for (j, cell) in row.as_array().ok_or("bad truth row")?.iter().enumerate() {
            match offline.truth_z(CellId::new(i as u32, j as u32)) {
                TruthDist::Categorical(p) => {
                    let probs = cell.get("probs").and_then(Json::as_array).ok_or("no probs")?;
                    for (a, b) in probs.iter().zip(p) {
                        gap = gap.max((a.as_f64().ok_or("bad prob")? - b).abs());
                    }
                }
                TruthDist::Continuous(n) => {
                    let mean = cell.get("mean").and_then(Json::as_f64).ok_or("no mean")?;
                    let var = cell.get("var").and_then(Json::as_f64).ok_or("no var")?;
                    gap = gap.max((mean - n.mean).abs()).max((var - n.var).abs());
                }
            }
        }
    }
    Ok(gap)
}

/// Restart the service: reopen the store at `root` and recover every table,
/// at least `min` times and then while `deadline` has not passed, at most
/// `max` times. Each recovery must bring back exactly `tables` tables
/// holding `answers` acked answers. Traced runs also time
/// `Store::recover_all` alone. Returns the median recovery process CPU
/// time and the median wall time, in seconds.
#[allow(clippy::too_many_arguments)]
pub fn restart(
    tr: &mut Tracer,
    out: &mut Out,
    root: &Path,
    tables: usize,
    answers: u64,
    min: usize,
    max: usize,
    deadline: Instant,
) -> Result<(f64, f64), String> {
    let mut cpu = Vec::new();
    let mut wall = Vec::new();
    let mut r = 0u64;
    while (r as usize) < min || (Instant::now() < deadline && (r as usize) < max) {
        let span = tr.open(Instant::now());
        if tr.enabled() {
            let t = Instant::now();
            let store = Store::open(root, FSYNC).map_err(|e| format!("reopen: {e}"))?;
            let recs = store.recover_all().map_err(|e| format!("recover_all: {e}"))?;
            tr.record("store.recover", r, t, Instant::now());
            if r == 0 {
                let replayed: u64 = recs.iter().map(|rec| rec.replayed_tail).sum();
                out.layer("store.replayed_answers", replayed as f64, "count");
            }
        }
        let t = Instant::now();
        let window = CpuWindow::start();
        let store = Store::open(root, FSYNC).map_err(|e| format!("reopen: {e}"))?;
        let registry = TableRegistry::with_store(Arc::new(store));
        let report = registry.recover()?;
        cpu.push(window.process_ns() as f64 / 1e9);
        let end = Instant::now();
        tr.record("service.recover", r, t, end);
        wall.push((end - t).as_secs_f64());
        out.check(
            report.tables == tables && report.answers == answers,
            format!(
                "recovery {r}: {} tables / {} answers recovered, {tables} / {answers} acked",
                report.tables, report.answers
            ),
        );
        registry.shutdown();
        tr.close(span, "restart", r);
        r += 1;
    }
    if tr.enabled() {
        let store_ms = median(&tr.us("store.recover")) / 1e3;
        out.layer("store.recover_ms", store_ms, "ms");
        out.layer(
            "service.recover_self_ms",
            median(&tr.us("service.recover")) / 1e3 - store_ms,
            "ms",
        );
    }
    Ok((median(&cpu), median(&wall)))
}
