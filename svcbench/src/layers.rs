//! Calls into each layer's public functions, at a chosen depth, wrapped in
//! spans; the isolated core and store calls timed on a phase's final
//! state; and the per-layer metrics derived from the spans.
//!
//! A traced run rotates the entry depth of request paths from one request
//! to the next (HTTP, `api::route` on the same `Request`, the
//! `TableState` call on pre-decoded input, `make_policy(..).select` on the
//! same snapshot), so each request still does its work once and a layer's
//! self time is the difference between adjacent medians.

use crate::client::Client;
use crate::host::CpuWindow;
use crate::stats::{median, percentile, sorted};
use crate::svc::{parse, route_request, Server, FSYNC};
use crate::trace::Tracer;
use crate::Out;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tcrowd_core::{AssignmentContext, CorrelationModel, FitParams, TCrowd};
use tcrowd_service::{make_policy, Json, TableState};
use tcrowd_store::{
    write_snapshot, write_snapshot_delta, DurableMark, GroupCommit, MarkSink, SnapshotDelta,
    TableMeta, TableSnapshot, Wal,
};
use tcrowd_tabular::{Answer, AnswerLog, CellId, WorkerId};
use tcrowd_trust::score_workers;

/// Entry depths of the assignment path, outermost first.
pub const ASSIGN_DEPTHS: usize = 4;
/// Entry depths of the ingest path, outermost first.
pub const INGEST_DEPTHS: usize = 3;
/// Repeats of each isolated call.
const REPS: usize = 5;

fn cells(doc: &Json) -> Result<Vec<CellId>, String> {
    let arr = doc.get("cells").and_then(Json::as_array).ok_or("reply has no 'cells'")?;
    arr.iter()
        .map(|c| {
            let row = c.get("row").and_then(Json::as_u64).ok_or("cell without row")?;
            let col = c.get("col").and_then(Json::as_u64).ok_or("cell without col")?;
            Ok(CellId::new(row as u32, col as u32))
        })
        .collect()
}

/// One assignment for `worker` entered at `depth` (0 = HTTP); records a
/// span named after the entry layer.
#[allow(clippy::too_many_arguments)]
pub fn assign(
    depth: usize,
    tr: &mut Tracer,
    client: &mut Client,
    server: &Server,
    table: &TableState,
    worker: u32,
    k: usize,
    key: u64,
) -> Result<Vec<CellId>, String> {
    let target = format!("/tables/{}/assignment?worker={worker}&k={k}", table.id);
    match depth {
        0 => {
            let start = Instant::now();
            let (status, body) =
                client.request("GET", &target, b"").map_err(|e| format!("GET {target}: {e}"))?;
            tr.record("http.assign", key, start, Instant::now());
            if status != 200 {
                return Err(format!("GET {target}: status {status}"));
            }
            cells(&parse(&body)?)
        }
        1 => {
            let req = route_request("GET", &target, b"");
            let start = Instant::now();
            let resp = tcrowd_service::api::route(&server.registry, &req);
            tr.record("api.assign", key, start, Instant::now());
            if resp.status != 200 {
                return Err(format!("route {target}: status {}", resp.status));
            }
            cells(&parse(&resp.body)?)
        }
        2 => tr.time("table.assign", key, || {
            table.assign(WorkerId(worker), k, None).map(|(_, picks, _)| picks)
        }),
        _ => tr.time("assign.select", key, || {
            let snap = table.snapshot();
            let mut policy = make_policy(&table.config.policy, table.rows(), table.config.seed)?;
            let ctx = AssignmentContext {
                schema: &table.schema,
                answers: snap.matrix.as_ref(),
                freeze: snap.matrix.freeze_view(),
                inference: Some(&snap.result),
                max_answers_per_cell: table.config.max_answers_per_cell,
                terminated: None,
                correlation: Some(&snap.correlation),
            };
            Ok(policy.select(WorkerId(worker), k, &ctx))
        }),
    }
}

/// One ingest of `answers` (pre-encoded as `body`) entered at `depth`
/// (0 = HTTP). Returns the table's ingested total the reply reported.
#[allow(clippy::too_many_arguments)]
pub fn ingest(
    depth: usize,
    tr: &mut Tracer,
    client: &mut Client,
    server: &Server,
    table: &TableState,
    answers: &[Answer],
    body: &[u8],
    key: u64,
) -> Result<u64, String> {
    let target = format!("/tables/{}/answers", table.id);
    let (status, reply) = match depth {
        0 => {
            let start = Instant::now();
            let (status, reply) =
                client.request("POST", &target, body).map_err(|e| format!("POST {target}: {e}"))?;
            tr.record("http.ingest", key, start, Instant::now());
            (status, reply)
        }
        1 => {
            let req = route_request("POST", &target, body);
            let start = Instant::now();
            let resp = tcrowd_service::api::route(&server.registry, &req);
            tr.record("api.ingest", key, start, Instant::now());
            (resp.status, resp.body)
        }
        _ => {
            let accepted = tr.time("table.submit", key, || table.submit(answers))?;
            if accepted != answers.len() {
                return Err(format!("submit accepted {accepted} of {}", answers.len()));
            }
            return Ok(table.ingested());
        }
    };
    if status != 200 {
        return Err(format!("POST {target}: status {status}"));
    }
    let doc = parse(&reply)?;
    if doc.get("accepted").and_then(Json::as_u64) != Some(answers.len() as u64) {
        return Err(format!("POST {target}: not every answer accepted: {doc}"));
    }
    doc.get("ingested_total").and_then(Json::as_u64).ok_or("reply has no 'ingested_total'".into())
}

/// Time the refresh path's parts in isolation on `table`'s published
/// state: the merge of one refit's Δ (or the freeze of the whole log), a
/// cold EM fit, trust scoring, the correlation fit and the store persist
/// of the Δ (or of a full base). Also times `json::parse` over `bodies`
/// and a standalone group-committed WAL fed `batches`.
#[allow(clippy::too_many_arguments)]
pub fn isolated(
    tr: &mut Tracer,
    out: &mut Out,
    table: &TableState,
    delta: usize,
    full_persist: bool,
    bodies: &[(usize, String)],
    batches: &[Vec<Answer>],
    scratch: &Path,
    mut before_rep: impl FnMut(&mut Tracer, u64) -> Result<(), String>,
) -> Result<(), String> {
    let meta = TableMeta {
        rows: table.rows(),
        schema: table.schema.clone(),
        config: table.config.to_kv(),
    };
    let mut fit_cpu = Vec::new();
    let mut persist_bytes = 0u64;
    let mut tail = Vec::new();
    for rep in 0..REPS as u64 {
        // The caller may refresh the table first, so that the refresh and
        // its isolated parts run side by side on the same state.
        let round = tr.open(Instant::now());
        before_rep(tr, rep)?;
        let snap = table.snapshot();
        let n = snap.epoch;
        let delta = delta.min(n);
        let log: AnswerLog = snap.log.to_log();
        tail = snap.log.range_vec(n - delta, n);
        let mut prefix_log = AnswerLog::new(table.rows(), table.cols());
        for a in snap.log.iter_range(0, n - delta) {
            prefix_log.push(*a);
        }
        let prefix_matrix = prefix_log.to_matrix();
        tr.time("tabular.merge", rep, || std::hint::black_box(prefix_matrix.merge_delta(&tail)));
        tr.time("tabular.freeze", rep, || std::hint::black_box(log.to_matrix()));
        let cpu = CpuWindow::start();
        let fit = tr.time("em.fit", rep, || {
            TCrowd::default_full().infer_matrix(&table.schema, &snap.matrix)
        });
        fit_cpu.push(cpu.process_ns() as f64 / 1e6);
        std::hint::black_box(&fit);
        tr.time("trust.score", rep, || {
            std::hint::black_box(score_workers(&snap.result, &snap.matrix, &table.config.trust))
        });
        tr.time("correlation.fit", rep, || {
            std::hint::black_box(CorrelationModel::fit_matrix(
                &table.schema,
                &snap.matrix,
                &snap.result,
            ))
        });
        let dir = scratch.join(format!("persist-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        let written = tr.time("store.persist", rep, || {
            if full_persist {
                write_snapshot(
                    &dir,
                    &TableSnapshot {
                        epoch: n as u64,
                        wal_offset: 0,
                        meta: meta.clone(),
                        log: log.clone(),
                        fit: Some(FitParams::of(&snap.result)),
                        quarantine: Vec::new(),
                    },
                )
            } else {
                write_snapshot_delta(
                    &dir,
                    &SnapshotDelta {
                        seq: 1,
                        parent_epoch: (n - delta) as u64,
                        epoch: n as u64,
                        wal_offset: 0,
                        answers: tail.clone(),
                        fit: Some(FitParams::of(&snap.result)),
                        quarantine: Vec::new(),
                    },
                )
            }
        });
        written.map_err(|e| format!("isolated persist: {e}"))?;
        persist_bytes = crate::svc::store_bytes(&dir).total;
        tr.close(round, "isolated", rep);
    }
    out.layer("em.fit_cpu_ms", median(&fit_cpu), "ms");
    out.layer("store.persist_bytes", persist_bytes as f64, "B");

    let parsed: usize = bodies
        .iter()
        .enumerate()
        .map(|(i, (answers, body))| {
            tr.time("json.parse", i as u64, || tcrowd_service::json::parse(body).map(|_| *answers))
        })
        .collect::<Result<Vec<usize>, String>>()?
        .iter()
        .sum();
    let parse_us: f64 = tr.us("json.parse").iter().sum();
    out.layer("json.parse_us_per_answer", parse_us / parsed.max(1) as f64, "us");

    let wal_dir = scratch.join("commit");
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let wal = Wal::create(&wal_dir, &meta, FSYNC).map_err(|e| format!("standalone WAL: {e}"))?;
    let wal = Arc::new(Mutex::new(wal));
    let committer =
        GroupCommit::spawn_plain(Arc::clone(&wal), Arc::new(MarkSink(DurableMark::default())));
    let commit = |batch: &[Answer]| {
        committer.submit(batch.to_vec()).and_then(|ticket| ticket.wait()).map(|_| ())
    };
    for (i, batch) in batches.iter().enumerate() {
        tr.time("store.commit", i as u64, || commit(batch))?;
    }
    // The WAL sync a refresh makes before its store snapshot, after one
    // refit's Δ has been committed.
    for rep in 0..REPS as u64 {
        commit(&tail)?;
        tr.time("store.wal_sync", rep, || wal.lock().expect("standalone WAL lock").sync())
            .map_err(|e| format!("standalone WAL sync: {e}"))?;
    }
    committer.shutdown();
    Ok(())
}

/// `assign.candidates`: median size of `AssignmentContext::candidates` on
/// the published snapshot, over the workers the phase assigned to.
pub fn candidates(out: &mut Out, table: &TableState, workers: impl Iterator<Item = u32>) {
    let snap = table.snapshot();
    let ctx = AssignmentContext {
        schema: &table.schema,
        answers: snap.matrix.as_ref(),
        freeze: snap.matrix.freeze_view(),
        inference: Some(&snap.result),
        max_answers_per_cell: table.config.max_answers_per_cell,
        terminated: None,
        correlation: Some(&snap.correlation),
    };
    let counts: Vec<f64> = workers.map(|w| ctx.candidates(WorkerId(w)).len() as f64).collect();
    out.layer("assign.candidates", median(&counts), "count");
}

/// Median span duration of `name`, in microseconds.
fn p50(tr: &Tracer, name: &str) -> f64 {
    median(&tr.us(name))
}

/// The span-derived per-layer metrics shared by both workloads, plus the
/// refresh-path attribution: the isolated parts' medians against the
/// median `refresh_now` recorded as `attributed_to` (refreshes that ran
/// with nothing else running). `full_refresh` selects the freeze (bulk
/// import) over the Δ merge (steady-state refit) as the refresh's matrix
/// step.
pub fn span_layers(tr: &Tracer, out: &mut Out, full_refresh: bool, attributed_to: &str) {
    out.layer("http.assign_self_us", p50(tr, "http.assign") - p50(tr, "api.assign"), "us");
    out.layer("api.assign_self_us", p50(tr, "api.assign") - p50(tr, "table.assign"), "us");
    out.layer("table.assign_self_us", p50(tr, "table.assign") - p50(tr, "assign.select"), "us");
    let select = sorted(tr.us("assign.select"));
    out.layer("assign.select_us_p50", percentile(&select, 0.5), "us");
    out.layer("assign.select_us_p99", percentile(&select, 0.99), "us");
    out.layer("http.ingest_self_us", p50(tr, "http.ingest") - p50(tr, "api.ingest"), "us");
    out.layer("api.ingest_self_us", p50(tr, "api.ingest") - p50(tr, "table.submit"), "us");
    let submit = sorted(tr.us("table.submit"));
    out.layer("table.submit_us_p50", percentile(&submit, 0.5), "us");
    out.layer("table.submit_us_p99", percentile(&submit, 0.99), "us");
    let refresh = tr.us("table.refresh");
    out.layer("table.refresh_ms_p50", median(&refresh) / 1e3, "ms");
    out.layer("table.refresh_ms_max", refresh.iter().copied().fold(f64::NAN, f64::max) / 1e3, "ms");
    out.layer("table.refreshes", refresh.len() as f64, "count");
    for (metric, span) in [
        ("em.fit_ms", "em.fit"),
        ("tabular.merge_ms", "tabular.merge"),
        ("tabular.freeze_ms", "tabular.freeze"),
        ("correlation.fit_ms", "correlation.fit"),
        ("trust.score_ms", "trust.score"),
        ("store.persist_ms", "store.persist"),
        ("store.wal_sync_ms", "store.wal_sync"),
    ] {
        out.layer(metric, p50(tr, span) / 1e3, "ms");
    }
    out.layer("store.commit_us_p50", p50(tr, "store.commit"), "us");
    let matrix_step = if full_refresh { "tabular.freeze" } else { "tabular.merge" };
    let parts = [
        matrix_step,
        "em.fit",
        "trust.score",
        "correlation.fit",
        "store.wal_sync",
        "store.persist",
    ];
    let attributed: f64 = parts.iter().map(|s| p50(tr, s)).sum();
    let whole = median(&tr.us(attributed_to));
    let unattributed = 1.0 - attributed / whole;
    out.layer("refresh.unattributed_frac", unattributed, "ratio");
    println!(
        "refresh attribution: parts {:.1} ms of median refresh_now {:.1} ms -> {:.1}% unattributed \
         ({})",
        attributed / 1e3,
        whole / 1e3,
        unattributed * 100.0,
        if unattributed <= 0.10 { "within the 10% gate" } else { "OVER the 10% gate" }
    );
    println!(
        "request-path self time: http assign {:.1} us, http ingest {:.1} us (depth rotation \
         attributes the rest by construction)",
        p50(tr, "http.assign") - p50(tr, "api.assign"),
        p50(tr, "http.ingest") - p50(tr, "api.ingest"),
    );
}
