//! Observability over the wire: `/metrics` Prometheus exposition covering
//! every instrumented subsystem (and passing the exposition lint), the
//! per-table `/events` lifecycle replay with correlation ids and `?since`
//! pagination, and the exhaustive `/stats` schema contract.

mod common;

use common::Client;
use std::path::PathBuf;
use std::sync::Arc;
use tcrowd_service::Json;
use tcrowd_store::{FsyncPolicy, Store};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tcrowd_service_obs_tests")
        .join(format!("{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const CREATE_BODY: &str = r#"{
    "id": "obs", "rows": 4,
    "refit_every": 100000, "refresh_interval_ms": 60000,
    "schema": {"columns": [
        {"name": "kind", "type": "categorical", "labels": ["x", "y"]},
        {"name": "size", "type": "continuous", "min": 0, "max": 10}
    ]}
}"#;

/// Every instrumented subsystem shows up in `/metrics` for a live durable
/// table — ingest counters, HTTP request histograms per endpoint, refit
/// phase timings, WAL + snapshot durations, health and trust gauges — and
/// the whole exposition passes the Prometheus text-format lint.
#[test]
fn metrics_exposition_covers_every_subsystem_and_lints_clean() {
    let dir = fresh_dir("metrics");
    let store = Arc::new(Store::open(&dir, FsyncPolicy::Always).unwrap());
    let (registry, server, _) =
        tcrowd_service::start_durable("127.0.0.1:0", 2, store).expect("start server");
    let client = Client { addr: server.addr() };

    assert_eq!(client.post("/tables", CREATE_BODY).0, 201);
    let (status, r) =
        client.post("/tables/obs/answers", r#"{"worker":1,"row":0,"col":0,"value":"x"}"#);
    assert_eq!(status, 200, "{r}");
    assert_eq!(client.get("/tables/obs/assignment?worker=2&k=2").0, 200);
    assert_eq!(client.post("/tables/obs/refresh", "").0, 200);

    let (status, headers, text) = client.get_raw("/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        Client::header(&headers, "content-type"),
        Some("text/plain; version=0.0.4"),
        "{headers:?}"
    );
    tcrowd_obs::lint(&text).unwrap_or_else(|e| panic!("exposition lint: {e}\n{text}"));

    // Ingest counters count what was acked.
    assert!(text.contains("tcrowd_ingest_answers_total{table=\"obs\"} 1"), "{text}");
    assert!(text.contains("tcrowd_ingest_batches_total{table=\"obs\"} 1"), "{text}");
    // Refit phase timings recorded the explicit refresh.
    for h in [
        "tcrowd_refit_seconds",
        "tcrowd_em_estep_seconds",
        "tcrowd_em_mstep_seconds",
        "tcrowd_em_elbo_seconds",
    ] {
        assert!(text.contains(&format!("# TYPE {h} histogram")), "{h} typed\n{text}");
        assert!(text.contains(&format!("{h}_count{{table=\"obs\"}} 1")), "{h} observed\n{text}");
    }
    // ...and its M-step objective passes landed in their counter.
    let evals = text
        .lines()
        .find_map(|l| l.strip_prefix("tcrowd_em_objective_evals_total{table=\"obs\"} "))
        .unwrap_or_else(|| panic!("no objective-evals counter\n{text}"));
    assert!(evals.parse::<u64>().unwrap() > 0, "{text}");
    // Durability timings: the acked append and the published snapshot were
    // timed (fsync too, under FsyncPolicy::Always).
    assert!(text.contains("tcrowd_wal_append_seconds_count{table=\"obs\"} 1"), "{text}");
    assert!(!text.contains("tcrowd_wal_fsync_seconds_count{table=\"obs\"} 0"), "{text}");
    assert!(text.contains("tcrowd_snapshot_persist_seconds_count{table=\"obs\"} 1"), "{text}");
    // Health and trust gauges for the live table.
    assert!(text.contains("tcrowd_table_health{table=\"obs\"} 0"), "{text}");
    for g in ["tcrowd_quarantined_workers", "tcrowd_suspect_workers", "tcrowd_trust_seq"] {
        assert!(text.contains(&format!("{g}{{table=\"obs\"}} 0")), "{g}\n{text}");
    }
    // Request latency histograms, one series per (endpoint, method), with
    // ids collapsed out of the label.
    for endpoint in ["/tables/:id/answers", "/tables/:id/assignment", "/tables/:id/refresh"] {
        assert!(
            text.contains(&format!("tcrowd_http_request_seconds_count{{endpoint=\"{endpoint}\"")),
            "{endpoint}\n{text}"
        );
    }

    // Deleting the table drops its series from the exposition.
    assert_eq!(client.request("DELETE", "/tables/obs", None).0, 200);
    let (_, _, text) = client.get_raw("/metrics");
    assert!(!text.contains("table=\"obs\""), "deleted table still exposed:\n{text}");
    tcrowd_obs::lint(&text).unwrap();

    registry.shutdown();
    server.shutdown();
}

/// The `/events` ring replays the table lifecycle in order, threads the
/// ingest request's correlation id through, and paginates with
/// `?since=seq` — while the front end echoes `X-Request-Id` (client-sent
/// or server-generated) on every response.
#[test]
fn events_replay_lifecycle_with_correlation_ids_and_pagination() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    assert_eq!(client.post("/tables", CREATE_BODY).0, 201);

    // A client-supplied correlation id is echoed back...
    let (status, headers, _) = client.raw_request(
        "POST",
        "/tables/obs/answers",
        &[("X-Request-Id", "corr-123")],
        Some(r#"{"worker":1,"row":0,"col":0,"value":"x"}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(Client::header(&headers, "x-request-id"), Some("corr-123"), "{headers:?}");
    // ...and absent one, the server generates and reveals its own.
    let (_, headers, _) = client.get_raw("/healthz");
    let generated = Client::header(&headers, "x-request-id").expect("generated id");
    assert!(generated.starts_with("req-"), "{generated}");

    assert_eq!(client.post("/tables/obs/refresh", "").0, 200);

    // Full replay: ingest commit (with the correlation id) then the refit
    // start/publish pair, in sequence order.
    let (status, page) = client.get("/tables/obs/events");
    assert_eq!(status, 200, "{page}");
    assert_eq!(page.get("table").unwrap().as_str(), Some("obs"));
    assert_eq!(page.get("truncated").unwrap().as_bool(), Some(false));
    let events = page.get("events").unwrap().as_array().unwrap().to_vec();
    let kinds: Vec<&str> =
        events.iter().map(|e| e.get("kind").unwrap().as_str().unwrap()).collect();
    assert_eq!(kinds, ["ingest_committed", "refit_started", "refit_published"], "{page}");
    assert_eq!(events[0].get("request_id").unwrap().as_str(), Some("corr-123"));
    let seqs: Vec<u64> = events.iter().map(|e| e.get("seq").unwrap().as_u64().unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "monotonic seqs: {seqs:?}");

    // Pagination: walking with max=1 re-yields the same stream.
    let mut walked = Vec::new();
    let mut since = 0u64;
    loop {
        let (_, p) = client.get(&format!("/tables/obs/events?since={since}&max=1"));
        let chunk = p.get("events").unwrap().as_array().unwrap();
        if chunk.is_empty() {
            break;
        }
        assert_eq!(chunk.len(), 1);
        walked.push(chunk[0].clone());
        since = p.get("next_since").unwrap().as_u64().unwrap();
    }
    assert_eq!(walked, events, "paged walk must equal the one-shot replay");
    // A caught-up reader sees an empty, non-truncated page.
    let (_, p) = client.get(&format!("/tables/obs/events?since={since}"));
    assert!(p.get("events").unwrap().as_array().unwrap().is_empty());
    assert_eq!(p.get("truncated").unwrap().as_bool(), Some(false));

    // Bad cursors are rejected, unknown tables are 404.
    assert_eq!(client.get("/tables/obs/events?since=nope").0, 400);
    assert_eq!(client.get("/tables/obs/events?max=x").0, 400);
    assert_eq!(client.get("/tables/ghost/events").0, 404);

    registry.shutdown();
    server.shutdown();
}

/// The exhaustive `/stats` schema contract: exactly these fields, in this
/// order. Adding a field to `snapshot_stats` without extending this list
/// (i.e. without deciding its coverage) fails the suite; so does dropping
/// or reordering one, which would break dashboards parsing the document.
#[test]
fn stats_schema_is_exhaustive() {
    const STATS_FIELDS: &[&str] = &[
        "id",
        "rows",
        "cols",
        "policy",
        "answers",
        "epoch",
        "pending",
        "refresh_lag_answers",
        "last_refit_ms",
        "last_estep_ms",
        "last_mstep_ms",
        "last_elbo_ms",
        "em_threads",
        "catchup_merged",
        "fitted_epoch",
        "workers",
        "refreshes",
        "refresh_age_ms",
        "em_iterations",
        "em_converged",
        "em_param_residual",
        "em_objective_evals",
        "uptime_ms",
        "durable",
        "store_snapshot_epoch",
        "store_snapshot_links",
        "commit_groups",
        "commit_frames",
        "wal_segments",
        "health",
        "health_reason",
        "degraded_since_ms",
        "refit_failures",
        "persist_failures",
        "last_error",
        "max_pending",
        "trust_auto",
        "trust_seq",
        "suspect_workers",
        "quarantined_workers",
        "manual_quarantines",
        "rate_limited_batches",
        "worker_rate",
    ];
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    assert_eq!(client.post("/tables", CREATE_BODY).0, 201);
    assert_eq!(client.post("/tables/obs/refresh", "").0, 200);
    let (status, stats) = client.get("/tables/obs/stats");
    assert_eq!(status, 200);
    let Json::Obj(fields) = &stats else { panic!("stats must be an object: {stats}") };
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        got, STATS_FIELDS,
        "/stats schema drifted — update STATS_FIELDS *and* the field's coverage"
    );
    registry.shutdown();
    server.shutdown();
}
