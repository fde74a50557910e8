//! End-to-end HTTP smoke: start the server on an ephemeral port and drive
//! the full paper loop — create table, assignment, answers, refresh, truth,
//! stats, healthz — through a plain `TcpStream` client (this is the CI
//! "service smoke" coverage).

mod common;

use common::Client;
use tcrowd_core::TCrowd;
use tcrowd_service::Json;
use tcrowd_tabular::{generate_dataset, Answer, AnswerLog, GeneratorConfig, Value};

const CREATE_BODY: &str = r#"{
    "id": "smoke",
    "rows": 8,
    "schema": {
        "name": "Smoke", "key": "id",
        "columns": [
            {"name": "kind", "type": "categorical", "labels": ["x", "y", "z"]},
            {"name": "size", "type": "continuous", "min": 0, "max": 10}
        ]
    },
    "policy": "structure-aware",
    "refit_every": 1000,
    "refresh_interval_ms": 60000
}"#;

#[test]
fn full_loop_over_the_wire() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 4).expect("start server");
    let client = Client { addr: server.addr() };

    // healthz before anything exists.
    let (status, health) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("tables").unwrap().as_u64(), Some(0));
    assert!(health.get("degraded_tables").unwrap().as_array().unwrap().is_empty());

    // Create a table; verify the echo.
    let (status, created) = client.post("/tables", CREATE_BODY);
    assert_eq!(status, 201, "{created}");
    assert_eq!(created.get("id").unwrap().as_str(), Some("smoke"));
    assert_eq!(created.get("cols").unwrap().as_u64(), Some(2));
    // Re-creating the same id conflicts; bad bodies are 400.
    assert_eq!(client.post("/tables", CREATE_BODY).0, 409);
    assert_eq!(client.post("/tables", "{\"rows\": 0}").0, 400);
    assert_eq!(client.post("/tables", "not json").0, 400);

    // Assignment for a fresh worker: k distinct in-range cells.
    let (status, assignment) = client.get("/tables/smoke/assignment?worker=3&k=4");
    assert_eq!(status, 200, "{assignment}");
    let cells = assignment.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 4);
    for c in cells {
        assert!(c.get("row").unwrap().as_u64().unwrap() < 8);
        assert!(c.get("col").unwrap().as_u64().unwrap() < 2);
        assert!(c.get("column").unwrap().as_str().is_some());
    }
    // Unknown table, missing worker, bad policy.
    assert_eq!(client.get("/tables/nope/assignment?worker=1").0, 404);
    assert_eq!(client.get("/tables/smoke/assignment").0, 400);
    assert_eq!(client.get("/tables/smoke/assignment?worker=1&policy=bogus").0, 400);

    // Submit single + batched answers (index, label-string and named-column
    // forms).
    let (status, r) =
        client.post("/tables/smoke/answers", r#"{"worker":3,"row":0,"col":0,"value":"y"}"#);
    assert_eq!(status, 200, "{r}");
    assert_eq!(r.get("accepted").unwrap().as_u64(), Some(1));
    let (status, r) = client.post(
        "/tables/smoke/answers",
        r#"{"answers":[
            {"worker":3,"row":0,"col":"size","value":4.25},
            {"worker":4,"row":0,"col":0,"value":1},
            {"worker":4,"row":1,"col":1,"value":2.5}
        ]}"#,
    );
    assert_eq!(status, 200, "{r}");
    assert_eq!(r.get("accepted").unwrap().as_u64(), Some(3));
    assert_eq!(r.get("pending").unwrap().as_u64(), Some(4));
    // Bad answers are rejected whole-batch.
    let (status, r) = client.post(
        "/tables/smoke/answers",
        r#"{"answers":[{"worker":1,"row":0,"col":0,"value":0},
                       {"worker":1,"row":99,"col":0,"value":0}]}"#,
    );
    assert_eq!(status, 400, "{r}");

    // Force a refresh; stats must show everything published.
    let (status, refreshed) = client.post("/tables/smoke/refresh", "");
    assert_eq!(status, 200);
    assert_eq!(refreshed.get("refitted").unwrap().as_bool(), Some(true));
    let (_, stats) = client.get("/tables/smoke/stats");
    assert_eq!(stats.get("answers").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("epoch").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("pending").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("workers").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("em_converged").unwrap().as_bool(), Some(true));
    // Kernel-phase breakdown of the published refit.
    assert!(stats.get("last_refit_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(stats.get("last_estep_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(stats.get("last_mstep_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(stats.get("em_threads").unwrap().as_u64().unwrap() >= 1);
    // Health accounting: an undisturbed table is healthy with clean counters.
    assert_eq!(stats.get("health").unwrap().as_str(), Some("healthy"));
    assert_eq!(stats.get("refit_failures").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("persist_failures").unwrap().as_u64(), Some(0));
    assert!(matches!(stats.get("degraded_since_ms"), Some(Json::Null)));
    assert!(matches!(stats.get("last_error"), Some(Json::Null)));

    // Truth estimates have the right shape and datatypes.
    let (status, truth) = client.get("/tables/smoke/truth");
    assert_eq!(status, 200);
    assert_eq!(truth.get("epoch").unwrap().as_u64(), Some(4));
    let rows = truth.get("estimates").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 8);
    for row in rows {
        let row = row.as_array().unwrap();
        assert!(row[0].as_str().is_some(), "categorical estimates are label strings");
        assert!(row[1].as_f64().is_some(), "continuous estimates are numbers");
    }
    // The answered cell reflects its unanimous label.
    assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("y"));

    // z-space view matches the shape contract.
    let (_, tz) = client.get("/tables/smoke/truth?z=1");
    let cell00 = &tz.get("truth_z").unwrap().as_array().unwrap()[0].as_array().unwrap()[0];
    assert_eq!(cell00.get("probs").unwrap().as_array().unwrap().len(), 3);

    // The log dump round-trips what we posted.
    let (_, log) = client.get("/tables/smoke/answers");
    let answers = log.get("answers").unwrap().as_array().unwrap();
    assert_eq!(answers.len(), 4);
    assert_eq!(answers[0].get("value").unwrap().as_str(), Some("y"));

    // Table listing + delete + healthz accounting.
    let (_, tables) = client.get("/tables");
    assert_eq!(tables.get("tables").unwrap().as_array().unwrap().len(), 1);
    assert_eq!(client.request("DELETE", "/tables/smoke", None).0, 200);
    assert_eq!(client.get("/tables/smoke/stats").0, 404);
    assert_eq!(client.get("/healthz").1.get("tables").unwrap().as_u64(), Some(0));

    registry.shutdown();
    server.shutdown();
}

/// Backpressure over the wire: a table created with `max_pending` answers
/// `429 Too Many Requests` (with a `Retry-After` hint) once the refresher
/// lag reaches the bound, and accepts again after a refresh drains it.
#[test]
fn overload_gets_429_with_retry_after_at_the_max_pending_bound() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    // A table whose refresher never fires on its own, bounded at 3 pending.
    let create = r#"{
        "id": "bounded", "rows": 4, "max_pending": 3,
        "refit_every": 100000, "refresh_interval_ms": 60000,
        "schema": {"columns": [
            {"name": "kind", "type": "categorical", "labels": ["x", "y"]}
        ]}
    }"#;
    let (status, created) = client.post("/tables", create);
    assert_eq!(status, 201, "{created}");
    let (_, stats) = client.get("/tables/bounded/stats");
    assert_eq!(stats.get("max_pending").unwrap().as_u64(), Some(3));

    // Fill the bound...
    for i in 0..3 {
        let body = format!(r#"{{"worker":{i},"row":0,"col":0,"value":0}}"#);
        let (status, r) = client.post("/tables/bounded/answers", &body);
        assert_eq!(status, 200, "{r}");
    }
    // ...the next answer is shed with 429 + Retry-After, nothing ingested.
    let (status, headers, r) = client.request_with_headers(
        "POST",
        "/tables/bounded/answers",
        Some(r#"{"worker":9,"row":1,"col":0,"value":1}"#),
    );
    assert_eq!(status, 429, "{r}");
    assert!(r.get("error").unwrap().as_str().unwrap().contains("overloaded"), "{r}");
    let retry_after: u64 =
        Client::header(&headers, "retry-after").expect("Retry-After header").parse().unwrap();
    assert!(retry_after >= 1);
    let (_, stats) = client.get("/tables/bounded/stats");
    assert_eq!(stats.get("pending").unwrap().as_u64(), Some(3), "shed batch must not ingest");
    // Overload is load, not damage: the table stays healthy and reads work.
    assert_eq!(stats.get("health").unwrap().as_str(), Some("healthy"));
    assert_eq!(client.get("/tables/bounded/truth").0, 200);

    // A refresh drains the lag; ingest resumes.
    assert_eq!(client.post("/tables/bounded/refresh", "").0, 200);
    let (status, r) =
        client.post("/tables/bounded/answers", r#"{"worker":9,"row":1,"col":0,"value":1}"#);
    assert_eq!(status, 200, "{r}");

    registry.shutdown();
    server.shutdown();
}

/// Worker trust over the wire: `/stats` exposes the trust counters, the
/// manual quarantine/release endpoints round-trip through a refresh (the
/// quarantined worker's answers stay in the served log but leave the fit),
/// and `GET …/workers` reports per-worker state.
#[test]
fn manual_quarantine_round_trips_over_the_wire() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    let create = r#"{
        "id": "trust", "rows": 6,
        "refit_every": 100000, "refresh_interval_ms": 60000,
        "schema": {"columns": [
            {"name": "kind", "type": "categorical", "labels": ["x", "y"]},
            {"name": "size", "type": "continuous", "min": 0, "max": 10}
        ]}
    }"#;
    assert_eq!(client.post("/tables", create).0, 201);

    // Three mostly-agreeing honest workers follow a row-dependent pattern
    // (worker 3 slips once, keeping the fit away from the perfect-agreement
    // degeneracy); worker 7 contradicts the majority everywhere.
    let mut batch = Vec::new();
    for row in 0..6u32 {
        for w in [1u32, 2, 3] {
            let label = if w == 3 && row == 0 { 1 } else { row % 2 };
            batch.push(format!(r#"{{"worker":{w},"row":{row},"col":0,"value":{label}}}"#));
            let size = 2.0 + f64::from(row) + 0.1 * f64::from(w);
            batch.push(format!(r#"{{"worker":{w},"row":{row},"col":1,"value":{size}}}"#));
        }
        batch.push(format!(r#"{{"worker":7,"row":{row},"col":0,"value":{}}}"#, 1 - row % 2));
        batch.push(format!(r#"{{"worker":7,"row":{row},"col":1,"value":{}}}"#, (row % 2) * 9));
    }
    let body = format!(r#"{{"answers":[{}]}}"#, batch.join(","));
    let (status, r) = client.post("/tables/trust/answers", &body);
    assert_eq!(status, 200, "{r}");
    assert_eq!(client.post("/tables/trust/refresh", "").0, 200);

    // Stats expose the trust counters with their defaults.
    let (_, stats) = client.get("/tables/trust/stats");
    assert_eq!(stats.get("trust_auto").unwrap().as_bool(), Some(false));
    assert_eq!(stats.get("quarantined_workers").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("manual_quarantines").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("rate_limited_batches").unwrap().as_u64(), Some(0));
    assert!(stats.get("trust_seq").unwrap().as_u64().is_some());
    assert!(stats.get("suspect_workers").unwrap().as_u64().is_some());

    // The per-worker report covers all three workers, all trusted.
    let (status, report) = client.get("/tables/trust/workers");
    assert_eq!(status, 200, "{report}");
    let workers = report.get("workers").unwrap().as_array().unwrap();
    assert_eq!(workers.len(), 4);
    for w in workers {
        assert_eq!(w.get("state").unwrap().as_str(), Some("trusted"));
        assert_eq!(w.get("answers").unwrap().as_u64(), Some(12));
        assert!(w.get("quality").unwrap().as_f64().is_some());
    }

    // Manually quarantine worker 7 and refresh: the fit excludes it, the
    // log keeps its answers, and /workers flags it.
    let (status, q) = client.post("/tables/trust/workers/7/quarantine", "");
    assert_eq!(status, 200, "{q}");
    assert_eq!(q.get("state").unwrap().as_str(), Some("quarantined"));
    assert_eq!(client.post("/tables/trust/refresh", "").0, 200);
    let (_, stats) = client.get("/tables/trust/stats");
    assert_eq!(stats.get("quarantined_workers").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("manual_quarantines").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("answers").unwrap().as_u64(), Some(48), "log keeps every answer");
    let (_, report) = client.get("/tables/trust/workers");
    let w7 = report
        .get("workers")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|w| w.get("worker").unwrap().as_u64() == Some(7))
        .expect("worker 7 in report");
    assert_eq!(w7.get("state").unwrap().as_str(), Some("quarantined"));
    assert_eq!(w7.get("manual").unwrap().as_bool(), Some(true));
    assert!(matches!(w7.get("quality"), Some(Json::Null)), "excluded from the fit: {w7}");
    // The honest consensus wins every categorical cell once 7 is out.
    let (_, truth) = client.get("/tables/trust/truth");
    for (i, row) in truth.get("estimates").unwrap().as_array().unwrap().iter().enumerate() {
        let want = if i % 2 == 0 { "x" } else { "y" };
        assert_eq!(row.as_array().unwrap()[0].as_str(), Some(want), "{truth}");
    }

    // Release restores the worker; unknown workers and bad ids are 400.
    let (status, rel) = client.post("/tables/trust/workers/7/release", "");
    assert_eq!(status, 200, "{rel}");
    assert_eq!(rel.get("state").unwrap().as_str(), Some("trusted"));
    assert_eq!(client.post("/tables/trust/refresh", "").0, 200);
    let (_, stats) = client.get("/tables/trust/stats");
    assert_eq!(stats.get("quarantined_workers").unwrap().as_u64(), Some(0));
    assert_eq!(client.post("/tables/trust/workers/bogus/quarantine", "").0, 400);
    assert_eq!(client.get("/tables/nope/workers").0, 404);

    registry.shutdown();
    server.shutdown();
}

/// Per-worker rate limiting over the wire: a table with `worker_rate` set
/// answers `429 Too Many Requests` + `Retry-After` once one worker exhausts
/// its token bucket, without touching other workers.
#[test]
fn per_worker_rate_limit_gets_429_with_retry_after() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    let create = r#"{
        "id": "limited", "rows": 4,
        "worker_rate": 0.001, "worker_burst": 3,
        "refit_every": 100000, "refresh_interval_ms": 60000,
        "schema": {"columns": [
            {"name": "kind", "type": "categorical", "labels": ["x", "y"]}
        ]}
    }"#;
    let (status, created) = client.post("/tables", create);
    assert_eq!(status, 201, "{created}");
    let (_, stats) = client.get("/tables/limited/stats");
    assert_eq!(stats.get("worker_rate").unwrap().as_f64(), Some(0.001));

    // Worker 5 burns its burst of 3...
    for i in 0..3 {
        let body = format!(r#"{{"worker":5,"row":{i},"col":0,"value":0}}"#);
        let (status, r) = client.post("/tables/limited/answers", &body);
        assert_eq!(status, 200, "{r}");
    }
    // ...then gets shed with 429 + Retry-After, nothing ingested.
    let (status, headers, r) = client.request_with_headers(
        "POST",
        "/tables/limited/answers",
        Some(r#"{"worker":5,"row":3,"col":0,"value":1}"#),
    );
    assert_eq!(status, 429, "{r}");
    let err = r.get("error").unwrap().as_str().unwrap();
    assert!(err.contains("worker 5") && err.contains("rate limit"), "{r}");
    let retry_after: u64 =
        Client::header(&headers, "retry-after").expect("Retry-After header").parse().unwrap();
    assert!(retry_after >= 1);
    // Another worker is unaffected; the stats count the shed batch.
    let (status, r) =
        client.post("/tables/limited/answers", r#"{"worker":6,"row":0,"col":0,"value":0}"#);
    assert_eq!(status, 200, "{r}");
    let (_, stats) = client.get("/tables/limited/stats");
    assert_eq!(stats.get("pending").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("rate_limited_batches").unwrap().as_u64(), Some(1));

    registry.shutdown();
    server.shutdown();
}

/// The served estimates must be replayable offline: post a realistic answer
/// set, refresh, download the log, and check the service's truth equals
/// `TCrowd::infer` on the replayed log — exactly (cold re-fits make the
/// published state a pure function of the log).
#[test]
fn served_truth_matches_offline_inference_on_the_served_log() {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 10,
            columns: 3,
            num_workers: 9,
            answers_per_task: 3,
            ..Default::default()
        },
        11,
    );
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    // Build the create body from the generated schema via the service's own
    // Json type.
    let columns: Vec<Json> = d
        .schema
        .columns
        .iter()
        .enumerate()
        .map(|(j, c)| match &c.ty {
            tcrowd_tabular::ColumnType::Categorical { labels } => Json::obj([
                ("name", Json::from(format!("c{j}"))),
                ("type", Json::from("categorical")),
                ("labels", Json::Arr(labels.iter().map(|l| Json::from(l.clone())).collect())),
            ]),
            tcrowd_tabular::ColumnType::Continuous { min, max } => Json::obj([
                ("name", Json::from(format!("c{j}"))),
                ("type", Json::from("continuous")),
                ("min", Json::from(*min)),
                ("max", Json::from(*max)),
            ]),
        })
        .collect();
    let create = Json::obj([
        ("id", Json::from("replay")),
        ("rows", Json::from(d.rows())),
        ("schema", Json::obj([("columns", Json::Arr(columns))])),
        ("refresh_interval_ms", Json::from(60_000usize)),
    ]);
    assert_eq!(client.post("/tables", &create.to_string()).0, 201);

    // Post every generated answer in batches, preserving order.
    for chunk in d.answers.all().chunks(25) {
        let batch: Vec<Json> = chunk
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
        let body = Json::obj([("answers", Json::Arr(batch))]).to_string();
        let (status, r) = client.post("/tables/replay/answers", &body);
        assert_eq!(status, 200, "{r}");
    }
    assert_eq!(client.post("/tables/replay/refresh", "").0, 200);

    // Download the served log and replay it offline.
    let (_, served) = client.get("/tables/replay/answers");
    let served = served.get("answers").unwrap().as_array().unwrap();
    assert_eq!(served.len(), d.answers.len(), "zero dropped answers");
    let mut replayed = AnswerLog::new(d.rows(), d.cols());
    for a in served {
        let col = a.get("col").unwrap().as_u64().unwrap() as usize;
        let value = match d.schema.column_type(col) {
            tcrowd_tabular::ColumnType::Categorical { labels } => {
                let name = a.get("value").unwrap().as_str().unwrap();
                Value::Categorical(labels.iter().position(|l| l == name).unwrap() as u32)
            }
            tcrowd_tabular::ColumnType::Continuous { .. } => {
                Value::Continuous(a.get("value").unwrap().as_f64().unwrap())
            }
        };
        replayed.push(Answer {
            worker: tcrowd_tabular::WorkerId(a.get("worker").unwrap().as_u64().unwrap() as u32),
            cell: tcrowd_tabular::CellId::new(
                a.get("row").unwrap().as_u64().unwrap() as u32,
                col as u32,
            ),
            value,
        });
    }
    let offline = TCrowd::default_full().infer(&d.schema, &replayed);

    // Served z-space truth equals the offline fit within 1e-6 z-units
    // (in fact exactly, up to the decimal wire encoding).
    let (_, tz) = client.get("/tables/replay/truth?z=1");
    let rows = tz.get("truth_z").unwrap().as_array().unwrap();
    let mut max_diff = 0.0f64;
    for (i, row) in rows.iter().enumerate() {
        for (j, cell) in row.as_array().unwrap().iter().enumerate() {
            let offline_t = offline.truth_z(tcrowd_tabular::CellId::new(i as u32, j as u32));
            match offline_t {
                tcrowd_core::TruthDist::Categorical(p) => {
                    let probs = cell.get("probs").unwrap().as_array().unwrap();
                    for (a, b) in probs.iter().zip(p) {
                        max_diff = max_diff.max((a.as_f64().unwrap() - b).abs());
                    }
                }
                tcrowd_core::TruthDist::Continuous(n) => {
                    max_diff =
                        max_diff.max((cell.get("mean").unwrap().as_f64().unwrap() - n.mean).abs());
                }
            }
        }
    }
    assert!(max_diff < 1e-6, "served vs offline z-discrepancy {max_diff:.3e}");

    registry.shutdown();
    server.shutdown();
}

/// A deeply nested body is a client error, not a crash: the parser's
/// recursion is bounded, so 100,000 `[` (far under `MAX_BODY`) gets the
/// usual 400 and the same server keeps answering.
#[test]
fn deeply_nested_body_gets_400_and_the_server_keeps_serving() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    let (status, r) = client.post("/tables", &"[".repeat(100_000));
    assert_eq!(status, 400, "{r}");
    assert!(r.get("error").unwrap().as_str().unwrap().contains("invalid JSON"), "{r}");
    let (status, health) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    registry.shutdown();
    server.shutdown();
}

/// A categorical column's declared cardinality is bounded before its label
/// set is built: `u32::MAX` labels would ask for about 103 GB, whose refused
/// allocation aborts the process. It gets a 400 and the same server keeps
/// answering.
#[test]
fn huge_cardinality_gets_400_and_the_server_keeps_serving() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    let create = r#"{
        "id": "huge", "rows": 2,
        "schema": {"columns": [{"name": "kind", "type": "categorical", "cardinality": 4294967295}]}
    }"#;
    let (status, r) = client.post("/tables", create);
    assert_eq!(status, 400, "{r}");
    assert!(r.get("error").unwrap().as_str().unwrap().contains("labels"), "{r}");
    let (status, health) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(client.get("/tables/huge/stats").0, 404);

    registry.shutdown();
    server.shutdown();
}

/// A huge `k` is bounded by the table: every policy answers with at most
/// rows×cols cells, and the server keeps serving.
#[test]
fn huge_k_assignment_is_bounded_by_the_table() {
    let (registry, server) = tcrowd_service::start("127.0.0.1:0", 2).expect("start server");
    let client = Client { addr: server.addr() };
    let create = r#"{
        "id": "tiny", "rows": 3,
        "schema": {"columns": [{"name": "kind", "type": "categorical", "labels": ["x", "y"]}]}
    }"#;
    assert_eq!(client.post("/tables", create).0, 201);
    for k in ["1099511627776", "18446744073709551615"] {
        for policy in tcrowd_service::POLICY_NAMES {
            let path = format!("/tables/tiny/assignment?worker=1&k={k}&policy={policy}");
            let (status, r) = client.get(&path);
            assert_eq!(status, 200, "{path}: {r}");
            assert!(r.get("cells").unwrap().as_array().unwrap().len() <= 3, "{path}: {r}");
        }
    }
    let (status, health) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    registry.shutdown();
    server.shutdown();
}
