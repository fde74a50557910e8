//! Route dispatch and the JSON wire format (documented in the crate docs).

use crate::http::{Request, Response};
use crate::json::{parse, Json};
use crate::registry::{TableRegistry, MAX_LABELS};
use crate::table::{Snapshot, TableConfig, TableState};
use std::sync::Arc;
use tcrowd_core::TruthDist;
use tcrowd_tabular::{Answer, CellId, Column, ColumnType, Schema, Value, WorkerId};

fn err_json(status: u16, msg: impl Into<String>) -> Response {
    Response::json(status, Json::obj([("error", Json::Str(msg.into()))]))
}

fn ok_json(body: Json) -> Response {
    Response::json(200, body)
}

/// Dispatch one request against the registry. Infallible: every failure
/// becomes a JSON error response.
pub fn route(registry: &TableRegistry, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(registry),
        ("GET", ["metrics"]) => metrics(registry),
        ("GET", ["tables"]) => ok_json(Json::obj([(
            "tables",
            Json::Arr(registry.list().into_iter().map(Json::from).collect()),
        )])),
        ("POST", ["tables"]) => create_table(registry, req),
        (_, ["tables"] | ["healthz"] | ["metrics"]) => err_json(405, "method not allowed"),
        (method, ["tables", id, rest @ ..]) => {
            let Some(table) = registry.get(id) else {
                return err_json(404, format!("no table '{id}'"));
            };
            match (method, rest) {
                ("GET", ["assignment"]) => assignment(&table, req),
                ("POST", ["answers"]) => post_answers(&table, req),
                ("GET", ["answers"]) => get_answers(&table),
                ("GET", ["truth"]) => truth(&table, req),
                ("GET", ["stats"]) => stats(&table),
                ("GET", ["events"]) => events(&table, req),
                ("POST", ["refresh"]) => refresh(&table),
                ("GET", ["workers"]) => workers(&table),
                ("POST", ["workers", w, "quarantine"]) => set_quarantine(&table, w, true),
                ("POST", ["workers", w, "release"]) => set_quarantine(&table, w, false),
                ("DELETE", []) => {
                    registry.remove(id);
                    ok_json(Json::obj([("deleted", Json::from(id.to_string()))]))
                }
                _ => err_json(404, "unknown endpoint"),
            }
        }
        _ => err_json(404, "unknown endpoint"),
    }
}

/// Service health: `"ok"` only when every hosted table is `healthy`;
/// otherwise `"degraded"` with the unhealthy tables listed so an operator
/// (or load balancer) can see at a glance which tables are limping.
fn healthz(registry: &TableRegistry) -> Response {
    let health = registry.health();
    let unhealthy: Vec<Json> = health
        .iter()
        .filter(|(_, h)| *h != "healthy")
        .map(|(id, h)| Json::obj([("id", Json::from(id.clone())), ("health", Json::from(*h))]))
        .collect();
    let status = if unhealthy.is_empty() { "ok" } else { "degraded" };
    ok_json(Json::obj([
        ("status", Json::from(status)),
        ("tables", Json::from(registry.len())),
        ("degraded_tables", Json::Arr(unhealthy)),
        ("uptime_ms", Json::from(registry.uptime_ms() as f64)),
    ]))
}

/// Prometheus text exposition of every registered series.
fn metrics(registry: &TableRegistry) -> Response {
    Response {
        status: 200,
        body: registry.obs().render().into_bytes(),
        content_type: tcrowd_obs::render::CONTENT_TYPE,
        headers: Vec::new(),
    }
}

/// Replay the table's lifecycle event ring: `?since=S` resumes after
/// sequence `S` (0 = from the oldest retained event), `&max=N` caps the
/// page (default 100, max 1000). `truncated: true` warns that events
/// between `since` and the oldest retained one were overwritten.
fn events(table: &Arc<TableState>, req: &Request) -> Response {
    let since = match req.query_param("since").map(str::parse::<u64>).transpose() {
        Ok(s) => s.unwrap_or(0),
        Err(_) => return err_json(400, "'since' must be an unsigned integer"),
    };
    let max = match req.query_param("max").map(str::parse::<usize>).transpose() {
        Ok(m) => m.unwrap_or(100).clamp(1, 1000),
        Err(_) => return err_json(400, "'max' must be an unsigned integer"),
    };
    let page = table.obs().events().since(since, max);
    let events: Vec<Json> = page
        .events
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("seq", Json::from(e.seq as f64)),
                ("at_ms", Json::from(e.at_ms as f64)),
                ("kind", Json::from(e.kind)),
                ("detail", Json::from(e.detail.clone())),
            ];
            if let Some(rid) = &e.request_id {
                fields.push(("request_id", Json::from(rid.clone())));
            }
            Json::obj(fields)
        })
        .collect();
    ok_json(Json::obj([
        ("table", Json::from(table.id.clone())),
        ("next_since", Json::from(page.next_since as f64)),
        ("truncated", Json::from(page.truncated)),
        ("events", Json::Arr(events)),
    ]))
}

// ---- schema and value codecs ----

/// Parse a schema document: `{"name"?, "key"?, "columns": [...]}` with each
/// column `{"name", "type": "categorical", "labels": [...]}` (or
/// `"cardinality": k`) or `{"name", "type": "continuous", "min", "max"}`.
fn schema_from_json(doc: &Json) -> Result<Schema, String> {
    let columns =
        doc.get("columns").and_then(Json::as_array).ok_or("schema needs a 'columns' array")?;
    if columns.is_empty() {
        return Err("schema needs at least one column".into());
    }
    let mut out = Vec::with_capacity(columns.len());
    for (j, col) in columns.iter().enumerate() {
        let name = col
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("col{j}"));
        let ty = match col.get("type").and_then(Json::as_str) {
            Some("categorical") => {
                let too_many = || format!("column {j}: more than {MAX_LABELS} labels");
                if let Some(labels) = col.get("labels").and_then(Json::as_array) {
                    if labels.len() > MAX_LABELS {
                        return Err(too_many());
                    }
                    let labels: Option<Vec<String>> =
                        labels.iter().map(|l| l.as_str().map(str::to_string)).collect();
                    let labels = labels.ok_or(format!("column {j}: labels must be strings"))?;
                    if labels.is_empty() {
                        return Err(format!("column {j}: empty label set"));
                    }
                    ColumnType::Categorical { labels }
                } else if let Some(k) = col.get("cardinality").and_then(Json::as_u64) {
                    if k == 0 {
                        return Err(format!("column {j}: bad cardinality"));
                    }
                    if k > MAX_LABELS as u64 {
                        return Err(too_many());
                    }
                    ColumnType::categorical_with_cardinality(k as u32)
                } else {
                    return Err(format!("column {j}: categorical needs 'labels' or 'cardinality'"));
                }
            }
            Some("continuous") => {
                let min = col.get("min").and_then(Json::as_f64).unwrap_or(0.0);
                let max = col.get("max").and_then(Json::as_f64).unwrap_or(1.0);
                if !min.is_finite() || !max.is_finite() || min >= max {
                    return Err(format!("column {j}: continuous needs finite min < max"));
                }
                ColumnType::Continuous { min, max }
            }
            _ => return Err(format!("column {j}: type must be 'categorical' or 'continuous'")),
        };
        out.push(Column::new(name, ty));
    }
    Ok(Schema::new(
        doc.get("name").and_then(Json::as_str).unwrap_or("table").to_string(),
        doc.get("key").and_then(Json::as_str).unwrap_or("key").to_string(),
        out,
    ))
}

fn schema_to_json(schema: &Schema) -> Json {
    Json::obj([
        ("name", Json::from(schema.name.clone())),
        ("key", Json::from(schema.key.clone())),
        (
            "columns",
            Json::Arr(
                schema
                    .columns
                    .iter()
                    .map(|c| match &c.ty {
                        ColumnType::Categorical { labels } => Json::obj([
                            ("name", Json::from(c.name.clone())),
                            ("type", Json::from("categorical")),
                            (
                                "labels",
                                Json::Arr(labels.iter().map(|l| Json::from(l.clone())).collect()),
                            ),
                        ]),
                        ColumnType::Continuous { min, max } => Json::obj([
                            ("name", Json::from(c.name.clone())),
                            ("type", Json::from("continuous")),
                            ("min", Json::from(*min)),
                            ("max", Json::from(*max)),
                        ]),
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a cell value against its column type: a number for continuous
/// columns; a label index (number) or label name (string) for categorical.
fn value_from_json(ty: &ColumnType, v: &Json) -> Result<Value, String> {
    match ty {
        ColumnType::Continuous { .. } => {
            let x = v.as_f64().ok_or("continuous column expects a number")?;
            if !x.is_finite() {
                return Err("continuous value must be finite".into());
            }
            Ok(Value::Continuous(x))
        }
        ColumnType::Categorical { labels } => {
            if let Some(idx) = v.as_u64() {
                if (idx as usize) < labels.len() {
                    Ok(Value::Categorical(idx as u32))
                } else {
                    Err(format!("label index {idx} out of range (cardinality {})", labels.len()))
                }
            } else if let Some(name) = v.as_str() {
                labels
                    .iter()
                    .position(|l| l == name)
                    .map(|i| Value::Categorical(i as u32))
                    .ok_or_else(|| format!("unknown label '{name}'"))
            } else {
                Err("categorical column expects a label index or label string".into())
            }
        }
    }
}

/// Encode a cell value: continuous as a number, categorical as its label
/// string (round-trips through [`value_from_json`]).
fn value_to_json(ty: &ColumnType, v: &Value) -> Json {
    match (ty, v) {
        (ColumnType::Categorical { labels }, Value::Categorical(l)) => {
            Json::from(labels[*l as usize].clone())
        }
        (_, Value::Continuous(x)) => Json::from(*x),
        // Type-mismatched pairs cannot come out of a validated table; encode
        // the raw index rather than panicking the request's thread.
        (_, Value::Categorical(l)) => Json::from(*l),
    }
}

// ---- handlers ----

fn create_table(registry: &TableRegistry, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(parse)
    {
        Ok(doc) => doc,
        Err(e) => return err_json(400, format!("invalid JSON: {e}")),
    };
    let rows = match body.get("rows").and_then(Json::as_u64) {
        Some(r) if r > 0 && r <= 10_000_000 => r as usize,
        _ => return err_json(400, "'rows' must be a positive integer"),
    };
    let schema =
        match body.get("schema").ok_or("missing 'schema'".to_string()).and_then(schema_from_json) {
            Ok(s) => s,
            Err(e) => return err_json(400, e),
        };
    // Every other member is a setting, given as its JSON text (a string's
    // without the quotes); a null leaves the default.
    let Json::Obj(members) = &body else { return err_json(400, "body must be an object") };
    let mut config = TableConfig::default();
    for (key, value) in members {
        if matches!(key.as_str(), "id" | "rows" | "schema") {
            continue;
        }
        let text = match value {
            Json::Null => continue,
            Json::Str(s) => s.clone(),
            other => other.to_string(),
        };
        if let Err(e) = config.set(key, &text) {
            return err_json(400, e);
        }
    }
    if let Err(e) = crate::policy::make_policy(&config.policy, rows, config.seed) {
        return err_json(400, e);
    }
    if let Err(e) = config.trust.validate() {
        return err_json(400, format!("trust config: {e}"));
    }
    let id = body.get("id").and_then(Json::as_str).map(str::to_string);
    match registry.create(id, schema, rows, config) {
        Ok(table) => Response::json(
            201,
            Json::obj([
                ("id", Json::from(table.id.clone())),
                ("rows", Json::from(table.rows())),
                ("cols", Json::from(table.cols())),
                ("policy", Json::from(table.config.policy.clone())),
                ("schema", schema_to_json(&table.schema)),
            ]),
        ),
        Err(e) if e.contains("already exists") => err_json(409, e),
        Err(e) => err_json(400, e),
    }
}

fn assignment(table: &Arc<TableState>, req: &Request) -> Response {
    let Some(worker) = req.query_param("worker").and_then(|w| w.parse::<u32>().ok()) else {
        return err_json(400, "query parameter 'worker' (u32) is required");
    };
    let k = match req.query_param("k") {
        None => table.cols(),
        Some(k) => match k.parse::<usize>() {
            Ok(k) if k >= 1 => k,
            _ => return err_json(400, "'k' must be a positive integer"),
        },
    };
    match table.assign(WorkerId(worker), k, req.query_param("policy")) {
        Ok((snap, picks, policy)) => ok_json(Json::obj([
            ("worker", Json::from(worker)),
            ("policy", Json::from(policy)),
            ("epoch", Json::from(snap.epoch)),
            (
                "cells",
                Json::Arr(
                    picks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("row", Json::from(c.row)),
                                ("col", Json::from(c.col)),
                                (
                                    "column",
                                    Json::from(table.schema.columns[c.col as usize].name.clone()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])),
        Err(e) => err_json(400, e),
    }
}

/// Decode one answer object `{"worker", "row", "col", "value"}`; `col` may
/// be a column index or a column name.
fn answer_from_json(schema: &Schema, doc: &Json) -> Result<Answer, String> {
    let worker = doc.get("worker").and_then(Json::as_u64).ok_or("missing 'worker'")?;
    if worker > u32::MAX as u64 {
        return Err("'worker' out of range".into());
    }
    let row = doc.get("row").and_then(Json::as_u64).ok_or("missing 'row'")?;
    let col = match doc.get("col") {
        Some(Json::Str(name)) => schema
            .columns
            .iter()
            .position(|c| &c.name == name)
            .ok_or_else(|| format!("unknown column '{name}'"))?,
        Some(v) => v.as_u64().ok_or("'col' must be an index or column name")? as usize,
        None => return Err("missing 'col'".into()),
    };
    if col >= schema.num_columns() || row > u32::MAX as u64 {
        return Err(format!("cell ({row}, {col}) out of range"));
    }
    let value =
        value_from_json(schema.column_type(col), doc.get("value").ok_or("missing 'value'")?)?;
    Ok(Answer { worker: WorkerId(worker as u32), cell: CellId::new(row as u32, col as u32), value })
}

fn post_answers(table: &Arc<TableState>, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(parse)
    {
        Ok(doc) => doc,
        Err(e) => return err_json(400, format!("invalid JSON: {e}")),
    };
    // Either a batch `{"answers": [...]}` or one bare answer object.
    let docs: Vec<&Json> = match body.get("answers").and_then(Json::as_array) {
        Some(arr) => arr.iter().collect(),
        None => vec![&body],
    };
    let mut answers = Vec::with_capacity(docs.len());
    for (i, doc) in docs.iter().enumerate() {
        match answer_from_json(&table.schema, doc) {
            Ok(a) => answers.push(a),
            Err(e) => return err_json(400, format!("answer {i}: {e}")),
        }
    }
    match table.submit_traced(&answers, Some(&req.request_id)) {
        Ok(accepted) => ok_json(Json::obj([
            ("accepted", Json::from(accepted)),
            ("ingested_total", Json::from(table.ingested() as f64)),
            ("pending", Json::from(table.pending())),
        ])),
        // A WAL failure is the server's problem, not the client's — and the
        // batch was NOT acknowledged, so the client may retry verbatim.
        // `Retry-After` hints at the table's next repair attempt.
        Err(e) if e.starts_with("storage:") => {
            err_json(503, e).with_header("Retry-After", table.retry_after_secs())
        }
        // Backpressure: the refresher has fallen behind the `max_pending`
        // bound; the batch was NOT acknowledged — retry after a refresh.
        Err(e) if e.starts_with("overloaded:") => {
            err_json(429, e).with_header("Retry-After", table.retry_after_secs())
        }
        Err(e) => err_json(400, e),
    }
}

fn get_answers(table: &Arc<TableState>) -> Response {
    let snap = table.snapshot();
    let answers: Vec<Json> = snap
        .log
        .iter()
        .map(|a| {
            Json::obj([
                ("worker", Json::from(a.worker.0)),
                ("row", Json::from(a.cell.row)),
                ("col", Json::from(a.cell.col)),
                ("value", value_to_json(table.schema.column_type(a.cell.col as usize), &a.value)),
            ])
        })
        .collect();
    ok_json(Json::obj([("epoch", Json::from(snap.epoch)), ("answers", Json::Arr(answers))]))
}

fn truth(table: &Arc<TableState>, req: &Request) -> Response {
    let snap = table.snapshot();
    let z_space = matches!(req.query_param("z"), Some("1" | "true"));
    let rows: Vec<Json> = (0..table.rows() as u32)
        .map(|i| {
            Json::Arr(
                (0..table.cols() as u32)
                    .map(|j| {
                        let cell = CellId::new(i, j);
                        if z_space {
                            match snap.result.truth_z(cell) {
                                TruthDist::Categorical(p) => Json::obj([(
                                    "probs",
                                    Json::Arr(p.iter().map(|&x| Json::from(x)).collect()),
                                )]),
                                TruthDist::Continuous(n) => Json::obj([
                                    ("mean", Json::from(n.mean)),
                                    ("var", Json::from(n.var)),
                                ]),
                            }
                        } else {
                            value_to_json(
                                table.schema.column_type(j as usize),
                                &snap.result.estimate(cell),
                            )
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    ok_json(Json::obj([
        ("epoch", Json::from(snap.epoch)),
        (if z_space { "truth_z" } else { "estimates" }, Json::Arr(rows)),
    ]))
}

fn snapshot_stats(table: &Arc<TableState>, snap: &Snapshot) -> Json {
    let health = table.health();
    Json::obj([
        ("id", Json::from(table.id.clone())),
        ("rows", Json::from(table.rows())),
        ("cols", Json::from(table.cols())),
        ("policy", Json::from(table.config.policy.clone())),
        ("answers", Json::from(table.ingested() as f64)),
        ("epoch", Json::from(snap.epoch)),
        ("pending", Json::from(table.pending())),
        // The refresh lag in answers: log epoch − published epoch (the
        // quantity the ingest-stall CI gate watches), plus what the last
        // refit cost and how many mid-fit arrivals its catch-up merge
        // folded in.
        ("refresh_lag_answers", Json::from(table.pending())),
        ("last_refit_ms", Json::from(snap.last_refit_ms)),
        // Kernel-phase breakdown of the EM inside that refit (E-step
        // posteriors, the Newton M-step, and the shared pass that yields the
        // ELBO and opens each M-step), from the fit's own timers.
        ("last_estep_ms", Json::from(snap.result.timings.estep_ns as f64 / 1e6)),
        ("last_mstep_ms", Json::from(snap.result.timings.mstep_ns as f64 / 1e6)),
        ("last_elbo_ms", Json::from(snap.result.timings.elbo_ns as f64 / 1e6)),
        ("em_threads", Json::from(snap.result.timings.threads)),
        ("catchup_merged", Json::from(snap.catchup_merged)),
        ("fitted_epoch", Json::from(snap.fitted_epoch)),
        ("workers", Json::from(snap.matrix.num_workers())),
        ("refreshes", Json::from(snap.refreshes as f64)),
        ("refresh_age_ms", Json::from(snap.published_at.elapsed().as_millis() as f64)),
        ("em_iterations", Json::from(snap.result.iterations)),
        ("em_converged", Json::from(snap.result.converged)),
        // The largest |Δ ln parameter| over the fit's last iteration: how
        // far from its fixed point it stopped. Null when it ran none.
        ("em_param_residual", snap.result.param_residual.map_or(Json::Null, Json::from)),
        // Objective passes over the answers in that fit.
        ("em_objective_evals", Json::from(snap.result.timings.objective_evals as f64)),
        ("uptime_ms", Json::from(table.age_ms() as f64)),
        ("durable", Json::from(table.durable())),
        (
            "store_snapshot_epoch",
            match table.last_store_snapshot_epoch() {
                Some(e) => Json::from(e as f64),
                None => Json::Null,
            },
        ),
        (
            "store_snapshot_links",
            match table.store_snapshot_links() {
                Some(l) => Json::from(l as f64),
                None => Json::Null,
            },
        ),
        // Group-commit coalescing counters and the live WAL segment count
        // (null for memory-only tables; the commit counters are also null
        // once the committer has shut down on the deletion path).
        (
            "commit_groups",
            match table.commit_stats() {
                Some(s) => Json::from(s.groups as f64),
                None => Json::Null,
            },
        ),
        (
            "commit_frames",
            match table.commit_stats() {
                Some(s) => Json::from(s.frames as f64),
                None => Json::Null,
            },
        ),
        (
            "wal_segments",
            match table.wal_segments() {
                Some(n) => Json::from(n as f64),
                None => Json::Null,
            },
        ),
        ("health", Json::from(health.health)),
        (
            "health_reason",
            match health.reason {
                Some(r) => Json::from(r),
                None => Json::Null,
            },
        ),
        (
            "degraded_since_ms",
            match health.degraded_since_ms {
                Some(ms) => Json::from(ms as f64),
                None => Json::Null,
            },
        ),
        ("refit_failures", Json::from(health.refit_failures as f64)),
        ("persist_failures", Json::from(health.persist_failures as f64)),
        (
            "last_error",
            match health.last_error {
                Some(e) => Json::from(e),
                None => Json::Null,
            },
        ),
        (
            "max_pending",
            match table.config.max_pending {
                Some(b) => Json::from(b),
                None => Json::Null,
            },
        ),
        // Trust subsystem counters: the state-machine census at the last
        // publish, the decision sequence number, and how many batches the
        // per-worker rate limit refused.
        ("trust_auto", Json::from(table.config.trust_auto)),
        ("trust_seq", Json::from(table.trust_seq() as f64)),
        (
            "suspect_workers",
            Json::from(
                snap.trust
                    .workers
                    .iter()
                    .filter(|s| s.state == tcrowd_trust::TrustState::Suspect)
                    .count(),
            ),
        ),
        ("quarantined_workers", Json::from(snap.trust.quarantine.len())),
        (
            "manual_quarantines",
            Json::from(snap.trust.quarantine.iter().filter(|q| q.manual).count()),
        ),
        ("rate_limited_batches", Json::from(table.rate_limited() as f64)),
        ("worker_rate", Json::from(table.config.worker_rate)),
    ])
}

fn stats(table: &Arc<TableState>) -> Response {
    ok_json(snapshot_stats(table, &table.snapshot()))
}

fn refresh(table: &Arc<TableState>) -> Response {
    let refitted = table.refresh_now();
    let snap = table.snapshot();
    ok_json(Json::obj([
        ("refitted", Json::from(refitted)),
        ("stats", snapshot_stats(table, &snap)),
    ]))
}

/// `GET …/workers`: the per-worker trust report from the published
/// snapshot (one `Arc` clone — no trust or fitter lock taken).
fn workers(table: &Arc<TableState>) -> Response {
    let snap = table.snapshot();
    let rows: Vec<Json> = snap
        .trust
        .workers
        .iter()
        .map(|s| {
            Json::obj([
                ("worker", Json::from(s.trust.worker.0)),
                ("answers", Json::from(s.trust.answers)),
                (
                    "quality",
                    match s.trust.quality {
                        Some(q) => Json::from(q),
                        None => Json::Null,
                    },
                ),
                ("trust_score", Json::from(s.trust.score)),
                ("max_agreement", Json::from(s.trust.max_agreement)),
                ("value_collisions", Json::from(s.trust.value_collisions)),
                (
                    "collusion_partner",
                    match s.trust.partner {
                        Some(p) => Json::from(p.0),
                        None => Json::Null,
                    },
                ),
                ("state", Json::from(s.state.name())),
                ("manual", Json::from(s.manual)),
            ])
        })
        .collect();
    ok_json(Json::obj([
        ("epoch", Json::from(snap.epoch)),
        ("trust_seq", Json::from(snap.trust.seq as f64)),
        ("quarantined", Json::from(snap.trust.quarantine.len())),
        ("workers", Json::Arr(rows)),
    ]))
}

/// `POST …/workers/:w/{quarantine,release}`: a manual trust decision. The
/// decision is WAL-durable before it is acknowledged and reaches inference
/// at the next refresh (`POST …/refresh` forces it).
fn set_quarantine(table: &Arc<TableState>, worker: &str, quarantined: bool) -> Response {
    let Ok(worker) = worker.parse::<u32>() else {
        return err_json(400, "worker id must be a u32");
    };
    match table.set_worker_quarantine(WorkerId(worker), quarantined) {
        Ok(state) => ok_json(Json::obj([
            ("worker", Json::from(worker)),
            ("state", Json::from(state.name())),
            ("trust_seq", Json::from(table.trust_seq() as f64)),
        ])),
        Err(e) if e.starts_with("storage:") => {
            err_json(503, e).with_header("Retry-After", table.retry_after_secs())
        }
        Err(e) => err_json(400, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_doc() -> Json {
        parse(
            r#"{"name":"demo","key":"id","columns":[
                {"name":"kind","type":"categorical","labels":["a","b","c"]},
                {"name":"size","type":"continuous","min":0,"max":10}
            ]}"#,
        )
        .unwrap()
    }

    /// `POST /tables` with `settings` added to a valid body.
    fn create_with(registry: &TableRegistry, id: &str, settings: &str) -> Response {
        let body =
            format!(r#"{{"id": "{id}", "rows": 20, "schema": {}, {settings}}}"#, schema_doc());
        let req = Request {
            method: "POST".into(),
            path: "/tables".into(),
            query: Vec::new(),
            body: body.into_bytes(),
            keep_alive: false,
            request_id: "test".into(),
        };
        create_table(registry, &req)
    }

    #[test]
    fn create_applies_every_setting_and_rejects_values_that_do_not_parse() {
        let registry = TableRegistry::new();
        let every = r#""policy": "entropy", "refit_every": 17, "refresh_interval_ms": 321,
            "max_answers_per_cell": 9, "seed": 42, "max_pending": 1000,
            "trust_auto": true, "trust_min_answers": 5, "trust_suspect_enter": 0.61,
            "trust_suspect_exit": 0.77, "trust_quarantine_enter": 0.33,
            "trust_quarantine_exit": 0.52, "trust_collusion_overlap": 4,
            "trust_collusion_agreement": 0.875, "trust_collusion_collisions": 6,
            "worker_rate": 12.5, "worker_burst": 7"#;
        assert_eq!(create_with(&registry, "every", every).status, 201);
        let want = TableConfig {
            policy: "entropy".into(),
            refit_every: 17,
            refresh_interval: std::time::Duration::from_millis(321),
            max_answers_per_cell: Some(9),
            seed: 42,
            max_pending: Some(1000),
            trust_auto: true,
            trust: tcrowd_trust::TrustConfig {
                min_answers: 5,
                suspect_enter: 0.61,
                suspect_exit: 0.77,
                quarantine_enter: 0.33,
                quarantine_exit: 0.52,
                collusion_min_overlap: 4,
                collusion_agreement: 0.875,
                collusion_value_collisions: 6,
            },
            worker_rate: 12.5,
            worker_burst: 7,
        };
        let got = &registry.get("every").unwrap().config;
        assert_eq!(format!("{got:?}"), format!("{want:?}"));

        // The clamps, a null left at its default, numbers sent as strings,
        // an unknown key and a deleted one (`warm_refits`).
        let edge = r#""refit_every": 0, "refresh_interval_ms": 3600000,
            "max_answers_per_cell": null, "seed": "7", "worker_rate": "0.5",
            "future_knob": [1], "warm_refits": true"#;
        assert_eq!(create_with(&registry, "edge", edge).status, 201);
        let want = TableConfig {
            refit_every: 1,
            refresh_interval: std::time::Duration::from_secs(60),
            seed: 7,
            worker_rate: 0.5,
            ..TableConfig::default()
        };
        let got = &registry.get("edge").unwrap().config;
        assert_eq!(format!("{got:?}"), format!("{want:?}"));

        for (key, value) in [
            ("refit_every", r#""abc""#),
            ("worker_burst", "0.5"),
            ("max_pending", "0"),
            ("seed", "-1"),
            ("trust_min_answers", "[5]"),
            ("worker_rate", "-2"),
        ] {
            let resp = create_with(&registry, "bad", &format!(r#""{key}": {value}"#));
            let body = String::from_utf8(resp.body).unwrap();
            assert_eq!(resp.status, 400, "{key}: {body}");
            assert!(body.contains(key), "{key}: {body}");
        }
        assert!(registry.get("bad").is_none());
        registry.shutdown();
    }

    /// Both size bounds of `POST /tables` answer 400 before anything of the
    /// table's size is allocated: a categorical column's label count, in
    /// either form, and the posterior state `rows × Σ max(L, 2)`.
    #[test]
    fn create_rejects_label_sets_and_tables_over_their_bounds() {
        use crate::registry::MAX_POSTERIOR_ENTRIES;
        let registry = TableRegistry::new();
        let create = |id: &str, rows: usize, column: &str| {
            let body =
                format!(r#"{{"id": "{id}", "rows": {rows}, "schema": {{"columns": [{column}]}}}}"#);
            let req = Request {
                method: "POST".into(),
                path: "/tables".into(),
                query: Vec::new(),
                body: body.into_bytes(),
                keep_alive: false,
                request_id: "test".into(),
            };
            let resp = create_table(&registry, &req);
            (resp.status, String::from_utf8(resp.body).unwrap())
        };
        let labels = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!(r#""l{i}""#)).collect();
            format!(r#"{{"type": "categorical", "labels": [{}]}}"#, names.join(","))
        };
        let cardinality = |k: u64| format!(r#"{{"type": "categorical", "cardinality": {k}}}"#);
        assert_eq!(create("labels-max", 2, &labels(MAX_LABELS)).0, 201);
        assert_eq!(create("card-max", 2, &cardinality(MAX_LABELS as u64)).0, 201);
        for (id, column) in [
            ("labels-over", labels(MAX_LABELS + 1)),
            ("card-over", cardinality(MAX_LABELS as u64 + 1)),
            ("card-u32", cardinality(u32::MAX as u64)),
        ] {
            let (status, body) = create(id, 2, &column);
            assert_eq!(status, 400, "{id}: {body}");
            assert!(body.contains(&MAX_LABELS.to_string()), "{id}: {body}");
        }
        // A continuous column needs 2 posterior entries per row.
        let cont = r#"{"type": "continuous", "min": 0, "max": 1}"#;
        let over = MAX_POSTERIOR_ENTRIES / 2 + 1;
        let (status, body) = create("cont-over", over, cont);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(&MAX_POSTERIOR_ENTRIES.to_string()), "{body}");
        // At most 10^7 rows, so a wide row is what reaches the budget.
        let wide = MAX_POSTERIOR_ENTRIES / MAX_LABELS + 1;
        let (status, body) = create("wide-over", wide, &cardinality(MAX_LABELS as u64));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(&MAX_POSTERIOR_ENTRIES.to_string()), "{body}");
        for id in ["labels-over", "card-over", "card-u32", "cont-over", "wide-over"] {
            assert!(registry.get(id).is_none(), "{id}");
        }
        registry.shutdown();
    }

    #[test]
    fn schema_codec_round_trips() {
        let schema = schema_from_json(&schema_doc()).unwrap();
        assert_eq!(schema.num_columns(), 2);
        assert_eq!(schema.columns[0].name, "kind");
        assert_eq!(schema.column_type(0).cardinality(), Some(3));
        let again = schema_from_json(&schema_to_json(&schema)).unwrap();
        assert_eq!(again, schema);
    }

    #[test]
    fn schema_rejects_malformed_columns() {
        for bad in [
            r#"{"columns":[]}"#,
            r#"{"columns":[{"type":"categorical"}]}"#,
            r#"{"columns":[{"type":"continuous","min":5,"max":1}]}"#,
            r#"{"columns":[{"type":"weird"}]}"#,
            r#"{}"#,
        ] {
            assert!(schema_from_json(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn value_codec_round_trips_both_datatypes() {
        let schema = schema_from_json(&schema_doc()).unwrap();
        let cat = schema.column_type(0);
        let cont = schema.column_type(1);
        // Categorical: index and label string both decode; encode is label.
        assert_eq!(value_from_json(cat, &parse("2").unwrap()).unwrap(), Value::Categorical(2));
        assert_eq!(value_from_json(cat, &parse("\"b\"").unwrap()).unwrap(), Value::Categorical(1));
        assert!(value_from_json(cat, &parse("7").unwrap()).is_err());
        assert!(value_from_json(cat, &parse("\"zzz\"").unwrap()).is_err());
        let enc = value_to_json(cat, &Value::Categorical(1));
        assert_eq!(value_from_json(cat, &enc).unwrap(), Value::Categorical(1));
        // Continuous round-trips exactly through Display.
        let x = std::f64::consts::PI / 7.0;
        let enc = value_to_json(cont, &Value::Continuous(x));
        assert_eq!(
            value_from_json(cont, &parse(&enc.to_string()).unwrap()).unwrap(),
            Value::Continuous(x)
        );
        assert!(value_from_json(cont, &parse("\"oops\"").unwrap()).is_err());
    }

    #[test]
    fn answer_decoder_accepts_column_names() {
        let schema = schema_from_json(&schema_doc()).unwrap();
        let a = answer_from_json(
            &schema,
            &parse(r#"{"worker":7,"row":2,"col":"size","value":4.5}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(a.worker, WorkerId(7));
        assert_eq!(a.cell, CellId::new(2, 1));
        assert_eq!(a.value, Value::Continuous(4.5));
        assert!(answer_from_json(&schema, &parse(r#"{"worker":7,"row":2}"#).unwrap()).is_err());
        assert!(answer_from_json(
            &schema,
            &parse(r#"{"worker":7,"row":2,"col":"nope","value":1}"#).unwrap()
        )
        .is_err());
    }
}
