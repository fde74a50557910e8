//! Closed-loop load generator for `tcrowd-service`: simulated workers
//! replayed against a live in-process server over real HTTP keep-alive
//! connections. Records `BENCH_service.json`.
//!
//! ## Protocol
//!
//! The server hosts **two tables** with different shapes and assignment
//! policies. Per table, `CLIENTS` worker threads (16 total) each drive one
//! simulated worker through the paper's live loop until the table reaches
//! its answer budget:
//!
//! ```text
//! GET  /tables/:id/assignment?worker=u&k=cols     (latency sampled)
//! …answer each cell through the WorkerPool oracle…
//! POST /tables/:id/answers  {"answers": [...]}    (latency sampled)
//! ```
//!
//! Ingestion appends to the table's live answer log; the per-table
//! refresher thread delta-merges and re-fits in the background (cadence
//! 40 ms, threshold 32). At the end the harness forces a final refresh and
//! gates on the service's core contracts:
//!
//! * **zero dropped answers** — the served log length equals the number of
//!   accepted POSTs;
//! * **offline agreement** — the served z-space truth equals
//!   `TCrowd::infer` re-run offline on the served log within 1e-6 z-units
//!   (cold re-fits make the published state a pure function of the log).

use criterion::{criterion_group, criterion_main, Criterion};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tcrowd_core::TCrowd;
use tcrowd_service::Json;
use tcrowd_sim::{WorkerPool, WorkerPoolConfig};
use tcrowd_tabular::{
    generate_dataset, Answer, AnswerLog, CellId, ColumnType, Dataset, GeneratorConfig, Value,
    WorkerId,
};

/// Simulated workers (client threads) per table.
const CLIENTS: usize = 8;
/// Refresher cadence / pending threshold configured on every table.
const REFRESH_MS: usize = 40;
const REFIT_EVERY: usize = 32;

/// A keep-alive HTTP/JSON client over one `TcpStream`.
struct Client {
    addr: SocketAddr,
    stream: BufReader<TcpStream>,
}

/// Transient connection failures a client worker absorbs (reconnecting
/// with backoff) before it gives up and fails the bench.
const CLIENT_RETRIES: usize = 5;

impl Client {
    fn try_connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { addr, stream: BufReader::new(stream) })
    }

    fn connect(addr: SocketAddr) -> Client {
        Client::try_connect(addr).expect("connect")
    }

    /// One request with bounded retry: a transient connection error (the
    /// server timed out the keep-alive connection, a reset mid-handshake)
    /// reconnects with exponential backoff and resends, rather than
    /// aborting the whole closed-loop worker.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
        let mut delay = Duration::from_millis(10);
        for attempt in 0..=CLIENT_RETRIES {
            match self.try_request(method, path, body) {
                Ok(reply) => return reply,
                Err(e) if attempt < CLIENT_RETRIES => {
                    eprintln!(
                        "bench_service: transient failure on {method} {path} \
                         (attempt {}): {e}; reconnecting",
                        attempt + 1
                    );
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(500));
                    if let Ok(fresh) = Client::try_connect(self.addr) {
                        *self = fresh;
                    }
                }
                Err(e) => panic!("{method} {path} failed after {CLIENT_RETRIES} retries: {e}"),
            }
        }
        unreachable!("retry loop returns or panics")
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Json)> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.get_ref().write_all(raw.as_bytes())?;
        let mut status_line = String::new();
        if self.stream.read_line(&mut status_line)? == 0 {
            return Err(bad("connection closed before status line"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line {status_line:?}")))?;
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            if self.stream.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        let text = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        let json = tcrowd_service::json::parse(&text).map_err(|e| bad(&e))?;
        Ok((status, json))
    }

    fn get(&mut self, path: &str) -> (u16, Json) {
        self.request("GET", path, "")
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, Json) {
        self.request("POST", path, body)
    }

    /// One GET whose body comes back as raw text (the `/metrics` scrape —
    /// Prometheus exposition, not JSON).
    fn get_text(&mut self, path: &str) -> String {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let run = |client: &mut Client| -> std::io::Result<String> {
            let raw = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
            client.stream.get_ref().write_all(raw.as_bytes())?;
            let mut status_line = String::new();
            client.stream.read_line(&mut status_line)?;
            if status_line.split_whitespace().nth(1) != Some("200") {
                return Err(bad(&format!("bad status line {status_line:?}")));
            }
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                if client.stream.read_line(&mut line)? == 0 {
                    return Err(bad("connection closed mid-headers"));
                }
                if line.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
            let mut body = vec![0u8; len];
            client.stream.read_exact(&mut body)?;
            String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))
        };
        run(self).unwrap_or_else(|e| panic!("GET {path} failed: {e}"))
    }
}

/// The value of `name{table="<table>"}` in a Prometheus exposition.
fn scrape_value(text: &str, name: &str, table: &str) -> f64 {
    let series = format!("{name}{{table=\"{table}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&series))
        .unwrap_or_else(|| panic!("series {series}… missing from /metrics:\n{text}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparsable sample for {series}: {e}"))
}

struct TableSpec {
    id: &'static str,
    policy: &'static str,
    dataset: Dataset,
    budget: usize,
}

fn create_body(spec: &TableSpec) -> String {
    let columns: Vec<Json> = spec
        .dataset
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
        ("id", Json::from(spec.id)),
        ("rows", Json::from(spec.dataset.rows())),
        ("schema", Json::obj([("columns", Json::Arr(columns))])),
        ("policy", Json::from(spec.policy)),
        ("refit_every", Json::from(REFIT_EVERY)),
        ("refresh_interval_ms", Json::from(REFRESH_MS)),
    ])
    .to_string()
}

fn answer_to_json(a: &Answer) -> Json {
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
}

#[derive(Default)]
struct Samples {
    assign_us: Vec<f64>,
    post_us: Vec<f64>,
    answers_posted: usize,
    max_pending: usize,
}

/// One simulated worker's closed loop until the table budget is spent.
#[allow(clippy::too_many_arguments)]
fn run_client(addr: SocketAddr, table: &TableSpec, worker: u32, posted: &AtomicUsize) -> Samples {
    let mut out = Samples::default();
    let mut client = Client::connect(addr);
    // Every client of a table sees the same worker population (same seed):
    // worker `u`'s inherent quality is consistent no matter which thread
    // serves them.
    let mut pool = WorkerPool::new(
        &table.dataset.schema,
        &table.dataset.truth,
        WorkerPoolConfig { num_workers: CLIENTS, ..Default::default() },
        0xBEEF ^ table.budget as u64,
    );
    let cols = table.dataset.cols();
    let mut consecutive_empty = 0usize;
    while posted.load(Ordering::SeqCst) < table.budget {
        let t0 = Instant::now();
        let (status, reply) =
            client.get(&format!("/tables/{}/assignment?worker={worker}&k={cols}", table.id));
        out.assign_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(status, 200, "assignment failed: {reply}");
        let cells = reply.get("cells").expect("cells").as_array().expect("array");
        if cells.is_empty() {
            // This worker answered everything the snapshot knows; wait for a
            // refresh to surface new candidates (or for others to finish the
            // budget).
            consecutive_empty += 1;
            if consecutive_empty > 200 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(REFRESH_MS as u64 / 4));
            continue;
        }
        consecutive_empty = 0;
        let answers: Vec<Json> = cells
            .iter()
            .map(|c| {
                let cell = CellId::new(
                    c.get("row").unwrap().as_u64().unwrap() as u32,
                    c.get("col").unwrap().as_u64().unwrap() as u32,
                );
                answer_to_json(&Answer {
                    worker: WorkerId(worker),
                    cell,
                    value: pool.answer(WorkerId(worker), cell),
                })
            })
            .collect();
        let n = answers.len();
        let body = Json::obj([("answers", Json::Arr(answers))]).to_string();
        // 429 (backpressure) and 503 (storage degraded) mean the batch was
        // NOT acknowledged: wait out the hint and resend verbatim instead
        // of aborting the worker.
        let mut backoff = Duration::from_millis(REFRESH_MS as u64 / 2);
        let (status, reply) = loop {
            let t0 = Instant::now();
            let (status, reply) = client.post(&format!("/tables/{}/answers", table.id), &body);
            out.post_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if status == 429 || status == 503 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(1_000));
                continue;
            }
            break (status, reply);
        };
        assert_eq!(status, 200, "ingest failed: {reply}");
        assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(n as u64));
        out.answers_posted += n;
        out.max_pending =
            out.max_pending.max(reply.get("pending").and_then(Json::as_u64).unwrap_or(0) as usize);
        posted.fetch_add(n, Ordering::SeqCst);
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Re-run inference offline on the served log and return the max z-space
/// gap against the served `truth?z=1` document.
fn offline_divergence(client: &mut Client, spec: &TableSpec) -> f64 {
    let (_, served) = client.get(&format!("/tables/{}/answers", spec.id));
    let served = served.get("answers").unwrap().as_array().unwrap();
    let schema = &spec.dataset.schema;
    let mut log = AnswerLog::new(spec.dataset.rows(), spec.dataset.cols());
    for a in served {
        let col = a.get("col").unwrap().as_u64().unwrap() as usize;
        let value = match schema.column_type(col) {
            ColumnType::Categorical { labels } => {
                let name = a.get("value").unwrap().as_str().unwrap();
                Value::Categorical(labels.iter().position(|l| l == name).unwrap() as u32)
            }
            ColumnType::Continuous { .. } => {
                Value::Continuous(a.get("value").unwrap().as_f64().unwrap())
            }
        };
        log.push(Answer {
            worker: WorkerId(a.get("worker").unwrap().as_u64().unwrap() as u32),
            cell: CellId::new(a.get("row").unwrap().as_u64().unwrap() as u32, col as u32),
            value,
        });
    }
    let offline = TCrowd::default_full().infer(schema, &log);
    let (_, tz) = client.get(&format!("/tables/{}/truth?z=1", spec.id));
    let rows = tz.get("truth_z").unwrap().as_array().unwrap();
    let mut max_diff = 0.0f64;
    for (i, row) in rows.iter().enumerate() {
        for (j, cell) in row.as_array().unwrap().iter().enumerate() {
            match offline.truth_z(CellId::new(i as u32, j as u32)) {
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
    max_diff
}

fn service_load(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("CRITERION_QUICK").is_some();
    // Budgets in average answers per cell; capacity is CLIENTS per cell.
    let avg_budget = if quick { 2.0 } else { 4.0 };

    let specs: Vec<TableSpec> =
        [("alpha", "structure-aware", 30usize, 4usize, 71u64), ("beta", "inherent", 24, 3, 72)]
            .into_iter()
            .map(|(id, policy, rows, columns, seed)| {
                let dataset = generate_dataset(
                    &GeneratorConfig {
                        rows,
                        columns,
                        num_workers: CLIENTS,
                        answers_per_task: 1,
                        ..Default::default()
                    },
                    seed,
                );
                let budget = (avg_budget * (rows * columns) as f64) as usize;
                TableSpec { id, policy, dataset, budget }
            })
            .collect();

    let (registry, server) = tcrowd_service::start("127.0.0.1:0", CLIENTS).expect("start server");
    let addr = server.addr();
    let mut admin = Client::connect(addr);
    for spec in &specs {
        let (status, reply) = admin.post("/tables", &create_body(spec));
        assert_eq!(status, 201, "create failed: {reply}");
    }

    // ---- Closed loop: CLIENTS simulated workers per table, all concurrent.
    let t0 = Instant::now();
    let samples = Arc::new(Mutex::new(Samples::default()));
    std::thread::scope(|scope| {
        for spec in &specs {
            let posted = Arc::new(AtomicUsize::new(0));
            for w in 0..CLIENTS as u32 {
                let samples = Arc::clone(&samples);
                let posted = Arc::clone(&posted);
                scope.spawn(move || {
                    let s = run_client(addr, spec, w, &posted);
                    let mut all = samples.lock().expect("samples");
                    all.assign_us.extend(s.assign_us);
                    all.post_us.extend(s.post_us);
                    all.answers_posted += s.answers_posted;
                    all.max_pending = all.max_pending.max(s.max_pending);
                });
            }
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut samples = Arc::try_unwrap(samples)
        .unwrap_or_else(|_| panic!("clients joined"))
        .into_inner()
        .expect("samples");
    samples.assign_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples.post_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    // ---- Measure the contract quantities (asserted AFTER the JSON is
    // written, so the CI guard always reads this run's numbers, not a stale
    // file from a previous run).
    let mut per_table = Vec::new();
    let mut total_served = 0usize;
    for spec in &specs {
        let (_, r) = admin.post(&format!("/tables/{}/refresh", spec.id), "");
        let stats = r.get("stats").expect("stats");
        let answers = stats.get("answers").unwrap().as_u64().unwrap() as usize;
        let epoch = stats.get("epoch").unwrap().as_u64().unwrap() as usize;
        let pending = stats.get("pending").unwrap().as_u64().unwrap();
        let refreshes = stats.get("refreshes").unwrap().as_u64().unwrap();
        total_served += answers;
        let divergence = offline_divergence(&mut admin, spec);
        println!(
            "bench_service table {} ({}): {} answers, {} refreshes, offline z-divergence \
             {divergence:.2e}",
            spec.id, spec.policy, answers, refreshes
        );
        per_table.push((spec, answers, epoch, pending, refreshes, divergence));
    }
    // Measured, not assumed: a nonzero value fails both the assert below and
    // the CI guard reading the JSON.
    let dropped = samples.answers_posted as i64 - total_served as i64;

    // ---- /metrics cross-check: the observability registry's ingest
    // counters, scraped over the wire, must agree with the bench's own
    // acked-answer count exactly — a drifting counter means instrumentation
    // missed (or double-counted) an acked batch.
    let exposition = admin.get_text("/metrics");
    tcrowd_obs::lint(&exposition).unwrap_or_else(|e| panic!("/metrics failed lint: {e}"));
    let counted: f64 =
        specs.iter().map(|s| scrape_value(&exposition, "tcrowd_ingest_answers_total", s.id)).sum();
    let counter_drift = counted as i64 - samples.answers_posted as i64;
    println!(
        "bench_service /metrics cross-check: registry counted {counted:.0} ingested answers \
         vs {} acked POSTs -> drift {counter_drift}",
        samples.answers_posted
    );

    let throughput = samples.answers_posted as f64 / wall_s;
    let assign_p50 = percentile(&samples.assign_us, 0.50);
    let assign_p99 = percentile(&samples.assign_us, 0.99);
    let post_p50 = percentile(&samples.post_us, 0.50);
    let post_p99 = percentile(&samples.post_us, 0.99);
    println!(
        "bench_service: {} answers over {} tables x {CLIENTS} workers in {wall_s:.2}s -> \
         {throughput:.0} answers/s; assignment p50 {assign_p50:.0} µs p99 {assign_p99:.0} µs; \
         ingest p50 {post_p50:.0} µs p99 {post_p99:.0} µs; max refresh lag {} answers",
        samples.answers_posted,
        specs.len(),
        samples.max_pending
    );

    // ---- Correlation-cache effect (in-process): the same structure-aware
    // `select` on the loaded table's final snapshot, with the snapshot's
    // cached CorrelationModel vs a per-request re-fit (the pre-cache
    // behaviour). The p99 gap is what caching bought the assignment
    // endpoint.
    let (cache_cmp_p50, cache_cmp_p99) = {
        use tcrowd_core::AssignmentContext;
        let table = registry.get("alpha").expect("alpha table");
        let snap = table.snapshot();
        let k = table.cols();
        let reps = if quick { 30 } else { 300 };
        let mut policy =
            tcrowd_service::make_policy("structure-aware", table.rows(), 1).expect("policy");
        let mut lanes = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
        for i in 0..reps {
            // Alternate cached/uncached so drift hits both lanes equally.
            for (lane, cached) in lanes.iter_mut().zip([true, false]) {
                let ctx = AssignmentContext {
                    schema: &table.schema,
                    answers: snap.matrix.as_ref(),
                    freeze: snap.matrix.freeze_view(),
                    inference: Some(&snap.result),
                    max_answers_per_cell: None,
                    terminated: None,
                    correlation: if cached { Some(&snap.correlation) } else { None },
                };
                let t0 = Instant::now();
                let picks = policy.select(WorkerId((i % CLIENTS) as u32), k, &ctx);
                lane.push(t0.elapsed().as_nanos() as f64 / 1e3);
                assert!(picks.len() <= k);
            }
        }
        let [mut cached, mut uncached] = lanes;
        cached.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        uncached.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (
            (percentile(&cached, 0.50), percentile(&uncached, 0.50)),
            (percentile(&cached, 0.99), percentile(&uncached, 0.99)),
        )
    };
    println!(
        "bench_service correlation cache: select p99 {:.0} µs cached vs {:.0} µs re-fit \
         ({:.1}x), p50 {:.0} vs {:.0} µs",
        cache_cmp_p99.0,
        cache_cmp_p99.1,
        cache_cmp_p99.1 / cache_cmp_p99.0.max(1e-9),
        cache_cmp_p50.0,
        cache_cmp_p50.1,
    );

    // ---- Ingest-stall measurement: does an EM refit block `POST /answers`?
    //
    // A dedicated table is pre-loaded until its refits take real wall-clock,
    // then the same HTTP ingest load runs twice: once quiescent (no refits
    // on the serving path — a *shadow fitter* runs the same EM on a
    // detached copy of the freeze, so both phases see identical CPU
    // pressure and the comparison isolates lock coupling from scheduler
    // contention) and once under a refit storm (synchronous refreshes back
    // to back, windows recorded). Every ingest sample overlapping a refit
    // window lands in the "during refit" lane; the gate bounds its p99
    // against the quiescent p99. Before the out-of-lock refit pipeline,
    // the in-window p99 was the refit duration itself (hundreds of
    // milliseconds — hundreds of times over the bound); now both lanes sit
    // within a small constant factor.
    let stall = {
        let spec_rows = 120usize;
        let spec_cols = 4usize;
        let preload_per_task = if quick { 4 } else { 10 };
        let gamma = generate_dataset(
            &GeneratorConfig {
                rows: spec_rows,
                columns: spec_cols,
                num_workers: 40,
                answers_per_task: preload_per_task,
                ..Default::default()
            },
            73,
        );
        let table = registry
            .create(
                Some("gamma".into()),
                gamma.schema.clone(),
                spec_rows,
                tcrowd_service::TableConfig {
                    // The storm thread owns refit timing; keep the background
                    // refresher out of the measurement.
                    refit_every: usize::MAX,
                    refresh_interval: Duration::from_secs(3600),
                    ..Default::default()
                },
            )
            .expect("create gamma table");
        table.submit(gamma.answers.all()).expect("preload gamma");
        assert!(table.refresh_now(), "preload refresh");
        let preloaded = table.snapshot().epoch;

        // One ingest probe lane: POST a 4-answer batch, stamp the sample,
        // sleep a beat. Throttled probes measure the *latency* a live
        // submitter sees (the quantity the gate bounds) without turning the
        // measurement into a saturation test that starves the refitter and
        // balloons the table mid-phase.
        let ingest_lane = |stop: &AtomicBool, t0: Instant, worker_base: u32| {
            let mut client = Client::connect(addr);
            let mut samples: Vec<(f64, f64)> = Vec::new();
            let mut i = 0u32;
            while !stop.load(Ordering::SeqCst) {
                let answers: Vec<Json> = (0..4u32)
                    .map(|j| {
                        let k = (i * 4 + j) as usize % gamma.answers.len();
                        let cell = gamma.answers.all()[k].cell;
                        answer_to_json(&Answer {
                            worker: WorkerId(worker_base + i % 1000),
                            cell,
                            value: gamma.truth_of(cell),
                        })
                    })
                    .collect();
                let body = Json::obj([("answers", Json::Arr(answers))]).to_string();
                let started = t0.elapsed().as_nanos() as f64 / 1e3;
                let s0 = Instant::now();
                let (status, reply) = client.post("/tables/gamma/answers", &body);
                let latency = s0.elapsed().as_nanos() as f64 / 1e3;
                assert_eq!(status, 200, "gamma ingest failed: {reply}");
                samples.push((started, latency));
                i += 1;
                std::thread::sleep(Duration::from_micros(600));
            }
            samples
        };
        const LANES: usize = 2;
        type Windows = Arc<Mutex<Vec<(f64, f64)>>>;
        let run_phase = |secs: f64, windows: Option<&Windows>| {
            let stop = AtomicBool::new(false);
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                match windows {
                    // The storm: real service refreshes, windows recorded.
                    Some(windows) => {
                        let table = &table;
                        let windows = Arc::clone(windows);
                        let stop = &stop;
                        scope.spawn(move || {
                            while !stop.load(Ordering::SeqCst) {
                                let w0 = t0.elapsed().as_nanos() as f64 / 1e3;
                                if table.refresh_now() {
                                    let w1 = t0.elapsed().as_nanos() as f64 / 1e3;
                                    windows.lock().expect("windows").push((w0, w1));
                                } else {
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                            }
                        });
                    }
                    // The CPU-matched baseline: the same EM, on a detached
                    // copy of the freeze — zero table locks touched, so any
                    // latency it induces is scheduler contention, not lock
                    // coupling.
                    None => {
                        let shadow = table.snapshot();
                        let schema = gamma.schema.clone();
                        let stop = &stop;
                        scope.spawn(move || {
                            let model = TCrowd::default_full();
                            while !stop.load(Ordering::SeqCst) {
                                let fit = model.infer_matrix(&schema, &shadow.matrix);
                                std::hint::black_box(fit);
                            }
                        });
                    }
                }
                let lanes: Vec<_> = (0..LANES)
                    .map(|l| {
                        let stop = &stop;
                        let ingest_lane = &ingest_lane;
                        scope.spawn(move || ingest_lane(stop, t0, 50_000 + l as u32 * 1000))
                    })
                    .collect();
                std::thread::sleep(Duration::from_secs_f64(secs));
                stop.store(true, Ordering::SeqCst);
                let mut samples = Vec::new();
                for lane in lanes {
                    samples.extend(lane.join().expect("ingest lane"));
                }
                let refits = windows.map(|w| w.lock().expect("windows").len()).unwrap_or(0);
                (samples, refits)
            })
        };

        // Phase A: quiescent baseline (no refits on the serving path; the
        // shadow fitter keeps the CPU exactly as busy).
        let (quiescent, _) = run_phase(if quick { 0.4 } else { 1.0 }, None);
        // Phase B: the same load under back-to-back refits.
        let windows = Arc::new(Mutex::new(Vec::new()));
        let (stormy, refits) = run_phase(if quick { 1.0 } else { 2.5 }, Some(&windows));
        let windows = windows.lock().expect("windows").clone();
        let refit_ms_mean = if windows.is_empty() {
            0.0
        } else {
            windows.iter().map(|(a, b)| (b - a) / 1e3).sum::<f64>() / windows.len() as f64
        };
        // A sample stalls with a refit if its [start, end] interval overlaps
        // any refit window.
        let in_window: Vec<f64> = stormy
            .iter()
            .filter(|&&(start, latency)| {
                windows.iter().any(|&(w0, w1)| start < w1 && start + latency > w0)
            })
            .map(|&(_, latency)| latency)
            .collect();
        let mut quiescent_lat: Vec<f64> = quiescent.iter().map(|&(_, l)| l).collect();
        quiescent_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut in_window_sorted = in_window.clone();
        in_window_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q_p50 = percentile(&quiescent_lat, 0.50);
        let q_p99 = percentile(&quiescent_lat, 0.99);
        let r_p50 = percentile(&in_window_sorted, 0.50);
        let r_p99 = percentile(&in_window_sorted, 0.99);
        let r_max = in_window_sorted.last().copied().unwrap_or(0.0);
        // The ratio floors the quiescent p99 at a small constant: on a very
        // fast loopback a sub-100µs baseline would turn scheduler noise into
        // gate failures, and the point of the gate is "a refit must not add
        // more than a small constant bound" — not "loopback must be noise
        // free".
        let floor_us = 200.0;
        let ratio = r_p99 / q_p99.max(floor_us);
        println!(
            "bench_service ingest stall: {} preloaded answers, {refits} refits (mean {refit_ms_mean:.0} ms); \
             quiescent ingest p50 {q_p50:.0} µs p99 {q_p99:.0} µs ({} samples); during refit \
             p50 {r_p50:.0} µs p99 {r_p99:.0} µs max {r_max:.0} µs ({} samples) -> stall ratio {ratio:.2}x",
            preloaded,
            quiescent_lat.len(),
            in_window_sorted.len(),
        );
        Json::obj([
            ("preloaded_answers", Json::from(preloaded)),
            ("refit_windows", Json::from(refits)),
            ("refit_ms_mean", Json::from(refit_ms_mean)),
            ("quiescent_samples", Json::from(quiescent_lat.len())),
            ("quiescent_p50_us", Json::from(q_p50)),
            ("quiescent_p99_us", Json::from(q_p99)),
            ("during_refit_samples", Json::from(in_window_sorted.len())),
            ("during_refit_p50_us", Json::from(r_p50)),
            ("during_refit_p99_us", Json::from(r_p99)),
            ("during_refit_max_us", Json::from(r_max)),
            ("stall_ratio_p99", Json::from(ratio)),
            ("p99_floor_us", Json::from(floor_us)),
            ("bound_ratio", Json::from(5.0)),
        ])
    };

    // ---- BENCH_service.json
    let tables_json: Vec<Json> = per_table
        .iter()
        .map(|(spec, answers, _, _, refreshes, divergence)| {
            Json::obj([
                ("id", Json::from(spec.id)),
                ("policy", Json::from(spec.policy)),
                ("rows", Json::from(spec.dataset.rows())),
                ("cols", Json::from(spec.dataset.cols())),
                ("answers", Json::from(*answers)),
                ("refreshes", Json::from(*refreshes as f64)),
                ("offline_z_divergence", Json::from(*divergence)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("benchmark", Json::from("service_closed_loop")),
        (
            "protocol",
            Json::obj([
                ("tables", Json::from(specs.len())),
                ("concurrent_workers_per_table", Json::from(CLIENTS)),
                ("avg_answers_per_cell_budget", Json::from(avg_budget)),
                ("refresh_interval_ms", Json::from(REFRESH_MS)),
                ("refit_every", Json::from(REFIT_EVERY)),
                ("transport", Json::from("HTTP/1.1 keep-alive over loopback")),
            ]),
        ),
        ("answers_total", Json::from(samples.answers_posted)),
        ("dropped_answers", Json::from(dropped as f64)),
        ("metrics_counter_drift", Json::from(counter_drift as f64)),
        ("wall_seconds", Json::from(wall_s)),
        ("throughput_answers_per_sec", Json::from(throughput)),
        ("assignment_latency_us_p50", Json::from(assign_p50)),
        ("assignment_latency_us_p99", Json::from(assign_p99)),
        ("ingest_latency_us_p50", Json::from(post_p50)),
        ("ingest_latency_us_p99", Json::from(post_p99)),
        ("max_refresh_lag_answers", Json::from(samples.max_pending)),
        ("offline_estimates_equal_within", Json::from(1e-6)),
        (
            // The snapshot-cached CorrelationModel vs the pre-cache
            // fit-per-request behaviour, measured in-process on the loaded
            // table (ROADMAP open item: cut the assignment p99).
            "correlation_cache",
            Json::obj([
                ("select_us_p50_cached", Json::from(cache_cmp_p50.0)),
                ("select_us_p50_refit", Json::from(cache_cmp_p50.1)),
                ("select_us_p99_cached", Json::from(cache_cmp_p99.0)),
                ("select_us_p99_refit", Json::from(cache_cmp_p99.1)),
                ("p99_speedup", Json::from(cache_cmp_p99.1 / cache_cmp_p99.0.max(1e-9))),
            ]),
        ),
        // Ingest latency during EM refit windows vs quiescent: the
        // out-of-lock refit pipeline's acceptance gate (CI fails the build
        // when the in-window p99 exceeds bound_ratio × the floored
        // quiescent p99).
        ("ingest_stall", stall.clone()),
        ("tables", Json::Arr(tables_json)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    if let Err(e) = std::fs::write(out, format!("{doc}\n")) {
        eprintln!("warning: could not write {out}: {e}");
    }

    // ---- Gates (after the JSON write): nothing dropped, refresher drained,
    // every table at budget, served truth replayable offline, and refits
    // must not stall ingestion.
    assert_eq!(
        dropped, 0,
        "dropped answers: posted {} vs served {total_served}",
        samples.answers_posted
    );
    assert_eq!(
        counter_drift, 0,
        "registry ingest counter drifted from the acked-answer count: \
         counted {counted:.0} vs acked {}",
        samples.answers_posted
    );
    {
        let windows = stall.get("refit_windows").and_then(Json::as_u64).unwrap_or(0);
        let in_window = stall.get("during_refit_samples").and_then(Json::as_u64).unwrap_or(0);
        let ratio = stall.get("stall_ratio_p99").and_then(Json::as_f64).unwrap_or(f64::INFINITY);
        let bound = stall.get("bound_ratio").and_then(Json::as_f64).unwrap_or(5.0);
        assert!(windows >= 2, "refit storm drove only {windows} refits — measurement is vacuous");
        assert!(
            in_window >= 20,
            "only {in_window} ingest samples overlapped refit windows — measurement is vacuous"
        );
        assert!(
            ratio <= bound,
            "EM refits stall ingestion: in-refit p99 is {ratio:.2}x the quiescent p99 (bound {bound}x)"
        );
    }
    for (spec, answers, epoch, pending, _, divergence) in &per_table {
        assert_eq!(*pending, 0, "table {}: refresh must drain pending answers", spec.id);
        assert_eq!(answers, epoch, "table {}: published epoch must cover every answer", spec.id);
        assert!(*answers >= spec.budget, "table {} under budget: {answers}", spec.id);
        assert!(
            *divergence < 1e-6,
            "table {}: served truth diverges from offline infer by {divergence:.3e}",
            spec.id
        );
    }

    // ---- Criterion case: single-request assignment latency on the loaded
    // table (steady state, keep-alive).
    let mut group = c.benchmark_group("service_assignment");
    group.sample_size(if quick { 2 } else { 10 });
    group.bench_function("structure_aware_http", |b| {
        b.iter(|| {
            let (status, reply) = admin.get("/tables/alpha/assignment?worker=3&k=4");
            assert_eq!(status, 200);
            reply.get("cells").unwrap().as_array().unwrap().len()
        })
    });
    group.finish();

    // Close the admin keep-alive connection before shutting down, though
    // shutdown would close an idle one itself.
    drop(admin);
    registry.shutdown();
    server.shutdown();
}

criterion_group!(benches, service_load);
criterion_main!(benches);
