//! `tcrowd` — command-line front-end for the T-Crowd library.
//!
//! ```text
//! tcrowd generate --rows 50 --cols 6 --out-dir demo/        # demo dataset
//! tcrowd infer    --schema demo/table.schema.tsv --answers demo/table.answers.tsv \
//!                 --rows 50 --out estimates.tsv [--workers workers.tsv]
//!                 [--only-cate | --only-cont]
//! tcrowd assign   --schema … --answers … --rows 50 --worker 7 --k 6
//!                 [--inherent]            # default is structure-aware
//! tcrowd evaluate --schema … --truth truth.tsv --estimates estimates.tsv
//! tcrowd serve    --addr 127.0.0.1:8077 --threads 8        # HTTP service
//! ```
//!
//! All files use the TSV interchange format of `tcrowd_tabular::io`.

mod args;

use args::Args;
use std::path::Path;
use tcrowd_core::diagnostics;
use tcrowd_core::{
    AssignmentContext, AssignmentPolicy, InherentGainPolicy, RowGrouping, StructureAwarePolicy,
    TCrowd,
};
use tcrowd_service::{make_policy, POLICY_NAMES};
use tcrowd_sim::{
    ExperimentConfig, InferenceBackend, Runner, StoppingRule, WorkerPool, WorkerPoolConfig,
};
use tcrowd_tabular::io;
use tcrowd_tabular::{evaluate, generate_dataset, GeneratorConfig, WorkerId};

fn main() {
    // `tcrowd store <sub> …` nests a second positional (the store
    // subcommand); hand the remainder to its own parser before the flat
    // grammar below rejects it.
    if std::env::args().nth(1).as_deref() == Some("store") {
        let result = Args::parse(std::env::args().skip(2)).and_then(|sub| cmd_store(&sub));
        if let Err(e) = result {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "infer" => cmd_infer(&args),
        "assign" => cmd_assign(&args),
        "evaluate" => cmd_evaluate(&args),
        "diagnose" => cmd_diagnose(&args),
        "simulate" => cmd_simulate(&args),
        "compare" => cmd_compare(&args),
        "serve" => cmd_serve(&args),
        "events" => cmd_events(&args),
        "" | "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "\
tcrowd — effective crowdsourcing for tabular data (ICDE 2018)

USAGE:
  tcrowd generate --out-dir DIR [--rows N] [--cols M] [--ratio R]
                  [--answers-per-task K] [--workers W] [--seed S]
  tcrowd infer    --schema FILE --answers FILE --rows N --out FILE
                  [--workers FILE] [--only-cate | --only-cont]
                  [--exclude ID,ID,...]     # drop flagged workers first
  tcrowd assign   --schema FILE --answers FILE --rows N --worker ID
                  [--k K] [--inherent]
  tcrowd evaluate --schema FILE --truth FILE --estimates FILE
  tcrowd diagnose --schema FILE --answers FILE --rows N [--worst K]
                  [--entity-groups G]       # fit §7 familiarity multipliers
  tcrowd simulate [--rows N] [--cols M] [--ratio R] [--workers W]
                  [--budget B] [--seed S] [--policy NAME] [--adaptive]
                  [--out FILE]              # policy: structure-aware (default),
                                            # inherent, entity, qasca, random,
                                            # looping, entropy
  tcrowd compare  [--rows N] [--cols M] [--budget B] [--seed S] [--out FILE]
                  # runs every policy at equal budget, one series per policy
  tcrowd serve    [--addr HOST:PORT] [--threads T] [--demo]
                  [--data-dir DIR] [--fsync always|flush|never]
                  [--max-pending N]
                  # multi-table HTTP service (tcrowd-service crate), one
                  # thread per connection; --threads bounds the requests
                  # handled at once (default 8). --demo pre-creates a
                  # generated 40x5 table named 'demo'.
                  # --data-dir makes tables durable: per-table WAL + snapshots
                  # (tcrowd-store), recover-on-boot after crash or restart.
                  # --max-pending bounds each table's refresh lag: ingest
                  # answers 429 Retry-After past N pending answers
  tcrowd events   --table ID [--addr HOST:PORT] [--since SEQ] [--max N]
                  # tail a served table's lifecycle event ring (ingest
                  # commits, refits, snapshots, WAL + health transitions)
                  # over GET /tables/:id/events; prints seq, timestamp,
                  # kind, detail and the request correlation id
  tcrowd store    <inspect|verify|compact> --data-dir DIR [--table ID]
                  # offline durability tooling: inspect prints per-table WAL/
                  # segment/snapshot-chain state ('N+' segments = cold head
                  # compacted away under a covering snapshot), verify audits
                  # checksums + segment-chain continuity + chain/WAL
                  # consistency (exit 1 on hard errors), compact collapses
                  # the segment chain into one defragmented WAL segment and
                  # rewrites a fresh full-epoch snapshot";

fn cmd_generate(args: &Args) -> Result<(), String> {
    let dir = Path::new(args.require("out-dir")?);
    let cfg = GeneratorConfig {
        rows: args.get_parsed("rows", 50)?,
        columns: args.get_parsed("cols", 6)?,
        categorical_ratio: args.get_parsed("ratio", 0.5)?,
        answers_per_task: args.get_parsed("answers-per-task", 4)?,
        num_workers: args.get_parsed("workers", 25)?,
        ..Default::default()
    };
    let seed = args.get_parsed("seed", 1u64)?;
    let d = generate_dataset(&cfg, seed);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    io::write_schema(&d.schema, dir.join("table.schema.tsv")).map_err(|e| e.to_string())?;
    io::write_answers(&d.schema, &d.answers, dir.join("table.answers.tsv"))
        .map_err(|e| e.to_string())?;
    io::write_table(&d.schema, &d.truth, dir.join("table.truth.tsv")).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows × {} columns, {} answers from {} workers to {}",
        d.rows(),
        d.cols(),
        d.answers.len(),
        d.statistics().workers,
        dir.display()
    );
    Ok(())
}

fn load_state(args: &Args) -> Result<(tcrowd_tabular::Schema, tcrowd_tabular::AnswerLog), String> {
    let schema = io::read_schema(args.require("schema")?).map_err(|e| e.to_string())?;
    let rows: usize = args.get_parsed("rows", 0)?;
    if rows == 0 {
        return Err("--rows is required (the answer file may omit trailing rows)".into());
    }
    let answers =
        io::read_answers(&schema, rows, args.require("answers")?).map_err(|e| e.to_string())?;
    Ok((schema, answers))
}

fn cmd_infer(args: &Args) -> Result<(), String> {
    let (schema, mut answers) = load_state(args)?;
    if let Some(list) = args.get("exclude") {
        let ids: Result<Vec<WorkerId>, String> = list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map(WorkerId)
                    .map_err(|_| format!("invalid worker id '{t}' in --exclude"))
            })
            .collect();
        let ids = ids?;
        let before = answers.len();
        answers = answers.without_workers(&ids);
        println!(
            "excluded {} worker(s): {} of {} answers dropped",
            ids.len(),
            before - answers.len(),
            before
        );
    }
    let model = match (args.has_switch("only-cate"), args.has_switch("only-cont")) {
        (true, true) => return Err("--only-cate and --only-cont are mutually exclusive".into()),
        (true, false) => TCrowd::only_categorical(),
        (false, true) => TCrowd::only_continuous(),
        (false, false) => TCrowd::default_full(),
    };
    let result = model.infer(&schema, &answers);
    io::write_table(&schema, &result.estimates(), args.require("out")?)
        .map_err(|e| e.to_string())?;
    println!(
        "inferred {} cells from {} answers by {} workers (EM: {} iterations, converged = {})",
        result.rows() * result.cols(),
        answers.len(),
        result.workers.len(),
        result.iterations,
        result.converged
    );
    if let Some(path) = args.get("workers") {
        use std::io::Write;
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
        writeln!(out, "worker\tphi\tquality\tanswers").map_err(|e| e.to_string())?;
        let matrix = answers.to_matrix();
        let mut workers = result.workers.clone();
        workers.sort();
        for w in workers {
            writeln!(
                out,
                "{}\t{:.6}\t{:.6}\t{}",
                w.0,
                result.phi_of(w).unwrap(),
                result.quality_of(w).unwrap(),
                matrix.answers_of(w).count()
            )
            .map_err(|e| e.to_string())?;
        }
        println!("worker report written to {path}");
    }
    Ok(())
}

fn cmd_assign(args: &Args) -> Result<(), String> {
    let (schema, answers) = load_state(args)?;
    let worker = WorkerId(args.get_parsed("worker", u32::MAX)?);
    if worker.0 == u32::MAX {
        return Err("missing required flag --worker".into());
    }
    let k: usize = args.get_parsed("k", schema.num_columns())?;
    let inference = TCrowd::default_full().infer(&schema, &answers);
    let matrix = answers.to_matrix();
    let ctx = AssignmentContext {
        schema: &schema,
        answers: &matrix,
        freeze: matrix.freeze_view(),
        inference: Some(&inference),
        max_answers_per_cell: None,
        terminated: None,
        correlation: None,
    };
    let mut inherent = InherentGainPolicy;
    let mut sa = StructureAwarePolicy;
    let policy: &mut dyn AssignmentPolicy =
        if args.has_switch("inherent") { &mut inherent } else { &mut sa };
    let picks = policy.select(worker, k, &ctx);
    println!("policy: {}", policy.name());
    println!("row\tcolumn");
    for c in picks {
        println!("{}\t{}", c.row, schema.columns[c.col as usize].name);
    }
    Ok(())
}

fn cmd_diagnose(args: &Args) -> Result<(), String> {
    let (schema, answers) = load_state(args)?;
    let result = TCrowd::default_full().infer(&schema, &answers);
    println!(
        "fit: {} answers, {} workers, EM {} iterations (converged = {})",
        answers.len(),
        result.workers.len(),
        result.iterations,
        result.converged
    );
    match diagnostics::quality_consistency(&schema, &answers, &result) {
        Some(r) => println!("cross-attribute quality consistency: r = {r:.3}"),
        None => println!("cross-attribute quality consistency: not enough data"),
    }
    match diagnostics::calibration(&schema, &answers, &result) {
        Some(fit) => println!(
            "quality calibration: r = {:.3}, slope = {:.3} (1.0 = perfectly calibrated)",
            fit.r, fit.slope
        ),
        None => println!("quality calibration: not enough categorical data"),
    }
    let residuals = diagnostics::residual_report(&schema, &answers, &result);
    if !residuals.is_empty() {
        println!("\ncontinuous residuals (want mean 0, std 1, outliers < 0.5%):");
        for r in residuals {
            println!(
                "  {:<16} mean {:>7.3}  std {:>6.3}  outliers {:>6.3}%",
                schema.columns[r.column].name,
                r.mean,
                r.std,
                100.0 * r.outlier_fraction
            );
        }
    }
    if let Some(g) = args.get("entity-groups") {
        use tcrowd_core::entity::{EntityModel, EntityModelOptions};
        let groups: usize = g.parse().map_err(|_| "invalid --entity-groups")?;
        let model = EntityModel::fit(
            &schema,
            &answers,
            &result,
            &RowGrouping::Learned { groups, seed: 1 },
            &EntityModelOptions::default(),
        );
        let findings = diagnostics::familiarity_findings(&model, 8);
        println!("\nentity familiarity (λ > 1 = worker struggles with that row group):");
        if findings.is_empty() {
            println!("  no (worker, group) pair deviates from the global quality");
        }
        for f in findings {
            println!("  worker {:<6} group {:<3} λ = {:.2}", f.worker.0, f.group, f.lambda);
        }
    }
    let k = args.get_parsed("worst", 5usize)?;
    println!("\nhighest-variance workers (candidates for exclusion):");
    println!("worker\tphi\tquality\tanswers");
    let matrix = answers.to_matrix();
    for (w, phi) in diagnostics::worst_workers(&result, k) {
        println!(
            "{}\t{:.4}\t{:.4}\t{}",
            w.0,
            phi,
            result.quality_of(w).unwrap_or(0.0),
            matrix.answers_of(w).count()
        );
    }
    Ok(())
}

/// Shared world construction for `simulate` and `compare`.
fn sim_world(args: &Args, seed: u64) -> Result<(tcrowd_tabular::Dataset, WorkerPool), String> {
    let rows = args.get_parsed("rows", 40usize)?;
    let cfg = GeneratorConfig {
        rows,
        columns: args.get_parsed("cols", 5)?,
        categorical_ratio: args.get_parsed("ratio", 0.5)?,
        num_workers: args.get_parsed("workers", 25)?,
        answers_per_task: 1,
        ..Default::default()
    };
    let d = generate_dataset(&cfg, seed);
    let pool = WorkerPool::new(
        &d.schema,
        &d.truth,
        WorkerPoolConfig { num_workers: cfg.num_workers, ..Default::default() },
        seed.wrapping_mul(31).wrapping_add(7),
    );
    Ok((d, pool))
}

fn write_series(path: Option<&str>, runs: &[tcrowd_sim::RunResult]) -> Result<(), String> {
    use std::io::Write;
    let mut out: Box<dyn Write> = match path {
        Some(p) => {
            Box::new(std::io::BufWriter::new(std::fs::File::create(p).map_err(|e| e.to_string())?))
        }
        None => Box::new(std::io::stdout()),
    };
    writeln!(out, "policy	avg_answers	error_rate	mnad").map_err(|e| e.to_string())?;
    for r in runs {
        for pt in &r.points {
            writeln!(
                out,
                "{}	{:.2}	{}	{}",
                r.label,
                pt.avg_answers,
                pt.error_rate.map(|v| format!("{v:.4}")).unwrap_or_else(|| "/".into()),
                pt.mnad.map(|v| format!("{v:.4}")).unwrap_or_else(|| "/".into()),
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let seed = args.get_parsed("seed", 1u64)?;
    let (d, mut pool) = sim_world(args, seed)?;
    let policy_name = args.get("policy").unwrap_or("structure-aware");
    let mut policy = make_policy(policy_name, d.rows(), seed)?;
    let runner = Runner::new(ExperimentConfig {
        budget_avg_answers: args.get_parsed("budget", 4.0)?,
        checkpoint_step: 0.5,
        stopping: args.has_switch("adaptive").then(StoppingRule::default),
        ..Default::default()
    });
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    let result = runner.run(policy_name, &mut pool, policy.as_mut(), &backend);
    println!(
        "{}: {} answers in {} HITs (${:.2}); final error rate {}, MNAD {}{}",
        result.label,
        result.total_answers,
        result.total_hits,
        result.total_cost,
        result.final_report.error_rate.map(|v| format!("{v:.4}")).unwrap_or_else(|| "n/a".into()),
        result.final_report.mnad.map(|v| format!("{v:.4}")).unwrap_or_else(|| "n/a".into()),
        if result.terminated_cells > 0 {
            format!("; {} cells settled early", result.terminated_cells)
        } else {
            String::new()
        }
    );
    write_series(args.get("out"), std::slice::from_ref(&result))
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let seed = args.get_parsed("seed", 1u64)?;
    let budget = args.get_parsed("budget", 4.0)?;
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    let mut runs = Vec::new();
    for &name in POLICY_NAMES {
        let (d, mut pool) = sim_world(args, seed)?;
        let mut policy = make_policy(name, d.rows(), seed)?;
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: budget,
            checkpoint_step: 0.5,
            ..Default::default()
        });
        let r = runner.run(name, &mut pool, policy.as_mut(), &backend);
        println!(
            "{:<16} error rate {}  MNAD {}",
            r.label,
            r.final_report.error_rate.map(|v| format!("{v:.4}")).unwrap_or_else(|| "n/a".into()),
            r.final_report.mnad.map(|v| format!("{v:.4}")).unwrap_or_else(|| "n/a".into()),
        );
        runs.push(r);
    }
    write_series(args.get("out"), &runs)
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8077");
    let threads: usize = args.get_parsed("threads", 8usize)?;
    let (registry, server) = match args.get("data-dir") {
        None => {
            tcrowd_service::start(addr, threads).map_err(|e| format!("cannot bind {addr}: {e}"))?
        }
        Some(dir) => {
            let fsync = tcrowd_store::FsyncPolicy::parse(args.get("fsync").unwrap_or("flush"))?;
            let store = std::sync::Arc::new(
                tcrowd_store::Store::open(dir, fsync)
                    .map_err(|e| format!("cannot open data dir {dir}: {e}"))?,
            );
            let (registry, server, report) = tcrowd_service::start_durable(addr, threads, store)
                .map_err(|e| format!("cannot start durable service on {addr}: {e}"))?;
            println!(
                "durable store at {dir} (fsync={fsync}): recovered {} table(s), {} answers \
                 ({} snapshot-assisted, {} replayed from WAL tails, {} torn tail(s) truncated)",
                report.tables,
                report.answers,
                report.with_snapshot,
                report.replayed,
                report.torn_tails
            );
            (registry, server)
        }
    };
    if let Some(bound) = args.get("max-pending") {
        let bound: usize = bound.parse().map_err(|_| "--max-pending must be a positive integer")?;
        if bound == 0 {
            return Err("--max-pending must be a positive integer".into());
        }
        registry.set_default_max_pending(bound);
        println!("backpressure: tables default to max_pending={bound} (429 past the bound)");
    }
    if args.has_switch("demo") && registry.get("demo").is_none() {
        let d = generate_dataset(
            &GeneratorConfig { rows: 40, columns: 5, num_workers: 25, ..Default::default() },
            1,
        );
        registry
            .create(
                Some("demo".into()),
                d.schema.clone(),
                d.rows(),
                tcrowd_service::TableConfig::default(),
            )
            .map_err(|e| format!("cannot create demo table: {e}"))?;
        println!("demo table 'demo' created (40 rows x 5 columns, empty log)");
    }
    // The actual bound address matters when --addr used port 0. Both lines
    // go out in one write: a caller that reads up to the address and then
    // closes the pipe must not make a later stdout write fail and panic.
    println!(
        "tcrowd-service listening on http://{}\nendpoints: /healthz /metrics /tables \
         /tables/:id/{{assignment,answers,truth,stats,refresh,events}}",
        server.addr()
    );
    // Serve until killed; the connection threads do all the work.
    loop {
        std::thread::park();
    }
}

/// One plain HTTP/1.0 GET against a running service (std-only; 1.0 so the
/// server closes the connection and `read_to_string` terminates).
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: tcrowd\r\n\r\n").as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("cannot read response: {e}"))?;
    let (head, body) =
        raw.split_once("\r\n\r\n").ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("{addr}{path} answered {status}: {}", body.trim()));
    }
    Ok(body.to_string())
}

fn cmd_events(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8077");
    let table = args.require("table")?;
    let since: u64 = args.get_parsed("since", 0u64)?;
    let max: usize = args.get_parsed("max", 100usize)?;
    let body = http_get(addr, &format!("/tables/{table}/events?since={since}&max={max}"))?;
    let doc = tcrowd_service::json::parse(&body).map_err(|e| format!("bad response JSON: {e}"))?;
    let events = doc
        .get("events")
        .and_then(tcrowd_service::Json::as_array)
        .ok_or_else(|| "response has no 'events' array".to_string())?;
    if doc.get("truncated").and_then(tcrowd_service::Json::as_bool) == Some(true) {
        println!("(ring wrapped: events between --since and the oldest shown were overwritten)");
    }
    for e in events {
        let num = |k: &str| e.get(k).and_then(tcrowd_service::Json::as_f64).unwrap_or(0.0) as u64;
        let text =
            |k: &str| e.get(k).and_then(tcrowd_service::Json::as_str).unwrap_or("").to_string();
        let rid = match e.get("request_id").and_then(tcrowd_service::Json::as_str) {
            Some(r) => format!(" [{r}]"),
            None => String::new(),
        };
        println!(
            "#{:<6} +{:>8}ms  {:<24} {}{rid}",
            num("seq"),
            num("at_ms"),
            text("kind"),
            text("detail")
        );
    }
    let next = doc.get("next_since").and_then(tcrowd_service::Json::as_f64).unwrap_or(0.0) as u64;
    println!("({} event(s); resume with --since {next})", events.len());
    Ok(())
}

fn cmd_store(args: &Args) -> Result<(), String> {
    let dir = args.require("data-dir")?;
    // The fsync policy only matters for appends; the offline tools never
    // append, but compaction rewrites files (always fsynced internally).
    let store = tcrowd_store::Store::open(dir, tcrowd_store::FsyncPolicy::Flush)
        .map_err(|e| format!("cannot open data dir {dir}: {e}"))?;
    let ids = match args.get("table") {
        Some(id) => vec![id.to_string()],
        None => store.table_ids().map_err(|e| e.to_string())?,
    };
    if ids.is_empty() {
        println!("no tables in {dir}");
        return Ok(());
    }
    match args.command.as_str() {
        "inspect" => {
            println!(
                "table\tanswers\trecords\twal_bytes\tsegments\tquarantine_records\tquarantined\t\
                 snapshot_epoch\tchain_links\tfit\ttorn\tdeleted"
            );
            for id in &ids {
                let v = store.verify_table(id).map_err(|e| format!("{id}: {e}"))?;
                let (snap_epoch, links, fit) = match &v.snapshot {
                    Some(s) => (
                        s.epoch.to_string(),
                        s.links.to_string(),
                        if s.has_fit { "yes" } else { "no" },
                    ),
                    None => ("-".to_string(), "-".to_string(), "-"),
                };
                // `3+` marks a head-compacted chain: cold segments below the
                // snapshot were deleted, so the count covers live files only.
                let segments = format!("{}{}", v.segments, if v.head_compacted { "+" } else { "" });
                println!(
                    "{id}\t{}\t{}\t{}\t{segments}\t{}\t{}\t{snap_epoch}\t{links}\t{fit}\t{}\t{}",
                    v.answers,
                    v.records,
                    v.wal_bytes,
                    v.quarantine_records,
                    v.quarantined,
                    v.torn.as_ref().map(|t| format!("@{}", t.at)).unwrap_or_else(|| "-".into()),
                    if v.deleted { "yes" } else { "no" },
                );
            }
            Ok(())
        }
        "verify" => {
            let mut failures = 0usize;
            for id in &ids {
                let v = store.verify_table(id).map_err(|e| format!("{id}: {e}"))?;
                let status = if v.errors.is_empty() { "ok" } else { "FAIL" };
                println!(
                    "{id}: {status} — {} answers in {} records ({} bytes, {} segment(s){})",
                    v.answers,
                    v.records,
                    v.wal_bytes,
                    v.segments,
                    if v.head_compacted {
                        ", head compacted — snapshot is load-bearing"
                    } else {
                        ""
                    }
                );
                if let Some(t) = &v.torn {
                    println!(
                        "  torn tail at byte {} ({} bytes dropped): {} — recovery will truncate",
                        t.at, t.dropped_bytes, t.reason
                    );
                }
                if v.quarantine_records > 0 || v.quarantined > 0 {
                    println!(
                        "  quarantine: {} record(s), {} worker(s) currently quarantined \
                         (fit-level filter — every logged answer above is retained)",
                        v.quarantine_records, v.quarantined
                    );
                }
                if let Some(s) = &v.snapshot {
                    println!(
                        "  snapshot chain: epoch {} at wal offset {}, {} incremental link(s) \
                         ({}consistent, fit {})",
                        s.epoch,
                        s.wal_offset,
                        s.links,
                        if s.consistent { "" } else { "IN" },
                        if s.has_fit { "present" } else { "absent" }
                    );
                }
                for e in &v.errors {
                    println!("  error: {e}");
                }
                failures += usize::from(!v.errors.is_empty());
            }
            if failures > 0 {
                return Err(format!("{failures} table(s) failed verification"));
            }
            Ok(())
        }
        "compact" => {
            for id in &ids {
                let r = store.compact_table(id).map_err(|e| format!("{id}: {e}"))?;
                println!(
                    "{id}: {} answers, {} records -> {}, {} -> {} wal bytes, \
                     {} -> {} segment(s), fit {}",
                    r.answers,
                    r.records_before,
                    r.records_after,
                    r.wal_bytes_before,
                    r.wal_bytes_after,
                    r.segments_before,
                    r.segments_after,
                    if r.fit_preserved { "preserved" } else { "absent" }
                );
            }
            Ok(())
        }
        other => {
            Err(format!("unknown store subcommand '{other}' (expected inspect|verify|compact)"))
        }
    }
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let schema = io::read_schema(args.require("schema")?).map_err(|e| e.to_string())?;
    let truth = io::read_table(&schema, args.require("truth")?).map_err(|e| e.to_string())?;
    let estimates =
        io::read_table(&schema, args.require("estimates")?).map_err(|e| e.to_string())?;
    if truth.len() != estimates.len() {
        return Err(format!(
            "truth has {} rows but estimates has {}",
            truth.len(),
            estimates.len()
        ));
    }
    let report = evaluate(&schema, &truth, &estimates);
    match report.error_rate {
        Some(er) => println!("error rate (categorical): {er:.4}"),
        None => println!("error rate (categorical): n/a (no categorical columns)"),
    }
    match report.mnad {
        Some(m) => println!("MNAD (continuous):        {m:.4}"),
        None => println!("MNAD (continuous):        n/a (no continuous columns)"),
    }
    println!("\nper-column:");
    for c in &report.columns {
        match (c.error_rate, c.nad) {
            (Some(er), _) => println!("  {:<16} error rate {er:.4}", c.name),
            (_, Some(nad)) => {
                println!("  {:<16} NAD {nad:.4} (RMSE {:.4})", c.name, c.rmse.unwrap())
            }
            _ => {}
        }
    }
    Ok(())
}
