//! Service benchmark for T-Crowd: runs one workload against an in-process
//! `tcrowd-service` over loopback HTTP, checks the outputs, and prints
//! every metric by name and unit. See `README.md` beside this crate.
//!
//! ```text
//! svcbench --workload live-crowd|bulk-load --seed N --seconds S --trace 0|1
//! svcbench --write-manifest      # regenerate BENCHMARK.json in the cwd
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A run whose
//! correctness checks fail prints that line with `"correct": false` and
//! exits with status 1; a run that cannot complete exits with status 2 and
//! prints no result.

mod bulk;
mod client;
mod host;
mod layers;
mod live;
mod stats;
mod svc;
mod trace;

use std::time::Instant;
use svc::Tally;
use tcrowd_service::Json;

/// One workload: name and why it exists.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "live-crowd",
        "the paper's online loop: open-loop worker visits with refits every 100 answers; \
         stresses assignment, EM and the refresh path while commit stays idle",
    ),
    (
        "bulk-load",
        "a requester importing answers collected elsewhere: closed-loop batched ingest, then one \
         large cold refit and a restart; stresses http, json, commit, EM at scale and recovery",
    ),
];

/// End-to-end metrics: (name, unit, bound). All are lower-is-better.
const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("quiet_p50_ms", "ms", 0.25),
    ("fresh_p50_ms", "ms", 0.25),
    ("fresh_p90_ms", "ms", 0.25),
    ("cpu_us_per_answer", "us", 0.25),
    ("truth_cpu_s", "s", 0.25),
    ("recover_cpu_s", "s", 0.25),
    ("store_bytes_per_answer", "B", 0.05),
    ("mnad", "ratio", 0.1),
];

/// Per-layer metrics: (name, unit, higher-is-better).
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("http.assign_self_us", "us", false),
    ("api.assign_self_us", "us", false),
    ("table.assign_self_us", "us", false),
    ("assign.select_us_p50", "us", false),
    ("assign.select_us_p99", "us", false),
    ("assign.candidates", "count", false),
    ("http.ingest_self_us", "us", false),
    ("api.ingest_self_us", "us", false),
    ("json.parse_us_per_answer", "us", false),
    ("table.submit_us_p50", "us", false),
    ("table.submit_us_p99", "us", false),
    ("table.refresh_ms_p50", "ms", false),
    ("table.refresh_ms_max", "ms", false),
    ("table.refreshes", "count", false),
    ("table.refresh_duty", "ratio", false),
    ("table.catchup_answers", "count", false),
    ("refresh.unattributed_frac", "ratio", false),
    ("em.fit_ms", "ms", false),
    ("em.fit_cpu_ms", "ms", false),
    ("em.iterations", "count", false),
    ("em.objective_evals", "count", false),
    ("em.estep_ms", "ms", false),
    ("em.mstep_ms", "ms", false),
    ("em.elbo_ms", "ms", false),
    ("tabular.merge_ms", "ms", false),
    ("tabular.freeze_ms", "ms", false),
    ("correlation.fit_ms", "ms", false),
    ("trust.score_ms", "ms", false),
    ("store.commit_us_p50", "us", false),
    ("store.frames_per_group", "ratio", true),
    ("store.persist_ms", "ms", false),
    ("store.persist_bytes", "B", false),
    ("store.wal_sync_ms", "ms", false),
    ("store.wal_bytes_per_answer", "B", false),
    ("store.snapshot_bytes_per_answer", "B", false),
    ("store.recover_ms", "ms", false),
    ("store.replayed_answers", "count", false),
    ("service.recover_self_ms", "ms", false),
    ("quality.error_rate", "ratio", false),
    ("host.steal_frac", "ratio", false),
    ("gen.late_p99_ms", "ms", false),
    ("wall.answers_per_s", "1/s", true),
    ("wall.truth_s", "s", false),
    ("wall.recover_s", "s", false),
    ("wall.assign_p50_ms", "ms", false),
    ("wall.assign_p99_ms", "ms", false),
    ("wall.assign_n", "count", true),
    ("wall.ingest_p50_ms", "ms", false),
    ("wall.ingest_p99_ms", "ms", false),
    ("wall.ingest_n", "count", true),
    ("wall.fresh_p99_ms", "ms", false),
    ("wall.fresh_n", "count", true),
];

/// Seconds one run measures (`run_seconds` in the manifest).
const RUN_SECONDS: u64 = 30;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured run length.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Out {
    e2e: Vec<(&'static str, f64, &'static str)>,
    layer: Vec<(&'static str, f64, &'static str)>,
    /// Requests attempted and failed across every phase.
    pub tally: Tally,
    failures: Vec<String>,
}

impl Out {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push((name, value, unit));
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        println!("check {}: {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failures.push(what);
        }
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-manifest") {
        return Ok(None);
    }
    let mut args = Args { workload: String::new(), seed: 1, seconds: RUN_SECONDS, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be an integer")?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!(
            "--workload must be one of live-crowd, bulk-load (got {:?})",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(args))
}

fn manifest() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj([("name", Json::from(*name)), ("why", Json::from(*why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|(name, unit, bound)| {
            Json::obj([
                ("name", Json::from(*name)),
                ("unit", Json::from(*unit)),
                ("better", Json::from("lower")),
                ("bound", Json::from(*bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            Json::obj([
                ("name", Json::from(*name)),
                ("unit", Json::from(*unit)),
                ("better", Json::from(if *higher { "higher" } else { "lower" })),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "svcbench/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::from(*s)).collect())),
        ("paths", Json::Arr(vec![Json::from("svcbench")])),
        ("run_seconds", Json::from(RUN_SECONDS as usize)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("per_layer", Json::Arr(layers)),
    ])
    .to_string()
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            std::fs::write("BENCHMARK.json", manifest() + "\n").expect("write BENCHMARK.json");
            println!("wrote BENCHMARK.json");
            return;
        }
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    };
    let steal = host::StealWindow::start();
    let started = Instant::now();
    let mut out = Out::default();
    let run = match args.workload.as_str() {
        "live-crowd" => live::run(&args, &mut out),
        _ => bulk::run(&args, &mut out),
    };
    if let Err(e) = run {
        eprintln!("svcbench {}: {e}", args.workload);
        std::process::exit(2);
    }
    let steal_frac = steal.frac();
    out.layer("host.steal_frac", steal_frac, "ratio");
    println!(
        "host: nproc {} | kernels {} | fsync {} | workload {} | seed {} | seconds {} | trace {} | \
         steal {:.2}% | wall {:.1} s",
        host::nproc(),
        host::kernel_path(),
        svc::FSYNC.name(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        steal_frac * 100.0,
        started.elapsed().as_secs_f64()
    );
    out.tally.report(&args.workload, "all phases");
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
    };
    let measured = if args.trace { &out.layer } else { &out.e2e };
    for (name, value, unit) in out.e2e.iter().chain(&out.layer) {
        println!("metric {name} = {value} {unit}");
    }
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        match measured.iter().find(|(n, _, _)| *n == name) {
            Some((_, value, u)) if value.is_finite() && *u == unit => metrics.push((
                name,
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(unit))]),
            )),
            _ => {
                eprintln!("svcbench {}: metric {name} was not measured", args.workload);
                std::process::exit(2);
            }
        }
    }
    let correct = out.failures.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(out.tally.attempted as f64)),
            ("failed", Json::from(out.tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
