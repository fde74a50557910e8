//! `bulk-load`: a requester importing answers collected elsewhere. Each
//! cycle creates a fresh durable 1000×10 table, imports 50k answers as
//! 10-answer POSTs over two keep-alive connections in a closed loop (no EM
//! and no assignment runs meanwhile), then publishes the fit with one
//! synchronous `POST …/refresh`. After the cycles the store is reopened and
//! every table recovered, repeatedly.

use crate::client::Client;
use crate::host::{process_cpu_ns, thread_cpu_ns, CpuWindow};
use crate::layers::{self, ASSIGN_DEPTHS, INGEST_DEPTHS};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::svc::{
    batch_body, create_body, create_table, offline_gap, quality, restart, store_bytes, DataDir,
    Server, Tally, IDLE_INTERVAL_MS, IDLE_REFIT_EVERY,
};
use crate::trace::Tracer;
use crate::{Args, Out};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcrowd_service::{Json, TableState};
use tcrowd_tabular::{generate_dataset, Answer, Dataset, GeneratorConfig, Value};

const ROWS: usize = 1000;
const COLS: usize = 10;
/// Imported answers per cell (50k per table).
const PER_CELL: usize = 5;
/// Answers per `POST …/answers`.
const BATCH: usize = 10;
/// Set-ups per run (the last one is kept for the first cycle).
const SETUPS: usize = 9;
/// Store reopen + recovery repeats: at least this many, more while the
/// run's time lasts, at most `RECOVERS_MAX`.
const RECOVERS_MIN: usize = 5;
const RECOVERS_MAX: usize = 30;
/// Assignment requests in the traced run's probe (25 per entry depth).
const PROBE: usize = 25 * ASSIGN_DEPTHS;
/// The Δ an online refit would merge, for the isolated merge timing.
const MERGE_DELTA: usize = 100;
/// Generator seeds of the cycles' tables. The list is fixed, so every run
/// imports the same tables and the quality and CPU medians repeat exactly;
/// the run's seed rotates the cycle order and shuffles each import.
const CYCLE_SEEDS: [u64; 6] = [0xB01, 0xB02, 0xB03, 0xB04, 0xB05, 0xB06];

fn dataset(seed: u64) -> Dataset {
    generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: COLS,
            answers_per_task: PER_CELL,
            ..Default::default()
        },
        seed,
    )
}

/// Deterministic Fisher–Yates shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Sort key that makes two answer multisets comparable.
fn key(a: &Answer) -> (u32, u32, u32, u8, u64) {
    let (kind, bits) = match a.value {
        Value::Categorical(l) => (0, u64::from(l)),
        Value::Continuous(x) => (1, x.to_bits()),
    };
    (a.worker.0, a.cell.row, a.cell.col, kind, bits)
}

/// What one import thread measured.
struct ImportLane {
    tracer: Tracer,
    tally: Tally,
    latency_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    /// Per acked batch: when, process CPU and this thread's CPU at the ack.
    acks: Vec<(Instant, u64, u64)>,
    acked: Vec<Answer>,
    start_cpu: u64,
    end_cpu: u64,
}

impl ImportLane {
    /// This thread's CPU at `t`, read off its last ack at or before `t`.
    fn cpu_at(&self, t: Instant) -> u64 {
        match self.acks.partition_point(|a| a.0 <= t) {
            0 => self.start_cpu,
            i => self.acks[i - 1].2,
        }
    }
}

/// One connection's closed loop over its share of the batches (every other
/// one). Traced runs rotate the entry depth batch by batch.
fn import_lane(
    lane: usize,
    tracer: Tracer,
    client: &mut Client,
    server: &Server,
    table: &TableState,
    batches: &[Vec<Answer>],
    bodies: &[String],
) -> ImportLane {
    let traced = tracer.enabled();
    let mut out = ImportLane {
        tracer,
        tally: Tally::default(),
        latency_ms: Vec::new(),
        gap_ms: Vec::new(),
        acks: Vec::new(),
        acked: Vec::new(),
        start_cpu: thread_cpu_ns(),
        end_cpu: 0,
    };
    let mut last_reply: Option<Instant> = None;
    for (j, (batch, body)) in batches.iter().zip(bodies).enumerate().skip(lane).step_by(2) {
        let depth = if traced { (j / 2) % INGEST_DEPTHS } else { 0 };
        let sent = Instant::now();
        if let Some(prev) = last_reply {
            out.gap_ms.push((sent - prev).as_secs_f64() * 1e3);
        }
        let result = layers::ingest(
            depth,
            &mut out.tracer,
            client,
            server,
            table,
            batch,
            body.as_bytes(),
            j as u64,
        );
        let ack = Instant::now();
        last_reply = Some(ack);
        out.tally.note(result.is_ok());
        if depth == 0 {
            out.latency_ms.push((ack - sent).as_secs_f64() * 1e3);
        }
        if result.is_ok() {
            out.acks.push((ack, process_cpu_ns(), thread_cpu_ns()));
            out.acked.extend_from_slice(batch);
        }
    }
    out.end_cpu = thread_cpu_ns();
    out
}

/// The last cycle's table and import, for the traced run's isolated calls.
struct LastCycle {
    table: Arc<TableState>,
    batches: Vec<Vec<Answer>>,
    bodies: Vec<String>,
}

pub fn run(args: &Args, out: &mut Out) -> Result<(), String> {
    let origin = Instant::now();
    let traced = args.trace;
    let mut tr = Tracer::new(origin, 0, traced, 0);
    let cycle_seed = |c: usize| CYCLE_SEEDS[(args.seed as usize + c) % CYCLE_SEEDS.len()];
    let create_for = |c: usize, ds: &Dataset| {
        create_body(&format!("bulk-{c}"), ds, IDLE_REFIT_EVERY, IDLE_INTERVAL_MS)
    };

    // ---- Set-up, repeated; the last one hosts the first cycle.
    let first = dataset(cycle_seed(0));
    let first_body = create_for(0, &first);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = DataDir::new(&format!("bulk-{i}"));
        let t0 = Instant::now();
        let server = Server::start(&dir.0)?;
        let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        create_table(&mut client, &first_body)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(client);
            server.stop();
        } else {
            kept = Some((dir, server, client));
        }
    }
    let (dir, server, client_a) = kept.expect("at least one set-up");
    out.e2e("setup_s", median(&setup_s), "s");
    let client_b = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut clients = [client_a, client_b];

    let mut tally = Tally::default();
    let mut cpu_per_answer = Vec::new();
    let mut imported = 0usize;
    let mut import_wall = 0.0f64;
    let mut refresh_wall = Vec::new();
    let mut refresh_cpu = Vec::new();
    let mut latency_ms = Vec::new();
    let mut gap_ms = Vec::new();
    let mut fresh_cpu_ms = Vec::new();
    let mut fresh_wall_ms = Vec::new();
    let mut error_rate = Vec::new();
    let mut mnad = Vec::new();
    let mut em = Vec::new();
    let mut catchup = 0usize;
    let mut last = None;
    let mut first = Some(first);
    for c in 0..CYCLE_SEEDS.len() {
        let ds = first.take().unwrap_or_else(|| dataset(cycle_seed(c)));
        let id = format!("bulk-{c}");
        if c > 0 {
            let ok = create_table(&mut clients[0], &create_for(c, &ds));
            tally.note(ok.is_ok());
            ok?;
        }
        let table = server.registry.get(&id).ok_or("created table is missing")?;
        let cycle_span = tr.open(Instant::now());
        let parent = tr.parent();
        let mut answers = ds.answers.all().to_vec();
        shuffle(&mut answers, args.seed.wrapping_mul(31).wrapping_add(c as u64));
        let batches: Vec<Vec<Answer>> = answers.chunks(BATCH).map(<[Answer]>::to_vec).collect();
        let bodies: Vec<String> = batches.iter().map(|b| batch_body(b)).collect();

        // Import: two connections, closed loop.
        let cpu = CpuWindow::start();
        let t0 = Instant::now();
        let lanes = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(lane, client)| {
                    let (server, table, batches, bodies) = (&server, &table, &batches, &bodies);
                    // Span ids stay unique: one id range per cycle and lane.
                    let tracer = Tracer::new(origin, (2 + 2 * c + lane) as u64, traced, parent);
                    scope.spawn(move || {
                        import_lane(lane, tracer, client, server, table, batches, bodies)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| "import thread panicked")?;
        import_wall += t0.elapsed().as_secs_f64();
        let lane_cpu: u64 = lanes.iter().map(|l| l.end_cpu - l.start_cpu).sum();
        let service_ns = cpu.process_ns().saturating_sub(lane_cpu + cpu.thread_ns());

        // One synchronous refresh publishes the fit of the whole import.
        let cpu = CpuWindow::start();
        let t0 = Instant::now();
        if traced {
            let refitted = tr.time("table.refresh", c as u64, || table.refresh_now());
            out.check(refitted, format!("cycle {c}: refresh_now refitted"));
        } else {
            let reply = clients[0].request("POST", &format!("/tables/{id}/refresh"), b"");
            let refitted = match &reply {
                Ok((200, body)) => crate::svc::parse(body)?.get("refitted").and_then(Json::as_bool),
                _ => None,
            };
            tally.note(refitted.is_some());
            out.check(refitted == Some(true), format!("cycle {c}: POST /refresh refitted"));
        }
        refresh_wall.push(t0.elapsed().as_secs_f64());
        let published_cpu = process_cpu_ns();
        let own = if traced { 0 } else { cpu.thread_ns() };
        refresh_cpu.push((published_cpu - cpu.process).saturating_sub(own) as f64 / 1e9);
        let snap = table.snapshot();
        catchup += snap.catchup_merged;
        // Freshness in service CPU: process CPU from each ack to the
        // publish, minus what the generator threads spent after the ack.
        for (l, lane) in lanes.iter().enumerate() {
            let other = &lanes[1 - l];
            for &(at, process, thread) in &lane.acks {
                let generator = (lane.end_cpu - thread) + (other.end_cpu - other.cpu_at(at)) + own;
                fresh_cpu_ms.push((published_cpu - process).saturating_sub(generator) as f64 / 1e6);
                fresh_wall_ms
                    .push(snap.published_at.saturating_duration_since(at).as_secs_f64() * 1e3);
            }
        }
        let mut acked = Vec::new();
        for lane in lanes {
            tally.add(lane.tally);
            latency_ms.extend(lane.latency_ms);
            gap_ms.extend(lane.gap_ms);
            acked.extend(lane.acked);
            tr.absorb(lane.tracer);
        }
        imported += acked.len();
        cpu_per_answer.push(service_ns as f64 / 1e3 / acked.len().max(1) as f64);

        // Correctness: every acked answer, and nothing else, is published.
        let mut published: Vec<_> = snap.log.iter().map(key).collect();
        let mut expected: Vec<_> = acked.iter().map(key).collect();
        published.sort_unstable();
        expected.sort_unstable();
        out.check(
            snap.epoch == acked.len() && published == expected,
            format!(
                "cycle {c}: published epoch {} holds exactly the {} acked answers",
                snap.epoch,
                acked.len()
            ),
        );
        let gap = offline_gap(&mut clients[0], &id, &ds.schema, ROWS)?;
        out.check(
            gap <= 1e-6,
            format!("cycle {c}: served truth vs offline infer gap {gap:.2e} <= 1e-6"),
        );
        let (e, m) = quality(&ds.schema, &ds.truth, &snap.result);
        error_rate.push(e);
        mnad.push(m);
        em.push(snap.result.iterations as f64);
        println!(
            "bulk-load cycle {c}: {} answers imported, refresh {:.3} s wall / {:.3} s CPU, \
             error rate {e:.4}, mnad {m:.4}, {} EM iterations",
            acked.len(),
            refresh_wall[c],
            refresh_cpu[c],
            snap.result.iterations
        );
        tr.close(cycle_span, "cycle", c as u64);
        last = Some(LastCycle { table, batches, bodies });
    }
    tally.report("bulk-load", "import and refresh");
    out.e2e("cpu_us_per_answer", median(&cpu_per_answer), "us");
    out.e2e("truth_cpu_s", median(&refresh_cpu), "s");
    out.e2e("quiet_p50_ms", median(&latency_ms), "ms");
    let fresh = sorted(fresh_cpu_ms);
    out.e2e("fresh_p50_ms", percentile(&fresh, 0.5), "ms");
    out.e2e("fresh_p90_ms", percentile(&fresh, 0.9), "ms");
    out.layer("quality.error_rate", median(&error_rate), "ratio");
    out.e2e("mnad", median(&mnad), "ratio");
    let bytes = store_bytes(&dir.0);
    out.e2e("store_bytes_per_answer", bytes.total as f64 / imported as f64, "B");

    // ---- Per-layer numbers from this phase.
    let LastCycle { table, batches, bodies } = last.expect("at least one cycle");
    let snap = table.snapshot();
    let result = &snap.result;
    out.layer("em.iterations", median(&em), "count");
    out.layer("em.objective_evals", result.timings.objective_evals as f64, "count");
    out.layer("em.estep_ms", result.timings.estep_ns as f64 / 1e6, "ms");
    out.layer("em.mstep_ms", result.timings.mstep_ns as f64 / 1e6, "ms");
    out.layer("em.elbo_ms", result.timings.elbo_ns as f64 / 1e6, "ms");
    out.layer("store.wal_bytes_per_answer", bytes.wal as f64 / imported as f64, "B");
    out.layer("store.snapshot_bytes_per_answer", bytes.snapshot as f64 / imported as f64, "B");
    let stats = table.commit_stats().unwrap_or_default();
    out.layer("store.frames_per_group", stats.frames as f64 / stats.groups.max(1) as f64, "ratio");
    let total_refresh: f64 = refresh_wall.iter().sum();
    out.layer("table.refresh_duty", total_refresh / (total_refresh + import_wall), "ratio");
    out.layer("table.catchup_answers", catchup as f64, "count");
    let gaps = sorted(gap_ms);
    out.layer("gen.late_p99_ms", percentile(&gaps, supported_tail(gaps.len(), 0.99)), "ms");
    out.layer("wall.answers_per_s", imported as f64 / import_wall, "1/s");
    out.layer("wall.truth_s", median(&refresh_wall), "s");
    let ingest = sorted(latency_ms);
    out.layer("wall.ingest_p50_ms", percentile(&ingest, 0.5), "ms");
    out.layer("wall.ingest_p99_ms", percentile(&ingest, supported_tail(ingest.len(), 0.99)), "ms");
    out.layer("wall.ingest_n", ingest.len() as f64, "count");
    let fresh_wall = sorted(fresh_wall_ms);
    out.layer(
        "wall.fresh_p99_ms",
        percentile(&fresh_wall, supported_tail(fresh_wall.len(), 0.99)),
        "ms",
    );
    out.layer("wall.fresh_n", fresh_wall.len() as f64, "count");

    if traced {
        // The import never assigns; a short probe on the last imported
        // table gives the assignment path's layers on a large table.
        let mut probe_ms = Vec::new();
        for i in 0..PROBE as u64 {
            let depth = (i as usize) % ASSIGN_DEPTHS;
            let t = Instant::now();
            let picks =
                layers::assign(depth, &mut tr, &mut clients[0], &server, &table, i as u32, 5, i);
            if depth == 0 {
                probe_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            tally.note(picks.is_ok());
        }
        layers::candidates(out, &table, 0..PROBE as u32);
        let probe = sorted(probe_ms);
        out.layer("wall.assign_p50_ms", percentile(&probe, 0.5), "ms");
        out.layer(
            "wall.assign_p99_ms",
            percentile(&probe, supported_tail(probe.len(), 0.99)),
            "ms",
        );
        out.layer("wall.assign_n", probe.len() as f64, "count");
        let scratch = DataDir::new("bulk-scratch");
        let n = bodies.len().min(1000);
        let sample = || (0..n).map(|i| i * bodies.len() / n);
        let body_sample: Vec<(usize, String)> =
            sample().map(|i| (batches[i].len(), bodies[i].clone())).collect();
        let batch_sample: Vec<Vec<Answer>> = sample().map(|i| batches[i].clone()).collect();
        layers::isolated(
            &mut tr,
            out,
            &table,
            MERGE_DELTA,
            true,
            &body_sample,
            &batch_sample,
            &scratch.0,
            |_, _| Ok(()),
        )?;
    }
    out.tally.add(tally);

    // ---- Restart: reopen the store and recover every table, repeated.
    drop(clients);
    server.stop();
    let (recover_cpu, recover_wall) = restart(
        &mut tr,
        out,
        &dir.0,
        CYCLE_SEEDS.len(),
        imported as u64,
        RECOVERS_MIN,
        RECOVERS_MAX,
        origin + Duration::from_secs(args.seconds),
    )?;
    out.e2e("recover_cpu_s", recover_cpu, "s");
    out.layer("wall.recover_s", recover_wall, "s");
    if traced {
        layers::span_layers(&tr, out, true, "table.refresh");
        let path = std::path::PathBuf::from(".svcbench")
            .join(format!("spans-bulk-load-{}.tsv", args.seed));
        tr.write(&path).map_err(|e| format!("write spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    Ok(())
}
