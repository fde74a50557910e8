//! `live-crowd`: the paper's online loop (Algorithm 2) against a preloaded
//! table. One generator thread on one keep-alive connection runs an open
//! loop of worker visits (assignment, simulated answers, ingest) while the
//! refresher refits every 100 answers; a quiet closed-loop read phase
//! follows, then restarts of the store.

use crate::client::Client;
use crate::host::{thread_cpu_ns, CpuWindow};
use crate::layers::{self, ASSIGN_DEPTHS, INGEST_DEPTHS};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::svc::{
    create_body, create_table, quality, restart, store_bytes, DataDir, Server, Tally,
    IDLE_INTERVAL_MS, IDLE_REFIT_EVERY,
};
use crate::trace::Tracer;
use crate::{Args, Out};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcrowd_service::{Snapshot, TableState};
use tcrowd_sim::{WorkerPool, WorkerPoolConfig};
use tcrowd_tabular::{generate_dataset, Answer, Dataset, GeneratorConfig, WorkerId};

const TABLE: &str = "live";
const ROWS: usize = 300;
const COLS: usize = 10;
/// Preloaded answers per cell (24k in all).
const PRELOAD_PER_CELL: usize = 8;
/// Open-loop worker visits per second.
const VISITS_PER_S: f64 = 20.0;
/// Cells per assignment.
const K: usize = 5;
/// Pending answers that trigger a refit.
const REFIT_EVERY: usize = 100;
/// Refresher cadence; long enough that the answer trigger always fires
/// first, so the refit count per run does not float with host speed.
const REFRESH_INTERVAL_MS: u64 = 2000;
/// Simulated workers taking part in the online phase; their ids start at
/// `WORKER_BASE` so they never alias the preload's workers.
const POOL_WORKERS: usize = 40;
const WORKER_BASE: u32 = 1000;
/// Set-ups per run (the last one is kept for the phases).
const SETUPS: usize = 9;
/// Store reopen + recovery repeats.
const RECOVERS: usize = 25;
/// Share of the run length given to the online phase; the read phase gets
/// the rest.
const ONLINE_SHARE: f64 = 0.75;
/// Bound on how long the set-up fit and the settle may take.
const WAIT_LIMIT: Duration = Duration::from_secs(120);

/// The dataset the table is cut from: fixed, so every seed measures the
/// same table and the seed varies the crowd instead (its qualities, its
/// answers and the order workers arrive in).
const TABLE_SEED: u64 = 0x7C20_1801;

/// A publish seen by the generator.
struct Publish {
    epoch: usize,
    at: Instant,
}

/// Everything one set-up produced.
struct Setup {
    dir: DataDir,
    server: Server,
    client: Client,
    table: Arc<TableState>,
}

fn dataset() -> Dataset {
    generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: COLS,
            answers_per_task: PRELOAD_PER_CELL,
            ..Default::default()
        },
        TABLE_SEED,
    )
}

/// Block until the published snapshot covers `epoch` answers with no
/// catch-up answers folded in, and the store snapshot chain covers it too.
fn wait_settled(table: &TableState, epoch: usize) -> Result<Arc<Snapshot>, String> {
    let deadline = Instant::now() + WAIT_LIMIT;
    loop {
        let snap = table.snapshot();
        if snap.epoch == epoch
            && snap.catchup_merged == 0
            && table.last_store_snapshot_epoch() == Some(epoch as u64)
        {
            return Ok(snap);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "table did not settle at epoch {epoch} (published {}, persisted {:?})",
                snap.epoch,
                table.last_store_snapshot_epoch()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Store open, server start, table create, preload and first fit.
/// Returns the set-up, its wall time, and the process CPU and wall time of
/// the fit that publishes the preload.
fn setup(
    index: usize,
    ds: &Dataset,
    body: &str,
    traced: bool,
) -> Result<(Setup, f64, f64, f64), String> {
    let dir = DataDir::new(&format!("live-{index}"));
    let t0 = Instant::now();
    let server = Server::start(&dir.0)?;
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    create_table(&mut client, body)?;
    let table = server.registry.get(TABLE).ok_or("created table is missing")?;
    let preload = ds.answers.all();
    let cpu = CpuWindow::start();
    let fit_start = Instant::now();
    table.submit(preload)?;
    // Traced runs drive refreshes from the benchmark (the table's own
    // refresher is idle); untraced runs let the refresher fit.
    let own_work = if traced {
        let t = thread_cpu_ns();
        table.refresh_now();
        thread_cpu_ns() - t
    } else {
        0
    };
    wait_settled(&table, preload.len())?;
    let fit_wall = fit_start.elapsed().as_secs_f64();
    let fit_cpu = (cpu.process_ns() - cpu.thread_ns() + own_work) as f64 / 1e9;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((Setup { dir, server, client, table }, setup_s, fit_cpu, fit_wall))
}

/// The answer-triggered refresh thread of a traced run: the benchmark's
/// second thread calls `refresh_now` whenever 100 answers are pending.
fn drive_refreshes(table: &TableState, stop: &AtomicBool, origin: Instant) -> (Tracer, Vec<u64>) {
    let mut tr = Tracer::new(origin, 1, true, 0);
    let mut catchups = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if table.pending() >= REFIT_EVERY {
            let key = table.ingested();
            tr.time("table.refresh", key, || table.refresh_now());
            catchups.push(table.snapshot().catchup_merged as u64);
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (tr, catchups)
}

pub fn run(args: &Args, out: &mut Out) -> Result<(), String> {
    let origin = Instant::now();
    let traced = args.trace;
    let mut tr = Tracer::new(origin, 0, traced, 0);
    let ds = dataset();
    let (refit_every, interval) = if traced {
        (IDLE_REFIT_EVERY, IDLE_INTERVAL_MS)
    } else {
        (REFIT_EVERY, REFRESH_INTERVAL_MS)
    };
    let body = create_body(TABLE, &ds, refit_every, interval);

    // ---- Set-up, repeated; the last one is kept.
    let mut setup_s = Vec::new();
    let mut fit_cpu = Vec::new();
    let mut fit_wall = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (s, wall, cpu, fwall) = setup(i, &ds, &body, traced)?;
        setup_s.push(wall);
        fit_cpu.push(cpu);
        fit_wall.push(fwall);
        if i + 1 < SETUPS {
            drop(s.client);
            s.server.stop();
        } else {
            kept = Some(s);
        }
    }
    let Setup { dir, server, mut client, table } = kept.expect("at least one set-up");
    let preload = ds.answers.all();
    println!(
        "live-crowd setup: {SETUPS} set-ups, median {:.3} s; preload fit {:.3} s CPU, {:.3} s wall",
        median(&setup_s),
        median(&fit_cpu),
        median(&fit_wall)
    );

    // ---- Online phase: open loop of worker visits.
    let mut pool = WorkerPool::new(
        &ds.schema,
        &ds.truth,
        WorkerPoolConfig { num_workers: POOL_WORKERS, ..Default::default() },
        args.seed,
    );
    let online = Duration::from_secs_f64(args.seconds as f64 * ONLINE_SHARE);
    let period = Duration::from_secs_f64(1.0 / VISITS_PER_S);
    let mut online_tally = Tally::default();
    let mut sent: Vec<Answer> = Vec::new();
    let mut acks: Vec<(Instant, usize)> = Vec::new();
    let mut publishes: Vec<Publish> = Vec::new();
    let mut assign_ms = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut bodies: Vec<(usize, String)> = Vec::new();
    let mut batches: Vec<Vec<Answer>> = Vec::new();
    let stop = AtomicBool::new(false);
    let cpu = CpuWindow::start();
    let start = Instant::now();
    let (gen_cpu_ns, refresher) = std::thread::scope(|scope| -> Result<_, String> {
        let refresher = traced.then(|| scope.spawn(|| drive_refreshes(&table, &stop, origin)));
        let gen_cpu = thread_cpu_ns();
        let mut last_refreshes = table.snapshot().refreshes;
        let mut note_publish = |publishes: &mut Vec<Publish>| {
            let snap = table.snapshot();
            if snap.refreshes != last_refreshes {
                last_refreshes = snap.refreshes;
                publishes.push(Publish { epoch: snap.epoch, at: snap.published_at });
            }
        };
        let mut visit = 0u64;
        loop {
            let due = start + period.mul_f64(visit as f64);
            if due >= start + online {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let visit_span = tr.open(due);
            let worker = pool.next_worker();
            let wid = WORKER_BASE + worker.0;
            let (da, di) = if traced {
                ((visit as usize) % ASSIGN_DEPTHS, (visit as usize) % INGEST_DEPTHS)
            } else {
                (0, 0)
            };
            let picks = layers::assign(da, &mut tr, &mut client, &server, &table, wid, K, visit);
            online_tally.note(picks.is_ok());
            if da == 0 {
                assign_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            note_publish(&mut publishes);
            let Ok(picks) = picks else {
                tr.close(visit_span, "visit", visit);
                visit += 1;
                continue;
            };
            let answers: Vec<Answer> = picks
                .iter()
                .map(|&cell| Answer {
                    worker: WorkerId(wid),
                    cell,
                    value: pool.answer(worker, cell),
                })
                .collect();
            if !answers.is_empty() {
                let body = crate::svc::batch_body(&answers);
                let sent_at = Instant::now();
                let result = layers::ingest(
                    di,
                    &mut tr,
                    &mut client,
                    &server,
                    &table,
                    &answers,
                    body.as_bytes(),
                    visit,
                );
                let ack = Instant::now();
                online_tally.note(result.is_ok());
                if di == 0 {
                    ingest_ms.push((ack - sent_at).as_secs_f64() * 1e3);
                }
                if let Ok(total) = result {
                    acks.push((ack, total as usize));
                    sent.extend_from_slice(&answers);
                    if traced {
                        bodies.push((answers.len(), body));
                        batches.push(answers);
                    }
                }
                note_publish(&mut publishes);
            }
            tr.close(visit_span, "visit", visit);
            visit += 1;
        }
        let gen_cpu = thread_cpu_ns() - gen_cpu;
        stop.store(true, Ordering::SeqCst);
        let refresher = match refresher {
            Some(handle) => Some(handle.join().map_err(|_| "refresh thread panicked")?),
            None => None,
        };
        Ok((gen_cpu, refresher))
    })?;
    let online_wall = start.elapsed().as_secs_f64();

    // ---- Settle: the last refit publishes and persists every acked answer.
    let expected = preload.len() + sent.len();
    let settle_cpu = thread_cpu_ns();
    let mut settle_tally = Tally::default();
    while table.pending() > 0 || table.snapshot().catchup_merged > 0 {
        if traced {
            table.refresh_now();
        } else {
            let ok = matches!(
                client.request("POST", &format!("/tables/{TABLE}/refresh"), b""),
                Ok((200, _))
            );
            settle_tally.note(ok);
            if !ok {
                break;
            }
        }
    }
    let settle_own = thread_cpu_ns() - settle_cpu;
    let snap = wait_settled(&table, expected)?;
    // The generator's own CPU is not the service's; in a traced run the
    // settle's refresh_now is, so only the untraced settle is subtracted.
    let gen_ns = gen_cpu_ns + if traced { 0 } else { settle_own };
    let service_ns = cpu.process_ns().saturating_sub(gen_ns);
    online_tally.report("live-crowd", "online phase");
    settle_tally.report("live-crowd", "settle");
    out.tally.add(online_tally);
    out.tally.add(settle_tally);
    let online_answers = sent.len();
    out.e2e("cpu_us_per_answer", service_ns as f64 / 1e3 / online_answers.max(1) as f64, "us");
    out.e2e("truth_cpu_s", median(&fit_cpu), "s");
    out.e2e("setup_s", median(&setup_s), "s");

    // Freshness: ack → published_at of the first publish covering it.
    let mut fresh = Vec::new();
    for &(ack, end) in &acks {
        if let Some(p) = publishes.iter().find(|p| p.epoch >= end) {
            fresh.push(p.at.saturating_duration_since(ack).as_secs_f64() * 1e3);
        }
    }
    let fresh = sorted(fresh);
    out.e2e("fresh_p50_ms", percentile(&fresh, 0.5), "ms");
    out.e2e("fresh_p90_ms", percentile(&fresh, 0.9), "ms");
    println!(
        "live-crowd online: {:.1} s, {} visits' answers acked ({online_answers} answers), \
         {} publishes seen, {} of {} acks published before the phase ended",
        online_wall,
        acks.len(),
        publishes.len(),
        fresh.len(),
        acks.len()
    );

    // ---- Read phase: quiet closed loop of assignments.
    let read = Duration::from_secs_f64(args.seconds as f64 * (1.0 - ONLINE_SHARE));
    let mut read_tally = Tally::default();
    let mut quiet_ms = Vec::new();
    let read_start = Instant::now();
    let read_span = tr.open(read_start);
    let mut i = 0u64;
    while read_start.elapsed() < read {
        let depth = if traced { (i as usize) % ASSIGN_DEPTHS } else { 0 };
        let wid = WORKER_BASE + (i % POOL_WORKERS as u64) as u32;
        let t = Instant::now();
        let picks = layers::assign(depth, &mut tr, &mut client, &server, &table, wid, K, i);
        if depth == 0 {
            quiet_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        read_tally.note(picks.is_ok());
        i += 1;
    }
    tr.close(read_span, "read", 0);
    read_tally.report("live-crowd", "read phase");
    out.tally.add(read_tally);
    out.e2e("quiet_p50_ms", median(&quiet_ms), "ms");

    // ---- Correctness: the final epoch holds exactly the acked answers, in
    // ack order, after the preload.
    let final_snap = table.snapshot();
    out.check(
        final_snap.epoch == expected,
        format!(
            "published epoch {} == preload {} + acked {online_answers}",
            final_snap.epoch,
            preload.len()
        ),
    );
    let same = final_snap.log.len() == expected
        && final_snap.log.iter().zip(preload.iter().chain(&sent)).all(|(a, b)| a == b);
    out.check(same, "published log == preload followed by every acked answer, in ack order");
    let (error_rate, mnad) = quality(&ds.schema, &ds.truth, &snap.result);
    out.layer("quality.error_rate", error_rate, "ratio");
    out.e2e("mnad", mnad, "ratio");
    let bytes = store_bytes(&dir.0);
    out.e2e("store_bytes_per_answer", bytes.total as f64 / expected as f64, "B");

    // ---- Traced: isolated calls on the settled state.
    let scratch = DataDir::new("live-scratch");
    let mut extra = 0;
    if traced {
        let (refresher_tr, catchups) = refresher.expect("traced runs spawn the refresh thread");
        let refresh_total: f64 = refresher_tr.us("table.refresh").iter().sum();
        out.layer("table.refresh_duty", refresh_total / 1e6 / online_wall, "ratio");
        out.layer("table.catchup_answers", catchups.iter().sum::<u64>() as f64, "count");
        tr.absorb(refresher_tr);
        // Before each round of isolated calls, one refresh over one more
        // refit's worth of answers with nothing else running: the refresh
        // time the isolated parts are attributed against.
        let quiet_refresh = |tr: &mut Tracer, rep: u64| -> Result<(), String> {
            let mut batch = Vec::new();
            while batch.len() < REFIT_EVERY {
                let worker = pool.next_worker();
                let wid = WorkerId(WORKER_BASE + worker.0);
                let (_, picks, _) = table.assign(wid, K, None)?;
                batch.extend(picks.iter().map(|&cell| Answer {
                    worker: wid,
                    cell,
                    value: pool.answer(worker, cell),
                }));
            }
            table.submit(&batch)?;
            extra += batch.len();
            tr.time("table.refresh_quiet", rep, || table.refresh_now());
            Ok(())
        };
        layers::isolated(
            &mut tr,
            out,
            &table,
            REFIT_EVERY,
            false,
            &bodies,
            &batches,
            &scratch.0,
            quiet_refresh,
        )?;
        layers::candidates(out, &table, WORKER_BASE..WORKER_BASE + POOL_WORKERS as u32);
        let stats = table.commit_stats().unwrap_or_default();
        out.layer(
            "store.frames_per_group",
            stats.frames as f64 / stats.groups.max(1) as f64,
            "ratio",
        );
    }
    let em = &snap.result;
    out.layer("em.iterations", em.iterations as f64, "count");
    out.layer("em.objective_evals", em.timings.objective_evals as f64, "count");
    out.layer("em.estep_ms", em.timings.estep_ns as f64 / 1e6, "ms");
    out.layer("em.mstep_ms", em.timings.mstep_ns as f64 / 1e6, "ms");
    out.layer("em.elbo_ms", em.timings.elbo_ns as f64 / 1e6, "ms");
    out.layer("store.wal_bytes_per_answer", bytes.wal as f64 / expected as f64, "B");
    out.layer("store.snapshot_bytes_per_answer", bytes.snapshot as f64 / expected as f64, "B");
    let late = sorted(late_ms);
    out.layer("gen.late_p99_ms", percentile(&late, supported_tail(late.len(), 0.99)), "ms");
    out.layer("wall.answers_per_s", online_answers as f64 / online_wall, "1/s");
    out.layer("wall.truth_s", median(&fit_wall), "s");
    let assign = sorted(assign_ms);
    let ingest = sorted(ingest_ms);
    for (name_p50, name_tail, name_n, v) in [
        ("wall.assign_p50_ms", "wall.assign_p99_ms", "wall.assign_n", &assign),
        ("wall.ingest_p50_ms", "wall.ingest_p99_ms", "wall.ingest_n", &ingest),
    ] {
        out.layer(name_p50, percentile(v, 0.5), "ms");
        out.layer(name_tail, percentile(v, supported_tail(v.len(), 0.99)), "ms");
        out.layer(name_n, v.len() as f64, "count");
    }
    out.layer("wall.fresh_p99_ms", percentile(&fresh, supported_tail(fresh.len(), 0.99)), "ms");
    out.layer("wall.fresh_n", fresh.len() as f64, "count");

    // ---- Restart: reopen the store and recover, repeated.
    drop(client);
    server.stop();
    let (recover_cpu, recover_wall) = restart(
        &mut tr,
        out,
        &dir.0,
        1,
        (expected + extra) as u64,
        RECOVERS,
        RECOVERS,
        Instant::now(),
    )?;
    out.e2e("recover_cpu_s", recover_cpu, "s");
    out.layer("wall.recover_s", recover_wall, "s");
    if traced {
        layers::span_layers(&tr, out, false, "table.refresh_quiet");
        let path = std::path::PathBuf::from(".svcbench")
            .join(format!("spans-live-crowd-{}.tsv", args.seed));
        tr.write(&path).map_err(|e| format!("write spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    Ok(())
}
