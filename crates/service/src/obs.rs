//! Service-side observability glue over [`tcrowd_obs`]: the shared metrics
//! registry the HTTP layer scrapes at `GET /metrics`, the per-table metric
//! and event-ring bundle ([`TableObs`]) the table lifecycle records into,
//! and the [`tcrowd_store::ObsSink`] adapter that routes WAL/snapshot
//! timings from the durability layer into the same histograms.
//!
//! ## Metric naming convention
//!
//! `tcrowd_<subsystem>_<what>[_<unit>][_total]` — counters end in
//! `_total`, duration histograms in `_seconds` (observed internally in
//! nanoseconds, rendered in seconds), gauges are bare nouns. Per-table
//! series carry a `table` label; HTTP series carry `method` and a
//! normalized `endpoint` label (path parameters collapsed to `:id`), so
//! series cardinality is bounded by tables × endpoints, never by ids seen
//! in requests.

use std::sync::Arc;
use std::time::Duration;

use tcrowd_core::EmTimings;
use tcrowd_obs::events::DEFAULT_EVENT_CAPACITY;
use tcrowd_obs::{Counter, EventRing, Gauge, Histogram, Registry};

/// `tcrowd_table_health` gauge value for a healthy table.
pub const HEALTH_HEALTHY: i64 = 0;
/// `tcrowd_table_health` gauge value for a degraded table.
pub const HEALTH_DEGRADED: i64 = 1;
/// `tcrowd_table_health` gauge value for a table mid-repair.
pub const HEALTH_RECOVERING: i64 = 2;

/// Map a health gauge value back to the `/healthz` string.
pub fn health_name(code: i64) -> &'static str {
    match code {
        HEALTH_DEGRADED => "degraded",
        HEALTH_RECOVERING => "recovering",
        _ => "healthy",
    }
}

/// Collapse a request path to a bounded endpoint label (ids become `:id`),
/// keeping `/metrics` series cardinality independent of table names.
pub fn endpoint_label(path: &str) -> &'static str {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segs.as_slice() {
        [] => "/",
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["tables"] => "/tables",
        ["tables", _] => "/tables/:id",
        ["tables", _, "assignment"] => "/tables/:id/assignment",
        ["tables", _, "answers"] => "/tables/:id/answers",
        ["tables", _, "truth"] => "/tables/:id/truth",
        ["tables", _, "stats"] => "/tables/:id/stats",
        ["tables", _, "refresh"] => "/tables/:id/refresh",
        ["tables", _, "events"] => "/tables/:id/events",
        ["tables", _, "workers", ..] => "/tables/:id/workers",
        _ => "other",
    }
}

/// The registry-wide observability handle: one per
/// [`TableRegistry`](crate::registry::TableRegistry), shared by every table
/// and the HTTP front end.
#[derive(Debug)]
pub struct ServiceObs {
    metrics: Arc<Registry>,
}

impl Default for ServiceObs {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceObs {
    /// A fresh, enabled observability registry.
    pub fn new() -> ServiceObs {
        ServiceObs { metrics: Arc::new(Registry::new()) }
    }

    /// The underlying metrics registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Turn collection on/off (the no-op arm of `bench_obs`). Gauges —
    /// and therefore `/healthz` — keep working either way.
    pub fn set_enabled(&self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// Register the per-table metric/event bundle for `id`.
    pub fn table(&self, id: &str) -> Arc<TableObs> {
        Arc::new(TableObs::new(&self.metrics, id))
    }

    /// Drop every series of a deleted table.
    pub fn remove_table(&self, id: &str) {
        self.metrics.remove_where("table", id);
    }

    /// Record one served HTTP request into the per-endpoint latency
    /// histogram.
    pub fn observe_request(&self, method: &str, endpoint: &'static str, elapsed: Duration) {
        self.metrics
            .histogram("tcrowd_http_request_seconds", &[("endpoint", endpoint), ("method", method)])
            .observe(elapsed);
    }

    /// `(table id, health string)` for every live table, read from the
    /// health gauges — no table lock of any kind is taken.
    pub fn table_health(&self) -> Vec<(String, &'static str)> {
        self.metrics
            .gauge_values("tcrowd_table_health")
            .into_iter()
            .filter_map(|(labels, v)| {
                labels.into_iter().find(|(k, _)| k == "table").map(|(_, id)| (id, health_name(v)))
            })
            .collect()
    }

    /// Prometheus text exposition of every registered series.
    pub fn render(&self) -> String {
        self.metrics.render()
    }
}

/// Per-table metrics and the lifecycle event ring. Created through
/// [`ServiceObs::table`] for registry-hosted tables (shared registry) or
/// [`TableObs::standalone`] for directly-constructed ones (private
/// registry; still fully functional).
#[derive(Debug)]
pub struct TableObs {
    events: EventRing,
    ingest_answers: Arc<Counter>,
    ingest_batches: Arc<Counter>,
    refit_seconds: Arc<Histogram>,
    estep_seconds: Arc<Histogram>,
    mstep_seconds: Arc<Histogram>,
    elbo_seconds: Arc<Histogram>,
    em_objective_evals: Arc<Counter>,
    wal_append_seconds: Arc<Histogram>,
    wal_fsync_seconds: Arc<Histogram>,
    snapshot_persist_seconds: Arc<Histogram>,
    commit_seconds: Arc<Histogram>,
    commit_groups: Arc<Counter>,
    commit_frames: Arc<Counter>,
    wal_segments: Arc<Gauge>,
    health: Arc<Gauge>,
    quarantined_workers: Arc<Gauge>,
    suspect_workers: Arc<Gauge>,
    trust_seq: Arc<Gauge>,
}

impl TableObs {
    fn new(reg: &Registry, id: &str) -> TableObs {
        let t: [(&str, &str); 1] = [("table", id)];
        TableObs {
            events: EventRing::new(DEFAULT_EVENT_CAPACITY, reg.start(), reg.enabled_flag()),
            ingest_answers: reg.counter("tcrowd_ingest_answers_total", &t),
            ingest_batches: reg.counter("tcrowd_ingest_batches_total", &t),
            refit_seconds: reg.histogram("tcrowd_refit_seconds", &t),
            estep_seconds: reg.histogram("tcrowd_em_estep_seconds", &t),
            mstep_seconds: reg.histogram("tcrowd_em_mstep_seconds", &t),
            elbo_seconds: reg.histogram("tcrowd_em_elbo_seconds", &t),
            em_objective_evals: reg.counter("tcrowd_em_objective_evals_total", &t),
            wal_append_seconds: reg.histogram("tcrowd_wal_append_seconds", &t),
            wal_fsync_seconds: reg.histogram("tcrowd_wal_fsync_seconds", &t),
            snapshot_persist_seconds: reg.histogram("tcrowd_snapshot_persist_seconds", &t),
            commit_seconds: reg.histogram("tcrowd_commit_seconds", &t),
            commit_groups: reg.counter("tcrowd_commit_groups_total", &t),
            commit_frames: reg.counter("tcrowd_commit_frames_total", &t),
            wal_segments: reg.gauge("tcrowd_wal_segments", &t),
            health: reg.gauge("tcrowd_table_health", &t),
            quarantined_workers: reg.gauge("tcrowd_quarantined_workers", &t),
            suspect_workers: reg.gauge("tcrowd_suspect_workers", &t),
            trust_seq: reg.gauge("tcrowd_trust_seq", &t),
        }
    }

    /// A bundle over a private registry, for tables constructed outside a
    /// [`TableRegistry`](crate::registry::TableRegistry) (unit tests,
    /// embedding).
    pub fn standalone(id: &str) -> Arc<TableObs> {
        Arc::new(TableObs::new(&Registry::new(), id))
    }

    /// Record a lifecycle event.
    pub fn event(&self, kind: &'static str, detail: String, request_id: Option<&str>) {
        self.events.record(kind, detail, request_id.map(str::to_string));
    }

    /// The table's event ring (for `GET /tables/:id/events`).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// An acknowledged ingest batch: bump counters and trace the event
    /// with the originating request's correlation id.
    pub fn ingest_committed(&self, answers: usize, request_id: Option<&str>) {
        self.ingest_batches.inc();
        self.ingest_answers.add(answers as u64);
        self.event("ingest_committed", format!("{answers} answers"), request_id);
    }

    /// A published refit: phase timings into the histograms, objective
    /// passes into their counter.
    pub fn observe_refit(&self, total_ns: u64, em: &EmTimings) {
        self.refit_seconds.observe_ns(total_ns);
        self.estep_seconds.observe_ns(em.estep_ns);
        self.mstep_seconds.observe_ns(em.mstep_ns);
        self.elbo_seconds.observe_ns(em.elbo_ns);
        self.em_objective_evals.add(em.objective_evals);
    }

    /// Update the trust gauges from a just-published snapshot.
    pub fn set_trust(&self, suspects: usize, quarantined: usize, seq: u64) {
        self.suspect_workers.set(suspects as i64);
        self.quarantined_workers.set(quarantined as i64);
        self.trust_seq.set(seq.min(i64::MAX as u64) as i64);
    }

    /// Update the health gauge (one of the `HEALTH_*` codes).
    pub fn set_health(&self, code: i64) {
        self.health.set(code);
    }

    /// A [`tcrowd_store::ObsSink`] routing WAL/snapshot timings from the
    /// durability layer into this bundle's histograms.
    pub fn store_sink(self: &Arc<Self>) -> tcrowd_store::ObsHandle {
        Arc::new(StoreSink { obs: Arc::clone(self) })
    }
}

/// Adapter: durability-layer timing observations → per-table histograms.
#[derive(Debug)]
struct StoreSink {
    obs: Arc<TableObs>,
}

impl tcrowd_store::ObsSink for StoreSink {
    fn wal_append_ns(&self, ns: u64) {
        self.obs.wal_append_seconds.observe_ns(ns);
    }

    fn wal_fsync_ns(&self, ns: u64) {
        self.obs.wal_fsync_seconds.observe_ns(ns);
    }

    fn snapshot_persist_ns(&self, ns: u64) {
        self.obs.snapshot_persist_seconds.observe_ns(ns);
    }

    fn commit_group(&self, frames: u64, _answers: u64, ns: u64) {
        self.obs.commit_groups.inc();
        self.obs.commit_frames.add(frames);
        self.obs.commit_seconds.observe_ns(ns);
    }

    fn wal_segments(&self, live: u64) {
        self.obs.wal_segments.set(live.min(i64::MAX as u64) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_label("/healthz"), "/healthz");
        assert_eq!(endpoint_label("/metrics"), "/metrics");
        assert_eq!(endpoint_label("/tables/any-id-here/answers"), "/tables/:id/answers");
        assert_eq!(endpoint_label("/tables/x/events"), "/tables/:id/events");
        assert_eq!(endpoint_label("/tables/x/workers/7/quarantine"), "/tables/:id/workers");
        assert_eq!(endpoint_label("/no/such/route"), "other");
    }

    #[test]
    fn table_health_reads_gauges() {
        let obs = ServiceObs::new();
        let a = obs.table("a");
        let b = obs.table("b");
        a.set_health(HEALTH_HEALTHY);
        b.set_health(HEALTH_DEGRADED);
        assert_eq!(
            obs.table_health(),
            vec![("a".to_string(), "healthy"), ("b".to_string(), "degraded")]
        );
        obs.remove_table("b");
        assert_eq!(obs.table_health(), vec![("a".to_string(), "healthy")]);
    }

    #[test]
    fn store_sink_routes_to_histograms() {
        let obs = ServiceObs::new();
        let t = obs.table("t");
        let sink = t.store_sink();
        sink.wal_append_ns(1_000);
        sink.wal_fsync_ns(2_000);
        sink.snapshot_persist_ns(3_000);
        sink.commit_group(4, 40, 5_000);
        sink.commit_group(2, 20, 6_000);
        sink.wal_segments(3);
        let text = obs.render();
        assert!(text.contains("tcrowd_wal_append_seconds_count{table=\"t\"} 1"));
        assert!(text.contains("tcrowd_wal_fsync_seconds_count{table=\"t\"} 1"));
        assert!(text.contains("tcrowd_snapshot_persist_seconds_count{table=\"t\"} 1"));
        assert!(text.contains("tcrowd_commit_groups_total{table=\"t\"} 2"));
        assert!(text.contains("tcrowd_commit_frames_total{table=\"t\"} 6"));
        assert!(text.contains("tcrowd_commit_seconds_count{table=\"t\"} 2"));
        assert!(text.contains("tcrowd_wal_segments{table=\"t\"} 3"));
    }

    #[test]
    fn ingest_committed_traces_with_correlation_id() {
        let obs = ServiceObs::new();
        let t = obs.table("t");
        t.ingest_committed(5, Some("req-42"));
        let page = t.events().since(0, 10);
        assert_eq!(page.events.len(), 1);
        assert_eq!(page.events[0].kind, "ingest_committed");
        assert_eq!(page.events[0].request_id.as_deref(), Some("req-42"));
        assert_eq!(obs.metrics().counter_sum("tcrowd_ingest_answers_total"), 5);
    }
}
