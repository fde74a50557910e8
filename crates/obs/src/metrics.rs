//! Lock-free metric primitives and the registry that names them.
//!
//! The registry map (`name` + sorted labels → metric) is behind an `RwLock`,
//! but it is touched only at registration and scrape time: callers hold the
//! returned `Arc` handles, so recording on the hot path is a couple of
//! relaxed atomic ops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds in nanoseconds: a 1-2-5 log scale from
/// 1 µs to 10 s (22 finite buckets plus the implicit `+Inf` overflow).
/// One fixed scheme for every latency series keeps `/metrics` aggregable
/// across tables and endpoints.
pub const LATENCY_BUCKETS_NS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// A monotonically increasing counter. Gated by the registry's `enabled`
/// flag: incrementing a disabled counter is a single relaxed load.
#[derive(Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Counter { enabled, value: AtomicU64::new(0) }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable gauge. **Never gated**: gauges back `/healthz`, so they must
/// stay correct even when metric collection is disabled.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-boundary log-scale latency histogram over
/// [`LATENCY_BUCKETS_NS`]. Observations are nanoseconds; exposition renders
/// seconds (the Prometheus convention). Per-bucket counts are
/// non-cumulative internally and cumulated at render/quantile time. The
/// exact maximum is tracked separately so tail quantiles that land in the
/// overflow bucket still report a real number.
#[derive(Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    buckets: Vec<AtomicU64>, // LATENCY_BUCKETS_NS.len() + 1 (+Inf overflow)
    sum_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
}

impl Histogram {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        let buckets = (0..=LATENCY_BUCKETS_NS.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            enabled,
            buckets,
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record an observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let idx = LATENCY_BUCKETS_NS.partition_point(|&b| b < ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record a [`Duration`] observation.
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Largest observation in seconds (exact, not bucket-rounded).
    pub fn max_seconds(&self) -> f64 {
        self.max_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Estimate the `q`-quantile (0 < q ≤ 1) in seconds from the bucket
    /// counts: the upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * total)`. Observations in the overflow bucket
    /// report the tracked maximum. Returns 0.0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                if idx < LATENCY_BUCKETS_NS.len() {
                    return LATENCY_BUCKETS_NS[idx] as f64 / 1e9;
                }
                return self.max_seconds();
            }
        }
        self.max_seconds()
    }

    /// Non-cumulative per-bucket counts (last entry is the `+Inf`
    /// overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// Which kind of metric a series is; rendered as the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Metric::Counter(_) => Kind::Counter,
            Metric::Gauge(_) => Kind::Gauge,
            Metric::Histogram(_) => Kind::Histogram,
        }
    }
}

/// A fully-qualified series: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    labels.sort();
    SeriesKey { name: name.to_string(), labels }
}

/// The metrics registry: names series, hands out `Arc` metric handles, and
/// renders the whole set as Prometheus text exposition
/// ([`Registry::render`]).
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    start: Instant,
    pub(crate) series: RwLock<BTreeMap<SeriesKey, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A new, enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            start: Instant::now(),
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// Turn metric collection on or off. Disabling makes counter /
    /// histogram / event recording a single relaxed load; gauges keep
    /// working (see [`Gauge`]).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The shared enabled flag (for gating [`EventRing`](crate::EventRing)s
    /// on the same switch).
    pub fn enabled_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.enabled)
    }

    /// The registry's monotonic start instant.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Register (or fetch) a counter series.
    ///
    /// # Panics
    /// If the series name is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || {
            Metric::Counter(Arc::new(Counter::new(Arc::clone(&self.enabled))))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) a gauge series.
    ///
    /// # Panics
    /// If the series name is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) a histogram series.
    ///
    /// # Panics
    /// If the series name is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(Arc::clone(&self.enabled))))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = series_key(name, labels);
        {
            let map = self.series.read().unwrap_or_else(|p| p.into_inner());
            if let Some(m) = map.get(&key) {
                return clone_metric(m);
            }
        }
        let mut map = self.series.write().unwrap_or_else(|p| p.into_inner());
        let entry = map.entry(key).or_insert_with(make);
        let made = clone_metric(entry);
        assert!(same_kind_for_name(&map, name), "metric {name} registered with conflicting kinds");
        made
    }

    /// Drop every series carrying the label pair `label == value` — used
    /// when a table is deleted so its metrics disappear from `/metrics`
    /// and `/healthz`.
    pub fn remove_where(&self, label: &str, value: &str) {
        let mut map = self.series.write().unwrap_or_else(|p| p.into_inner());
        map.retain(|k, _| !k.labels.iter().any(|(n, v)| n == label && v == value));
    }

    /// All gauge series under `name` as `(labels, value)` pairs, sorted by
    /// labels. Reads only the registry map and atomics — no caller locks.
    pub fn gauge_values(&self, name: &str) -> Vec<(Vec<(String, String)>, i64)> {
        let map = self.series.read().unwrap_or_else(|p| p.into_inner());
        map.iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(k, m)| match m {
                Metric::Gauge(g) => Some((k.labels.clone(), g.get())),
                _ => None,
            })
            .collect()
    }

    /// Sum of every counter series under `name`.
    pub fn counter_sum(&self, name: &str) -> u64 {
        let map = self.series.read().unwrap_or_else(|p| p.into_inner());
        map.iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
        Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
    }
}

fn same_kind_for_name(map: &BTreeMap<SeriesKey, Metric>, name: &str) -> bool {
    let mut kind = None;
    for (k, m) in map.iter() {
        if k.name == name {
            match kind {
                None => kind = Some(m.kind()),
                Some(k0) => {
                    if k0 != m.kind() {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total", &[("table", "t1")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) returns the same underlying series.
        assert_eq!(r.counter("c_total", &[("table", "t1")]).get(), 5);
        assert_eq!(r.counter_sum("c_total"), 5);

        let g = r.gauge("g", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        assert_eq!(r.gauge_values("g"), vec![(vec![], 5)]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", &[]);
        // 90 fast (≤1µs bucket), 9 at 1ms, 1 way out in the overflow.
        for _ in 0..90 {
            h.observe_ns(500);
        }
        for _ in 0..9 {
            h.observe_ns(1_000_000);
        }
        h.observe_ns(30_000_000_000);
        assert_eq!(h.count(), 100);
        assert!((h.quantile(0.50) - 1e-6).abs() < 1e-12, "p50 {}", h.quantile(0.50));
        assert!((h.quantile(0.99) - 1e-3).abs() < 1e-9, "p99 {}", h.quantile(0.99));
        // p100 lands in +Inf → exact max.
        assert!((h.quantile(1.0) - 30.0).abs() < 1e-9);
        assert!((h.max_seconds() - 30.0).abs() < 1e-9);
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), LATENCY_BUCKETS_NS.len() + 1);
        assert_eq!(counts.iter().sum::<u64>(), 100);
        assert_eq!(*counts.last().unwrap(), 1);
    }

    #[test]
    fn bucket_boundary_is_inclusive() {
        let r = Registry::new();
        let h = r.histogram("b_seconds", &[]);
        h.observe_ns(1_000); // exactly the first boundary → first bucket
        assert_eq!(h.bucket_counts()[0], 1);
    }

    #[test]
    fn disabled_registry_drops_counter_and_histogram_but_not_gauge() {
        let r = Registry::new();
        let c = r.counter("c_total", &[]);
        let h = r.histogram("h_seconds", &[]);
        let g = r.gauge("g", &[]);
        r.set_enabled(false);
        c.inc();
        h.observe_ns(123);
        g.set(9);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(g.get(), 9, "gauges must keep working when disabled");
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn remove_where_drops_table_series() {
        let r = Registry::new();
        r.counter("c_total", &[("table", "a")]).inc();
        r.counter("c_total", &[("table", "b")]).inc();
        r.remove_where("table", "a");
        assert_eq!(r.counter_sum("c_total"), 1);
        let key = series_key("c_total", &[("table", "a")]);
        assert!(!r.series.read().unwrap().contains_key(&key));
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn conflicting_kind_panics() {
        let r = Registry::new();
        let _ = r.counter("same_name", &[("table", "a")]);
        let _ = r.gauge("same_name", &[("table", "b")]);
    }
}
