//! The multi-table registry: the service hosts many independent tables,
//! each with its own schema, policy configuration, ingest state and
//! refresher thread — and, when the registry is backed by a
//! [`tcrowd_store::Store`], its own WAL + snapshot directory with
//! recover-on-boot.

use crate::obs::ServiceObs;
use crate::table::{TableConfig, TableState};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use tcrowd_store::{Store, TableMeta, TableStore};
use tcrowd_tabular::{ColumnType, Schema};

/// Most labels a categorical column may declare, in either the `labels` or
/// the `cardinality` form of `POST /tables`. Checked before the label set is
/// built, so a huge `cardinality` is a 400 instead of an allocation the
/// process cannot survive.
pub const MAX_LABELS: usize = 4096;

/// Most entries a new table's posterior state may hold:
/// `rows × Σ_j max(L_j, 2)`, where `L_j` is column `j`'s label count and a
/// continuous column counts 2 (its mean and variance). A table's empty fit
/// allocates this state up front, so [`TableRegistry::create`] refuses a
/// table over the budget (2^24 entries, 128 MiB of `f64`).
pub const MAX_POSTERIOR_ENTRIES: usize = 1 << 24;

/// What [`TableRegistry::recover`] found on boot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables brought back to life.
    pub tables: usize,
    /// Answers reconstructed across all tables.
    pub answers: u64,
    /// Tables whose recovery was snapshot-assisted (WAL-tail replay +
    /// warm-started EM).
    pub with_snapshot: usize,
    /// Answers replayed from WAL tails (everything, for tables without a
    /// usable snapshot).
    pub replayed: u64,
    /// Tables whose WAL had a torn tail truncated.
    pub torn_tails: usize,
}

/// All hosted tables. Cheap to share (`Arc`); the HTTP handler holds one.
pub struct TableRegistry {
    tables: RwLock<BTreeMap<String, Arc<TableState>>>,
    next_id: AtomicU64,
    store: Option<Arc<Store>>,
    started_at: Instant,
    /// Server-wide backpressure default applied to tables created without
    /// an explicit `max_pending` (0 = unbounded; set from `serve
    /// --max-pending`).
    default_max_pending: AtomicUsize,
    /// Registry-wide observability: the metrics registry `/metrics`
    /// renders and the per-table event rings.
    obs: Arc<ServiceObs>,
}

impl Default for TableRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TableRegistry {
    /// An empty, memory-only registry (tables die with the process).
    pub fn new() -> TableRegistry {
        TableRegistry {
            tables: RwLock::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            store: None,
            started_at: Instant::now(),
            default_max_pending: AtomicUsize::new(0),
            obs: Arc::new(ServiceObs::new()),
        }
    }

    /// The registry-wide observability handle (metrics + event rings).
    pub fn obs(&self) -> &Arc<ServiceObs> {
        &self.obs
    }

    /// Set the backpressure default for tables created without an explicit
    /// `max_pending` (0 clears it). Tables already hosted keep their bound.
    pub fn set_default_max_pending(&self, bound: usize) {
        self.default_max_pending.store(bound, Ordering::SeqCst);
    }

    /// The server-wide `max_pending` default, if set.
    pub fn default_max_pending(&self) -> Option<usize> {
        match self.default_max_pending.load(Ordering::SeqCst) {
            0 => None,
            n => Some(n),
        }
    }

    /// An empty registry whose tables persist into `store`. Call
    /// [`Self::recover`] to bring previously-persisted tables back.
    pub fn with_store(store: Arc<Store>) -> TableRegistry {
        TableRegistry { store: Some(store), ..Self::new() }
    }

    /// The backing store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Recover every table persisted in the backing store: WAL replay
    /// (snapshot-assisted where possible, torn tails truncated), a fit
    /// seeded from the snapshot's parameters, refresher threads restarted.
    /// Idempotent per id (already-hosted ids are left alone); errors abort —
    /// a durable service must not come up silently missing tables.
    pub fn recover(&self) -> Result<RecoveryReport, String> {
        let store = self.store.as_ref().ok_or("registry has no backing store to recover from")?;
        let mut report = RecoveryReport::default();
        for rec in store.recover_all().map_err(|e| format!("recovery failed: {e}"))? {
            let mut tables = self.tables.write().unwrap_or_else(|p| p.into_inner());
            if tables.contains_key(&rec.id) {
                continue;
            }
            let config = TableConfig::from_kv(&rec.meta.config);
            report.tables += 1;
            report.answers += rec.log.len() as u64;
            report.replayed += rec.replayed_tail;
            report.with_snapshot += usize::from(rec.snapshot_epoch.is_some());
            report.torn_tails += usize::from(rec.torn.is_some());
            let id = rec.id.clone();
            let table = TableState::recover(rec, config, store.io_handle(), self.obs.table(&id));
            tables.insert(id, table);
        }
        Ok(report)
    }

    /// Create and register a table. `id: None` allocates `table-N`.
    /// Fails (leaving the registry unchanged) if the id is taken or empty.
    /// On a store-backed registry the table's WAL Create record is durable
    /// before this returns.
    pub fn create(
        &self,
        id: Option<String>,
        schema: Schema,
        rows: usize,
        mut config: TableConfig,
    ) -> Result<Arc<TableState>, String> {
        if rows == 0 {
            return Err("a table needs at least one row".into());
        }
        let per_row: usize = (0..schema.num_columns())
            .map(|j| match schema.column_type(j) {
                ColumnType::Categorical { labels } => labels.len().max(2),
                ColumnType::Continuous { .. } => 2,
            })
            .fold(0, usize::saturating_add);
        if rows.saturating_mul(per_row) > MAX_POSTERIOR_ENTRIES {
            return Err(format!(
                "table of {rows} rows needs {per_row} posterior entries per row, over the \
                 limit of {MAX_POSTERIOR_ENTRIES} (rows × Σ max(labels, 2)) per table"
            ));
        }
        if config.max_pending.is_none() {
            config.max_pending = self.default_max_pending();
        }
        let id = match id {
            // Ids travel inside URL path segments; restricting them to
            // URL-safe characters keeps every created table addressable
            // (a '/', '%', '+' or space would be split or percent-decoded
            // away by the router before matching). The same charset keeps
            // them safe as store directory names.
            Some(id) => {
                if id.is_empty() || id.len() > 64 {
                    return Err("table id must be 1..=64 characters".into());
                }
                if !id.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
                    || id == "."
                    || id == ".."
                {
                    return Err(format!(
                        "table id '{id}' may only contain ASCII letters, digits, '.', '_', '-'"
                    ));
                }
                id
            }
            None => format!("table-{}", self.next_id.fetch_add(1, Ordering::SeqCst)),
        };
        let mut tables = self.tables.write().unwrap_or_else(|p| p.into_inner());
        if tables.contains_key(&id) {
            return Err(format!("table '{id}' already exists"));
        }
        let created = match &self.store {
            Some(store) => {
                let meta = TableMeta { rows, schema: schema.clone(), config: config.to_kv() };
                let wal = store
                    .create_table(&id, &meta)
                    .map_err(|e| format!("cannot persist table '{id}': {e}"))?;
                Some((wal, meta, store.io_handle()))
            }
            None => None,
        };
        let obs = self.obs.table(&id);
        let files =
            created.map(|(wal, meta, io)| TableStore::open(wal, meta, None, io, obs.store_sink()));
        let table = TableState::create_with_obs(id.clone(), schema, rows, config, files, obs);
        tables.insert(id, Arc::clone(&table));
        Ok(table)
    }

    /// Look up a table.
    pub fn get(&self, id: &str) -> Option<Arc<TableState>> {
        self.tables.read().unwrap_or_else(|p| p.into_inner()).get(id).cloned()
    }

    /// Remove a table. The tombstone is set *before* the refresher is
    /// stopped, so a refresh that is already mid-refit cannot publish a
    /// snapshot for the dead table; on durable tables the tombstone is also
    /// fsynced into the WAL before the directory is removed, so a crash in
    /// between cannot resurrect it. Returns whether it existed.
    pub fn remove(&self, id: &str) -> bool {
        let removed = self.tables.write().unwrap_or_else(|p| p.into_inner()).remove(id);
        match removed {
            Some(t) => {
                t.mark_deleted();
                if let Err(e) = t.append_tombstone() {
                    eprintln!("tcrowd-service: {e}");
                }
                t.stop_refresher();
                if let Some(store) = &self.store {
                    if let Err(e) = store.remove_table_dir(id) {
                        eprintln!(
                            "tcrowd-service: cannot remove table dir for '{id}': {e} \
                             (tombstone is durable; recovery will finish the cleanup)"
                        );
                    }
                }
                self.obs.remove_table(id);
                true
            }
            None => false,
        }
    }

    /// Ids of every hosted table, sorted.
    pub fn list(&self) -> Vec<String> {
        self.tables.read().unwrap_or_else(|p| p.into_inner()).keys().cloned().collect()
    }

    /// Number of hosted tables.
    pub fn len(&self) -> usize {
        self.tables.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Per-table health, sorted by table id: `(id, health string)` where
    /// the health string is `"healthy"`, `"degraded"` or `"recovering"`.
    /// Read from the observability health gauges, so `GET /healthz` never
    /// takes any table's ingest or fitter lock — a wedged table cannot
    /// wedge the health probe.
    pub fn health(&self) -> Vec<(String, &'static str)> {
        self.obs.table_health()
    }

    /// True when no tables are hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Milliseconds since the registry was created (≈ service uptime).
    pub fn uptime_ms(&self) -> u128 {
        self.started_at.elapsed().as_millis()
    }

    /// Stop every table's refresher thread (joins them) and flush every
    /// WAL. Call before dropping the registry in tests and on server
    /// shutdown; without it the threads exit lazily on their next tick.
    pub fn shutdown(&self) {
        for table in self.tables.read().unwrap_or_else(|p| p.into_inner()).values() {
            table.stop_refresher();
            // Drain + join the commit thread first so every queued batch is
            // committed before the snapshot pins the durable mark.
            table.shutdown_committer();
            table.persist_store_snapshot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(
            "t",
            "k",
            vec![
                Column::new("a", ColumnType::categorical_with_cardinality(3)),
                Column::new("b", ColumnType::Continuous { min: 0.0, max: 1.0 }),
            ],
        )
    }

    #[test]
    fn create_get_list_remove() {
        let reg = TableRegistry::new();
        assert!(reg.is_empty());
        let t1 = reg.create(Some("one".into()), schema(), 5, TableConfig::default()).unwrap();
        let t2 = reg.create(None, schema(), 5, TableConfig::default()).unwrap();
        assert_eq!(t1.id, "one");
        assert_eq!(t2.id, "table-1");
        assert_eq!(reg.list(), vec!["one".to_string(), "table-1".to_string()]);
        assert!(reg.get("one").is_some());
        assert!(reg.get("nope").is_none());
        // Duplicate and invalid ids are rejected.
        assert!(reg.create(Some("one".into()), schema(), 5, TableConfig::default()).is_err());
        assert!(reg.create(Some("".into()), schema(), 5, TableConfig::default()).is_err());
        assert!(reg.create(None, schema(), 0, TableConfig::default()).is_err());
        // Ids that would not survive the HTTP router's path split/decoding
        // (or would escape the store's tables/ directory).
        for bad in ["a/b", "a b", "a+b", "a%2Fb", "é", ".", "..", &"x".repeat(65)] {
            assert!(
                reg.create(Some(bad.to_string()), schema(), 5, TableConfig::default()).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert!(reg.create(Some("ok-id_1.v2".into()), schema(), 5, TableConfig::default()).is_ok());
        assert!(reg.remove("ok-id_1.v2"));
        assert!(reg.remove("one"));
        assert!(!reg.remove("one"));
        assert_eq!(reg.len(), 1);
        reg.shutdown();
    }

    #[test]
    fn removing_a_table_mid_refit_cannot_resurrect_it() {
        // The deletion race, end to end at the registry level: a handle the
        // refresher (or any other thread) still holds must become inert the
        // moment `remove` runs — no publish, no ingest.
        let reg = TableRegistry::new();
        let t = reg.create(Some("doomed".into()), schema(), 5, TableConfig::default()).unwrap();
        t.submit(&[tcrowd_tabular::Answer {
            worker: tcrowd_tabular::WorkerId(1),
            cell: tcrowd_tabular::CellId::new(0, 0),
            value: tcrowd_tabular::Value::Categorical(1),
        }])
        .unwrap();
        let epoch_before = t.snapshot().epoch;
        assert!(reg.remove("doomed"));
        assert!(t.is_deleted());
        assert!(!t.refresh_now(), "dead table must not publish");
        assert_eq!(t.snapshot().epoch, epoch_before);
        assert!(t.submit(&[]).is_err(), "dead table must not ingest");
        reg.shutdown();
    }
}
