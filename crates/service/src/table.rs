//! Per-table service state: lock-split ingest/read/fit paths, the
//! background refresher thread, and the durability hooks into
//! `tcrowd-store`.
//!
//! Each hosted table runs the paper's online loop (Fig. 1 / Algorithm 2)
//! with the request path split in **three**:
//!
//! * **Ingest** (`POST …/answers`) appends to the [`AnswerLog`] behind a
//!   `Mutex` — an `O(1)` log push per answer, nothing else. On a durable
//!   table the batch is first framed into the write-ahead log (one
//!   group-committed record per batch, flushed/fsynced per the store's
//!   [`tcrowd_store::FsyncPolicy`]) **before** it enters memory or is
//!   acknowledged: an acked answer is a durable answer.
//! * **Reads** (assignment, truth, stats) share an immutable [`Snapshot`]
//!   behind an `RwLock<Arc<…>>`: the [`SharedLog`] prefix at the snapshot
//!   epoch, the frozen [`AnswerMatrix`] (behind an `Arc`), the last
//!   published [`InferenceResult`] and a pre-fitted [`CorrelationModel`].
//!   Readers clone the `Arc` and never contend with ingestion.
//! * **Fits** run under a separate *fitter* mutex and **never hold the
//!   ingest lock while EM runs**. A refresh holds the ingest lock only for
//!   `O(Δ)` work — twice, briefly:
//!
//! ```text
//!   lock ingest ── slice log tail since fit epoch (O(Δ) copy) ── unlock
//!        │
//!        ▼  (ingestion keeps flowing)
//!   merge_delta into the evolving freeze ── EM refit (warm or cold)
//!        │
//!   lock ingest ── slice mid-fit arrivals (O(Δ')) + WAL sync/position ── unlock
//!        │
//!        ▼
//!   catch-up merge (freeze + §5.1 incremental posterior per answer)
//!        │
//!   publish Arc<Snapshot> atomically ── persist an incremental store
//!                                        snapshot (answers since the last
//!                                        one + chained WAL offset)
//! ```
//!
//! The publish itself is `O(Δ)` too: the snapshot's log is a structurally
//! shared [`SharedLog`] (appending the delta shares every older chunk) and
//! its freeze is an `Arc` handed over from the fitter — no `O(n)`
//! log/matrix/fit deep-clone ever happens under *any* lock.
//!
//! With cold refits (the default) a snapshot published with an **empty**
//! catch-up delta is a pure function of the committed answer order — the
//! 1e-6 offline-agreement gates rely on it. A snapshot that did fold in
//! mid-fit arrivals marks them in [`Snapshot::catchup_merged`]: those
//! answers entered the freeze and the posterior incrementally (§5.1) and
//! become exact at the next refit.
//!
//! Durability is `O(Δ)` as well: each publish appends an incremental store
//! snapshot *delta* (the answers since the last snapshot plus the chained
//! WAL offset — zero answers when a refresh republished at an unchanged
//! epoch with a new fit); the chain is collapsed into a fresh full base
//! once it grows past [`SNAPSHOT_CHAIN_MAX_LINKS`] links or as many answers
//! as the base itself (geometric, so amortised cost stays linear in the
//! delta).
//!
//! Deletion uses a **tombstone guard**: `TableRegistry::remove` marks the
//! table deleted *before* joining the refresher, so a refresh that is
//! mid-refit when the table dies can never publish (or persist a store
//! snapshot for) a dead table.

use crate::obs::{TableObs, HEALTH_DEGRADED, HEALTH_HEALTHY, HEALTH_RECOVERING};
use crate::policy::make_policy;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};
use tcrowd_core::{
    AssignmentContext, CorrelationModel, FitParams, FitState, InferenceResult, Seed, TCrowd,
};
use tcrowd_store::{
    compact_cold_segments, count_segments, remove_snapshot, remove_snapshot_deltas, rewrite_wal,
    write_snapshot_delta_observed, write_snapshot_observed, ChainInfo, CommitSink, CommitStatsView,
    CommittedBatch, DurableMark, GroupCommit, IoHandle, QuarantineEntry, Recovered, SnapshotDelta,
    TableMeta, TableSnapshot, Wal, WalPosition, WAL_FILE,
};
use tcrowd_tabular::{Answer, AnswerLog, AnswerMatrix, CellId, Schema, SharedLog, WorkerId};
use tcrowd_trust::{advance, score_workers, TrustConfig, TrustState, WorkerTrust};

/// Chain links after which the next store snapshot collapses into a full
/// base (bounds recovery's chain walk and the table directory's file
/// count).
pub const SNAPSHOT_CHAIN_MAX_LINKS: u64 = 32;
/// Collapse is also triggered once the chain carries at least this many
/// answers *and* as many as the base — geometric growth, so the amortised
/// serialization cost per published answer stays constant.
const SNAPSHOT_CHAIN_MIN_COLLAPSE: u64 = 1024;

/// Per-table service policy knobs (the `POST /tables` request body).
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Default assignment policy (a [`make_policy`] name).
    pub policy: String,
    /// Pending-answer threshold that wakes the refresher immediately.
    pub refit_every: usize,
    /// Refresher cadence: every tick with pending answers re-fits and
    /// publishes, threshold reached or not.
    pub refresh_interval: Duration,
    /// Warm-start re-fits from the previous published fit (see
    /// `tcrowd_core::Seed::Warm`). Off by default: cold re-fits make the
    /// published state a pure function of the collected log, which the
    /// determinism tests and the bench's offline-agreement gate rely on.
    pub warm_refits: bool,
    /// Optional per-cell redundancy cap enforced at assignment time.
    pub max_answers_per_cell: Option<usize>,
    /// Seed for stochastic policies (random baseline, entity grouping).
    pub seed: u64,
    /// Backpressure bound: when the refresh lag ([`TableState::pending`])
    /// reaches this many answers, ingest is refused with an `overloaded:`
    /// error (HTTP 429 + `Retry-After`) until the refresher catches up —
    /// bounding how stale the served snapshot can get under overload.
    /// `None` = unbounded (the default).
    pub max_pending: Option<usize>,
    /// Run the trust state machine automatically on every refit: workers
    /// whose trust score pins near chance (or who show a collusion signal)
    /// are demoted `Trusted → Suspect → Quarantined` and auto-promoted back
    /// when their score recovers past the hysteresis exit thresholds. Off
    /// by default — manual quarantine always works regardless.
    pub trust_auto: bool,
    /// Thresholds for the trust scorer and hysteresis state machine.
    pub trust: TrustConfig,
    /// Per-worker ingest rate limit in answers/second (token bucket;
    /// `0` = unlimited, the default). A worker over budget gets the whole
    /// batch refused with an `overloaded:` error (HTTP 429 + `Retry-After`).
    pub worker_rate: f64,
    /// Token-bucket burst capacity for [`TableConfig::worker_rate`].
    pub worker_burst: u32,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            policy: "structure-aware".to_string(),
            refit_every: 64,
            refresh_interval: Duration::from_millis(200),
            warm_refits: false,
            max_answers_per_cell: None,
            seed: 1,
            max_pending: None,
            trust_auto: false,
            trust: TrustConfig::default(),
            worker_rate: 0.0,
            worker_burst: 64,
        }
    }
}

impl TableConfig {
    /// Serialize as the sorted key/value pairs the store's `TableMeta`
    /// persists (the WAL Create record).
    pub fn to_kv(&self) -> Vec<(String, String)> {
        let mut kv = vec![
            (
                "max_answers_per_cell".to_string(),
                self.max_answers_per_cell.map(|v| v.to_string()).unwrap_or_default(),
            ),
            (
                "max_pending".to_string(),
                self.max_pending.map(|v| v.to_string()).unwrap_or_default(),
            ),
            ("policy".to_string(), self.policy.clone()),
            ("refit_every".to_string(), self.refit_every.to_string()),
            (
                "refresh_interval_ms".to_string(),
                (self.refresh_interval.as_millis() as u64).to_string(),
            ),
            ("seed".to_string(), self.seed.to_string()),
            ("trust_auto".to_string(), self.trust_auto.to_string()),
            ("trust_collusion_agreement".to_string(), self.trust.collusion_agreement.to_string()),
            (
                "trust_collusion_collisions".to_string(),
                self.trust.collusion_value_collisions.to_string(),
            ),
            ("trust_collusion_overlap".to_string(), self.trust.collusion_min_overlap.to_string()),
            ("trust_min_answers".to_string(), self.trust.min_answers.to_string()),
            ("trust_quarantine_enter".to_string(), self.trust.quarantine_enter.to_string()),
            ("trust_quarantine_exit".to_string(), self.trust.quarantine_exit.to_string()),
            ("trust_suspect_enter".to_string(), self.trust.suspect_enter.to_string()),
            ("trust_suspect_exit".to_string(), self.trust.suspect_exit.to_string()),
            ("warm_refits".to_string(), self.warm_refits.to_string()),
            ("worker_burst".to_string(), self.worker_burst.to_string()),
            ("worker_rate".to_string(), self.worker_rate.to_string()),
        ];
        kv.sort();
        kv
    }

    /// Rebuild from persisted key/value pairs. Missing keys take defaults,
    /// unknown keys are ignored — config can evolve without a WAL format
    /// change in either direction.
    pub fn from_kv(kv: &[(String, String)]) -> TableConfig {
        let mut config = TableConfig::default();
        for (k, v) in kv {
            match k.as_str() {
                "policy" if !v.is_empty() => config.policy = v.clone(),
                "refit_every" => {
                    if let Ok(n) = v.parse() {
                        config.refit_every = n;
                    }
                }
                "refresh_interval_ms" => {
                    if let Ok(ms) = v.parse() {
                        config.refresh_interval = Duration::from_millis(ms);
                    }
                }
                "warm_refits" => config.warm_refits = v == "true",
                "max_answers_per_cell" => config.max_answers_per_cell = v.parse().ok(),
                "max_pending" => config.max_pending = v.parse().ok(),
                "seed" => {
                    if let Ok(s) = v.parse() {
                        config.seed = s;
                    }
                }
                "trust_auto" => config.trust_auto = v == "true",
                "trust_min_answers" => {
                    if let Ok(n) = v.parse() {
                        config.trust.min_answers = n;
                    }
                }
                "trust_suspect_enter" => {
                    if let Ok(x) = v.parse() {
                        config.trust.suspect_enter = x;
                    }
                }
                "trust_suspect_exit" => {
                    if let Ok(x) = v.parse() {
                        config.trust.suspect_exit = x;
                    }
                }
                "trust_quarantine_enter" => {
                    if let Ok(x) = v.parse() {
                        config.trust.quarantine_enter = x;
                    }
                }
                "trust_quarantine_exit" => {
                    if let Ok(x) = v.parse() {
                        config.trust.quarantine_exit = x;
                    }
                }
                "trust_collusion_overlap" => {
                    if let Ok(n) = v.parse() {
                        config.trust.collusion_min_overlap = n;
                    }
                }
                "trust_collusion_agreement" => {
                    if let Ok(x) = v.parse() {
                        config.trust.collusion_agreement = x;
                    }
                }
                "trust_collusion_collisions" => {
                    if let Ok(n) = v.parse() {
                        config.trust.collusion_value_collisions = n;
                    }
                }
                "worker_rate" => {
                    if let Ok(x) = v.parse() {
                        config.worker_rate = x;
                    }
                }
                "worker_burst" => {
                    if let Ok(n) = v.parse() {
                        config.worker_burst = n;
                    }
                }
                _ => {}
            }
        }
        config
    }
}

/// Per-worker trust bookkeeping: the hysteresis state plus whether an
/// operator pinned it (`manual` entries are never auto-released).
#[derive(Debug, Clone, Copy)]
struct TrustEntry {
    state: TrustState,
    manual: bool,
}

/// The table's trust registry. Lock order: this mutex may be held while
/// taking the WAL mutex (so quarantine decisions serialise their
/// full-replacement WAL records in decision order) — never the reverse.
struct TrustRegistry {
    /// Workers in a non-`Trusted` state, or operator-pinned. Auto entries
    /// that recover to `Trusted` are dropped, keeping the map at the size
    /// of the problem rather than the workforce.
    states: BTreeMap<WorkerId, TrustEntry>,
    /// The quarantine set last durably appended to the WAL — compared
    /// before every append so an unchanged set never writes a record.
    persisted: Vec<QuarantineEntry>,
}

/// The quarantined subset of a trust registry, sorted by worker.
fn quarantined_set(states: &BTreeMap<WorkerId, TrustEntry>) -> Vec<QuarantineEntry> {
    states
        .iter()
        .filter(|(_, e)| e.state == TrustState::Quarantined)
        .map(|(&w, e)| QuarantineEntry { worker: w, manual: e.manual })
        .collect()
}

/// One worker's row in the published trust report.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// Evidence and scores from [`tcrowd_trust::score_workers`] (answer
    /// count, fitted or shadow quality, collusion signal).
    pub trust: WorkerTrust,
    /// Hysteresis state at publish time.
    pub state: TrustState,
    /// Operator-pinned (manual quarantine).
    pub manual: bool,
}

/// The trust report published with a [`Snapshot`]: every scored worker,
/// the quarantine decision set, and the exclusion set the published fit
/// actually ran under. Readers get it with the snapshot's `Arc` clone —
/// `GET …/workers` never takes the trust or fitter lock.
#[derive(Debug, Clone)]
pub struct TrustView {
    /// Per-worker rows, ascending by worker id.
    pub workers: Vec<WorkerStatus>,
    /// The quarantine decision set when this snapshot was published.
    pub quarantine: Vec<QuarantineEntry>,
    /// The workers the published fit excluded (lags `quarantine` by at
    /// most one refresh).
    pub excluded: Vec<WorkerId>,
    /// The table's trust sequence number at publish.
    pub seq: u64,
}

/// Build the published trust view: the score report overlaid with registry
/// states, plus registry-only workers (e.g. quarantined before their first
/// answer) appended with empty evidence.
fn build_trust_view(
    report: Vec<WorkerTrust>,
    states: &BTreeMap<WorkerId, TrustEntry>,
    quarantine: Vec<QuarantineEntry>,
    excluded: Vec<WorkerId>,
    seq: u64,
) -> TrustView {
    let mut workers: Vec<WorkerStatus> = report
        .into_iter()
        .map(|t| {
            let e = states.get(&t.worker);
            WorkerStatus {
                state: e.map_or(TrustState::Trusted, |e| e.state),
                manual: e.is_some_and(|e| e.manual),
                trust: t,
            }
        })
        .collect();
    for (&w, e) in states {
        if !workers.iter().any(|s| s.trust.worker == w) {
            workers.push(WorkerStatus {
                trust: WorkerTrust {
                    worker: w,
                    answers: 0,
                    quality: None,
                    score: 1.0,
                    max_agreement: 0.0,
                    partner: None,
                    value_collisions: 0,
                },
                state: e.state,
                manual: e.manual,
            });
        }
    }
    workers.sort_by_key(|s| s.trust.worker);
    TrustView { workers, quarantine, excluded, seq }
}

/// Per-worker token bucket for the ingest rate limit.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// An immutable published view of one table: everything the read endpoints
/// serve, consistent at one epoch. Publishing one costs `O(Δ)` — the log
/// is structurally shared and the freeze is an `Arc`.
pub struct Snapshot {
    /// The collected answers up to [`Snapshot::epoch`], in arrival order
    /// (structurally shared with past and future snapshots).
    pub log: SharedLog,
    /// The frozen columnar store of [`Snapshot::log`].
    pub matrix: Arc<AnswerMatrix>,
    /// The inference result published with this snapshot: the EM fit at
    /// [`Snapshot::fitted_epoch`], plus the §5.1 incremental update for
    /// each catch-up answer.
    pub result: InferenceResult,
    /// The structure-aware correlation model fitted from this freeze + fit
    /// (a pure function of the two, cached here so assignment requests stop
    /// re-fitting it per call).
    pub correlation: CorrelationModel,
    /// Number of log answers this snapshot covers.
    pub epoch: usize,
    /// Number of log answers the EM fit itself covered (the catch-up merge
    /// extends the snapshot past it: `epoch − fitted_epoch =`
    /// [`Snapshot::catchup_merged`]).
    pub fitted_epoch: usize,
    /// Answers that arrived mid-fit and were folded in by the catch-up
    /// merge (0 at every quiescent refresh — then the published state is
    /// exactly the cold fit of the log).
    pub catchup_merged: usize,
    /// Wall-clock of the out-of-lock work (merge + EM + catch-up) that
    /// produced this snapshot, in milliseconds (0 for the initial publish).
    pub last_refit_ms: f64,
    /// How many refreshes this table has published (0 = the initial empty
    /// fit).
    pub refreshes: u64,
    /// When this snapshot was published.
    pub published_at: Instant,
    /// The trust report published with this snapshot (worker scores,
    /// states, and the exclusion set the fit ran under).
    pub trust: Arc<TrustView>,
}

/// The store-snapshot chain position of a durable table: what the next
/// incremental write chains from.
#[derive(Debug, Clone, Copy)]
struct SnapChain {
    /// Whether a full base snapshot exists on disk.
    has_base: bool,
    /// Epoch the chain (base + links) covers.
    epoch: u64,
    /// [`Snapshot::refreshes`] of the publish the chain tip persists: a
    /// refresh can republish at an unchanged epoch with a different fit
    /// (after a quarantine change, or the settling refit after a catch-up
    /// publish), and that fit must reach the chain too.
    refreshes: u64,
    /// Delta links on top of the base.
    links: u64,
    /// Next free delta sequence number.
    next_seq: u64,
    /// Answers in the base snapshot.
    base_answers: u64,
    /// Answers across the chain's links.
    chain_answers: u64,
    /// Force the next write to collapse into a full base (set when recovery
    /// found a broken chain — the orphan links get cleaned up with it).
    force_full: bool,
}

impl SnapChain {
    fn fresh() -> SnapChain {
        SnapChain {
            has_base: false,
            epoch: 0,
            refreshes: 0,
            links: 0,
            next_seq: 1,
            base_answers: 0,
            chain_answers: 0,
            force_full: false,
        }
    }

    /// The chain recovery found, which the recovered table's initial
    /// snapshot (publish count 0) republishes.
    fn from_recovery(info: &ChainInfo, epoch: u64) -> SnapChain {
        SnapChain {
            has_base: true,
            epoch,
            refreshes: 0,
            links: info.links,
            next_seq: info.max_seq_on_disk + 1,
            base_answers: info.base_answers,
            chain_answers: info.chain_answers,
            force_full: info.broken.is_some(),
        }
    }
}

/// The durable half of a table: its open WAL (shared with the per-table
/// commit thread), its snapshot directory, the metadata the store
/// persists, and the incremental-snapshot chain position.
///
/// Lock order: the ingest `Mutex` is always taken before the `wal` mutex
/// by direct appenders (quarantine records,
/// tombstones, the rebuild path); the commit thread takes the WAL mutex
/// *alone* and its sink takes the ingest mutex *alone* — neither nests,
/// so the commit thread can never deadlock against a direct appender.
/// The chain mutex is leaf-level (nothing else is acquired under it).
pub struct Durability {
    wal: Arc<Mutex<Wal>>,
    dir: PathBuf,
    meta: TableMeta,
    chain: Mutex<SnapChain>,
    /// The commit thread coalescing concurrent `submit` batches into one
    /// `write+fsync` each ([`GroupCommit`]). `None` until
    /// [`Durability::start_committer`] runs in `spawn`, and again after
    /// [`Durability::shutdown_committer`] on the deletion path.
    committer: Mutex<Option<Arc<GroupCommit>>>,
    /// The commit thread's durable watermark: the WAL position whose
    /// answers are both committed and in the in-memory log. Snapshots pin
    /// to this instead of syncing the WAL under the ingest lock.
    mark: DurableMark,
    /// The store's I/O handle, kept so snapshot writes and the WAL-rebuild
    /// repair path go through the same (possibly fault-injected) layer the
    /// WAL does.
    io: IoHandle,
}

impl Durability {
    /// Wrap a freshly-created WAL (no snapshot on disk yet — the first
    /// persisted snapshot writes a full base). `io` must be the handle of
    /// the store that created the WAL.
    pub fn new(wal: Wal, dir: PathBuf, meta: TableMeta, io: IoHandle) -> Durability {
        Durability::recovered(wal, dir, meta, SnapChain::fresh(), io)
    }

    fn recovered(
        wal: Wal,
        dir: PathBuf,
        meta: TableMeta,
        chain: SnapChain,
        io: IoHandle,
    ) -> Durability {
        let mark = DurableMark::starting_at(wal.position());
        Durability {
            wal: Arc::new(Mutex::new(wal)),
            dir,
            meta,
            chain: Mutex::new(chain),
            committer: Mutex::new(None),
            mark,
            io,
        }
    }

    /// Start the table's commit thread: committed batches are pushed into
    /// `log` (under its lock) and the durable mark advanced before any
    /// submitter is acked. Called once from `spawn`, after the ingest log
    /// exists behind its `Arc`.
    fn start_committer(&self, log: Arc<Mutex<AnswerLog>>, obs: tcrowd_store::ObsHandle) {
        let sink = Arc::new(ServiceSink { log, mark: self.mark.clone() });
        let committer = GroupCommit::spawn(Arc::clone(&self.wal), sink, obs);
        *lock_recover(&self.committer) = Some(Arc::new(committer));
    }

    /// A clone of the live commit-thread handle, if any.
    fn committer(&self) -> Option<Arc<GroupCommit>> {
        lock_recover(&self.committer).clone()
    }

    /// Drain the submission queue, commit what is queued, and join the
    /// commit thread. After this returns no new batch can be acked — the
    /// deletion path calls it *before* appending the tombstone so the
    /// `Delete` frame is provably the last answer-bearing record.
    /// Idempotent. Must not be called with the ingest or WAL lock held
    /// (the committer takes both while draining).
    fn shutdown_committer(&self) {
        let committer = lock_recover(&self.committer).take();
        if let Some(c) = committer {
            c.shutdown();
        }
    }
}

/// The service's [`CommitSink`]: delivers each durably-committed group
/// into the in-memory log and advances the durable mark in the same
/// ingest-lock hold, so "log length == mark.answers == acked prefix" is
/// an invariant every ingest-lock holder can rely on.
struct ServiceSink {
    log: Arc<Mutex<AnswerLog>>,
    mark: DurableMark,
}

impl CommitSink for ServiceSink {
    fn committed(&self, batches: &[CommittedBatch<'_>]) {
        let mut log = lock_recover(&self.log);
        for batch in batches {
            for &a in batch.answers {
                log.push(a);
            }
        }
        if let Some(last) = batches.last() {
            self.mark.set(last.position);
        }
    }
}

/// Refresher wake/stop channel.
struct RefreshCtl {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Recover a mutex guard even when a sibling thread panicked while holding
/// the lock. Safe for every lock it is used on: the ingest log is
/// append-only (a panicked pusher leaves a valid, possibly shorter log —
/// and WAL-before-ack means nothing un-acked is served), the WAL carries
/// its own poison flag, the chain/health/ctl/refresher structs are plain
/// bookkeeping, and the fitter pipeline is re-validated via
/// `fitter_dirty`/rebuild before use.
fn lock_recover<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Initial retry backoff after a contained failure.
const BACKOFF_MIN_MS: u64 = 50;
/// Backoff ceiling: a persistently-faulty disk is probed at least this
/// often (plus jitter).
const BACKOFF_MAX_MS: u64 = 5_000;

/// The table's degradation state machine, behind a leaf-level mutex
/// (nothing else is ever acquired while it is held).
///
/// ```text
/// Healthy ──failure──▶ Degraded{reason} ──retry due──▶ Recovering
///    ▲                      ▲                              │
///    └──────── all clear ───┴────────── still failing ─────┘
/// ```
///
/// Three independent failure axes can be degraded at once; the table is
/// `Healthy` only when all are clear:
/// * `refit_broken` — the fit step panicked or failed; the last good
///   snapshot keeps being served and the pipeline is rebuilt from the
///   ingest log on the next (backed-off) attempt.
/// * `persist_pending` — a store-snapshot write failed; serving and ingest
///   continue (the WAL holds the data), persistence is re-attempted in the
///   background.
/// * `wal_broken` — the WAL refused a write/sync and poisoned itself;
///   ingest answers 503 while reads keep working, and the repair path
///   rebuilds the log from memory (exactly the acked prefix).
#[derive(Debug)]
struct HealthState {
    refit_broken: bool,
    persist_pending: bool,
    wal_broken: bool,
    /// A repair attempt is executing right now.
    recovering: bool,
    refit_failures: u64,
    persist_failures: u64,
    last_error: Option<String>,
    degraded_since: Option<Instant>,
    retry_at: Option<Instant>,
    backoff_ms: u64,
    /// splitmix64 state for backoff jitter (deterministic per seed).
    jitter: u64,
}

impl HealthState {
    fn new(seed: u64) -> HealthState {
        HealthState {
            refit_broken: false,
            persist_pending: false,
            wal_broken: false,
            recovering: false,
            refit_failures: 0,
            persist_failures: 0,
            last_error: None,
            degraded_since: None,
            retry_at: None,
            backoff_ms: 0,
            jitter: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn degraded(&self) -> bool {
        self.refit_broken || self.persist_pending || self.wal_broken
    }

    /// Exponential backoff with deterministic jitter (up to +50% of the
    /// base), so many tables degraded by one disk don't retry in lockstep.
    fn schedule_retry(&mut self) {
        self.backoff_ms = if self.backoff_ms == 0 {
            BACKOFF_MIN_MS
        } else {
            (self.backoff_ms * 2).min(BACKOFF_MAX_MS)
        };
        self.jitter = self.jitter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let jitter_ms = (z ^ (z >> 31)) % (self.backoff_ms / 2 + 1);
        self.retry_at = Some(Instant::now() + Duration::from_millis(self.backoff_ms + jitter_ms));
    }

    fn note_failure(&mut self, error: String) {
        self.last_error = Some(error);
        if self.degraded_since.is_none() {
            self.degraded_since = Some(Instant::now());
        }
        self.schedule_retry();
    }

    /// Clear the shared degradation bookkeeping once every axis is clear
    /// (`last_error` stays — it reports the most recent problem even after
    /// recovery).
    fn settle(&mut self) {
        if !self.degraded() {
            self.degraded_since = None;
            self.retry_at = None;
            self.backoff_ms = 0;
        }
    }
}

/// A point-in-time, lock-free copy of a table's health for `/stats` and
/// `/healthz`.
#[derive(Debug, Clone)]
pub struct HealthView {
    /// `"healthy"`, `"degraded"` or `"recovering"`.
    pub health: &'static str,
    /// Why the table is degraded (`None` when healthy).
    pub reason: Option<String>,
    /// Milliseconds spent in the current degraded episode.
    pub degraded_since_ms: Option<u64>,
    /// Refit panics/failures contained since creation.
    pub refit_failures: u64,
    /// Store-snapshot persist failures since creation.
    pub persist_failures: u64,
    /// The most recent contained error (sticky across recovery).
    pub last_error: Option<String>,
    /// Milliseconds until the next repair attempt (0 = due now).
    pub retry_after_ms: Option<u64>,
}

/// The fit half of a table: the evolving [`FitState`] plus the
/// arrival-order [`SharedLog`] mirror at the same epoch. Lives behind the
/// fitter mutex — held across EM, never while the ingest lock is wanted by
/// `submit`.
struct FitPipeline {
    fit: FitState,
    shared: SharedLog,
}

impl FitPipeline {
    fn absorb(&mut self, slice: &tcrowd_tabular::LogSlice) {
        self.fit.absorb(slice);
        self.shared.append(slice);
    }

    fn catch_up(&mut self, slice: &tcrowd_tabular::LogSlice) {
        self.fit.catch_up(slice);
        self.shared.append(slice);
    }
}

/// One hosted table.
pub struct TableState {
    /// Table id (registry key).
    pub id: String,
    /// The table schema.
    pub schema: Schema,
    /// Service configuration.
    pub config: TableConfig,
    rows: usize,
    /// The mutate state: the committed answer order. On a durable table
    /// only the commit thread's [`ServiceSink`] pushes here (in WAL
    /// order); memory-only tables push directly from `submit`. Either
    /// way every mutation is `O(batch)` under this lock.
    ingest: Arc<Mutex<AnswerLog>>,
    /// The fit state: evolving freeze + result + shared-log mirror.
    /// Serialises refreshes; EM runs under it with the ingest lock free.
    fitter: Mutex<FitPipeline>,
    published: RwLock<Arc<Snapshot>>,
    ingested: AtomicU64,
    /// Deletion tombstone: set by the registry before the refresher is
    /// joined, checked before every publish and store-snapshot write.
    deleted: AtomicBool,
    durability: Option<Durability>,
    ctl: Arc<RefreshCtl>,
    refresher: Mutex<Option<std::thread::JoinHandle<()>>>,
    created_at: Instant,
    /// Degradation state machine (leaf lock — see [`HealthState`]).
    health: Mutex<HealthState>,
    /// Set when a caught panic may have left the fitter pipeline
    /// inconsistent; the next refresh rebuilds it from the ingest log
    /// before touching it.
    fitter_dirty: AtomicBool,
    /// Chaos hook: the next N fit steps panic (contained by the refresh
    /// path's `catch_unwind`).
    refit_panic_budget: AtomicU64,
    /// Worker trust registry (see [`TrustRegistry`] for the lock-order
    /// contract with the WAL mutex).
    trust: Mutex<TrustRegistry>,
    /// Bumped on every trust-state or quarantine-set change.
    trust_seq: AtomicU64,
    /// Batches refused by the per-worker ingest rate limit.
    rate_limited: AtomicU64,
    /// Per-worker token buckets (leaf lock; only `submit` touches it).
    buckets: Mutex<HashMap<u32, Bucket>>,
    /// Per-table metrics and the lifecycle event ring ([`crate::obs`]).
    obs: Arc<TableObs>,
}

impl TableState {
    /// Create a table (empty log, initial fit published) and start its
    /// refresher thread. `durability` carries the freshly-created WAL for
    /// durable tables, `None` keeps the table memory-only.
    pub fn create(
        id: String,
        schema: Schema,
        rows: usize,
        config: TableConfig,
        durability: Option<Durability>,
    ) -> Arc<TableState> {
        let obs = TableObs::standalone(&id);
        Self::create_with_obs(id, schema, rows, config, durability, obs)
    }

    /// [`TableState::create`] with an externally-registered observability
    /// bundle (the registry path, so the table's series appear in the
    /// shared `/metrics` registry).
    pub fn create_with_obs(
        id: String,
        schema: Schema,
        rows: usize,
        config: TableConfig,
        durability: Option<Durability>,
        obs: Arc<TableObs>,
    ) -> Arc<TableState> {
        let log = AnswerLog::new(rows, schema.num_columns());
        let fit = FitState::empty(TCrowd::default_full(), schema.clone(), rows);
        Self::spawn(id, schema, rows, config, log, fit, durability, Vec::new(), obs)
    }

    /// Resurrect a table from its recovered durable state: the WAL-replayed
    /// log, and — when a snapshot chain survived — the persisted fit
    /// parameters.
    ///
    /// Three cases, strongest first:
    ///
    /// 1. **Chain covers the whole log** (the steady state — a snapshot
    ///    delta follows every publish, including a republish at an
    ///    unchanged epoch): the pre-crash *published* state is republished
    ///    verbatim via [`Seed::Evaluate`] — one E-step at the stored
    ///    parameters, **no EM**. Recovered served truth ≡ pre-crash served
    ///    truth ≡ offline `TCrowd::infer` on the log, to float rounding.
    ///    Stored parameters fitted over other workers than the recovered
    ///    quarantine set leaves (a quarantine record newer than the stored
    ///    fit) take a cold fit instead.
    /// 2. **A WAL tail extends past the chain**: the same refit the
    ///    refresher would have run for those pending answers — cold by
    ///    default (published state stays a pure function of the log),
    ///    warm-seeded from the chain's fit when the table is configured
    ///    with `warm_refits`.
    /// 3. **No usable snapshot**: a cold fit of the replayed log.
    pub fn recover(
        rec: Recovered,
        config: TableConfig,
        io: IoHandle,
        obs: Arc<TableObs>,
    ) -> Arc<TableState> {
        let Recovered {
            id,
            meta,
            log,
            fit,
            wal,
            replayed_tail,
            snapshot_epoch,
            chain,
            quarantine,
            ..
        } = rec;
        let schema = meta.schema.clone();
        let rows = meta.rows;
        // A recovered quarantine set means the persisted fit parameters were
        // computed over the *filtered* matrix: the first fit runs over the
        // same filtered view, while the freeze keeps covering the full log
        // (exclusion is a property of the fit, never the data).
        let excluded: Vec<WorkerId> = quarantine.iter().map(|q| q.worker).collect();
        let seed = match &fit {
            Some(params) if replayed_tail == 0 => Seed::Evaluate(params),
            Some(params) if config.warm_refits => Seed::Warm(params),
            _ => Seed::Cold,
        };
        let fit_state =
            FitState::new(TCrowd::default_full(), schema.clone(), log.to_matrix(), excluded, seed);
        let wal = wal.expect("recovered live table carries an open WAL");
        let dir = wal.path().parent().expect("wal lives in a table dir").to_path_buf();
        // Seed the chain position from the on-disk chain: the follow-up
        // persist_store_snapshot then appends one O(tail) delta for the
        // replayed tail (or is a no-op when the chain already covers
        // everything) instead of rewriting a byte-identical full snapshot
        // on every restart.
        let chain_state = match &chain {
            Some(info) => SnapChain::from_recovery(info, snapshot_epoch.unwrap_or(0)),
            None => SnapChain::fresh(),
        };
        let durability = Durability::recovered(wal, dir, meta, chain_state, io);
        let table = Self::spawn(
            id,
            schema,
            rows,
            config,
            log,
            fit_state,
            Some(durability),
            quarantine,
            obs,
        );
        // Persist right away: the recovery fit is exactly what a next crash
        // would want to seed from, and it re-establishes the fast path when
        // a tail was replayed.
        table.persist_store_snapshot();
        table
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn(
        id: String,
        schema: Schema,
        rows: usize,
        config: TableConfig,
        log: AnswerLog,
        fit: FitState,
        durability: Option<Durability>,
        quarantine: Vec<QuarantineEntry>,
        obs: Arc<TableObs>,
    ) -> Arc<TableState> {
        assert_eq!(fit.epoch(), log.len(), "fit state must cover the adopted log");
        let correlation = CorrelationModel::fit_matrix(&schema, fit.matrix(), fit.result());
        let ingested = log.len() as u64;
        let shared = SharedLog::from_log(&log);
        let mut states = BTreeMap::new();
        for q in &quarantine {
            states
                .insert(q.worker, TrustEntry { state: TrustState::Quarantined, manual: q.manual });
        }
        let report = score_workers(fit.result(), fit.matrix(), &config.trust);
        let trust_view = Arc::new(build_trust_view(
            report,
            &states,
            quarantine.clone(),
            fit.exclusions().to_vec(),
            0,
        ));
        let snapshot = Arc::new(Snapshot {
            log: shared.clone(),
            matrix: fit.matrix_arc(),
            result: fit.result().clone(),
            correlation,
            epoch: log.len(),
            fitted_epoch: log.len(),
            catchup_merged: 0,
            last_refit_ms: 0.0,
            refreshes: 0,
            published_at: Instant::now(),
            trust: trust_view,
        });
        let seed = config.seed;
        let ingest = Arc::new(Mutex::new(log));
        // Route WAL append/fsync timings into this table's histograms, seed
        // the gauges `/healthz` and `/metrics` read before the first
        // transition or publish, and start the commit thread — it needs the
        // ingest log behind its `Arc`, which only exists from here on.
        if let Some(d) = &durability {
            lock_recover(&d.wal).set_obs(obs.store_sink());
            d.start_committer(Arc::clone(&ingest), obs.store_sink());
            obs.store_sink().wal_segments(count_segments(&d.dir));
        }
        obs.set_health(HEALTH_HEALTHY);
        obs.set_trust(0, quarantine.len(), 0);
        let table = Arc::new(TableState {
            id,
            schema,
            config,
            rows,
            ingest,
            fitter: Mutex::new(FitPipeline { fit, shared }),
            published: RwLock::new(snapshot),
            ingested: AtomicU64::new(ingested),
            deleted: AtomicBool::new(false),
            durability,
            ctl: Arc::new(RefreshCtl { stop: Mutex::new(false), wake: Condvar::new() }),
            refresher: Mutex::new(None),
            created_at: Instant::now(),
            health: Mutex::new(HealthState::new(seed)),
            fitter_dirty: AtomicBool::new(false),
            refit_panic_budget: AtomicU64::new(0),
            trust: Mutex::new(TrustRegistry { states, persisted: quarantine }),
            trust_seq: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
            obs,
        });
        let weak: Weak<TableState> = Arc::downgrade(&table);
        let ctl = Arc::clone(&table.ctl);
        let interval = table.config.refresh_interval;
        // The refresher must be unkillable by a sibling panic: every lock
        // here recovers from poisoning (the stop flag is a plain bool — a
        // poisoned guard is still a valid bool), and the tick body contains
        // its own failures, so one panicked request thread can never strand
        // a table without its refresher.
        let handle = std::thread::spawn(move || loop {
            {
                let guard = lock_recover(&ctl.stop);
                if *guard {
                    return;
                }
                // Only sleep while below the wake threshold: a notify_one
                // that fires while a refresh is running (not while we wait)
                // would otherwise be lost and the burst would sit for a full
                // interval.
                let over_threshold = match weak.upgrade() {
                    Some(t) => t.pending() >= t.config.refit_every,
                    None => return,
                };
                if !over_threshold {
                    let guard = match ctl.wake.wait_timeout(guard, interval) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                    if *guard {
                        return;
                    }
                }
            }
            let Some(table) = weak.upgrade() else { return };
            table.tick();
        });
        *lock_recover(&table.refresher) = Some(handle);
        table
    }

    /// Number of table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of table columns.
    pub fn cols(&self) -> usize {
        self.schema.num_columns()
    }

    /// Total answers accepted since creation (including recovered ones).
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::SeqCst)
    }

    /// Answers accepted but not yet covered by the published snapshot (the
    /// refresh lag: log epoch − published epoch).
    pub fn pending(&self) -> usize {
        (self.ingested() as usize).saturating_sub(self.snapshot().epoch)
    }

    /// Whether a refresh would change the published state: answers are
    /// pending, the last publish folded in mid-fit arrivals incrementally
    /// and a settling refit would make it exact again, or the quarantine
    /// decision set has moved past the exclusions the published fit used.
    pub fn needs_refresh(&self) -> bool {
        self.pending() > 0 || self.snapshot().catchup_merged > 0 || self.trust_pending()
    }

    /// Whether the published fit's exclusion set lags the current
    /// quarantine decisions (a refresh closes the gap).
    fn trust_pending(&self) -> bool {
        let quarantined: Vec<WorkerId> =
            self.quarantine_entries().iter().map(|q| q.worker).collect();
        quarantined != self.snapshot().trust.excluded
    }

    /// Monotonic counter bumped on every trust-state or quarantine-set
    /// change (manual or automatic).
    pub fn trust_seq(&self) -> u64 {
        self.trust_seq.load(Ordering::SeqCst)
    }

    /// Batches refused by the per-worker ingest rate limit since creation.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::SeqCst)
    }

    /// The current quarantine decision set (sorted by worker id).
    pub fn quarantine_entries(&self) -> Vec<QuarantineEntry> {
        quarantined_set(&lock_recover(&self.trust).states)
    }

    /// Manually quarantine (`quarantined = true`, pinned against
    /// auto-release) or release `worker`. The decision is appended to the
    /// WAL as a full-replacement quarantine record **before** it takes
    /// effect — a trust decision that silently reverted on crash would be
    /// worse than none — and reaches inference at the next refresh (the
    /// refresher is woken; `POST …/refresh` forces it synchronously).
    /// Returns the worker's new trust state.
    pub fn set_worker_quarantine(
        &self,
        worker: WorkerId,
        quarantined: bool,
    ) -> Result<TrustState, String> {
        let mut reg = lock_recover(&self.trust);
        let prev = reg.states.get(&worker).copied();
        if quarantined {
            reg.states.insert(worker, TrustEntry { state: TrustState::Quarantined, manual: true });
        } else {
            reg.states.remove(&worker);
        }
        let set = quarantined_set(&reg.states);
        if set != reg.persisted {
            if let Err(e) = self.append_quarantine_record(&set) {
                // Roll back: the in-memory decision must not outrun the WAL.
                match prev {
                    Some(p) => {
                        reg.states.insert(worker, p);
                    }
                    None => {
                        reg.states.remove(&worker);
                    }
                }
                drop(reg);
                self.record_wal_failure(format!("quarantine record append failed: {e}"));
                return Err(format!("storage: quarantine record append failed: {e}"));
            }
            reg.persisted = set;
        }
        drop(reg);
        self.trust_seq.fetch_add(1, Ordering::SeqCst);
        self.obs.event(
            "quarantine",
            format!(
                "worker {} {} (manual)",
                worker.0,
                if quarantined { "quarantined" } else { "released" }
            ),
            None,
        );
        // Wake the refresher so the decision reaches the fit promptly.
        let _guard = lock_recover(&self.ctl.stop);
        self.ctl.wake.notify_one();
        Ok(if quarantined { TrustState::Quarantined } else { TrustState::Trusted })
    }

    /// Durably append the full-replacement quarantine record (no-op for
    /// memory-only tables). Callers hold the trust lock — the documented
    /// trust → wal order.
    fn append_quarantine_record(&self, set: &[QuarantineEntry]) -> Result<(), String> {
        let Some(d) = &self.durability else { return Ok(()) };
        let mut wal = lock_recover(&d.wal);
        wal.append_quarantine(set).map(|_| ()).map_err(|e| e.to_string())
    }

    /// Whether this table persists to a WAL.
    pub fn durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Group-commit coalescing counters (`None` for memory-only tables or
    /// after the commit thread shut down on the deletion path).
    pub fn commit_stats(&self) -> Option<CommitStatsView> {
        self.durability.as_ref().and_then(|d| d.committer().map(|c| c.stats()))
    }

    /// Live WAL segments on disk (`None` for memory-only tables).
    pub fn wal_segments(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| count_segments(&d.dir))
    }

    /// Drain, commit, and join the commit thread (idempotent; no-op for
    /// memory-only tables). The registry calls this on shutdown so queued
    /// batches are on disk before the process exits.
    pub fn shutdown_committer(&self) {
        if let Some(d) = &self.durability {
            d.shutdown_committer();
        }
    }

    /// Epoch of the store-snapshot chain written for this table (`None` for
    /// memory-only tables, `Some(0)` before the first write).
    pub fn last_store_snapshot_epoch(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| lock_recover(&d.chain).epoch)
    }

    /// Incremental links in the store-snapshot chain (`None` for
    /// memory-only tables, `Some(0)` right after a full base write).
    pub fn store_snapshot_links(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| lock_recover(&d.chain).links)
    }

    /// Whether the deletion tombstone is set.
    pub fn is_deleted(&self) -> bool {
        self.deleted.load(Ordering::SeqCst)
    }

    /// Set the deletion tombstone: no snapshot (in-memory or on-disk) will
    /// be published from this point on, even by a refresh already running.
    pub fn mark_deleted(&self) {
        self.deleted.store(true, Ordering::SeqCst);
    }

    /// Durably append the deletion tombstone to the WAL (no-op for
    /// memory-only tables). Call after [`Self::mark_deleted`]. Shuts the
    /// commit thread down first — that drains and commits every batch
    /// already queued and refuses anything submitted later, so no
    /// acknowledged batch can ever sit *after* the Delete frame in the
    /// WAL. Must not be called with the ingest or WAL lock held (the
    /// drain takes both).
    pub(crate) fn append_tombstone(&self) -> Result<(), String> {
        if let Some(d) = &self.durability {
            d.shutdown_committer();
            let _log = lock_recover(&self.ingest);
            let mut wal = lock_recover(&d.wal);
            wal.append_delete().map_err(|e| format!("tombstone append failed: {e}"))?;
        }
        Ok(())
    }

    /// The current published snapshot (cheap: one `Arc` clone). Recovers
    /// from lock poisoning: the slot always holds a complete `Arc` (it is
    /// only ever replaced whole), so the last good snapshot stays servable
    /// no matter which thread panicked.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Validate and ingest a batch of answers. The whole batch is rejected
    /// (nothing ingested) if any answer is malformed, so callers can safely
    /// retry verbatim. On durable tables the batch is handed to the table's
    /// commit thread, which coalesces concurrent batches into one
    /// `write+fsync` and applies them to the in-memory log — in WAL order,
    /// under the ingest lock — **before** this call returns, so WAL order ≡
    /// memory order and recovery replays exactly the acknowledged sequence.
    /// The submitter parks on its commit ticket holding **no** lock; no
    /// request thread ever holds a lock across an fsync. Returns the number
    /// accepted.
    pub fn submit(&self, answers: &[Answer]) -> Result<usize, String> {
        self.submit_traced(answers, None)
    }

    /// [`TableState::submit`] carrying the originating request's
    /// correlation id, so the traced `ingest_committed` event links back to
    /// the HTTP request that caused it.
    pub fn submit_traced(
        &self,
        answers: &[Answer],
        request_id: Option<&str>,
    ) -> Result<usize, String> {
        for (i, a) in answers.iter().enumerate() {
            if a.cell.row as usize >= self.rows || a.cell.col as usize >= self.cols() {
                return Err(format!(
                    "answer {i}: cell ({}, {}) outside the {}x{} table",
                    a.cell.row,
                    a.cell.col,
                    self.rows,
                    self.cols()
                ));
            }
            if !self.schema.column_type(a.cell.col as usize).accepts(&a.value) {
                return Err(format!(
                    "answer {i}: value does not match column {} ({})",
                    a.cell.col, self.schema.columns[a.cell.col as usize].name
                ));
            }
        }
        if self.is_deleted() {
            return Err(format!("table '{}' was deleted", self.id));
        }
        // Nothing to commit: don't write a zero-answer WAL record (13 bytes
        // plus a flush/fsync per policy) or wake the refresher for it.
        if answers.is_empty() {
            return Ok(0);
        }
        // Backpressure: past `max_pending` answers of refresh lag, new
        // answers would only push the served snapshot further behind the
        // log — refuse (the client retries after the refresher catches up)
        // instead of letting staleness grow without bound.
        if let Some(limit) = self.config.max_pending {
            if self.pending() >= limit {
                return Err(format!(
                    "overloaded: {} pending answers at the max_pending bound of {limit}; \
                     retry after the next refresh",
                    self.pending()
                ));
            }
        }
        self.check_rate_limit(answers)?;
        match &self.durability {
            Some(d) => {
                // Group-commit path: enqueue and park on the ticket with no
                // lock held. The commit thread pushes the batch into the
                // ingest log (under the ingest lock, in WAL order) before
                // resolving the ticket, so an `Ok` here means the answers
                // are both durable and readable. The deletion path shuts
                // the committer down *before* writing its tombstone, so a
                // post-tombstone submit fails here rather than acking.
                let Some(committer) = d.committer() else {
                    return Err(format!("table '{}' was deleted", self.id));
                };
                if self.is_deleted() {
                    return Err(format!("table '{}' was deleted", self.id));
                }
                let ticket = committer
                    .submit(answers.to_vec())
                    .map_err(|e| format!("storage: WAL append failed: {e}"))?;
                if let Err(e) = ticket.wait() {
                    self.record_wal_failure(e.clone());
                    return Err(format!("storage: {e}"));
                }
            }
            None => {
                let mut log = lock_recover(&self.ingest);
                if self.is_deleted() {
                    return Err(format!("table '{}' was deleted", self.id));
                }
                for &a in answers {
                    log.push(a);
                }
            }
        }
        self.ingested.fetch_add(answers.len() as u64, Ordering::SeqCst);
        self.obs.ingest_committed(answers.len(), request_id);
        if self.pending() >= self.config.refit_every {
            // Notify while holding the refresher's mutex: this serialises
            // against the refresher's below-threshold check, so the wake
            // either lands while it waits or the re-check sees the new
            // pending count — never lost in the check→wait window.
            let _guard = lock_recover(&self.ctl.stop);
            self.ctl.wake.notify_one();
        }
        Ok(answers.len())
    }

    /// Per-worker token-bucket admission: each worker's bucket refills at
    /// `worker_rate` answers/second up to `worker_burst`. The whole batch
    /// is admitted or refused atomically (the first worker over budget
    /// names the offender); a refused batch debits nothing and costs no
    /// ingest-lock hold. Quarantine does NOT feed into this — quarantined
    /// workers' answers are still collected (and excluded at fit time), so
    /// un-quarantine stays instant and exact.
    fn check_rate_limit(&self, answers: &[Answer]) -> Result<(), String> {
        let rate = self.config.worker_rate;
        if rate <= 0.0 {
            return Ok(());
        }
        let burst = f64::from(self.config.worker_burst).max(1.0);
        let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
        for a in answers {
            *counts.entry(a.worker.0).or_insert(0.0) += 1.0;
        }
        let now = Instant::now();
        let mut buckets = lock_recover(&self.buckets);
        for (&w, &n) in &counts {
            let b = buckets.entry(w).or_insert(Bucket { tokens: burst, last: now });
            let dt = now.saturating_duration_since(b.last).as_secs_f64();
            b.tokens = (b.tokens + dt * rate).min(burst);
            b.last = now;
            if n > b.tokens + 1e-9 {
                self.rate_limited.fetch_add(1, Ordering::SeqCst);
                return Err(format!(
                    "overloaded: worker {w} exceeded the per-worker rate limit \
                     ({rate} answers/s, burst {}); retry shortly",
                    self.config.worker_burst
                ));
            }
        }
        for (&w, &n) in &counts {
            if let Some(b) = buckets.get_mut(&w) {
                b.tokens -= n;
            }
        }
        Ok(())
    }

    /// Re-fit and publish a fresh snapshot (plus, on durable tables, an
    /// incremental store snapshot). The ingest lock is held only for two
    /// `O(Δ)` tail slices; EM and the delta merges run outside it, under
    /// the fitter mutex (which serialises concurrent refreshes). No-op
    /// (returns `false`) when the published snapshot is already current or
    /// the table has been tombstoned. Runs on the refresher thread
    /// normally; `POST …/refresh` calls it synchronously.
    pub fn refresh_now(&self) -> bool {
        let mut pipe = match self.fitter.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // A sibling panicked under the fitter lock (without the
                // refresh path's containment — e.g. an OOM-adjacent abort
                // path): its half-mutated pipeline cannot be trusted.
                self.fitter_dirty.store(true, Ordering::SeqCst);
                poisoned.into_inner()
            }
        };
        if self.fitter_dirty.swap(false, Ordering::SeqCst) {
            // Rebuild from the system of record: an empty pipeline whose
            // next absorb covers the whole ingest log (one cold fit — the
            // same work a fresh recovery would do). The exclusion set is
            // re-seeded from the trust registry so the rebuilt fit filters
            // from its first refit.
            pipe.fit = FitState::empty(TCrowd::default_full(), self.schema.clone(), self.rows);
            pipe.fit.set_exclusions(self.quarantine_entries().iter().map(|q| q.worker).collect());
            pipe.shared = SharedLog::from_log(&AnswerLog::new(self.rows, self.cols()));
        }
        // Phase 1 (brief ingest lock): slice the tail since the fit epoch.
        let tail = {
            let log = lock_recover(&self.ingest);
            log.slice_since(pipe.fit.epoch())
        };
        if tail.is_empty() {
            let snap = self.snapshot();
            let trust_dirty = {
                let q: Vec<WorkerId> = self.quarantine_entries().iter().map(|e| e.worker).collect();
                q.as_slice() != pipe.fit.exclusions()
            };
            // Nothing new AND the published state is already the exact fit
            // of its epoch (no catch-up answers folded in incrementally, no
            // quarantine decision waiting to be applied): a refresh would
            // republish the same state.
            if snap.epoch == pipe.fit.epoch() && snap.catchup_merged == 0 && !trust_dirty {
                self.note_refit_success();
                return false;
            }
        }
        // Phase 2 (no ingest lock): delta-merge + EM while ingestion flows.
        // Contained: a panic here (EM numerical edge, injected chaos) marks
        // the pipeline dirty and degrades the table instead of killing the
        // refresher and poisoning the fitter for everyone else. The guard
        // itself outlives the catch, so the mutex is NOT poisoned by a
        // caught panic.
        self.obs.event(
            "refit_started",
            format!("epoch {} (+{} pending)", pipe.fit.epoch(), tail.len()),
            None,
        );
        let t0 = Instant::now();
        let fit_attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.maybe_inject_refit_panic();
            pipe.absorb(&tail);
            pipe.fit.refit(self.config.warm_refits);
            self.apply_trust(&mut pipe)
        }));
        let trust_report = match fit_attempt {
            Ok(report) => report,
            Err(payload) => {
                self.fitter_dirty.store(true, Ordering::SeqCst);
                self.obs.event("refit_panicked", panic_message(&payload), None);
                self.record_refit_failure(format!("refit panicked: {}", panic_message(&payload)));
                return false;
            }
        };
        let fitted_epoch = pipe.fit.epoch();
        // Phase 3 (brief ingest lock): catch-up slice for answers that
        // arrived mid-fit, plus the durable watermark matching the final
        // epoch — read in the same lock hold, so the (epoch, offset) pair
        // is exact. The mark is maintained by the commit thread's sink
        // under this very lock, so no WAL I/O happens here at all.
        let (catch, wal_pos) = {
            let log = lock_recover(&self.ingest);
            let catch = log.slice_since(pipe.fit.epoch());
            let wal_pos = self.durability.as_ref().map(|d| d.mark.get());
            if let Some(pos) = wal_pos {
                debug_assert_eq!(pos.answers as usize, log.len());
            }
            (catch, wal_pos)
        };
        // Make the marked bytes at least as durable as the snapshot that
        // will refer to them — under the WAL lock alone, with ingestion
        // flowing (under `fsync=always` this fsync finds nothing new).
        let wal_pos = wal_pos.and_then(|pos| {
            let d = self.durability.as_ref().expect("wal_pos implies durability");
            let sync = {
                let mut wal = lock_recover(&d.wal);
                wal.sync()
            };
            match sync {
                Ok(()) => Some(pos),
                Err(e) => {
                    // The publish still proceeds (readers get the fresh
                    // snapshot); only the store persist is skipped — its
                    // offset could point past the durable prefix.
                    self.record_wal_failure(format!("WAL sync failed: {e}"));
                    None
                }
            }
        });
        // Catch-up merge, again outside the ingest lock: O(Δ') freeze merge
        // plus the §5.1 incremental posterior update per answer.
        let catchup_merged = catch.len();
        let finish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipe.catch_up(&catch);
            let correlation =
                CorrelationModel::fit_matrix(&self.schema, pipe.fit.matrix(), pipe.fit.result());
            (pipe.fit.epoch(), pipe.fit.matrix_arc(), pipe.fit.result().clone(), correlation)
        }));
        let (epoch, matrix, result, correlation) = match finish {
            Ok(parts) => parts,
            Err(payload) => {
                self.fitter_dirty.store(true, Ordering::SeqCst);
                self.obs.event("refit_panicked", panic_message(&payload), None);
                self.record_refit_failure(format!(
                    "catch-up merge panicked: {}",
                    panic_message(&payload)
                ));
                return false;
            }
        };
        let last_refit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let em_timings = result.timings;
        let trust_view = {
            let reg = lock_recover(&self.trust);
            Arc::new(build_trust_view(
                trust_report,
                &reg.states,
                quarantined_set(&reg.states),
                pipe.fit.exclusions().to_vec(),
                self.trust_seq.load(Ordering::SeqCst),
            ))
        };
        let snapshot = Snapshot {
            log: pipe.shared.clone(),
            matrix,
            result,
            correlation,
            epoch,
            fitted_epoch,
            catchup_merged,
            last_refit_ms,
            refreshes: self.snapshot().refreshes + 1,
            published_at: Instant::now(),
            trust: trust_view,
        };
        // Tombstone guard: a refresh that was mid-refit when the table was
        // removed must not publish a snapshot for a dead table.
        if self.is_deleted() {
            return false;
        }
        let published = {
            let mut slot = self.published.write().unwrap_or_else(|p| p.into_inner());
            // Refreshes are serialised by the fitter mutex, so the epoch can
            // only advance; keep the guard anyway — never replace a newer
            // snapshot with an older one.
            if snapshot.epoch >= slot.epoch {
                *slot = Arc::new(snapshot);
                true
            } else {
                false
            }
        };
        self.note_refit_success();
        if published {
            self.obs.observe_refit((last_refit_ms * 1e6) as u64, &em_timings);
            let snap = self.snapshot();
            let suspects =
                snap.trust.workers.iter().filter(|s| s.state == TrustState::Suspect).count();
            self.obs.set_trust(suspects, snap.trust.quarantine.len(), snap.trust.seq);
            self.obs.event(
                "refit_published",
                format!("epoch {epoch} (fitted {fitted_epoch}, catch-up {catchup_merged})"),
                None,
            );
            if let Some(pos) = wal_pos {
                self.write_store_snapshot(pos);
            }
        }
        true
    }

    /// Score every worker from the just-refit result, advance the
    /// hysteresis state machine (when `trust_auto` is on — manual pins are
    /// never auto-released), and apply the resulting quarantine set to the
    /// fit: when the set changed, one bounded extra refit over the filtered
    /// freeze runs so the published result never mixes quarantined workers
    /// in. A changed set is durably appended to the WAL (full-replacement
    /// record) before it is considered persisted; an append failure keeps
    /// the in-memory decision (safety first — the workers stay excluded)
    /// and degrades the table so the repair path re-persists it. Runs under
    /// the fitter lock, inside the refresh path's panic containment.
    /// Returns the score report for the published trust view.
    fn apply_trust(&self, pipe: &mut FitPipeline) -> Vec<WorkerTrust> {
        let mut report = score_workers(pipe.fit.result(), pipe.fit.matrix(), &self.config.trust);
        let mut reg = lock_recover(&self.trust);
        if self.config.trust_auto {
            for t in &report {
                let entry = reg
                    .states
                    .entry(t.worker)
                    .or_insert(TrustEntry { state: TrustState::Trusted, manual: false });
                if entry.manual {
                    continue;
                }
                let next = advance(entry.state, t, &self.config.trust);
                if next != entry.state {
                    self.obs.event(
                        "trust",
                        format!("worker {} {:?} -> {next:?} (auto)", t.worker.0, entry.state),
                        None,
                    );
                    entry.state = next;
                    self.trust_seq.fetch_add(1, Ordering::SeqCst);
                }
            }
            reg.states.retain(|_, e| e.manual || e.state != TrustState::Trusted);
        }
        let set = quarantined_set(&reg.states);
        if set != reg.persisted {
            match self.append_quarantine_record(&set) {
                Ok(()) => reg.persisted = set.clone(),
                Err(e) => self.record_wal_failure(format!("quarantine record append failed: {e}")),
            }
        }
        drop(reg);
        let excluded: Vec<WorkerId> = set.iter().map(|q| q.worker).collect();
        if pipe.fit.set_exclusions(excluded) {
            self.trust_seq.fetch_add(1, Ordering::SeqCst);
            pipe.fit.refit(self.config.warm_refits);
            // Re-score over the filtered fit so the published report agrees
            // with the published result (quarantined workers show shadow
            // scores, not stale fitted qualities). States advanced above
            // from the pre-change fit and are not re-advanced here.
            report = score_workers(pipe.fit.result(), pipe.fit.matrix(), &self.config.trust);
        }
        report
    }

    /// Persist the current published snapshot to the store, pinned to the
    /// commit thread's durable watermark (synced first, under the WAL lock
    /// alone — never under ingest). Used by recovery and shutdown to
    /// re-establish the snapshot fast path.
    pub fn persist_store_snapshot(&self) {
        let Some(d) = &self.durability else { return };
        let pos = {
            let log = lock_recover(&self.ingest);
            let pos = d.mark.get();
            debug_assert_eq!(pos.answers as usize, log.len());
            pos
        };
        let sync = {
            let mut wal = lock_recover(&d.wal);
            wal.sync()
        };
        match sync {
            Ok(()) => self.write_store_snapshot(pos),
            Err(e) => self.record_wal_failure(format!("WAL sync failed: {e}")),
        }
    }

    /// Write the published snapshot to disk if it advances the persisted
    /// chain and matches `pos` — as an `O(Δ)` chain delta normally, as a
    /// full base when the chain is new, broken, or due for collapse.
    /// Failures degrade the table (`persist_failures` + background
    /// re-attempt), never stop serving: the store snapshot is a recovery
    /// accelerator, the WAL already holds the data.
    fn write_store_snapshot(&self, pos: WalPosition) {
        let Some(d) = &self.durability else { return };
        if self.is_deleted() {
            return;
        }
        let snap = self.snapshot();
        if snap.epoch as u64 != pos.answers {
            // A racing persist captured a different epoch; the call whose
            // position matches its snapshot will write the pair.
            return;
        }
        // The chain mutex serialises check → write → advance, so a slower
        // writer can never chain a delta from (or rename a base over) a
        // position the faster one already superseded.
        let mut chain = lock_recover(&d.chain);
        // Already persisted (possibly by the background re-attempt) when the
        // chain tip is this publish or a later one. A republish at the same
        // epoch appends a zero-answer delta carrying its fit and quarantine
        // set; recovery and shutdown publish nothing, so a restart never
        // grows the chain. At epoch 0 a broken chain still collapses.
        let persisted = (chain.epoch, chain.refreshes) >= (snap.epoch as u64, snap.refreshes);
        if chain.has_base && persisted && !(snap.epoch == 0 && chain.force_full) {
            drop(chain);
            self.note_persist_success();
            return;
        }
        let delta_answers = snap.epoch as u64 - chain.epoch;
        let fit = Some(FitParams::of(&snap.result));
        let collapse =
            !chain.has_base || chain.force_full || chain.links + 1 > SNAPSHOT_CHAIN_MAX_LINKS || {
                let grown = chain.chain_answers + delta_answers;
                grown >= SNAPSHOT_CHAIN_MIN_COLLAPSE && grown >= chain.base_answers
            };
        let outcome = if collapse {
            let table_snap = TableSnapshot {
                epoch: snap.epoch as u64,
                wal_offset: pos.offset,
                meta: d.meta.clone(),
                log: snap.log.to_log(),
                fit,
                quarantine: snap.trust.quarantine.clone(),
            };
            match write_snapshot_observed(&d.dir, &table_snap, &d.io, &self.obs.store_sink()) {
                Ok(()) => {
                    // Old links chain from epochs below the new base, so they
                    // are unreachable the moment the base rename lands;
                    // removing them afterwards is pure cleanup (crash-safe in
                    // either order).
                    if let Err(e) = remove_snapshot_deltas(&d.dir) {
                        eprintln!(
                            "tcrowd-service: stale snapshot deltas for table '{}' not removed: {e}",
                            self.id
                        );
                    }
                    *chain = SnapChain {
                        has_base: true,
                        epoch: snap.epoch as u64,
                        refreshes: snap.refreshes,
                        links: 0,
                        next_seq: 1,
                        base_answers: snap.epoch as u64,
                        chain_answers: 0,
                        force_full: false,
                    };
                    // The new base covers every answer at or below
                    // `pos.offset`: rotated WAL segments wholly below it are
                    // replay-dead weight — delete the cold prefix so
                    // recovery's replay stays bounded by the live tail.
                    match compact_cold_segments(&d.dir, pos.offset) {
                        Ok(removed) if removed > 0 => {
                            self.obs.event(
                                "wal_compacted",
                                format!(
                                    "{removed} cold segment(s) removed below offset {}",
                                    pos.offset
                                ),
                                None,
                            );
                            self.obs.store_sink().wal_segments(count_segments(&d.dir));
                        }
                        Ok(_) => {}
                        // Best-effort: a failed unlink costs replay time, not
                        // correctness — the next collapse retries.
                        Err(e) => eprintln!(
                            "tcrowd-service: cold WAL segments for table '{}' not compacted: {e}",
                            self.id
                        ),
                    }
                    Ok(())
                }
                Err(e) => Err(format!("snapshot write failed: {e}")),
            }
        } else {
            let delta = SnapshotDelta {
                seq: chain.next_seq,
                parent_epoch: chain.epoch,
                epoch: snap.epoch as u64,
                wal_offset: pos.offset,
                answers: snap.log.range_vec(chain.epoch as usize, snap.epoch),
                fit,
                quarantine: snap.trust.quarantine.clone(),
            };
            match write_snapshot_delta_observed(&d.dir, &delta, &d.io, &self.obs.store_sink()) {
                Ok(()) => {
                    chain.epoch = snap.epoch as u64;
                    chain.refreshes = snap.refreshes;
                    chain.links += 1;
                    chain.next_seq += 1;
                    chain.chain_answers += delta_answers;
                    Ok(())
                }
                Err(e) => Err(format!("snapshot delta write failed: {e}")),
            }
        };
        drop(chain);
        match outcome {
            Ok(()) => {
                self.obs.event(
                    "snapshot_persisted",
                    format!(
                        "epoch {} ({})",
                        snap.epoch,
                        if collapse { "full base" } else { "chain delta" }
                    ),
                    None,
                );
                self.note_persist_success()
            }
            Err(msg) => {
                self.obs.event("snapshot_persist_failed", msg.clone(), None);
                self.record_persist_failure(msg)
            }
        }
    }

    /// Select up to `k` cells for `worker` from the published snapshot,
    /// using `policy` (or the table's configured default). Returns the
    /// snapshot the decision was made from alongside the picks, so callers
    /// can report the decision epoch.
    pub fn assign(
        &self,
        worker: tcrowd_tabular::WorkerId,
        k: usize,
        policy: Option<&str>,
    ) -> Result<(Arc<Snapshot>, Vec<CellId>, String), String> {
        let name = policy.unwrap_or(&self.config.policy).to_string();
        let mut policy = make_policy(&name, self.rows, self.config.seed)?;
        let snap = self.snapshot();
        let ctx = AssignmentContext {
            schema: &self.schema,
            // The freeze answers the point queries too: a snapshot carries
            // no indexed log at all.
            answers: snap.matrix.as_ref(),
            freeze: snap.matrix.freeze_view(),
            inference: Some(&snap.result),
            max_answers_per_cell: self.config.max_answers_per_cell,
            terminated: None,
            correlation: Some(&snap.correlation),
        };
        let picks = policy.select(worker, k, &ctx);
        Ok((snap, picks, name))
    }

    /// Milliseconds since this table was created.
    pub fn age_ms(&self) -> u128 {
        self.created_at.elapsed().as_millis()
    }

    /// Stop and join the refresher thread (idempotent). The registry calls
    /// this on removal/shutdown; a table dropped without it would leave the
    /// thread parked until its weak upgrade fails on the next tick.
    pub fn stop_refresher(&self) {
        *lock_recover(&self.ctl.stop) = true;
        self.ctl.wake.notify_all();
        if let Some(handle) = lock_recover(&self.refresher).take() {
            let _ = handle.join();
        }
    }

    // ------------------------- health machinery -------------------------

    /// A point-in-time copy of the degradation state (for `/stats` and
    /// `/healthz`).
    pub fn health(&self) -> HealthView {
        let h = lock_recover(&self.health);
        let health = if h.recovering {
            "recovering"
        } else if h.degraded() {
            "degraded"
        } else {
            "healthy"
        };
        let mut reasons: Vec<&str> = Vec::new();
        if h.wal_broken {
            reasons.push("wal-broken: ingest disabled until the log is rebuilt");
        }
        if h.refit_broken {
            reasons.push("refit-failing: serving the last good snapshot");
        }
        if h.persist_pending {
            reasons.push("persist-failing: store snapshot re-attempt pending");
        }
        HealthView {
            health,
            reason: if reasons.is_empty() { None } else { Some(reasons.join("; ")) },
            degraded_since_ms: h.degraded_since.map(|t| t.elapsed().as_millis() as u64),
            refit_failures: h.refit_failures,
            persist_failures: h.persist_failures,
            last_error: h.last_error.clone(),
            retry_after_ms: h
                .retry_at
                .map(|t| t.saturating_duration_since(Instant::now()).as_millis() as u64),
        }
    }

    /// The `Retry-After` hint (seconds, ≥ 1) a refused client should wait:
    /// the remaining repair backoff when degraded, one refresh interval for
    /// plain backpressure.
    pub fn retry_after_secs(&self) -> u64 {
        let backoff = {
            let h = lock_recover(&self.health);
            if h.degraded() {
                h.retry_at.map(|t| t.saturating_duration_since(Instant::now()).as_secs())
            } else {
                None
            }
        };
        backoff.unwrap_or(self.config.refresh_interval.as_secs()).max(1)
    }

    /// Chaos hook: make the next `n` fit steps panic inside the refresh
    /// path's containment (each consumes one budget unit).
    pub fn inject_refit_panics(&self, n: u64) {
        self.refit_panic_budget.store(n, Ordering::SeqCst);
    }

    fn maybe_inject_refit_panic(&self) {
        if self
            .refit_panic_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok()
        {
            panic!("injected refit panic (chaos budget)");
        }
    }

    /// This table's observability bundle (metrics handles + event ring).
    pub fn obs(&self) -> &Arc<TableObs> {
        &self.obs
    }

    /// Run `f` under the health lock; afterwards (lock released), if the
    /// derived healthy/degraded/recovering state changed, update the
    /// health gauge and trace a `health` transition event. Every health
    /// mutation goes through here, so the gauge — which `/healthz` is
    /// served from — can never drift from the state machine.
    fn mutate_health<R>(&self, f: impl FnOnce(&mut HealthState) -> R) -> R {
        let (r, before, after) = {
            let mut h = lock_recover(&self.health);
            let before = health_code_of(&h);
            let r = f(&mut h);
            (r, before, health_code_of(&h))
        };
        if before != after {
            self.obs.set_health(after);
            self.obs.event(
                "health",
                format!(
                    "{} -> {}",
                    crate::obs::health_name(before),
                    crate::obs::health_name(after)
                ),
                None,
            );
        }
        r
    }

    fn record_refit_failure(&self, msg: String) {
        eprintln!("tcrowd-service: table '{}' refit contained: {msg}", self.id);
        self.mutate_health(|h| {
            h.refit_broken = true;
            h.refit_failures += 1;
            h.note_failure(msg);
        });
    }

    fn record_persist_failure(&self, msg: String) {
        eprintln!("tcrowd-service: table '{}' persist degraded: {msg}", self.id);
        self.mutate_health(|h| {
            h.persist_pending = true;
            h.persist_failures += 1;
            h.note_failure(msg);
        });
    }

    fn record_wal_failure(&self, msg: String) {
        eprintln!("tcrowd-service: table '{}' WAL degraded: {msg}", self.id);
        self.obs.event("wal_poisoned", msg.clone(), None);
        self.mutate_health(|h| {
            h.wal_broken = true;
            h.note_failure(msg);
        });
    }

    fn note_refit_success(&self) {
        self.mutate_health(|h| {
            if h.refit_broken {
                h.refit_broken = false;
                h.settle();
            }
        });
    }

    fn note_persist_success(&self) {
        self.mutate_health(|h| {
            if h.persist_pending {
                h.persist_pending = false;
                h.settle();
            }
        });
    }

    /// One refresher-loop iteration: run due repairs, then refresh unless
    /// the fit path is in backoff.
    pub(crate) fn tick(&self) {
        let (wal_broken, persist_pending, refit_broken, due) = {
            let h = lock_recover(&self.health);
            let due = h.degraded() && h.retry_at.is_none_or(|t| Instant::now() >= t);
            (h.wal_broken, h.persist_pending, h.refit_broken, due)
        };
        if due {
            self.mutate_health(|h| h.recovering = true);
            if wal_broken {
                self.try_rebuild_wal();
            }
            let wal_still_broken = lock_recover(&self.health).wal_broken;
            if persist_pending && !wal_still_broken {
                self.persist_store_snapshot();
            }
            self.mutate_health(|h| h.recovering = false);
        }
        let refit_blocked = {
            let h = lock_recover(&self.health);
            h.refit_broken && h.retry_at.is_some_and(|t| Instant::now() < t)
        };
        if !refit_blocked && (self.needs_refresh() || (refit_broken && due)) {
            self.refresh_now();
        }
    }

    /// Repair a poisoned WAL by rewriting it from the in-memory ingest log.
    /// Sound because of WAL-before-ack: an append either committed before
    /// its batch entered the log, or errored before the log was touched —
    /// so the in-memory log is *exactly* the acknowledged answer set, and a
    /// log rewritten from it loses nothing and invents nothing. The stale
    /// snapshot chain (whose offsets describe the old byte layout) is
    /// removed first; the chain resets and the next persist writes a fresh
    /// full base.
    fn try_rebuild_wal(&self) {
        let Some(d) = &self.durability else { return };
        if self.is_deleted() {
            return;
        }
        // Captured before the ingest/WAL locks: the trust lock must never
        // be taken under the WAL lock (trust → wal is the documented
        // order). A decision racing the rebuild re-appends on the next
        // refresh — the record is a full replacement, so that is benign.
        let quarantine = self.quarantine_entries();
        let result: Result<(), String> = (|| {
            let log = lock_recover(&self.ingest);
            let mut wal = lock_recover(&d.wal);
            if !wal.is_poisoned() {
                // Already healthy (e.g. a racing repair, or the failure was
                // an fsync refused by a poisoned WAL that a restart fixed).
                return Ok(());
            }
            let policy = wal.fsync_policy();
            remove_snapshot(&d.dir).map_err(|e| format!("stale snapshot removal: {e}"))?;
            let pos = rewrite_wal(&d.dir, &d.meta, log.all(), &quarantine, &d.io)
                .map_err(|e| format!("log rewrite: {e}"))?;
            debug_assert_eq!(pos.answers as usize, log.len());
            let fresh =
                Wal::open_for_append_with_io(d.dir.join(WAL_FILE), pos, policy, d.io.clone())
                    .map_err(|e| format!("rebuilt log reopen: {e}"))?;
            *wal = fresh;
            // Reset the durable mark under the same ingest-lock hold: the
            // rewritten log's byte layout replaces the old one, and `pos`
            // covers exactly the in-memory (acked) prefix.
            d.mark.set(pos);
            *lock_recover(&d.chain) = SnapChain::fresh();
            Ok(())
        })();
        match result {
            Ok(()) => {
                eprintln!("tcrowd-service: table '{}' WAL rebuilt; ingest re-enabled", self.id);
                self.obs.event(
                    "wal_rebuilt",
                    "log rewritten from the acknowledged prefix; ingest re-enabled".to_string(),
                    None,
                );
                // The rewrite collapses the chain to a single segment.
                self.obs.store_sink().wal_segments(count_segments(&d.dir));
                self.mutate_health(|h| {
                    h.wal_broken = false;
                    // The chain was reset — persist a fresh base on the next
                    // tick (immediately due).
                    h.persist_pending = true;
                    h.backoff_ms = 0;
                    h.retry_at = Some(Instant::now());
                });
            }
            Err(msg) => self.record_wal_failure(format!("WAL rebuild failed: {msg}")),
        }
    }
}

/// The `tcrowd_table_health` gauge code for a health state (recovering
/// wins over degraded, matching [`TableState::health`]).
fn health_code_of(h: &HealthState) -> i64 {
    if h.recovering {
        HEALTH_RECOVERING
    } else if h.degraded() {
        HEALTH_DEGRADED
    } else {
        HEALTH_HEALTHY
    }
}

/// Best-effort panic payload → message (panics carry `&str` or `String`
/// nearly always).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{generate_dataset, Dataset, GeneratorConfig, Value, WorkerId};

    fn make_table(refit_every: usize) -> (Arc<TableState>, Dataset) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 12,
                columns: 3,
                num_workers: 8,
                answers_per_task: 3,
                ..Default::default()
            },
            5,
        );
        let config = TableConfig {
            refit_every,
            refresh_interval: Duration::from_millis(10),
            ..Default::default()
        };
        let t = TableState::create("t".into(), d.schema.clone(), d.rows(), config, None);
        (t, d)
    }

    /// `GET /healthz` is served from the observability health gauges, so it
    /// must answer while a table's ingest AND fitter locks are both held
    /// (a wedged refit or a stalled ingest cannot wedge the health probe).
    #[test]
    fn healthz_answers_with_ingest_and_fitter_locks_held() {
        let reg = Arc::new(crate::registry::TableRegistry::new());
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 4,
                columns: 2,
                num_workers: 3,
                answers_per_task: 1,
                ..Default::default()
            },
            1,
        );
        let t = reg
            .create(Some("wedged".into()), d.schema.clone(), d.rows(), TableConfig::default())
            .unwrap();
        // Wedge the table the way a stuck refit + stuck ingest would.
        let _ingest = t.ingest.lock().unwrap();
        let _fitter = t.fitter.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe_reg = Arc::clone(&reg);
        std::thread::spawn(move || {
            let req = crate::http::Request {
                method: "GET".into(),
                path: "/healthz".into(),
                query: Vec::new(),
                body: Vec::new(),
                keep_alive: false,
                request_id: "probe".into(),
            };
            tx.send(crate::api::route(&probe_reg, &req)).ok();
        });
        let resp = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("/healthz must not block on table locks");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        drop(_fitter);
        drop(_ingest);
        reg.shutdown();
    }

    #[test]
    fn ingest_refresh_and_read_paths_agree() {
        let (t, d) = make_table(usize::MAX);
        assert_eq!(t.snapshot().epoch, 0);
        assert!(!t.durable());
        t.submit(d.answers.all()).unwrap();
        assert_eq!(t.ingested() as usize, d.answers.len());
        // Synchronous refresh publishes everything.
        assert!(t.refresh_now());
        let snap = t.snapshot();
        assert_eq!(snap.epoch, d.answers.len());
        assert_eq!(snap.matrix.len(), d.answers.len());
        assert_eq!(snap.log.to_vec(), d.answers.all());
        assert_eq!(t.pending(), 0);
        // Quiescent refresh: nothing arrived mid-fit, so the published state
        // is exactly the cold batch fit.
        assert_eq!(snap.catchup_merged, 0);
        assert_eq!(snap.fitted_epoch, snap.epoch);
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(snap.result.estimates(), batch.estimates());
        // Assignment works off the snapshot (and its cached correlation
        // model: same picks as a per-request fit).
        let (used, picks, name) = t.assign(WorkerId(999), 3, None).unwrap();
        assert_eq!(used.epoch, snap.epoch);
        assert_eq!(picks.len(), 3);
        assert_eq!(name, "structure-aware");
        let mut fresh = crate::policy::make_policy("structure-aware", t.rows(), 1).unwrap();
        let uncached_ctx = AssignmentContext {
            schema: &d.schema,
            answers: snap.matrix.as_ref(),
            freeze: snap.matrix.freeze_view(),
            inference: Some(&snap.result),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        assert_eq!(picks, fresh.select(WorkerId(999), 3, &uncached_ctx));
        t.stop_refresher();
    }

    #[test]
    fn background_refresher_publishes_on_threshold() {
        let (t, d) = make_table(4);
        t.submit(&d.answers.all()[..8]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while t.snapshot().epoch < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(t.snapshot().epoch, 8, "refresher should publish pending answers");
        assert!(t.snapshot().refreshes >= 1);
        t.stop_refresher();
    }

    #[test]
    fn submit_rejects_bad_batches_atomically() {
        let (t, d) = make_table(usize::MAX);
        let good = d.answers.all()[0];
        let bad_cell = Answer { cell: CellId::new(999, 0), ..good };
        let err = t.submit(&[good, bad_cell]).unwrap_err();
        assert!(err.contains("answer 1"), "{err}");
        assert_eq!(t.ingested(), 0, "a rejected batch must ingest nothing");
        // Wrong datatype for the column.
        let col0 = d.schema.column_type(0).clone();
        let wrong = Answer {
            value: if col0.is_categorical() {
                Value::Continuous(1.0)
            } else {
                Value::Categorical(0)
            },
            ..good
        };
        assert!(t.submit(&[wrong]).is_err());
        t.stop_refresher();
    }

    #[test]
    fn tombstoned_table_refuses_to_publish_mid_refit() {
        // Regression (deletion race): a refresher that is mid-refit when the
        // table is removed must not publish a snapshot for the dead table.
        // Simulated deterministically: ingest, tombstone, then drive the
        // publish path a racing refresh would run.
        let (t, d) = make_table(usize::MAX);
        t.submit(&d.answers.all()[..6]).unwrap();
        assert!(t.refresh_now());
        let epoch_before = t.snapshot().epoch;
        t.submit(&d.answers.all()[6..12]).unwrap();
        t.mark_deleted();
        assert!(!t.refresh_now(), "a tombstoned table must not publish");
        assert_eq!(t.snapshot().epoch, epoch_before, "snapshot must be unchanged");
        // Ingest after deletion is refused too.
        assert!(t.submit(&d.answers.all()[..1]).is_err());
        t.stop_refresher();
    }

    #[test]
    fn catchup_merge_folds_in_mid_fit_arrivals() {
        // Deterministic re-enactment of the mid-fit race: advance the fit
        // state to a prefix, let "mid-fit" answers land, then run the
        // refresh — the catch-up phase must fold them into the published
        // snapshot (log, freeze and epoch) without an extra refresh cycle.
        let (t, d) = make_table(usize::MAX);
        let split = d.answers.len() / 2;
        t.submit(&d.answers.all()[..split]).unwrap();
        assert!(t.refresh_now());
        assert_eq!(t.snapshot().catchup_merged, 0);
        // Answers land between the fit and the next refresh's catch-up: the
        // next refresh fits on what its phase-1 slice saw. Here everything
        // is already committed pre-refresh, so catchup_merged is 0 — the
        // race itself is exercised under real concurrency in
        // tests/concurrent.rs; this test pins the bookkeeping invariants.
        t.submit(&d.answers.all()[split..]).unwrap();
        assert!(t.refresh_now());
        let snap = t.snapshot();
        assert_eq!(snap.epoch, d.answers.len());
        assert_eq!(snap.fitted_epoch + snap.catchup_merged, snap.epoch);
        assert_eq!(snap.log.len(), snap.epoch);
        assert_eq!(snap.matrix.len(), snap.epoch);
        assert!(snap.last_refit_ms >= 0.0);
        // The shared log is the committed order.
        assert_eq!(snap.log.to_vec(), d.answers.all());
        t.stop_refresher();
    }

    #[test]
    fn config_kv_roundtrip() {
        let config = TableConfig {
            policy: "entropy".into(),
            refit_every: 17,
            refresh_interval: Duration::from_millis(321),
            warm_refits: true,
            max_answers_per_cell: Some(9),
            seed: 42,
            max_pending: Some(1_000),
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
        let back = TableConfig::from_kv(&config.to_kv());
        assert_eq!(back.policy, config.policy);
        assert_eq!(back.refit_every, config.refit_every);
        assert_eq!(back.refresh_interval, config.refresh_interval);
        assert_eq!(back.warm_refits, config.warm_refits);
        assert_eq!(back.max_answers_per_cell, config.max_answers_per_cell);
        assert_eq!(back.seed, config.seed);
        assert_eq!(back.max_pending, config.max_pending);
        assert!(back.trust_auto);
        assert_eq!(back.trust, config.trust);
        assert_eq!(back.worker_rate, config.worker_rate);
        assert_eq!(back.worker_burst, config.worker_burst);
        // Unknown keys and absent keys degrade to defaults, not errors.
        let sparse = TableConfig::from_kv(&[("future_knob".into(), "1".into())]);
        assert_eq!(sparse.policy, TableConfig::default().policy);
        // None round-trips through the empty string.
        let none = TableConfig { max_answers_per_cell: None, ..TableConfig::default() };
        assert_eq!(TableConfig::from_kv(&none.to_kv()).max_answers_per_cell, None);
    }

    #[test]
    fn manual_quarantine_filters_the_fit_and_release_restores_it() {
        let (t, d) = make_table(usize::MAX);
        t.submit(d.answers.all()).unwrap();
        assert!(t.refresh_now());
        let baseline = t.snapshot();
        let w = d.answers.all()[0].worker;
        assert_eq!(t.set_worker_quarantine(w, true).unwrap(), TrustState::Quarantined);
        // The woken background refresher may apply the decision before this
        // synchronous refresh — either way the published state must filter.
        t.refresh_now();
        let snap = t.snapshot();
        assert_eq!(snap.trust.excluded, vec![w]);
        assert_eq!(snap.trust.quarantine.len(), 1);
        assert!(snap.trust.quarantine[0].manual);
        assert!(snap.result.quality_of(w).is_none(), "excluded worker has no fitted quality");
        // The quarantine is a fit-level filter: the log is untouched.
        assert_eq!(snap.epoch, baseline.epoch);
        assert_eq!(snap.log.to_vec(), baseline.log.to_vec());
        // The published estimates equal a batch fit of a log that never
        // contained the worker's answers.
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers.without_workers(&[w]));
        assert_eq!(snap.result.estimates(), batch.estimates());
        // The worker still shows up in the trust report, with a shadow score.
        let row = snap.trust.workers.iter().find(|s| s.trust.worker == w).unwrap();
        assert_eq!(row.state, TrustState::Quarantined);
        assert!(row.trust.quality.is_none());
        // Release: bit-identical to the baseline full fit.
        assert_eq!(t.set_worker_quarantine(w, false).unwrap(), TrustState::Trusted);
        t.refresh_now();
        let back = t.snapshot();
        assert!(back.trust.excluded.is_empty());
        assert_eq!(back.result.estimates(), baseline.result.estimates());
        assert_eq!(back.result.iterations, baseline.result.iterations);
        assert!(t.trust_seq() >= 2);
        t.stop_refresher();
    }

    #[test]
    fn per_worker_rate_limit_refuses_whole_batches() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 8,
                columns: 2,
                num_workers: 4,
                answers_per_task: 2,
                ..Default::default()
            },
            11,
        );
        let config = TableConfig {
            refit_every: usize::MAX,
            worker_rate: 0.001, // effectively no refill within the test
            worker_burst: 4,
            ..Default::default()
        };
        let t = TableState::create("rl".into(), d.schema.clone(), d.rows(), config, None);
        let by_worker = |w: u32| -> Vec<Answer> {
            d.answers.all().iter().copied().filter(|a| a.worker == WorkerId(w)).collect()
        };
        let w0 = by_worker(0);
        assert!(w0.len() >= 4, "generator should give worker 0 at least burst answers");
        // Within burst: admitted.
        t.submit(&w0[..4]).unwrap();
        // Bucket drained: the whole next batch is refused with the
        // backpressure prefix (→ 429 + Retry-After at the HTTP layer).
        let err = t.submit(&w0[..1]).unwrap_err();
        assert!(err.starts_with("overloaded:"), "{err}");
        assert!(err.contains("worker 0"), "{err}");
        assert_eq!(t.rate_limited(), 1);
        // Other workers are unaffected.
        let w1 = by_worker(1);
        t.submit(&w1[..1]).unwrap();
        // A mixed batch containing the throttled worker is refused whole.
        let mixed = vec![w1[1], w0[4 % w0.len()]];
        assert!(t.submit(&mixed).unwrap_err().starts_with("overloaded:"));
        assert_eq!(t.ingested() as usize, 5, "refused batches must ingest nothing");
        t.stop_refresher();
    }

    #[test]
    fn auto_trust_quarantines_a_spammer_and_defends_accuracy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 20,
                columns: 3,
                num_workers: 10,
                answers_per_task: 4,
                ..Default::default()
            },
            13,
        );
        let config = TableConfig {
            refit_every: usize::MAX,
            trust_auto: true,
            trust: tcrowd_trust::TrustConfig { min_answers: 8, ..Default::default() },
            ..Default::default()
        };
        let t = TableState::create("spam".into(), d.schema.clone(), d.rows(), config, None);
        t.submit(d.answers.all()).unwrap();
        // A spammer answering uniformly at random over every cell.
        let mut rng = StdRng::seed_from_u64(77);
        let spam: Vec<Answer> = (0..d.rows() as u32)
            .flat_map(|i| (0..d.schema.num_columns() as u32).map(move |j| (i, j)))
            .map(|(i, j)| Answer {
                worker: WorkerId(500),
                cell: CellId::new(i, j),
                value: match d.schema.column_type(j as usize) {
                    tcrowd_tabular::ColumnType::Categorical { labels } => {
                        Value::Categorical(rng.gen_range(0..labels.len() as u32))
                    }
                    tcrowd_tabular::ColumnType::Continuous { min, max } => {
                        Value::Continuous(rng.gen_range(*min..*max))
                    }
                },
            })
            .collect();
        t.submit(&spam).unwrap();
        // Drive refits until the hysteresis machine walks the spammer down
        // to Quarantined (Trusted → Suspect → Quarantined needs ≥2 refits).
        for _ in 0..4 {
            t.refresh_now();
        }
        let snap = t.snapshot();
        let row = snap.trust.workers.iter().find(|s| s.trust.worker == WorkerId(500)).unwrap();
        assert_eq!(
            row.state,
            TrustState::Quarantined,
            "spammer score {} should pin near chance and quarantine",
            row.trust.score
        );
        assert!(!row.manual, "auto decision must not be operator-pinned");
        assert_eq!(snap.trust.excluded, vec![WorkerId(500)]);
        // Defense: with the spammer excluded the estimates equal the fit of
        // the honest log alone.
        let honest = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(snap.result.estimates(), honest.estimates());
        // No honest worker got quarantined alongside.
        for s in &snap.trust.workers {
            if s.trust.worker != WorkerId(500) {
                assert_ne!(s.state, TrustState::Quarantined, "honest {:?}", s.trust.worker);
            }
        }
        t.stop_refresher();
    }
}
