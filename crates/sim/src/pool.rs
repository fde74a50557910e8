//! The simulated crowd: a worker pool with long-tail quality, an arrival
//! process, and an answer oracle.
//!
//! This substitutes the paper's live AMT deployment, which cannot be
//! replayed: workers draw their inherent variance `φ_u` from the same
//! long-tail population as the data generator, arrive in a reproducible
//! sequence, and answer any cell they are assigned through the paper's own
//! worker model (Eq. 1/3) with per-row/column difficulty and an optional
//! row-familiarity effect. One familiarity coin is flipped per (worker, row)
//! and cached, so a worker who "doesn't recognise" an entity stays degraded
//! across that whole row no matter when its cells are assigned.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tcrowd_tabular::generator::{
    EntityGroups, GeneratorConfig, RowFamiliarity, WorkerQualityConfig,
};
use tcrowd_tabular::real_sim::long_tail_phis;
use tcrowd_tabular::{CellId, ColumnType, Schema, Value, WorkerId};

/// How workers arrive at the platform.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalOrder {
    /// Rounds of a shuffled worker list: everyone participates roughly
    /// equally (the paper keeps the worker sequence fixed across methods).
    #[default]
    ShuffledRounds,
    /// Independent uniform draws (some workers may dominate).
    UniformRandom,
    /// Zipf-skewed participation: worker `u` arrives with probability
    /// proportional to `1/(u+1)^skew`. Real AMT logs are strongly
    /// heavy-tailed (the paper's Fig. 3 reads off the "25 workers who have
    /// given the largest number of answers"); this reproduces that regime.
    ZipfParticipation {
        /// Skew exponent (0 = uniform; 1 ≈ classic Zipf).
        skew: f64,
    },
}

/// Behavioural archetype of a simulated worker (the adversarial extension
/// behind `bench_trust`: spam, collusion rings and sleeper agents attacking
/// the trust subsystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// Answers through the paper's worker model (Eq. 1/3).
    Honest,
    /// Answers uniformly at random over the column domain — quality pins
    /// near chance no matter how many answers are collected.
    Spammer,
    /// Member of a collusion ring: every member of the same ring gives the
    /// exact same scripted (hash-derived, truth-independent) answer to any
    /// cell, producing near-perfect pairwise agreement.
    Colluder {
        /// Ring index in `0..colluder_groups`.
        group: u32,
    },
    /// Honest for its first `wake_after` answers to build up a reputation,
    /// then turns into a spammer.
    Sleeper {
        /// Answer count after which the worker turns.
        wake_after: u32,
    },
}

impl Archetype {
    /// Whether this archetype ever submits non-honest answers.
    pub fn adversarial(&self) -> bool {
        !matches!(self, Archetype::Honest)
    }
}

/// Adversarial mix of the pool. All fractions default to zero — a fully
/// honest pool whose random streams are bit-identical to a pool built
/// before the adversary machinery existed (archetype assignment is pure
/// arithmetic and consumes no randomness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of the pool answering uniformly at random.
    pub spammer_frac: f64,
    /// Fraction of the pool organised into collusion rings.
    pub colluder_frac: f64,
    /// Number of independent collusion rings the colluders split into.
    pub colluder_groups: usize,
    /// Fraction of the pool acting as sleeper agents.
    pub sleeper_frac: f64,
    /// Answers a sleeper gives honestly before turning.
    pub sleeper_wake_after: u32,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            spammer_frac: 0.0,
            colluder_frac: 0.0,
            colluder_groups: 1,
            sleeper_frac: 0.0,
            sleeper_wake_after: 32,
        }
    }
}

/// Configuration of the simulated crowd.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPoolConfig {
    /// Number of workers in the pool.
    pub num_workers: usize,
    /// Quality population (long-tail `φ_u`).
    pub quality: WorkerQualityConfig,
    /// Optional row-familiarity effect.
    pub familiarity: Option<RowFamiliarity>,
    /// Optional entity-group familiarity (the §7 future-work extension: a
    /// worker unfamiliar with a whole *category* of entities).
    pub entity_groups: Option<EntityGroups>,
    /// Quality window `ε` used for categorical answer synthesis (matches the
    /// generator's convention).
    pub epsilon: f64,
    /// Arrival process.
    pub arrival: ArrivalOrder,
    /// Log-space spread of the row/column difficulty draws.
    pub difficulty_sigma: f64,
    /// Average cell difficulty `µ{α_i β_j}`.
    pub avg_difficulty: f64,
    /// Adversarial mix (all-zero default: fully honest pool).
    pub adversaries: AdversaryConfig,
}

impl Default for WorkerPoolConfig {
    fn default() -> Self {
        WorkerPoolConfig {
            num_workers: 109,
            quality: WorkerQualityConfig::default(),
            familiarity: Some(RowFamiliarity::default()),
            entity_groups: None,
            epsilon: 0.5,
            arrival: ArrivalOrder::default(),
            difficulty_sigma: 0.35,
            avg_difficulty: 1.0,
            adversaries: AdversaryConfig::default(),
        }
    }
}

/// Deterministic archetype assignment: honest workers occupy the low ids,
/// adversaries the tail (spammers, then colluders round-robined over their
/// rings, then sleepers). Pure arithmetic — no randomness consumed — so a
/// zero mix leaves every random stream untouched.
fn assign_archetypes(cfg: &WorkerPoolConfig) -> Vec<Archetype> {
    let adv = &cfg.adversaries;
    for (name, f) in [
        ("spammer_frac", adv.spammer_frac),
        ("colluder_frac", adv.colluder_frac),
        ("sleeper_frac", adv.sleeper_frac),
    ] {
        assert!(f.is_finite() && (0.0..=1.0).contains(&f), "{name} must be in [0, 1]");
    }
    let n = cfg.num_workers;
    let n_spam = (adv.spammer_frac * n as f64).round() as usize;
    let n_coll = (adv.colluder_frac * n as f64).round() as usize;
    let n_sleep = (adv.sleeper_frac * n as f64).round() as usize;
    assert!(
        n_spam + n_coll + n_sleep <= n,
        "adversary fractions sum past the pool size ({n_spam}+{n_coll}+{n_sleep} > {n})"
    );
    if n_coll > 0 {
        assert!(adv.colluder_groups > 0, "colluders need at least one ring");
    }
    let mut kinds = vec![Archetype::Honest; n];
    let mut at = n - n_spam - n_coll - n_sleep;
    for _ in 0..n_spam {
        kinds[at] = Archetype::Spammer;
        at += 1;
    }
    for i in 0..n_coll {
        kinds[at] = Archetype::Colluder { group: (i % adv.colluder_groups) as u32 };
        at += 1;
    }
    for _ in 0..n_sleep {
        kinds[at] = Archetype::Sleeper { wake_after: adv.sleeper_wake_after };
        at += 1;
    }
    kinds
}

/// SplitMix64 — the colluders' shared script generator: one hash per
/// (seed, ring, cell), identical for every ring member, independent of
/// the truth and of any RNG stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated crowd bound to one table's ground truth.
#[derive(Debug)]
pub struct WorkerPool {
    schema: Schema,
    truth: Vec<Vec<Value>>,
    cfg: WorkerPoolConfig,
    phis: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    /// Cached familiarity multiplier per (worker, row), dense row-major
    /// `worker * rows + row`; `0.0` marks "not yet drawn" (real multipliers
    /// are ≥ 1). Dense instead of hashed: the oracle touches every pair over
    /// a run, and the flat lane keeps answers deterministic and cheap.
    fam_cache: Vec<f64>,
    /// Cached familiarity multiplier per (worker, entity group), dense
    /// `worker * groups + group`; same `0.0` sentinel.
    group_cache: Vec<f64>,
    answer_rng: StdRng,
    arrival_rng: StdRng,
    round: Vec<WorkerId>,
    round_pos: usize,
    /// Cumulative participation distribution (Zipf arrivals only).
    zipf_cdf: Vec<f64>,
    /// Behavioural archetype per worker (simulation ground truth for
    /// detection precision/recall).
    archetypes: Vec<Archetype>,
    /// Answers given so far per worker (drives sleeper wake-up).
    answers_given: Vec<u32>,
    /// Seed of the colluders' shared answer script.
    script_seed: u64,
}

impl WorkerPool {
    /// Build a pool for the given table; fully deterministic per seed.
    pub fn new(schema: &Schema, truth: &[Vec<Value>], cfg: WorkerPoolConfig, seed: u64) -> Self {
        assert!(cfg.num_workers > 0, "pool needs workers");
        assert_eq!(
            truth.first().map(|r| r.len()).unwrap_or(0),
            schema.num_columns(),
            "truth shape must match schema"
        );
        // The dense familiarity caches use 0.0 as their "not yet drawn"
        // sentinel, so a zero multiplier must be rejected up front.
        if let Some(rf) = &cfg.familiarity {
            assert!(rf.difficulty_factor > 0.0, "familiarity difficulty_factor must be positive");
        }
        if let Some(eg) = &cfg.entity_groups {
            assert!(eg.difficulty_factor > 0.0, "entity-group difficulty_factor must be positive");
        }
        let phis = long_tail_phis(cfg.num_workers, &cfg.quality, seed ^ 0xA11CE);
        // Row/column difficulties drawn through the generator's machinery so
        // the oracle's population matches the synthetic datasets'.
        let gen_cfg = GeneratorConfig {
            rows: truth.len(),
            columns: schema.num_columns(),
            num_workers: cfg.num_workers,
            avg_difficulty: cfg.avg_difficulty,
            difficulty_sigma: cfg.difficulty_sigma,
            quality: cfg.quality,
            answers_per_task: 1,
            ..Default::default()
        };
        let state = tcrowd_tabular::generator::draw_population(&gen_cfg, seed ^ 0xD1FF);
        WorkerPool {
            schema: schema.clone(),
            truth: truth.to_vec(),
            cfg,
            phis,
            alpha: state.alpha,
            beta: state.beta,
            fam_cache: vec![0.0; cfg.num_workers * truth.len()],
            group_cache: vec![
                0.0;
                cfg.num_workers * cfg.entity_groups.map(|eg| eg.groups).unwrap_or(0)
            ],
            answer_rng: StdRng::seed_from_u64(seed ^ 0x0A5),
            arrival_rng: StdRng::seed_from_u64(seed ^ 0xAB1),
            round: Vec::new(),
            round_pos: 0,
            zipf_cdf: match cfg.arrival {
                ArrivalOrder::ZipfParticipation { skew } => {
                    let weights: Vec<f64> =
                        (0..cfg.num_workers).map(|u| 1.0 / ((u + 1) as f64).powf(skew)).collect();
                    let total: f64 = weights.iter().sum();
                    let mut acc = 0.0;
                    weights
                        .iter()
                        .map(|w| {
                            acc += w / total;
                            acc
                        })
                        .collect()
                }
                _ => Vec::new(),
            },
            archetypes: assign_archetypes(&cfg),
            answers_given: vec![0; cfg.num_workers],
            script_seed: seed ^ 0x5C21_97ED,
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.cfg.num_workers
    }

    /// True `φ_u` of a worker (simulation ground truth).
    pub fn phi(&self, worker: WorkerId) -> f64 {
        self.phis[worker.0 as usize]
    }

    /// The next arriving worker.
    pub fn next_worker(&mut self) -> WorkerId {
        match self.cfg.arrival {
            ArrivalOrder::UniformRandom => {
                WorkerId(self.arrival_rng.gen_range(0..self.cfg.num_workers as u32))
            }
            ArrivalOrder::ShuffledRounds => {
                if self.round_pos >= self.round.len() {
                    self.round = (0..self.cfg.num_workers as u32).map(WorkerId).collect();
                    self.round.shuffle(&mut self.arrival_rng);
                    self.round_pos = 0;
                }
                let w = self.round[self.round_pos];
                self.round_pos += 1;
                w
            }
            ArrivalOrder::ZipfParticipation { .. } => {
                let u = self.arrival_rng.gen::<f64>();
                WorkerId(
                    self.zipf_cdf.partition_point(|&c| c < u).min(self.cfg.num_workers - 1) as u32
                )
            }
        }
    }

    fn familiarity(&mut self, worker: WorkerId, row: u32) -> f64 {
        let mut factor = match self.cfg.familiarity {
            None => 1.0,
            Some(rf) => {
                let slot = worker.0 as usize * self.truth.len() + row as usize;
                if self.fam_cache[slot] == 0.0 {
                    self.fam_cache[slot] = if self.answer_rng.gen_range(0.0..1.0) < rf.p_unfamiliar
                    {
                        rf.difficulty_factor
                    } else {
                        1.0
                    };
                }
                self.fam_cache[slot]
            }
        };
        if let Some(eg) = self.cfg.entity_groups {
            let slot = worker.0 as usize * eg.groups + eg.group_of(row as usize);
            if self.group_cache[slot] == 0.0 {
                self.group_cache[slot] = if self.answer_rng.gen_range(0.0..1.0) < eg.p_unfamiliar {
                    eg.difficulty_factor
                } else {
                    1.0
                };
            }
            factor *= self.group_cache[slot];
        }
        factor
    }

    /// The worker answers a cell (the external-HIT round trip), through its
    /// archetype's behaviour.
    pub fn answer(&mut self, worker: WorkerId, cell: CellId) -> Value {
        let given = self.answers_given[worker.0 as usize];
        self.answers_given[worker.0 as usize] += 1;
        match self.archetypes[worker.0 as usize] {
            Archetype::Honest => self.honest_answer(worker, cell),
            Archetype::Spammer => self.random_answer(cell),
            Archetype::Colluder { group } => self.scripted_answer(group, cell),
            Archetype::Sleeper { wake_after } => {
                if given < wake_after {
                    self.honest_answer(worker, cell)
                } else {
                    self.random_answer(cell)
                }
            }
        }
    }

    /// Behavioural archetype of a worker (simulation ground truth, used by
    /// `bench_trust` to score detection precision/recall).
    pub fn archetype(&self, worker: WorkerId) -> Archetype {
        self.archetypes[worker.0 as usize]
    }

    fn honest_answer(&mut self, worker: WorkerId, cell: CellId) -> Value {
        let phi = self.phis[worker.0 as usize];
        let fam = self.familiarity(worker, cell.row);
        let variance = self.alpha[cell.row as usize] * self.beta[cell.col as usize] * phi * fam;
        tcrowd_tabular::generator::synthesize_answer(
            &mut self.answer_rng,
            &self.truth[cell.row as usize][cell.col as usize],
            self.schema.column_type(cell.col as usize),
            variance,
            self.cfg.epsilon,
        )
    }

    /// Uniform over the column domain, independent of the truth.
    fn random_answer(&mut self, cell: CellId) -> Value {
        let domain = match self.schema.column_type(cell.col as usize) {
            ColumnType::Categorical { labels } => Err(labels.len() as u32),
            ColumnType::Continuous { min, max } => Ok((*min, *max)),
        };
        match domain {
            Err(k) => Value::Categorical(self.answer_rng.gen_range(0..k)),
            Ok((min, max)) => Value::Continuous(self.answer_rng.gen_range(min..max)),
        }
    }

    /// The ring's shared script: one hash-derived value per (seed, ring,
    /// cell), identical for every member and independent of the truth.
    fn scripted_answer(&self, group: u32, cell: CellId) -> Value {
        let h = splitmix64(
            self.script_seed
                ^ (u64::from(group) << 48)
                ^ (u64::from(cell.row) << 20)
                ^ u64::from(cell.col),
        );
        match self.schema.column_type(cell.col as usize) {
            ColumnType::Categorical { labels } => {
                Value::Categorical((h % labels.len() as u64) as u32)
            }
            ColumnType::Continuous { min, max } => {
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                Value::Continuous(min + (max - min) * unit)
            }
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The ground truth the oracle answers from.
    pub fn truth(&self) -> &[Vec<Value>] {
        &self.truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig};

    fn table(seed: u64) -> tcrowd_tabular::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 20,
                columns: 4,
                num_workers: 10,
                answers_per_task: 2,
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn shuffled_rounds_cover_all_workers() {
        let d = table(1);
        let cfg = WorkerPoolConfig { num_workers: 12, ..Default::default() };
        let mut pool = WorkerPool::new(&d.schema, &d.truth, cfg, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..12 {
            seen.insert(pool.next_worker());
        }
        assert_eq!(seen.len(), 12, "one round covers every worker exactly once");
    }

    #[test]
    fn answers_match_column_types() {
        let d = table(2);
        let mut pool = WorkerPool::new(&d.schema, &d.truth, WorkerPoolConfig::default(), 1);
        for i in 0..d.rows() as u32 {
            for j in 0..d.cols() as u32 {
                let v = pool.answer(WorkerId(3), CellId::new(i, j));
                assert!(d.schema.column_type(j as usize).accepts(&v));
            }
        }
    }

    #[test]
    fn pool_is_deterministic_per_seed() {
        let d = table(3);
        let mk = || {
            let mut p = WorkerPool::new(&d.schema, &d.truth, WorkerPoolConfig::default(), 11);
            (0..40)
                .map(|i| {
                    let w = p.next_worker();
                    let c = CellId::new(i % d.rows() as u32, i % d.cols() as u32);
                    (w, p.answer(w, c))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn good_workers_answer_better() {
        let d = table(4);
        let cfg = WorkerPoolConfig { familiarity: None, ..Default::default() };
        let mut pool = WorkerPool::new(&d.schema, &d.truth, cfg, 5);
        // Identify the best and worst worker by true phi.
        let (mut best, mut worst) = (WorkerId(0), WorkerId(0));
        for w in 0..pool.num_workers() as u32 {
            if pool.phi(WorkerId(w)) < pool.phi(best) {
                best = WorkerId(w);
            }
            if pool.phi(WorkerId(w)) > pool.phi(worst) {
                worst = WorkerId(w);
            }
        }
        assert!(pool.phi(best) < pool.phi(worst));
        let col = d.schema.continuous_columns()[0];
        let mut err = |w: WorkerId| {
            let mut total = 0.0;
            for rep in 0..200u32 {
                let i = rep % d.rows() as u32;
                let t = d.truth[i as usize][col].expect_continuous();
                let a = pool.answer(w, CellId::new(i, col as u32)).expect_continuous();
                total += (a - t).abs();
            }
            total / 200.0
        };
        let e_best = err(best);
        let e_worst = err(worst);
        assert!(e_best < e_worst, "best worker mean |err| {e_best} vs worst {e_worst}");
    }

    #[test]
    fn familiarity_is_sticky_per_row() {
        let d = table(5);
        let cfg = WorkerPoolConfig {
            familiarity: Some(RowFamiliarity { p_unfamiliar: 0.5, difficulty_factor: 100.0 }),
            ..Default::default()
        };
        let mut pool = WorkerPool::new(&d.schema, &d.truth, cfg, 9);
        // Touch every row once to populate the cache, then verify stability.
        let w = WorkerId(2);
        let before: Vec<f64> = (0..d.rows() as u32).map(|i| pool.familiarity(w, i)).collect();
        let after: Vec<f64> = (0..d.rows() as u32).map(|i| pool.familiarity(w, i)).collect();
        assert_eq!(before, after);
        assert!(before.iter().any(|f| *f > 1.0), "some rows unfamiliar");
        assert!(before.contains(&1.0), "some rows familiar");
    }

    #[test]
    fn zero_adversary_mix_is_fully_honest_and_stream_identical() {
        let d = table(6);
        let base = WorkerPoolConfig { num_workers: 10, ..Default::default() };
        let explicit = WorkerPoolConfig {
            adversaries: AdversaryConfig {
                spammer_frac: 0.0,
                colluder_frac: 0.0,
                sleeper_frac: 0.0,
                ..Default::default()
            },
            ..base
        };
        let mut a = WorkerPool::new(&d.schema, &d.truth, base, 7);
        let mut b = WorkerPool::new(&d.schema, &d.truth, explicit, 7);
        for w in 0..10u32 {
            assert_eq!(a.archetype(WorkerId(w)), Archetype::Honest);
        }
        for i in 0..60u32 {
            let wa = a.next_worker();
            assert_eq!(wa, b.next_worker());
            let c = CellId::new(i % d.rows() as u32, i % d.cols() as u32);
            assert_eq!(a.answer(wa, c), b.answer(wa, c), "streams must be bit-identical");
        }
    }

    #[test]
    fn adversarial_archetypes_behave_to_spec() {
        let d = table(7);
        let cfg = WorkerPoolConfig {
            num_workers: 20,
            familiarity: None,
            adversaries: AdversaryConfig {
                spammer_frac: 0.25,
                colluder_frac: 0.2,
                colluder_groups: 2,
                sleeper_frac: 0.1,
                sleeper_wake_after: 3,
            },
            ..Default::default()
        };
        let mut pool = WorkerPool::new(&d.schema, &d.truth, cfg, 21);
        // Deterministic tail layout: 9 honest, 5 spammers, 4 colluders over
        // 2 rings, 2 sleepers.
        let kinds: Vec<Archetype> = (0..20u32).map(|w| pool.archetype(WorkerId(w))).collect();
        assert_eq!(kinds.iter().filter(|a| **a == Archetype::Honest).count(), 9);
        assert_eq!(kinds.iter().filter(|a| **a == Archetype::Spammer).count(), 5);
        assert_eq!(kinds.iter().filter(|a| matches!(a, Archetype::Colluder { .. })).count(), 4);
        assert_eq!(kinds.iter().filter(|a| matches!(a, Archetype::Sleeper { .. })).count(), 2);
        assert!(kinds[..9].iter().all(|a| !a.adversarial()), "honest workers keep the low ids");

        // Ring members give the exact same answer to the same cell; distinct
        // rings disagree somewhere.
        let rings: Vec<(u32, u32)> = (0..20u32)
            .filter_map(|w| match pool.archetype(WorkerId(w)) {
                Archetype::Colluder { group } => Some((w, group)),
                _ => None,
            })
            .collect();
        let (same_a, same_b) = (rings[0], rings[2]);
        assert_eq!(same_a.1, same_b.1, "round-robin ring assignment");
        let other = rings.iter().find(|(_, g)| *g != same_a.1).unwrap();
        let mut cross_ring_diff = false;
        for i in 0..d.rows() as u32 {
            for j in 0..d.cols() as u32 {
                let c = CellId::new(i, j);
                let va = pool.answer(WorkerId(same_a.0), c);
                let vb = pool.answer(WorkerId(same_b.0), c);
                assert_eq!(va, vb, "same ring, same script");
                if pool.answer(WorkerId(other.0), c) != va {
                    cross_ring_diff = true;
                }
            }
        }
        assert!(cross_ring_diff, "different rings follow different scripts");

        // A sleeper answers honestly (= truth-correlated) before its wake
        // count, then spams: compare its pre/post answers on an easy
        // categorical column against the truth.
        let sleeper = (0..20u32)
            .find(|w| matches!(pool.archetype(WorkerId(*w)), Archetype::Sleeper { .. }))
            .unwrap();
        let col = d.schema.categorical_columns()[0] as u32;
        let first: Vec<Value> =
            (0..3u32).map(|i| pool.answer(WorkerId(sleeper), CellId::new(i % 3, col))).collect();
        // After 3 answers the sleeper is awake; its answers now come from the
        // uniform stream — verify over many draws they hit multiple labels
        // on a cell the honest model answers consistently.
        let mut labels_seen = std::collections::HashSet::new();
        for _ in 0..40 {
            match pool.answer(WorkerId(sleeper), CellId::new(0, col)) {
                Value::Categorical(l) => labels_seen.insert(l),
                Value::Continuous(_) => unreachable!("categorical column"),
            };
        }
        assert!(labels_seen.len() > 1, "awake sleeper spams uniformly: {labels_seen:?}");
        assert_eq!(first.len(), 3);

        // Determinism with a full adversarial mix.
        let mut p2 = WorkerPool::new(&d.schema, &d.truth, cfg, 21);
        let mut replay = Vec::new();
        for i in 0..30u32 {
            let w = p2.next_worker();
            replay.push((w, p2.answer(w, CellId::new(i % d.rows() as u32, 0))));
        }
        let mut p3 = WorkerPool::new(&d.schema, &d.truth, cfg, 21);
        for (i, (w, v)) in replay.iter().enumerate() {
            assert_eq!(*w, p3.next_worker());
            assert_eq!(*v, p3.answer(*w, CellId::new(i as u32 % d.rows() as u32, 0)));
        }
    }

    #[test]
    fn zipf_arrivals_are_heavy_tailed_and_deterministic() {
        let d = tcrowd_tabular::generate_dataset(
            &tcrowd_tabular::GeneratorConfig {
                rows: 5,
                columns: 2,
                num_workers: 30,
                answers_per_task: 1,
                ..Default::default()
            },
            1,
        );
        let cfg = WorkerPoolConfig {
            num_workers: 30,
            arrival: ArrivalOrder::ZipfParticipation { skew: 1.2 },
            ..Default::default()
        };
        let mut a = WorkerPool::new(&d.schema, &d.truth, cfg, 5);
        let mut b = WorkerPool::new(&d.schema, &d.truth, cfg, 5);
        let mut counts = vec![0usize; 30];
        for _ in 0..3_000 {
            let wa = a.next_worker();
            assert_eq!(wa, b.next_worker(), "same seed, same arrivals");
            counts[wa.0 as usize] += 1;
        }
        // Heavy tail: the most frequent worker dominates the median one.
        let max = *counts.iter().max().unwrap();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[15];
        assert!(
            max > 4 * median.max(1),
            "participation should be heavy-tailed (max {max}, median {median})"
        );
        // Every arrival is a valid worker id.
        assert!(counts.iter().sum::<usize>() == 3_000);
    }
}
