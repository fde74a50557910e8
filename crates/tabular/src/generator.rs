//! Synthetic data generator (paper §6.5.1).
//!
//! Generates a table with a configurable number of rows/columns, a
//! categorical-to-total column ratio `R`, and an average cell difficulty
//! `µ{α_i β_j}`; then synthesises worker answers through the paper's own
//! answer model (Eq. 1 for continuous, Eq. 3 for categorical) with
//! per-row/per-column difficulties — i.e. the generative process *is* the
//! model class T-Crowd assumes, exactly as in the paper's synthetic study.
//!
//! The paper's defaults are `M = 10`, `R = 0.5`, `µ{α_i β_j} = 1`, uniform
//! categorical cardinalities in `U(2, 10)`, continuous domains `\[0, 1000\]`,
//! and the worker population mirrors the Celebrity experiment; those are the
//! defaults here too.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::answer::{Answer, AnswerLog, CellId, WorkerId};
use crate::dataset::{Dataset, WorkerProfile};
use crate::schema::{Column, ColumnType, Schema};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tcrowd_stat::sample::{sample_std_normal, sample_weighted};
use tcrowd_stat::special::erf;

/// Worker-quality population model.
///
/// Worker variance `φ_u` is drawn log-normally (crowd answer quality is
/// long-tailed — the observation motivating CATD \[17\]) with an extra spammer
/// mass whose variance is inflated by a large factor.
#[derive(Debug, Clone, Copy)]
pub struct WorkerQualityConfig {
    /// Median of the log-normal `φ_u` distribution.
    pub median_phi: f64,
    /// Log-space standard deviation of `φ_u`.
    pub sigma_ln_phi: f64,
    /// Fraction of workers that are spammers.
    pub spammer_fraction: f64,
    /// Multiplier applied to a spammer's `φ_u`.
    pub spammer_factor: f64,
}

impl Default for WorkerQualityConfig {
    fn default() -> Self {
        WorkerQualityConfig {
            median_phi: 0.18,
            sigma_ln_phi: 0.7,
            spammer_fraction: 0.10,
            spammer_factor: 25.0,
        }
    }
}

/// Row-familiarity effect: with probability `p_unfamiliar` a worker "does not
/// recognise" an entity (the paper's §1 example of worker `u3` on picture 3)
/// and all of their answers on that row are degraded by `difficulty_factor`.
///
/// This produces the positive inter-attribute error correlation on which the
/// structure-aware information gain (§5.2) capitalises.
#[derive(Debug, Clone, Copy)]
pub struct RowFamiliarity {
    /// Probability that a (worker, row) pair is unfamiliar.
    pub p_unfamiliar: f64,
    /// Variance multiplier applied to every cell of an unfamiliar row.
    pub difficulty_factor: f64,
}

impl Default for RowFamiliarity {
    fn default() -> Self {
        RowFamiliarity { p_unfamiliar: 0.15, difficulty_factor: 12.0 }
    }
}

/// Entity-group familiarity (the paper's §7 future-work direction: "a worker
/// may be more familiar to celebrities starring in a certain category of
/// films"). Rows are partitioned into `groups` categories round-robin; each
/// (worker, group) pair flips one familiarity coin, so a worker unfamiliar
/// with a *category* errs on **every row of that category** — correlations
/// now span entities, not just attributes.
#[derive(Debug, Clone, Copy)]
pub struct EntityGroups {
    /// Number of entity categories.
    pub groups: usize,
    /// Probability that a (worker, group) pair is unfamiliar.
    pub p_unfamiliar: f64,
    /// Variance multiplier for every cell in an unfamiliar group.
    pub difficulty_factor: f64,
}

impl Default for EntityGroups {
    fn default() -> Self {
        EntityGroups { groups: 5, p_unfamiliar: 0.2, difficulty_factor: 12.0 }
    }
}

impl EntityGroups {
    /// The group a row belongs to (round-robin partition).
    #[inline]
    pub fn group_of(&self, row: usize) -> usize {
        row % self.groups.max(1)
    }
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of rows `N`.
    pub rows: usize,
    /// Number of value columns `M` (paper default 10).
    pub columns: usize,
    /// Ratio of categorical columns `R` (paper default 0.5).
    pub categorical_ratio: f64,
    /// Average cell difficulty `µ{α_i β_j}` (paper default 1.0).
    pub avg_difficulty: f64,
    /// Log-space spread of the row/column difficulty draws.
    pub difficulty_sigma: f64,
    /// Answers collected per task (the AMT-style fixed-redundancy policy the
    /// paper simulates for the truth-inference experiments).
    pub answers_per_task: usize,
    /// Number of workers in the pool (Celebrity-scale by default).
    pub num_workers: usize,
    /// Worker-quality population.
    pub quality: WorkerQualityConfig,
    /// Categorical cardinalities are drawn uniformly from this inclusive
    /// range (paper: `U(2, 10)`).
    pub cardinality_range: (u32, u32),
    /// Continuous column domain (paper: `[0, 1000]`).
    pub continuous_domain: (f64, f64),
    /// Quality window `ε` used to convert `φ` into categorical accuracy
    /// (Eq. 2). Expressed in units of the column's noise scale.
    pub epsilon: f64,
    /// Optional row-familiarity effect (off by default: the paper's §6.5.1
    /// generator has independent cells; `real_sim` turns it on).
    pub row_familiarity: Option<RowFamiliarity>,
    /// Optional entity-group familiarity (off by default; the §7 future-work
    /// extension — see [`EntityGroups`]).
    pub entity_groups: Option<EntityGroups>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            rows: 174,
            columns: 10,
            categorical_ratio: 0.5,
            avg_difficulty: 1.0,
            difficulty_sigma: 0.35,
            answers_per_task: 5,
            num_workers: 109,
            quality: WorkerQualityConfig::default(),
            cardinality_range: (2, 10),
            continuous_domain: (0.0, 1000.0),
            epsilon: 0.5,
            row_familiarity: None,
            entity_groups: None,
        }
    }
}

/// Generator population state: worker variances and row/column
/// difficulties. Shared with [`crate::real_sim`] and the simulator's
/// answer oracle.
pub struct GeneratorState {
    /// The generator's RNG (advanced by every draw).
    pub rng: StdRng,
    /// Worker variances `φ_u`, indexed by worker id.
    pub phi: Vec<f64>,
    /// Row difficulties `α_i`.
    pub alpha: Vec<f64>,
    /// Column difficulties `β_j`.
    pub beta: Vec<f64>,
}

/// Draw a log-normal sample with the given median and log-space sigma.
pub(crate) fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    (median.ln() + sigma * sample_std_normal(rng)).exp()
}

/// The per-column noise scale for continuous answers: one standard deviation
/// of the ground-truth spread (`width/√12` for a uniform domain), so a worker
/// with `α β φ = 1` is as noisy as the column itself is spread out.
pub fn noise_scale(min: f64, max: f64) -> f64 {
    (max - min) / 12f64.sqrt()
}

/// Generate a schema with `columns` columns of which the first
/// `ceil(R·columns)` are categorical.
fn generate_schema(cfg: &GeneratorConfig, rng: &mut StdRng) -> Schema {
    let n_cat = (cfg.categorical_ratio * cfg.columns as f64).round() as usize;
    let mut columns = Vec::with_capacity(cfg.columns);
    for j in 0..cfg.columns {
        if j < n_cat {
            let k = rng.gen_range(cfg.cardinality_range.0..=cfg.cardinality_range.1);
            columns
                .push(Column::new(format!("cat{j}"), ColumnType::categorical_with_cardinality(k)));
        } else {
            let (lo, hi) = cfg.continuous_domain;
            columns
                .push(Column::new(format!("num{j}"), ColumnType::Continuous { min: lo, max: hi }));
        }
    }
    Schema::new("synthetic", "entity", columns)
}

/// Synthesise one answer from the paper's worker model.
///
/// `variance` is the effective `α_i β_j φ_u` (optionally inflated by the
/// row-familiarity factor); `epsilon` the quality window of Eq. 2.
pub fn synthesize_answer(
    rng: &mut StdRng,
    truth: &Value,
    ty: &ColumnType,
    variance: f64,
    epsilon: f64,
) -> Value {
    match (truth, ty) {
        (Value::Continuous(t), ColumnType::Continuous { min, max }) => {
            // Eq. 1: a ~ N(T*, αβφ) in noise-scale units.
            let s = noise_scale(*min, *max);
            Value::Continuous(t + s * variance.sqrt() * sample_std_normal(rng))
        }
        (Value::Categorical(t), ColumnType::Categorical { labels }) => {
            // Eq. 3: correct with prob q = erf(ε/√(2αβφ)), otherwise uniform
            // over the |L|-1 wrong labels.
            let l = labels.len() as u32;
            let q = erf(epsilon / (2.0 * variance).sqrt());
            if l == 1 || rng.gen_range(0.0..1.0) < q {
                Value::Categorical(*t)
            } else {
                let weights: Vec<f64> = (0..l).map(|z| if z == *t { 0.0 } else { 1.0 }).collect();
                Value::Categorical(sample_weighted(rng, &weights) as u32)
            }
        }
        _ => unreachable!("generator truth/type mismatch"),
    }
}

/// Generate ground truth for one cell.
fn generate_truth(rng: &mut StdRng, ty: &ColumnType) -> Value {
    match ty {
        ColumnType::Categorical { labels } => {
            Value::Categorical(rng.gen_range(0..labels.len() as u32))
        }
        ColumnType::Continuous { min, max } => Value::Continuous(rng.gen_range(*min..*max)),
    }
}

/// Draw worker variances and row/column difficulties.
pub fn draw_population(cfg: &GeneratorConfig, seed: u64) -> GeneratorState {
    let mut rng = StdRng::seed_from_u64(seed);
    let phi: Vec<f64> = (0..cfg.num_workers)
        .map(|_| {
            let mut p = lognormal(&mut rng, cfg.quality.median_phi, cfg.quality.sigma_ln_phi);
            if rng.gen_range(0.0..1.0) < cfg.quality.spammer_fraction {
                p *= cfg.quality.spammer_factor;
            }
            p
        })
        .collect();
    // E[lognormal(median=m, σ)] = m·e^{σ²/2}; divide it out so that
    // E[α_i]·E[β_j] = avg_difficulty exactly.
    let correction = (cfg.difficulty_sigma * cfg.difficulty_sigma / 2.0).exp();
    let side_median = cfg.avg_difficulty.sqrt() / correction;
    let alpha: Vec<f64> =
        (0..cfg.rows).map(|_| lognormal(&mut rng, side_median, cfg.difficulty_sigma)).collect();
    let beta: Vec<f64> =
        (0..cfg.columns).map(|_| lognormal(&mut rng, side_median, cfg.difficulty_sigma)).collect();
    GeneratorState { rng, phi, alpha, beta }
}

/// Generate a complete synthetic dataset (schema, truth, answers, profiles).
///
/// Workers are assigned whole rows (a HIT contains one task per column, as in
/// the paper's AMT setup), each row receiving `answers_per_task` distinct
/// workers; determinism is total given `(cfg, seed)`.
pub fn generate_dataset(cfg: &GeneratorConfig, seed: u64) -> Dataset {
    assert!(cfg.rows > 0 && cfg.columns > 0, "table must be non-empty");
    assert!(cfg.num_workers >= cfg.answers_per_task, "need at least answers_per_task workers");
    let mut state = draw_population(cfg, seed);
    let schema = generate_schema(cfg, &mut state.rng);

    let truth: Vec<Vec<Value>> = (0..cfg.rows)
        .map(|_| {
            (0..cfg.columns)
                .map(|j| generate_truth(&mut state.rng, schema.column_type(j)))
                .collect()
        })
        .collect();

    let mut answers = AnswerLog::new(cfg.rows, cfg.columns);
    let worker_ids: Vec<WorkerId> = (0..cfg.num_workers as u32).map(WorkerId).collect();
    // Entity-group familiarity coins, flipped lazily per (worker, group).
    let mut group_coins: HashMap<(WorkerId, usize), f64> = HashMap::new();
    for i in 0..cfg.rows {
        // Pick `answers_per_task` distinct workers for the whole row.
        let mut pool = worker_ids.clone();
        pool.shuffle(&mut state.rng);
        for &worker in pool.iter().take(cfg.answers_per_task) {
            let phi = state.phi[worker.0 as usize];
            // Row-familiarity: one draw per (worker, row).
            let mut familiarity = match cfg.row_familiarity {
                Some(rf) if state.rng.gen_range(0.0..1.0) < rf.p_unfamiliar => rf.difficulty_factor,
                _ => 1.0,
            };
            if let Some(eg) = cfg.entity_groups {
                let rng = &mut state.rng;
                familiarity *= *group_coins.entry((worker, eg.group_of(i))).or_insert_with(|| {
                    if rng.gen_range(0.0..1.0) < eg.p_unfamiliar {
                        eg.difficulty_factor
                    } else {
                        1.0
                    }
                });
            }
            for j in 0..cfg.columns {
                let variance = state.alpha[i] * state.beta[j] * phi * familiarity;
                let value = synthesize_answer(
                    &mut state.rng,
                    &truth[i][j],
                    schema.column_type(j),
                    variance,
                    cfg.epsilon,
                );
                answers.push(Answer { worker, cell: CellId::new(i as u32, j as u32), value });
            }
        }
    }

    let worker_truth: HashMap<WorkerId, WorkerProfile> =
        worker_ids.iter().map(|&w| (w, WorkerProfile { phi: state.phi[w.0 as usize] })).collect();

    let dataset = Dataset { schema, truth, answers, worker_truth };
    debug_assert_eq!(dataset.validate(), Ok(()));
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            rows: 30,
            columns: 6,
            num_workers: 20,
            answers_per_task: 4,
            ..Default::default()
        }
    }

    #[test]
    fn shape_and_redundancy() {
        let d = generate_dataset(&small_cfg(), 1);
        assert_eq!(d.rows(), 30);
        assert_eq!(d.cols(), 6);
        assert_eq!(d.answers.len(), 30 * 6 * 4);
        assert!((d.answers.avg_answers_per_task() - 4.0).abs() < 1e-12);
        for cell in d.answers.cells() {
            assert_eq!(d.answers.count_for_cell(cell), 4);
        }
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_dataset(&small_cfg(), 42);
        let b = generate_dataset(&small_cfg(), 42);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.answers.all(), b.answers.all());
        let c = generate_dataset(&small_cfg(), 43);
        assert_ne!(a.answers.all(), c.answers.all());
    }

    #[test]
    fn categorical_ratio_respected() {
        for (ratio, expect) in [(0.0, 0), (0.5, 3), (1.0, 6)] {
            let cfg = GeneratorConfig { categorical_ratio: ratio, ..small_cfg() };
            let d = generate_dataset(&cfg, 5);
            assert_eq!(d.schema.categorical_columns().len(), expect, "ratio {ratio}");
        }
    }

    #[test]
    fn workers_answer_whole_rows() {
        let d = generate_dataset(&small_cfg(), 9);
        let m = d.answers.to_matrix();
        for w in 0..m.num_workers() {
            for i in 0..d.rows() as u32 {
                let n = m.worker_row_answer_indices(w, i).len();
                let id = m.worker_id(w);
                assert!(n == 0 || n == d.cols(), "worker {id} answered {n} cells of row {i}");
            }
        }
    }

    #[test]
    fn good_workers_are_more_accurate_than_spammers() {
        let cfg = GeneratorConfig { rows: 120, ..small_cfg() };
        let d = generate_dataset(&cfg, 3);
        // Partition workers by true phi; compare categorical accuracy.
        let mut acc: HashMap<WorkerId, (usize, usize)> = HashMap::new();
        for a in d.answers.all() {
            if let Value::Categorical(l) = a.value {
                let t = d.truth_of(a.cell).expect_categorical();
                let e = acc.entry(a.worker).or_default();
                e.1 += 1;
                if l == t {
                    e.0 += 1;
                }
            }
        }
        let mut good = Vec::new();
        let mut bad = Vec::new();
        for (w, (hits, total)) in &acc {
            if *total < 10 {
                continue;
            }
            let rate = *hits as f64 / *total as f64;
            let phi = d.worker_truth[w].phi;
            if phi < 0.15 {
                good.push(rate);
            } else if phi > 1.5 {
                bad.push(rate);
            }
        }
        if !good.is_empty() && !bad.is_empty() {
            let g = good.iter().sum::<f64>() / good.len() as f64;
            let b = bad.iter().sum::<f64>() / bad.len() as f64;
            assert!(g > b + 0.1, "good {g} should beat bad {b}");
        }
    }

    #[test]
    fn average_difficulty_scales_errors() {
        let mk = |d: f64, seed| {
            let cfg = GeneratorConfig { avg_difficulty: d, categorical_ratio: 1.0, ..small_cfg() };
            let data = generate_dataset(&cfg, seed);
            let mut wrong = 0usize;
            for a in data.answers.all() {
                if a.value.expect_categorical() != data.truth_of(a.cell).expect_categorical() {
                    wrong += 1;
                }
            }
            wrong as f64 / data.answers.len() as f64
        };
        let easy: f64 = (0..5).map(|s| mk(0.5, s)).sum::<f64>() / 5.0;
        let hard: f64 = (0..5).map(|s| mk(3.0, s)).sum::<f64>() / 5.0;
        assert!(hard > easy + 0.05, "hard {hard} vs easy {easy}");
    }

    #[test]
    fn row_familiarity_correlates_errors_within_rows() {
        // With a strong familiarity effect, a worker's errors on two columns
        // of the same row should be positively correlated.
        let cfg = GeneratorConfig {
            rows: 400,
            columns: 2,
            categorical_ratio: 1.0,
            cardinality_range: (5, 5),
            row_familiarity: Some(RowFamiliarity { p_unfamiliar: 0.3, difficulty_factor: 60.0 }),
            ..small_cfg()
        };
        let d = generate_dataset(&cfg, 17);
        let (mut e0, mut e1) = (Vec::new(), Vec::new());
        let m = d.answers.to_matrix();
        for w in 0..m.num_workers() {
            for i in 0..d.rows() as u32 {
                let row: Vec<_> = m.worker_row_answers(w, i).collect();
                if row.len() == 2 {
                    let err = |a: crate::MatrixAnswer| {
                        (a.value.expect_categorical() != d.truth_of(a.cell).expect_categorical())
                            as i32 as f64
                    };
                    let (a, b) =
                        if row[0].cell.col == 0 { (row[0], row[1]) } else { (row[1], row[0]) };
                    e0.push(err(a));
                    e1.push(err(b));
                }
            }
        }
        let r = tcrowd_stat::describe::pearson(&e0, &e1);
        assert!(r > 0.1, "expected positive within-row error correlation, got {r}");
    }

    #[test]
    #[should_panic(expected = "answers_per_task workers")]
    fn rejects_insufficient_workers() {
        let cfg = GeneratorConfig { num_workers: 2, answers_per_task: 5, ..small_cfg() };
        generate_dataset(&cfg, 0);
    }

    #[test]
    fn entity_groups_correlate_errors_across_rows() {
        // A worker unfamiliar with a *category* errs on all rows of that
        // category: the spread of per-(worker, group) error rates should be
        // far wider than under independent cells.
        let cfg = GeneratorConfig {
            rows: 200,
            columns: 2,
            categorical_ratio: 1.0,
            cardinality_range: (6, 6),
            num_workers: 12,
            answers_per_task: 4,
            entity_groups: Some(EntityGroups {
                groups: 4,
                p_unfamiliar: 0.4,
                difficulty_factor: 80.0,
            }),
            ..Default::default()
        };
        let grouped = generate_dataset(&cfg, 6);
        let flat = generate_dataset(&GeneratorConfig { entity_groups: None, ..cfg.clone() }, 6);
        let group_variance = |d: &crate::dataset::Dataset| {
            let eg = EntityGroups { groups: 4, ..Default::default() };
            let mut stats: HashMap<(WorkerId, usize), (f64, f64)> = HashMap::new();
            for a in d.answers.all() {
                let wrong = (a.value.expect_categorical()
                    != d.truth_of(a.cell).expect_categorical()) as i32
                    as f64;
                let e = stats.entry((a.worker, eg.group_of(a.cell.row as usize))).or_default();
                e.0 += wrong;
                e.1 += 1.0;
            }
            let rates: Vec<f64> =
                stats.values().filter(|(_, n)| *n >= 10.0).map(|(w, n)| w / n).collect();
            tcrowd_stat::describe::variance(&rates)
        };
        assert!(
            group_variance(&grouped) > 2.0 * group_variance(&flat),
            "grouped {} vs flat {}",
            group_variance(&grouped),
            group_variance(&flat)
        );
    }

    #[test]
    fn continuous_answers_cluster_near_truth_for_good_workers() {
        let cfg = GeneratorConfig {
            rows: 200,
            columns: 2,
            categorical_ratio: 0.0,
            quality: WorkerQualityConfig {
                median_phi: 0.02,
                sigma_ln_phi: 0.1,
                spammer_fraction: 0.0,
                spammer_factor: 1.0,
            },
            ..small_cfg()
        };
        let d = generate_dataset(&cfg, 2);
        let (lo, hi) = (0.0, 1000.0);
        let s = noise_scale(lo, hi);
        let mut norm_errs = Vec::new();
        for a in d.answers.all() {
            let t = d.truth_of(a.cell).expect_continuous();
            norm_errs.push((a.value.expect_continuous() - t) / s);
        }
        let std = tcrowd_stat::describe::std_dev(&norm_errs);
        // φ≈0.02 with αβ≈1 → std ≈ √0.02 ≈ 0.14 in noise units.
        assert!(std < 0.3, "normalised error std = {std}");
    }
}
