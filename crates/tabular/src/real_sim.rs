//! Simulated stand-ins for the paper's three real AMT datasets.
//!
//! The original Celebrity/Restaurant/Emotion answer sets were collected from
//! live Amazon Mechanical Turk workers and are not redistributable, so we
//! synthesise datasets with the same *shape* (rows, columns, datatypes,
//! answers-per-task — paper Table 6), a long-tailed worker-quality
//! population, a row-familiarity effect (a worker who does not recognise an
//! entity errs across the whole row, §1), and the inter-attribute error
//! correlations the paper measured (§6.4.3: Restaurant StartTarget/EndTarget
//! errors are strongly positively correlated).
//!
//! Everything the evaluation compares — method rankings, convergence speed,
//! calibration — depends on these distributional properties, not on the
//! identities of actual celebrities or restaurants.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::answer::{Answer, AnswerLog, CellId, WorkerId};
use crate::dataset::{Dataset, WorkerProfile};
use crate::generator::{
    draw_population, lognormal, noise_scale, GeneratorConfig, RowFamiliarity, WorkerQualityConfig,
};
use crate::schema::{Column, ColumnType, Schema};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use tcrowd_stat::sample::{sample_std_normal, sample_weighted};
use tcrowd_stat::special::erf;

/// Full specification of one simulated real-world dataset.
struct RealSpec {
    name: &'static str,
    key: &'static str,
    columns: Vec<Column>,
    rows: usize,
    answers_per_task: usize,
    num_workers: usize,
    quality: WorkerQualityConfig,
    familiarity: Option<RowFamiliarity>,
    /// Groups of *continuous* column indices whose worker errors share a
    /// latent component with the given correlation.
    corr_groups: Vec<(Vec<usize>, f64)>,
    epsilon: f64,
}

fn build(spec: &RealSpec, seed: u64) -> Dataset {
    let schema = Schema::new(spec.name, spec.key, spec.columns.clone());
    let m = schema.num_columns();
    // Reuse the synthetic generator's population machinery.
    let cfg = GeneratorConfig {
        rows: spec.rows,
        columns: m,
        num_workers: spec.num_workers,
        answers_per_task: spec.answers_per_task,
        quality: spec.quality,
        ..Default::default()
    };
    let mut state = draw_population(&cfg, seed);

    // Ground truth: uniform in each column's domain.
    let truth: Vec<Vec<Value>> = (0..spec.rows)
        .map(|_| {
            (0..m)
                .map(|j| match schema.column_type(j) {
                    ColumnType::Categorical { labels } => {
                        Value::Categorical(state.rng.gen_range(0..labels.len() as u32))
                    }
                    ColumnType::Continuous { min, max } => {
                        Value::Continuous(state.rng.gen_range(*min..*max))
                    }
                })
                .collect()
        })
        .collect();

    // Column index -> (group latent index, rho), if the column is in a group.
    let mut group_of: HashMap<usize, (usize, f64)> = HashMap::new();
    for (g, (cols, rho)) in spec.corr_groups.iter().enumerate() {
        for &j in cols {
            assert!(
                !schema.column_type(j).is_categorical(),
                "correlation groups are for continuous columns"
            );
            group_of.insert(j, (g, *rho));
        }
    }

    let worker_ids: Vec<WorkerId> = (0..spec.num_workers as u32).map(WorkerId).collect();
    let mut answers = AnswerLog::new(spec.rows, m);
    for i in 0..spec.rows {
        let mut pool = worker_ids.clone();
        pool.shuffle(&mut state.rng);
        for &worker in pool.iter().take(spec.answers_per_task) {
            let phi = state.phi[worker.0 as usize];
            let fam = match spec.familiarity {
                Some(rf) if state.rng.gen_range(0.0..1.0) < rf.p_unfamiliar => rf.difficulty_factor,
                _ => 1.0,
            };
            // One latent normal per correlation group per (worker, row).
            let latents: Vec<f64> =
                (0..spec.corr_groups.len()).map(|_| sample_std_normal(&mut state.rng)).collect();
            for j in 0..m {
                let v = state.alpha[i] * state.beta[j] * phi * fam;
                let value = match (&truth[i][j], schema.column_type(j)) {
                    (Value::Continuous(t), ColumnType::Continuous { min, max }) => {
                        let s = noise_scale(*min, *max);
                        let z = match group_of.get(&j) {
                            Some(&(g, rho)) => {
                                rho.sqrt() * latents[g]
                                    + (1.0 - rho).sqrt() * sample_std_normal(&mut state.rng)
                            }
                            None => sample_std_normal(&mut state.rng),
                        };
                        Value::Continuous(t + s * v.sqrt() * z)
                    }
                    (Value::Categorical(t), ColumnType::Categorical { labels }) => {
                        let l = labels.len() as u32;
                        let q = erf(spec.epsilon / (2.0 * v).sqrt());
                        if l == 1 || state.rng.gen_range(0.0..1.0) < q {
                            Value::Categorical(*t)
                        } else {
                            let w: Vec<f64> =
                                (0..l).map(|z| if z == *t { 0.0 } else { 1.0 }).collect();
                            Value::Categorical(sample_weighted(&mut state.rng, &w) as u32)
                        }
                    }
                    _ => unreachable!("truth/type mismatch"),
                };
                answers.push(Answer { worker, cell: CellId::new(i as u32, j as u32), value });
            }
        }
    }

    let worker_truth =
        worker_ids.iter().map(|&w| (w, WorkerProfile { phi: state.phi[w.0 as usize] })).collect();
    let dataset = Dataset { schema, truth, answers, worker_truth };
    debug_assert_eq!(dataset.validate(), Ok(()));
    dataset
}

/// Simulated **Celebrity** dataset: 174 rows × 7 columns, 5 answers per task
/// (paper Table 6). Name/Nationality/Ethnicity categorical; Age, Height,
/// Notability and Facial expression continuous. A pronounced row-familiarity
/// effect models "does the worker recognise this celebrity at all".
pub fn celebrity(seed: u64) -> Dataset {
    build(
        &RealSpec {
            name: "Celebrity",
            key: "Picture",
            columns: vec![
                Column::new("Name", ColumnType::categorical_with_cardinality(50)),
                Column::new("Nationality", ColumnType::categorical_with_cardinality(20)),
                Column::new("Ethnicity", ColumnType::categorical_with_cardinality(8)),
                Column::new("Age", ColumnType::Continuous { min: 18.0, max: 90.0 }),
                Column::new("Height", ColumnType::Continuous { min: 150.0, max: 200.0 }),
                Column::new("Notability", ColumnType::Continuous { min: 0.0, max: 10.0 }),
                Column::new("Facial", ColumnType::Continuous { min: 0.0, max: 10.0 }),
            ],
            rows: 174,
            answers_per_task: 5,
            num_workers: 109,
            quality: WorkerQualityConfig::default(),
            familiarity: Some(RowFamiliarity { p_unfamiliar: 0.20, difficulty_factor: 15.0 }),
            corr_groups: vec![],
            epsilon: 0.5,
        },
        seed,
    )
}

/// Simulated **Restaurant** dataset: 203 rows × 5 columns, 4 answers per task
/// (paper Table 6). Aspect/Attribute/Sentiment categorical; StartTarget and
/// EndTarget continuous with strongly correlated worker errors (ρ = 0.6),
/// reproducing the paper's Fig. 6 observation.
pub fn restaurant(seed: u64) -> Dataset {
    build(
        &RealSpec {
            name: "Restaurant",
            key: "Review",
            columns: vec![
                Column::new("Aspect", ColumnType::categorical_with_cardinality(5)),
                Column::new("Attribute", ColumnType::categorical_with_cardinality(6)),
                Column::new("Sentiment", ColumnType::categorical_with_cardinality(3)),
                Column::new("StartTarget", ColumnType::Continuous { min: 0.0, max: 300.0 }),
                Column::new("EndTarget", ColumnType::Continuous { min: 0.0, max: 300.0 }),
            ],
            rows: 203,
            answers_per_task: 4,
            num_workers: 96,
            quality: WorkerQualityConfig::default(),
            familiarity: Some(RowFamiliarity { p_unfamiliar: 0.15, difficulty_factor: 10.0 }),
            corr_groups: vec![(vec![3, 4], 0.6)],
            epsilon: 0.5,
        },
        seed,
    )
}

/// Simulated **Emotion** dataset: 100 rows × 7 columns, all continuous, 10
/// answers per task (paper Table 6). Six emotion scores in `[0, 100]` and one
/// overall valence in `[-100, 100]`; emotion-score errors share a mild common
/// component (a worker's overall reading of the text).
pub fn emotion(seed: u64) -> Dataset {
    build(
        &RealSpec {
            name: "Emotion",
            key: "Text",
            columns: vec![
                Column::new("Anger", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Disgust", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Fear", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Joy", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Sadness", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Surprise", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Valence", ColumnType::Continuous { min: -100.0, max: 100.0 }),
            ],
            rows: 100,
            answers_per_task: 10,
            num_workers: 38,
            quality: WorkerQualityConfig {
                // Emotion scoring is noisier and more subjective (paper
                // reports higher MNAD here than elsewhere).
                median_phi: 0.35,
                sigma_ln_phi: 0.6,
                spammer_fraction: 0.08,
                spammer_factor: 12.0,
            },
            familiarity: Some(RowFamiliarity { p_unfamiliar: 0.10, difficulty_factor: 5.0 }),
            corr_groups: vec![(vec![0, 1, 2, 3, 4, 5], 0.3)],
            epsilon: 0.5,
        },
        seed,
    )
}

/// A worker pool used by end-to-end assignment experiments on the simulated
/// real datasets: the same long-tail population as the truth data generator.
pub fn long_tail_phis(num_workers: usize, quality: &WorkerQualityConfig, seed: u64) -> Vec<f64> {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_workers)
        .map(|_| {
            let mut p = lognormal(&mut rng, quality.median_phi, quality.sigma_ln_phi);
            if rng.gen_range(0.0..1.0) < quality.spammer_fraction {
                p *= quality.spammer_factor;
            }
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_stat::describe::pearson;

    #[test]
    fn celebrity_matches_table6() {
        let d = celebrity(1);
        let s = d.statistics();
        assert_eq!(s.rows, 174);
        assert_eq!(s.columns, 7);
        assert_eq!(s.cells, 1218);
        assert!((s.answers_per_task - 5.0).abs() < 1e-12);
        assert_eq!(s.categorical_columns, 3);
        assert_eq!(s.continuous_columns, 4);
    }

    #[test]
    fn restaurant_matches_table6() {
        let d = restaurant(1);
        let s = d.statistics();
        assert_eq!(s.rows, 203);
        assert_eq!(s.columns, 5);
        assert_eq!(s.cells, 1015);
        assert!((s.answers_per_task - 4.0).abs() < 1e-12);
        assert_eq!(s.categorical_columns, 3);
    }

    #[test]
    fn emotion_matches_table6() {
        let d = emotion(1);
        let s = d.statistics();
        assert_eq!(s.rows, 100);
        assert_eq!(s.columns, 7);
        assert_eq!(s.cells, 700);
        assert!((s.answers_per_task - 10.0).abs() < 1e-12);
        assert_eq!(s.categorical_columns, 0);
    }

    #[test]
    fn restaurant_start_end_errors_are_correlated() {
        // Reproduces the paper's Fig. 6 (right): per-answer errors on
        // StartTarget and EndTarget by the same worker on the same row are
        // positively correlated.
        let d = restaurant(3);
        let (mut es, mut ee) = (Vec::new(), Vec::new());
        let m = d.answers.to_matrix();
        for w in 0..m.num_workers() {
            for i in 0..d.rows() as u32 {
                let row: Vec<_> = m.worker_row_answers(w, i).collect();
                if row.is_empty() {
                    continue;
                }
                let find = |col: u32| {
                    row.iter().find(|a| a.cell.col == col).map(|a| {
                        a.value.expect_continuous() - d.truth_of(a.cell).expect_continuous()
                    })
                };
                if let (Some(a), Some(b)) = (find(3), find(4)) {
                    es.push(a);
                    ee.push(b);
                }
            }
        }
        let r = pearson(&es, &ee);
        assert!(r > 0.3, "StartTarget/EndTarget error correlation = {r}");
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = celebrity(9);
        let b = celebrity(9);
        assert_eq!(a.answers.all(), b.answers.all());
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn celebrity_has_row_level_error_correlation() {
        // Categorical errors of one worker across columns of the same row
        // should co-occur more than independently (the familiarity effect).
        let d = celebrity(5);
        let (mut e_name, mut e_nat) = (Vec::new(), Vec::new());
        let m = d.answers.to_matrix();
        for w in 0..m.num_workers() {
            for i in 0..d.rows() as u32 {
                let row: Vec<_> = m.worker_row_answers(w, i).collect();
                if row.is_empty() {
                    continue;
                }
                let err = |col: u32| {
                    row.iter().find(|a| a.cell.col == col).map(|a| {
                        (a.value.expect_categorical() != d.truth_of(a.cell).expect_categorical())
                            as i32 as f64
                    })
                };
                if let (Some(a), Some(b)) = (err(0), err(1)) {
                    e_name.push(a);
                    e_nat.push(b);
                }
            }
        }
        let r = pearson(&e_name, &e_nat);
        assert!(r > 0.05, "Name/Nationality error correlation = {r}");
    }

    #[test]
    fn long_tail_phis_are_long_tailed() {
        let phis = long_tail_phis(500, &WorkerQualityConfig::default(), 2);
        assert_eq!(phis.len(), 500);
        let median = tcrowd_stat::describe::median(&phis);
        let mean = tcrowd_stat::describe::mean(&phis);
        assert!(mean > median, "long tail: mean {mean} > median {median}");
        assert!(phis.iter().all(|p| *p > 0.0));
    }
}
