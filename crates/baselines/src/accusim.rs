//! Accu / AccuSim truth discovery (paper ref \[12\]: Dong, Berti-Équille,
//! Srivastava — *Integrating conflicting data: the role of source
//! dependence*, PVLDB 2009).
//!
//! The Accu model treats each worker as a *source* with accuracy `A_u` and
//! scores each candidate value `v` of a cell by the Bayesian vote
//!
//! ```text
//! σ(v) = Σ_{u: a_u = v} ln( n·A_u / (1 − A_u) )
//! ```
//!
//! where `n` is the number of false values in the domain; the posterior is
//! the softmax of the scores and accuracies are re-estimated as the mean
//! posterior probability of each worker's claims, iterating to a fixed
//! point. **AccuSim** additionally propagates votes between *similar*
//! values — essential for continuous attributes, where two answers are
//! rarely identical but often mutually supporting: `σ*(v) = σ(v) +
//! ρ·Σ_{v'} σ(v')·sim(v, v')` with a Gaussian similarity kernel whose
//! bandwidth is a fraction of the column's answer spread.
//!
//! The candidate set of a cell is the set of distinct values answered for
//! it, as in the original web-source setting.

use crate::method::{column_fallbacks, TruthMethod};
use std::collections::HashMap;
use tcrowd_stat::{clamp_prob, describe::zscore_params, EPS};
use tcrowd_tabular::{AnswerLog, CellId, ColumnType, Schema, Value, WorkerId};

/// Accu / AccuSim estimator.
#[derive(Debug, Clone, Copy)]
pub struct Accu {
    /// Fixed-point iterations.
    pub max_iters: usize,
    /// Enable the similarity extension (AccuSim); without it exact-match
    /// votes only.
    pub similarity: bool,
    /// Similarity propagation strength `ρ`.
    pub rho: f64,
    /// Gaussian kernel bandwidth for continuous similarity, as a fraction
    /// of the column's answer standard deviation.
    pub bandwidth_frac: f64,
    /// Assumed number of false values per domain (`n` in the vote formula)
    /// when the schema does not pin the cardinality (continuous columns).
    pub default_n_false: f64,
}

impl Default for Accu {
    fn default() -> Self {
        Accu {
            max_iters: 20,
            similarity: true,
            rho: 0.8,
            bandwidth_frac: 0.15,
            default_n_false: 10.0,
        }
    }
}

impl Accu {
    /// Exact-match Accu (no similarity propagation).
    pub fn exact() -> Self {
        Accu { similarity: false, ..Default::default() }
    }
}

/// A cell's candidate values and who voted for each.
struct Candidates {
    values: Vec<Value>,
    /// Voter lists parallel to `values`.
    voters: Vec<Vec<WorkerId>>,
    /// Pairwise similarity, row-major (identity when similarity is off).
    sim: Vec<f64>,
}

fn value_key(v: &Value) -> (u32, u64) {
    match v {
        Value::Categorical(l) => (0, *l as u64),
        Value::Continuous(x) => (1, x.to_bits()),
    }
}

fn build_candidates(
    answers: &AnswerLog,
    cell: CellId,
    kernel: Option<f64>, // bandwidth for continuous similarity
) -> Option<Candidates> {
    let mut index: HashMap<(u32, u64), usize> = HashMap::new();
    let mut values: Vec<Value> = Vec::new();
    let mut voters: Vec<Vec<WorkerId>> = Vec::new();
    for a in answers.for_cell(cell) {
        let k = value_key(&a.value);
        let slot = *index.entry(k).or_insert_with(|| {
            values.push(a.value);
            voters.push(Vec::new());
            values.len() - 1
        });
        voters[slot].push(a.worker);
    }
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let mut sim = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue; // self-similarity handled by the base vote
            }
            sim[i * n + j] = match (kernel, &values[i], &values[j]) {
                (Some(h), Value::Continuous(a), Value::Continuous(b)) => {
                    let d = (a - b) / h.max(EPS);
                    (-0.5 * d * d).exp()
                }
                _ => 0.0, // categorical: distinct labels share nothing
            };
        }
    }
    Some(Candidates { values, voters, sim })
}

impl TruthMethod for Accu {
    fn name(&self) -> &'static str {
        if self.similarity {
            "AccuSim"
        } else {
            "Accu"
        }
    }

    fn estimate(&self, schema: &Schema, answers: &AnswerLog) -> Vec<Vec<Value>> {
        let rows = answers.rows();
        let cols = answers.cols();

        // Per-column false-value counts and similarity bandwidths.
        let n_false: Vec<f64> = (0..cols)
            .map(|j| match schema.column_type(j) {
                ColumnType::Categorical { labels } => (labels.len().max(2) - 1) as f64,
                ColumnType::Continuous { .. } => self.default_n_false,
            })
            .collect();
        let bandwidth: Vec<Option<f64>> = (0..cols)
            .map(|j| match schema.column_type(j) {
                ColumnType::Continuous { .. } if self.similarity => {
                    let (_, std) = zscore_params(
                        &answers
                            .all()
                            .iter()
                            .filter(|a| a.cell.col as usize == j)
                            .map(|a| a.value.expect_continuous())
                            .collect::<Vec<_>>(),
                    );
                    Some((self.bandwidth_frac * std).max(EPS))
                }
                _ => None,
            })
            .collect();

        // Candidate structures for every answered cell.
        let mut cells: Vec<(CellId, Candidates)> = Vec::new();
        for i in 0..rows as u32 {
            for j in 0..cols as u32 {
                let cell = CellId::new(i, j);
                if let Some(c) = build_candidates(answers, cell, bandwidth[j as usize]) {
                    cells.push((cell, c));
                }
            }
        }

        let mut accuracy: HashMap<WorkerId, f64> =
            answers.all().iter().map(|a| (a.worker, 0.8)).collect();
        let mut posteriors: Vec<Vec<f64>> =
            cells.iter().map(|(_, c)| vec![1.0 / c.values.len() as f64; c.values.len()]).collect();

        for _ in 0..self.max_iters {
            // ---- Value scores and posteriors under current accuracies.
            for ((cell, c), post) in cells.iter().zip(posteriors.iter_mut()) {
                let nf = n_false[cell.col as usize];
                let base: Vec<f64> = c
                    .voters
                    .iter()
                    .map(|vs| {
                        vs.iter()
                            .map(|w| {
                                let a = clamp_prob(accuracy[w]);
                                (nf * a / (1.0 - a)).ln()
                            })
                            .sum::<f64>()
                    })
                    .collect();
                let n = c.values.len();
                let scored: Vec<f64> = (0..n)
                    .map(|i| {
                        let prop: f64 = if self.similarity {
                            (0..n).map(|j| base[j] * c.sim[i * n + j]).sum()
                        } else {
                            0.0
                        };
                        base[i] + self.rho * prop
                    })
                    .collect();
                let m = scored.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = scored.iter().map(|&s| (s - m).exp()).collect();
                let total: f64 = exps.iter().sum();
                post.iter_mut().zip(exps).for_each(|(p, e)| *p = e / total);
            }

            // ---- Accuracy update: mean posterior of each worker's claims.
            let mut mass: HashMap<WorkerId, f64> = HashMap::new();
            let mut count: HashMap<WorkerId, usize> = HashMap::new();
            for ((_, c), post) in cells.iter().zip(&posteriors) {
                for (slot, vs) in c.voters.iter().enumerate() {
                    for w in vs {
                        *mass.entry(*w).or_default() += post[slot];
                        *count.entry(*w).or_default() += 1;
                    }
                }
            }
            for (w, a) in accuracy.iter_mut() {
                if let (Some(m), Some(&n)) = (mass.get(w), count.get(w)) {
                    // Add-one smoothing keeps accuracies off the boundary.
                    *a = clamp_prob((m + 0.8) / (n as f64 + 1.0));
                }
            }
        }

        // ---- Read out the table.
        let fallbacks = column_fallbacks(schema, &answers.to_matrix());
        let mut est: Vec<Vec<Value>> =
            (0..rows).map(|_| (0..cols).map(|j| fallbacks[j]).collect()).collect();
        for ((cell, c), post) in cells.iter().zip(&posteriors) {
            let best = post
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN posterior"))
                .map(|(i, _)| i)
                .expect("non-empty candidates");
            est[cell.row as usize][cell.col as usize] = c.values[best];
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{evaluate, generate_dataset, Answer, Column, GeneratorConfig};

    fn cat_schema(l: u32) -> Schema {
        Schema::new("t", "k", vec![Column::new("c", ColumnType::categorical_with_cardinality(l))])
    }

    #[test]
    fn unanimous_cell_is_recovered() {
        let schema = cat_schema(4);
        let mut log = AnswerLog::new(1, 1);
        for w in 0..3u32 {
            log.push(Answer {
                worker: WorkerId(w),
                cell: CellId::new(0, 0),
                value: Value::Categorical(3),
            });
        }
        let est = Accu::default().estimate(&schema, &log);
        assert_eq!(est[0][0], Value::Categorical(3));
    }

    #[test]
    fn accurate_worker_outweighs_two_spammers() {
        // Worker 0 is right on many cells where the majority agrees, so Accu
        // should learn to trust them on the contested cell.
        let schema = cat_schema(2);
        let rows = 10u32;
        let mut log = AnswerLog::new(rows as usize, 1);
        for i in 0..rows - 1 {
            for w in 0..3u32 {
                log.push(Answer {
                    worker: WorkerId(w),
                    cell: CellId::new(i, 0),
                    value: Value::Categorical(0),
                });
            }
            // Spammers 3 and 4 disagree with everyone.
            for w in 3..5u32 {
                log.push(Answer {
                    worker: WorkerId(w),
                    cell: CellId::new(i, 0),
                    value: Value::Categorical(1),
                });
            }
        }
        // Contested last cell: trusted worker 0 vs the two spammers.
        log.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(rows - 1, 0),
            value: Value::Categorical(0),
        });
        for w in 3..5u32 {
            log.push(Answer {
                worker: WorkerId(w),
                cell: CellId::new(rows - 1, 0),
                value: Value::Categorical(1),
            });
        }
        let est = Accu::default().estimate(&schema, &log);
        assert_eq!(
            est[rows as usize - 1][0],
            Value::Categorical(0),
            "the reliable worker should outvote two discredited ones"
        );
    }

    #[test]
    fn similarity_groups_close_continuous_answers() {
        // Three scattered-but-close answers against one far outlier answered
        // twice: exact Accu sees 1-1-1-2 votes and picks the outlier; AccuSim
        // lets the close answers support each other.
        let schema = Schema::new(
            "t",
            "k",
            vec![Column::new("x", ColumnType::Continuous { min: 0.0, max: 100.0 })],
        );
        let mut log = AnswerLog::new(1, 1);
        for (w, x) in [(0u32, 49.0f64), (1, 50.0), (2, 51.0), (3, 90.0), (4, 90.0)] {
            log.push(Answer {
                worker: WorkerId(w),
                cell: CellId::new(0, 0),
                value: Value::Continuous(x),
            });
        }
        let exact = Accu::exact().estimate(&schema, &log);
        let sim = Accu::default().estimate(&schema, &log);
        assert_eq!(exact[0][0], Value::Continuous(90.0));
        let got = sim[0][0].expect_continuous();
        assert!((49.0..=51.0).contains(&got), "AccuSim should pick a clustered answer, got {got}");
    }

    #[test]
    fn competitive_with_majority_voting_on_synthetic() {
        use crate::mv::MajorityVoting;
        let mut accu_err = 0.0;
        let mut mv_err = 0.0;
        for seed in 0..3 {
            let d = generate_dataset(
                &GeneratorConfig {
                    rows: 40,
                    columns: 4,
                    categorical_ratio: 1.0,
                    num_workers: 20,
                    answers_per_task: 5,
                    ..Default::default()
                },
                seed + 100,
            );
            let a = evaluate(&d.schema, &d.truth, &Accu::default().estimate(&d.schema, &d.answers));
            let mv = evaluate(&d.schema, &d.truth, &MajorityVoting.estimate(&d.schema, &d.answers));
            accu_err += a.error_rate.unwrap();
            mv_err += mv.error_rate.unwrap();
        }
        assert!(accu_err <= mv_err + 0.02 * 3.0, "Accu {} vs MV {}", accu_err / 3.0, mv_err / 3.0);
    }

    #[test]
    fn mixed_table_produces_type_correct_values() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 15,
                columns: 4,
                categorical_ratio: 0.5,
                num_workers: 10,
                answers_per_task: 3,
                ..Default::default()
            },
            7,
        );
        let est = Accu::default().estimate(&d.schema, &d.answers);
        for (i, row) in est.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!(
                    d.schema.column_type(j).accepts(v),
                    "cell ({i},{j}) produced a type-mismatched value"
                );
            }
        }
    }

    #[test]
    fn empty_log_falls_back() {
        let schema = cat_schema(2);
        let log = AnswerLog::new(2, 1);
        let est = Accu::default().estimate(&schema, &log);
        assert_eq!(est.len(), 2);
    }
}
