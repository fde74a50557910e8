//! CRH (paper refs \[18, 19\]) — conflict resolution on heterogeneous data.
//!
//! Iteratively alternates between truth updates and source-weight updates:
//! `w_u = −ln(loss_u / Σ_s loss_s)` where a worker's loss is the 0–1 distance
//! on categorical cells plus the squared normalised distance on continuous
//! cells (the framework's recommended distance pair). Truths are the
//! weighted vote / weighted mean.

use crate::method::{column_zscores, naive_estimates, TruthMethod};
use tcrowd_tabular::{AnswerLog, AnswerMatrix, ColumnType, Schema, Value};

/// CRH estimator.
#[derive(Debug, Clone, Copy)]
pub struct Crh {
    /// Alternating iterations (CRH converges fast; 15 is generous).
    pub max_iters: usize,
    /// Additive smoothing on losses (keeps `ln` finite for perfect workers).
    pub smoothing: f64,
}

impl Default for Crh {
    fn default() -> Self {
        Crh { max_iters: 15, smoothing: 0.01 }
    }
}

impl TruthMethod for Crh {
    fn name(&self) -> &'static str {
        "CRH"
    }

    fn estimate(&self, schema: &Schema, answers: &AnswerLog) -> Vec<Vec<Value>> {
        let matrix = AnswerMatrix::build(answers);
        let mut est = naive_estimates(schema, &matrix);
        if matrix.is_empty() {
            return est;
        }
        let zscales = column_zscores(schema, &matrix);
        // Dense per-worker weights over the matrix's sorted worker index —
        // sums below accumulate in index order, so results are deterministic.
        let mut weights = vec![1.0f64; matrix.num_workers()];
        let mut losses = vec![0.0f64; matrix.num_workers()];

        for _ in 0..self.max_iters {
            // Source losses against the current truths (one payload pass).
            losses.iter_mut().for_each(|l| *l = 0.0);
            for k in 0..matrix.len() {
                let i = matrix.answer_rows()[k] as usize;
                let j = matrix.answer_cols()[k] as usize;
                let loss = if matrix.is_categorical(k) {
                    let t = est[i][j].expect_categorical();
                    (matrix.answer_labels()[k] != t) as i32 as f64
                } else {
                    let t = est[i][j].expect_continuous();
                    let (_, sd) = zscales[j].expect("scaler");
                    let d = (matrix.answer_values()[k] - t) / sd;
                    d * d
                };
                losses[matrix.answer_workers()[k] as usize] += loss;
            }
            let total: f64 = losses.iter().sum::<f64>() + self.smoothing;
            for (wt, &l) in weights.iter_mut().zip(&losses) {
                // w = −ln(loss share); floor at a tiny positive weight so a
                // worker never gets negative influence.
                *wt = (-((l + self.smoothing) / total).ln()).max(1e-3);
            }

            // Truth updates: weighted vote / weighted mean over cell slices.
            for i in 0..matrix.rows() as u32 {
                for j in 0..matrix.cols() as u32 {
                    let range = matrix.cell_range(tcrowd_tabular::CellId::new(i, j));
                    if range.is_empty() {
                        continue;
                    }
                    match schema.column_type(j as usize) {
                        ColumnType::Categorical { labels } => {
                            let mut scores = vec![0.0f64; labels.len()];
                            for k in range {
                                scores[matrix.answer_labels()[k] as usize] +=
                                    weights[matrix.answer_workers()[k] as usize];
                            }
                            let best = scores
                                .iter()
                                .enumerate()
                                .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN"))
                                .map(|(z, _)| z as u32)
                                .unwrap_or(0);
                            est[i as usize][j as usize] = Value::Categorical(best);
                        }
                        ColumnType::Continuous { .. } => {
                            let mut num = 0.0;
                            let mut den = 0.0;
                            for k in range {
                                let w = weights[matrix.answer_workers()[k] as usize];
                                num += w * matrix.answer_values()[k];
                                den += w;
                            }
                            if den > 0.0 {
                                est[i as usize][j as usize] = Value::Continuous(num / den);
                            }
                        }
                    }
                }
            }
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mv::MajorityVoting;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerQualityConfig};

    fn spammy(seed: u64) -> tcrowd_tabular::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 100,
                columns: 4,
                categorical_ratio: 0.5,
                num_workers: 16,
                answers_per_task: 5,
                quality: WorkerQualityConfig {
                    median_phi: 0.15,
                    sigma_ln_phi: 1.0,
                    spammer_fraction: 0.25,
                    spammer_factor: 40.0,
                },
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn crh_beats_unweighted_aggregates() {
        let d = spammy(4);
        let crh = Crh::default().estimate(&d.schema, &d.answers);
        let mv = MajorityVoting.estimate(&d.schema, &d.answers);
        let c = tcrowd_tabular::evaluate(&d.schema, &d.truth, &crh);
        let v = tcrowd_tabular::evaluate(&d.schema, &d.truth, &mv);
        assert!(c.error_rate.unwrap() <= v.error_rate.unwrap() + 0.01);

        // On the continuous side, compare against the *unweighted mean* —
        // the same estimator family without source weights. (The median is a
        // different robustness mechanism and can beat CRH's weighted mean
        // under extreme spammers, which the paper itself notes as CRH's
        // instability.)
        let mut unweighted = d.truth.clone();
        let m = d.answers.to_matrix();
        for i in 0..d.rows() as u32 {
            for j in d.schema.continuous_columns() {
                let vals: Vec<f64> = m
                    .cell_answers(tcrowd_tabular::CellId::new(i, j as u32))
                    .map(|a| a.value.expect_continuous())
                    .collect();
                unweighted[i as usize][j] = Value::Continuous(tcrowd_stat::describe::mean(&vals));
            }
        }
        let u = tcrowd_tabular::evaluate(&d.schema, &d.truth, &unweighted);
        assert!(
            c.mnad.unwrap() < u.mnad.unwrap(),
            "CRH {} vs unweighted mean {}",
            c.mnad.unwrap(),
            u.mnad.unwrap()
        );
    }

    #[test]
    fn handles_empty_and_single_answer_logs() {
        let d = spammy(5);
        let empty = AnswerLog::new(d.rows(), d.cols());
        let est = Crh::default().estimate(&d.schema, &empty);
        assert_eq!(est.len(), d.rows());
        // One answer: CRH should return it.
        let mut one = AnswerLog::new(d.rows(), d.cols());
        one.push(*d.answers.all().first().unwrap());
        let est1 = Crh::default().estimate(&d.schema, &one);
        let a = d.answers.all()[0];
        assert_eq!(est1[a.cell.row as usize][a.cell.col as usize], a.value);
    }
}
