//! The **reference** (naive) inference path: identical model math to the
//! CSR engine, but every sweep routed through `HashMap`-backed side indexes
//! built next to a flat `Vec` of answers — the layout the columnar
//! [`tcrowd_tabular::AnswerMatrix`] replaced.
//!
//! Kept for two purposes:
//!
//! * **Differential testing** — `infer_reference` must produce the same
//!   estimates as [`TCrowd::infer`] (property-tested to `1e-9`; the two
//!   paths perform the same arithmetic in the same order, only the data
//!   access differs).
//! * **Benchmarking** — `benches/bench_inference.rs` measures the CSR
//!   speedup against this path on the 1 000×10 mixed-type table.
//!
//! Access pattern per EM iteration: the E-step and ELBO look up each cell's
//! answer list in a `HashMap<(row, col), Vec<u32>>`, and every per-answer
//! parameter read resolves the worker through a `HashMap<WorkerId, u32>` —
//! exactly the per-sweep hashing + pointer-chasing the columnar store
//! eliminates.

use super::{population_median_phi, EpsilonSpec, InferenceResult, TCrowd};
use crate::em::{
    gauge_step, initial_phi, log_prior, newton_step, Block, ColKind, EmOptions, EmTimings,
    MSTEP_MAX_BACKTRACKS, MSTEP_NOISE_REL, MSTEP_SWEEPS, MSTEP_SWEEP_TOL,
};
use crate::model::{cat_answer_ln_likelihood, quality_dlnv, quality_from_variance};
use crate::truth::TruthDist;
use std::collections::HashMap;
use tcrowd_stat::describe::{median, std_dev, zscore_params};
use tcrowd_stat::normal::Normal;
use tcrowd_stat::{clamp_prob, EPS};
use tcrowd_tabular::{AnswerLog, ColumnType, Schema, Value, WorkerId};

const LN_2PI: f64 = 1.8378770664093453;

/// One flattened answer, keyed by the *external* worker id so every
/// parameter access pays the hash lookup the naive layout implies.
struct RefAnswer {
    worker: WorkerId,
    row: u32,
    col: u32,
    label: u32,
    value: f64,
}

struct RefWorkspace {
    n_rows: usize,
    n_cols: usize,
    col_kind: Vec<ColKind>,
    answers: Vec<RefAnswer>,
    by_cell: HashMap<(u32, u32), Vec<u32>>,
    worker_index: HashMap<WorkerId, u32>,
    workers: Vec<WorkerId>,
    epsilon: f64,
}

impl TCrowd {
    /// Truth inference through the naive `HashMap`-indexed path. Same model,
    /// same options, same estimates (within float-reassociation noise) as
    /// [`TCrowd::infer`] — kept as the differential-testing and benchmarking
    /// baseline for the columnar engine.
    pub fn infer_reference(&self, schema: &Schema, answers: &AnswerLog) -> InferenceResult {
        assert_eq!(schema.num_columns(), answers.cols(), "schema/answer-log column mismatch");
        let n_rows = answers.rows();
        let n_cols = answers.cols();

        // Per-column z-scaling, one filtered scan per column.
        let scalers: Vec<Option<(f64, f64)>> = (0..n_cols)
            .map(|j| match schema.column_type(j) {
                ColumnType::Continuous { .. } => {
                    let col: Vec<f64> = answers
                        .all()
                        .iter()
                        .filter(|a| a.cell.col as usize == j)
                        .map(|a| a.value.expect_continuous())
                        .collect();
                    Some(zscore_params(&col))
                }
                ColumnType::Categorical { .. } => None,
            })
            .collect();

        // Flatten the active columns, indexing workers in sorted-id order
        // (determinism matches the columnar path; the *access* differs).
        let included = |j: usize| self.opts.filter.includes(schema.column_type(j));
        let mut workers: Vec<WorkerId> = answers
            .all()
            .iter()
            .filter(|a| included(a.cell.col as usize))
            .map(|a| a.worker)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        let worker_index: HashMap<WorkerId, u32> =
            workers.iter().enumerate().map(|(i, &w)| (w, i as u32)).collect();
        let mut flat: Vec<RefAnswer> = Vec::new();
        let mut by_cell: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for a in answers.all() {
            let j = a.cell.col as usize;
            if !included(j) {
                continue;
            }
            let (label, value) = match a.value {
                Value::Categorical(l) => (l, 0.0),
                Value::Continuous(x) => {
                    let (m, s) = scalers[j].expect("continuous column has scaler");
                    (0, (x - m) / s)
                }
            };
            by_cell.entry((a.cell.row, a.cell.col)).or_default().push(flat.len() as u32);
            flat.push(RefAnswer {
                worker: a.worker,
                row: a.cell.row,
                col: a.cell.col,
                label,
                value,
            });
        }

        let col_kind: Vec<ColKind> = (0..n_cols)
            .map(|j| match schema.column_type(j) {
                ColumnType::Categorical { labels } => ColKind::Cat(labels.len() as u32),
                ColumnType::Continuous { .. } => ColKind::Cont,
            })
            .collect();

        let epsilon = match self.opts.epsilon {
            EpsilonSpec::Fixed(e) => {
                assert!(e > 0.0, "epsilon must be positive");
                e
            }
            EpsilonSpec::AutoScale(scale) => {
                assert!(scale > 0.0, "epsilon scale must be positive");
                let mut cell_stds = Vec::new();
                for row in 0..n_rows as u32 {
                    for col in 0..n_cols as u32 {
                        if col_kind[col as usize] != ColKind::Cont {
                            continue;
                        }
                        let Some(idx) = by_cell.get(&(row, col)) else { continue };
                        if idx.len() < 2 {
                            continue;
                        }
                        let vals: Vec<f64> = idx.iter().map(|&i| flat[i as usize].value).collect();
                        cell_stds.push(std_dev(&vals));
                    }
                }
                if cell_stds.is_empty() {
                    0.5
                } else {
                    (scale * median(&cell_stds)).max(1e-3)
                }
            }
        };

        let ws = RefWorkspace {
            n_rows,
            n_cols,
            col_kind,
            answers: flat,
            by_cell,
            worker_index,
            workers,
            epsilon,
        };
        let (truths, alpha_ln, beta_ln, phi_ln, trace, iterations, converged, renorm_shift) =
            run_em_reference(&ws, &self.opts.em);

        let phi: Vec<f64> = phi_ln.iter().map(|v| v.exp()).collect();
        InferenceResult {
            n_rows,
            n_cols,
            truths_z: truths,
            scalers,
            alpha: alpha_ln.iter().map(|v| v.exp()).collect(),
            beta: beta_ln.iter().map(|v| v.exp()).collect(),
            worker_index: ws.workers.iter().enumerate().map(|(i, &w)| (w, i)).collect(),
            workers: ws.workers.clone(),
            median_phi: population_median_phi(&phi),
            phi,
            epsilon,
            objective_trace: trace,
            iterations,
            converged,
            renorm_shift,
            timings: EmTimings::default(),
        }
    }
}

/// The log-parameters of one M-step block.
fn block_of<'a>(
    block: Block,
    la: &'a mut [f64],
    lb: &'a mut [f64],
    lp: &'a mut [f64],
) -> &'a mut [f64] {
    match block {
        Block::Phi => lp,
        Block::Alpha => la,
        Block::Beta => lb,
    }
}

#[allow(clippy::type_complexity)]
fn run_em_reference(
    ws: &RefWorkspace,
    opts: &EmOptions,
) -> (Vec<TruthDist>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, usize, bool, (f64, f64)) {
    let n_workers = ws.workers.len();
    let mut ln_alpha = vec![0.0; ws.n_rows];
    let mut ln_beta = vec![0.0; ws.n_cols];
    let mut ln_phi = vec![initial_phi(ws.epsilon, opts.init_quality).ln(); n_workers];
    let mut truths: Vec<TruthDist> = (0..ws.n_rows * ws.n_cols)
        .map(|slot| match ws.col_kind[slot % ws.n_cols] {
            ColKind::Cat(l) => TruthDist::uniform(l),
            ColKind::Cont => TruthDist::Continuous(Normal::STANDARD),
        })
        .collect();
    let mut trace = Vec::new();
    if ws.answers.is_empty() {
        return (truths, ln_alpha, ln_beta, ln_phi, trace, 0, true, (0.0, 0.0));
    }

    let effective_variance = |ln_alpha: &[f64], ln_beta: &[f64], ln_phi: &[f64], a: &RefAnswer| {
        // The per-answer hash resolution the columnar path avoids.
        let u = ws.worker_index[&a.worker] as usize;
        (ln_alpha[a.row as usize] + ln_beta[a.col as usize] + ln_phi[u]).exp()
    };

    let e_step = |truths: &mut Vec<TruthDist>, la: &[f64], lb: &[f64], lp: &[f64]| {
        for row in 0..ws.n_rows as u32 {
            for col in 0..ws.n_cols as u32 {
                let Some(idx) = ws.by_cell.get(&(row, col)) else { continue };
                if idx.is_empty() {
                    continue;
                }
                let slot = row as usize * ws.n_cols + col as usize;
                truths[slot] = match ws.col_kind[col as usize] {
                    ColKind::Cont => {
                        let obs: Vec<(f64, f64)> = idx
                            .iter()
                            .map(|&i| {
                                let a = &ws.answers[i as usize];
                                (a.value, effective_variance(la, lb, lp, a))
                            })
                            .collect();
                        TruthDist::Continuous(Normal::STANDARD.posterior_with_observations(&obs))
                    }
                    ColKind::Cat(l) => {
                        let mut ln_p = vec![0.0f64; l.max(1) as usize];
                        for &i in idx {
                            let a = &ws.answers[i as usize];
                            let v = effective_variance(la, lb, lp, a);
                            let q = quality_from_variance(ws.epsilon, v);
                            for (z, lpv) in ln_p.iter_mut().enumerate() {
                                *lpv += cat_answer_ln_likelihood(q, l, z as u32 == a.label);
                            }
                        }
                        let max = ln_p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        let mut p: Vec<f64> = ln_p.iter().map(|lp| (lp - max).exp()).collect();
                        let total: f64 = p.iter().sum();
                        for v in &mut p {
                            *v /= total;
                        }
                        TruthDist::Categorical(p)
                    }
                };
            }
        }
    };

    let elbo_of = |truths: &[TruthDist], la: &[f64], lb: &[f64], lp: &[f64]| -> f64 {
        let phi_center = initial_phi(ws.epsilon, opts.init_quality).ln();
        let mut elbo = log_prior(la, lb, lp, opts, phi_center);
        for row in 0..ws.n_rows as u32 {
            for col in 0..ws.n_cols as u32 {
                let Some(idx) = ws.by_cell.get(&(row, col)) else { continue };
                if idx.is_empty() {
                    continue;
                }
                let slot = row as usize * ws.n_cols + col as usize;
                match &truths[slot] {
                    TruthDist::Continuous(n) => {
                        for &i in idx {
                            let a = &ws.answers[i as usize];
                            let v = effective_variance(la, lb, lp, a);
                            let d = a.value - n.mean;
                            elbo += -0.5 * (LN_2PI + v.ln()) - (d * d + n.var) / (2.0 * v);
                        }
                        elbo += -0.5 * LN_2PI - (n.mean * n.mean + n.var) / 2.0;
                        elbo += n.differential_entropy();
                    }
                    TruthDist::Categorical(p) => {
                        let l = match ws.col_kind[col as usize] {
                            ColKind::Cat(l) => l,
                            ColKind::Cont => unreachable!(),
                        };
                        for &i in idx {
                            let a = &ws.answers[i as usize];
                            let v = effective_variance(la, lb, lp, a);
                            let q = quality_from_variance(ws.epsilon, v);
                            let pc = clamp_prob(p.get(a.label as usize).copied().unwrap_or(0.0));
                            elbo += pc * cat_answer_ln_likelihood(q, l, true)
                                + (1.0 - pc) * cat_answer_ln_likelihood(q, l, false);
                        }
                        elbo += -(l.max(1) as f64).ln();
                        elbo += tcrowd_stat::entropy::shannon(p);
                    }
                }
            }
        }
        elbo
    };

    let m_step = |truths: &[TruthDist], la: &mut [f64], lb: &mut [f64], lp: &mut [f64]| {
        // Per-answer sufficient statistics (dense, like the seed's cache).
        let mut cont_k = vec![0.0; ws.answers.len()];
        let mut cat_p = vec![0.0; ws.answers.len()];
        for (i, a) in ws.answers.iter().enumerate() {
            let slot = a.row as usize * ws.n_cols + a.col as usize;
            match &truths[slot] {
                TruthDist::Continuous(n) => {
                    let d = a.value - n.mean;
                    cont_k[i] = d * d + n.var;
                }
                TruthDist::Categorical(p) => {
                    cat_p[i] = clamp_prob(p.get(a.label as usize).copied().unwrap_or(0.0));
                }
            }
        }

        let learn_a = opts.learn_row_difficulty;
        let learn_b = opts.learn_col_difficulty;
        let bound = opts.ln_param_bound;
        let phi_center = initial_phi(ws.epsilon, opts.init_quality).ln();
        // The per-answer objective sum, with each answer's first and second
        // derivative in ln v written to `g` / `h` (indexed like `answers`).
        let data_of = |la: &[f64], lb: &[f64], lp: &[f64], g: &mut [f64], h: &mut [f64]| {
            let mut q_val = 0.0;
            for row in 0..ws.n_rows as u32 {
                for col in 0..ws.n_cols as u32 {
                    let Some(idx) = ws.by_cell.get(&(row, col)) else { continue };
                    for &i in idx {
                        let i = i as usize;
                        let a = &ws.answers[i];
                        let u = ws.worker_index[&a.worker] as usize;
                        let va = if learn_a { la[a.row as usize] } else { 0.0 };
                        let vb = if learn_b { lb[a.col as usize] } else { 0.0 };
                        let ln_v = (va + vb + lp[u]).clamp(-bound, bound);
                        let v = ln_v.exp();
                        match ws.col_kind[a.col as usize] {
                            ColKind::Cont => {
                                let half_k_over_v = cont_k[i] / (2.0 * v);
                                q_val += -0.5 * (LN_2PI + ln_v) - half_k_over_v;
                                g[i] = -0.5 + half_k_over_v;
                                h[i] = -half_k_over_v;
                            }
                            ColKind::Cat(l) => {
                                let p = cat_p[i];
                                let q = quality_from_variance(ws.epsilon, v);
                                q_val += p * q.ln()
                                    + (1.0 - p) * ((1.0 - q) / (l.max(2) - 1) as f64).ln();
                                let dq = quality_dlnv(ws.epsilon, v);
                                let x = ws.epsilon / (2.0 * v).sqrt();
                                let d2q = (x * x - 0.5) * dq;
                                g[i] = (p / q - (1.0 - p) / (1.0 - q)) * dq;
                                // q is flat on its clamp; the gradient keeps dq.
                                let q_slope = if q > EPS && q < 1.0 - EPS { dq } else { 0.0 };
                                h[i] = (p / q - (1.0 - p) / (1.0 - q)) * d2q
                                    - (p / (q * q) + (1.0 - p) / ((1.0 - q) * (1.0 - q)))
                                        * dq
                                        * q_slope;
                            }
                        }
                    }
                }
            }
            q_val
        };

        // Same schedule as `em::m_step`: gauge step, then one safeguarded
        // Newton step per block, up to MSTEP_SWEEPS sweeps.
        let n = ws.answers.len();
        let (mut g, mut h) = (vec![0.0; n], vec![0.0; n]);
        let (mut trial_g, mut trial_h) = (vec![0.0; n], vec![0.0; n]);
        let mut data = data_of(la, lb, lp, &mut g, &mut h);
        let mut value = data + log_prior(la, lb, lp, opts, phi_center);
        for _ in 0..MSTEP_SWEEPS {
            let start = value;
            gauge_step(la, lb, lp, opts, phi_center);
            value = data + log_prior(la, lb, lp, opts, phi_center);
            for block in Block::active(opts) {
                let params = block_of(block, la, lb, lp);
                let mut grad = vec![0.0; params.len()];
                let mut curv = vec![0.0; params.len()];
                for (i, a) in ws.answers.iter().enumerate() {
                    let k = match block {
                        Block::Phi => ws.worker_index[&a.worker] as usize,
                        Block::Alpha => a.row as usize,
                        Block::Beta => a.col as usize,
                    };
                    grad[k] += g[i];
                    curv[k] += h[i];
                }
                let (lam, center) = block.prior(opts, phi_center);
                for (k, &x) in params.iter().enumerate() {
                    grad[k] -= lam * (x - center);
                    curv[k] -= lam;
                }
                let step: Vec<f64> =
                    grad.iter().zip(&curv).map(|(&gk, &hk)| newton_step(gk, hk)).collect();
                let slope: f64 = grad.iter().zip(&step).map(|(gk, sk)| gk * sk).sum();
                if slope.is_nan() || slope <= 0.0 {
                    continue;
                }
                let below_noise =
                    curv.iter().all(|&hk| hk < 0.0) && 0.5 * slope < MSTEP_NOISE_REL * value.abs();
                let base = params.to_vec();
                let mut t = 1.0;
                let mut accepted = false;
                for _ in 0..=MSTEP_MAX_BACKTRACKS {
                    let params = block_of(block, la, lb, lp);
                    for k in 0..params.len() {
                        params[k] = (base[k] + t * step[k]).clamp(-bound, bound);
                    }
                    let trial = data_of(la, lb, lp, &mut trial_g, &mut trial_h);
                    let tv = trial + log_prior(la, lb, lp, opts, phi_center);
                    if (tv > value || below_noise) && tv.is_finite() {
                        data = trial;
                        value = tv;
                        std::mem::swap(&mut g, &mut trial_g);
                        std::mem::swap(&mut h, &mut trial_h);
                        accepted = true;
                        break;
                    }
                    t *= 0.5;
                }
                if !accepted {
                    block_of(block, la, lb, lp).copy_from_slice(&base);
                }
            }
            if value - start < MSTEP_SWEEP_TOL {
                break;
            }
        }
    };

    e_step(&mut truths, &ln_alpha, &ln_beta, &ln_phi);
    let mut elbo = elbo_of(&truths, &ln_alpha, &ln_beta, &ln_phi);
    trace.push(elbo);
    let mut iterations = 0;
    let mut converged = false;
    for iter in 1..=opts.max_iters {
        m_step(&truths, &mut ln_alpha, &mut ln_beta, &mut ln_phi);
        e_step(&mut truths, &ln_alpha, &ln_beta, &ln_phi);
        let next = elbo_of(&truths, &ln_alpha, &ln_beta, &ln_phi);
        trace.push(next);
        iterations = iter;
        if (next - elbo).abs() < opts.tol * (1.0 + elbo.abs()) {
            converged = true;
            break;
        }
        elbo = next;
    }

    // Identifiability polish, mirroring `em::renormalize`.
    let mut shift = (0.0, 0.0);
    if opts.learn_row_difficulty {
        let m = ln_alpha.iter().sum::<f64>() / ln_alpha.len().max(1) as f64;
        for v in &mut ln_alpha {
            *v -= m;
        }
        for v in &mut ln_phi {
            *v += m;
        }
        shift.0 = m;
    }
    if opts.learn_col_difficulty {
        let m = ln_beta.iter().sum::<f64>() / ln_beta.len().max(1) as f64;
        for v in &mut ln_beta {
            *v -= m;
        }
        for v in &mut ln_phi {
            *v += m;
        }
        shift.1 = m;
    }

    (truths, ln_alpha, ln_beta, ln_phi, trace, iterations, converged, shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{generate_dataset, CellId, GeneratorConfig};

    #[test]
    fn reference_path_matches_columnar_estimates() {
        for seed in [1u64, 4, 9] {
            let d = generate_dataset(
                &GeneratorConfig {
                    rows: 30,
                    columns: 5,
                    num_workers: 14,
                    answers_per_task: 4,
                    ..Default::default()
                },
                seed,
            );
            let model = TCrowd::default_full();
            let fast = model.infer(&d.schema, &d.answers);
            let naive = model.infer_reference(&d.schema, &d.answers);
            assert_eq!(fast.iterations, naive.iterations, "seed {seed}");
            assert_eq!(fast.workers, naive.workers);
            for (a, b) in fast.phi.iter().zip(&naive.phi) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "phi {a} vs {b}");
            }
            for i in 0..d.rows() as u32 {
                for j in 0..d.cols() as u32 {
                    let (x, y) =
                        (fast.estimate(CellId::new(i, j)), naive.estimate(CellId::new(i, j)));
                    match (x, y) {
                        (Value::Categorical(a), Value::Categorical(b)) => {
                            assert_eq!(a, b, "cell ({i},{j}) seed {seed}")
                        }
                        (Value::Continuous(a), Value::Continuous(b)) => assert!(
                            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                            "cell ({i},{j}) seed {seed}: {a} vs {b}"
                        ),
                        _ => panic!("datatype mismatch at ({i},{j})"),
                    }
                }
            }
        }
    }

    #[test]
    fn reference_path_handles_empty_and_filtered_logs() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 8,
                columns: 3,
                num_workers: 6,
                answers_per_task: 2,
                ..Default::default()
            },
            3,
        );
        let empty = AnswerLog::new(8, 3);
        let r = TCrowd::default_full().infer_reference(&d.schema, &empty);
        assert!(r.converged);
        assert!(r.workers.is_empty());
        let cat = TCrowd::only_categorical();
        let a = cat.infer(&d.schema, &d.answers);
        let b = cat.infer_reference(&d.schema, &d.answers);
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.iterations, b.iterations);
    }
}
