//! The EM truth-inference engine (paper §4.3, Algorithm 1).
//!
//! Internal representation: answers are flattened into index-based records
//! (worker index, row, column, z-scored value), truth posteriors live in a
//! dense per-cell vector, and the parameters are optimised in log space
//! (`ln α, ln β, ln φ`) so positivity is structural rather than enforced by
//! projection.
//!
//! **Identifiability.** The likelihood only sees the product
//! `α_i β_j φ_u`, which leaves a two-dimensional scale ambiguity. Inside EM
//! only the MAP priors pin it, and every M-step moves to their maximum along
//! it in closed form (`gauge_step`). Once EM stops, the geometric means of
//! `α` and `β` are renormalised to 1 and the scale is pushed into `φ`, so
//! reported difficulties are relative and `φ_u` is the absolute per-worker
//! variance.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::model::{cat_answer_ln_likelihood, quality_from_ln_variance_fast};
use crate::pool::WorkerPool;
use crate::truth::TruthDist;
use std::sync::Mutex;
use std::time::Instant;
use tcrowd_stat::batch::{kernels, BatchKernels};
use tcrowd_stat::normal::Normal;
use tcrowd_stat::{clamp_prob, EPS};

/// Options controlling the EM loop.
#[derive(Debug, Clone, Copy)]
pub struct EmOptions {
    /// Maximum number of EM iterations (the paper observes convergence in
    /// fewer than 20).
    pub max_iters: usize,
    /// Relative ELBO-improvement threshold for convergence (the paper uses
    /// 1e-5 on parameter changes; an ELBO criterion is equivalent in practice
    /// and cheaper to evaluate). `0` disables it.
    pub tol: f64,
    /// Optional parameter-change convergence criterion: also stop once the
    /// largest absolute change of any log-parameter across one EM iteration
    /// drops below this threshold (`0` disables it, the default).
    ///
    /// Near the optimum the ELBO flattens quadratically while the parameters
    /// still drift linearly, so an ELBO threshold leaves `√tol`-sized slack
    /// in the parameters. Refit loops that need *estimate agreement* between
    /// a warm-started and a cold-started run (the `bench_refresh` contract:
    /// within 1e-6) converge on the parameters instead — a warm restart that
    /// begins at the fixed point then stops after a single polish iteration
    /// rather than random-walking at the M-step noise floor.
    pub param_tol: f64,
    /// Learn per-row difficulties `α_i` (disable for the ablation study).
    pub learn_row_difficulty: bool,
    /// Learn per-column difficulties `β_j` (disable for the ablation study).
    pub learn_col_difficulty: bool,
    /// Initial worker *quality* `q₀` (probability of a correct categorical
    /// answer) before the first M-step. The corresponding variance is derived
    /// through the inverse erf link, `φ₀ = (ε / (√2·erf⁻¹(q₀)))²`, so the
    /// starting point is calibrated to whatever `ε` resolves to.
    ///
    /// This matters: a *fixed* starting `φ` can imply `q < 1/|L|` under a
    /// small `ε`, which makes the first E-step treat every worker as
    /// adversarial and flip the posterior of small-cardinality columns — a
    /// local optimum EM never escapes. Must lie in `(0, 1)`.
    pub init_quality: f64,
    /// Strength (inverse variance) of the Gaussian prior on `ln φ`.
    ///
    /// Pure maximum-likelihood EM on categorical answers exhibits the
    /// classic confidence spiral: a worker whose answers currently agree
    /// with the posterior gets `q → 1`, which lets that single worker pin
    /// cell posteriors, which further inflates their quality. A weak MAP
    /// prior (`ln φ ~ N(ln φ₀, 1/strength)`, with `φ₀` from
    /// [`EmOptions::init_quality`]) bounds the spiral without
    /// noticeably biasing well-observed workers.
    pub phi_prior_strength: f64,
    /// Strength of the Gaussian priors on `ln α` and `ln β` (centred at 0 —
    /// difficulties are multiplicative corrections, so the prior says
    /// "average difficulty" until the data insists otherwise).
    pub difficulty_prior_strength: f64,
    /// Bounds on `ln φ` (and `ln α`, `ln β`) keeping the optimiser inside a
    /// numerically sane box.
    pub ln_param_bound: f64,
    /// Split the E-step across threads (cells are independent). Results are
    /// identical to the serial path; worthwhile for tables with many cells.
    /// Defaults to on exactly when the `parallel` cargo feature is on, so the
    /// threaded path is what the simulator and benches actually exercise.
    pub parallel_estep: bool,
    /// Split every M-step objective/gradient evaluation across threads
    /// (fixed chunk boundaries + in-order reduction, so the result is
    /// **bit-identical** to the serial path at any thread count — tested).
    /// Defaults to on exactly when the `parallel` cargo feature is on.
    pub parallel_mstep: bool,
    /// Thread count for the parallel phases; `0` (the default) means one
    /// thread per available core. Thread count never affects the fitted
    /// numbers, only wall-clock.
    pub threads: usize,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            max_iters: 50,
            tol: 1e-6,
            param_tol: 0.0,
            learn_row_difficulty: true,
            learn_col_difficulty: true,
            init_quality: 0.7,
            phi_prior_strength: 1.0,
            difficulty_prior_strength: 4.0,
            ln_param_bound: 12.0,
            parallel_estep: cfg!(feature = "parallel"),
            parallel_mstep: cfg!(feature = "parallel"),
            threads: 0,
        }
    }
}

impl EmOptions {
    /// Preset for fixed-point-accurate fits: stop on the parameter-change
    /// criterion alone, with a generous iteration cap. Far slower than the
    /// default and unnecessary for production estimates — use it when two
    /// runs must land on the *same* optimum to high precision (the
    /// warm-vs-cold 1e-6 agreement contract shared by the sim regression
    /// suite and `bench_refresh`). The ELBO criterion is off: near the
    /// optimum it stops a warm and a cold run at different points of the
    /// same flat approach.
    pub fn deep_convergence() -> Self {
        EmOptions { tol: 0.0, param_tol: 3e-9, max_iters: 600, ..Default::default() }
    }
}

/// Column datatype as seen by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ColKind {
    /// Categorical with the given cardinality.
    Cat(u32),
    /// Continuous (values are z-scored).
    Cont,
}

/// One flattened answer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntAnswer {
    pub worker: u32,
    pub row: u32,
    pub col: u32,
    /// Label for categorical columns (unused otherwise).
    pub label: u32,
    /// Z-scored value for continuous columns (unused otherwise).
    pub value: f64,
}

/// The flattened problem instance the EM engine operates on.
///
/// Columnar/CSR layout: `answers` is sorted cell-major (row-major slots,
/// insertion order within a cell) and `cell_offsets` delimits each cell's
/// contiguous slice — every sweep walks dense memory, no per-cell
/// indirection. Built from an [`tcrowd_tabular::AnswerMatrix`] by
/// [`crate::inference::TCrowd::infer`]; workers are indexed densely in
/// sorted-id order, which makes the whole EM pipeline deterministic.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    pub n_rows: usize,
    pub n_cols: usize,
    pub n_workers: usize,
    pub col_kind: Vec<ColKind>,
    /// Cell-major flattened answers.
    pub answers: Vec<IntAnswer>,
    /// CSR offsets into [`Self::answers`], `n_rows * n_cols + 1` entries.
    pub cell_offsets: Vec<u32>,
    /// Column-kind–segregated SoA runs of the same answers, for the batch
    /// M-step/ELBO kernels (built once here, reused every iteration).
    pub runs: MStepRuns,
    /// Quality window ε (Eq. 2), in z-score units.
    pub epsilon: f64,
}

/// The answers of a [`Workspace`] segregated by column kind into contiguous
/// structure-of-arrays runs: one continuous run, one categorical run, each
/// preserving the workspace's cell-major order. The M-step objective over
/// this layout is two branchless batch loops (see [`BatchKernels`]) instead
/// of one per-answer `ColKind` match, and the fixed-size chunks the runs are
/// cut into are the unit of (deterministic) parallelism.
#[derive(Debug, Clone, Default)]
pub(crate) struct MStepRuns {
    pub cont_row: Vec<u32>,
    pub cont_col: Vec<u32>,
    pub cont_worker: Vec<u32>,
    pub cont_value: Vec<f64>,
    pub cat_row: Vec<u32>,
    pub cat_col: Vec<u32>,
    pub cat_worker: Vec<u32>,
    pub cat_label: Vec<u32>,
    /// `ln(max(L,2) - 1)` per categorical answer — the miss-likelihood
    /// normaliser, constant across iterations so hoisted out of the kernels.
    pub cat_ln_card1: Vec<f64>,
}

impl MStepRuns {
    fn build(col_kind: &[ColKind], answers: &[IntAnswer]) -> MStepRuns {
        let mut r = MStepRuns::default();
        for a in answers {
            match col_kind[a.col as usize] {
                ColKind::Cont => {
                    r.cont_row.push(a.row);
                    r.cont_col.push(a.col);
                    r.cont_worker.push(a.worker);
                    r.cont_value.push(a.value);
                }
                ColKind::Cat(l) => {
                    r.cat_row.push(a.row);
                    r.cat_col.push(a.col);
                    r.cat_worker.push(a.worker);
                    r.cat_label.push(a.label);
                    r.cat_ln_card1.push(((l.max(2) - 1) as f64).ln());
                }
            }
        }
        r
    }
}

impl Workspace {
    /// Assemble a workspace from answers in any order: stable-sorts them
    /// cell-major and builds the CSR offsets.
    pub fn assemble(
        n_rows: usize,
        n_cols: usize,
        n_workers: usize,
        col_kind: Vec<ColKind>,
        mut answers: Vec<IntAnswer>,
        epsilon: f64,
    ) -> Workspace {
        answers.sort_by_key(|a| (a.row, a.col));
        let mut cell_offsets = vec![0u32; n_rows * n_cols + 1];
        for a in &answers {
            cell_offsets[a.row as usize * n_cols + a.col as usize + 1] += 1;
        }
        for s in 0..n_rows * n_cols {
            cell_offsets[s + 1] += cell_offsets[s];
        }
        let runs = MStepRuns::build(&col_kind, &answers);
        Workspace { n_rows, n_cols, n_workers, col_kind, answers, cell_offsets, runs, epsilon }
    }

    /// Row-major slot of a cell (test helper; the hot paths inline this).
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn cell_slot(&self, row: u32, col: u32) -> usize {
        row as usize * self.n_cols + col as usize
    }

    /// The contiguous answer slice of one cell slot.
    #[inline]
    pub fn cell_answers(&self, slot: usize) -> &[IntAnswer] {
        &self.answers[self.cell_offsets[slot] as usize..self.cell_offsets[slot + 1] as usize]
    }
}

/// Fitted EM state.
#[derive(Debug, Clone)]
pub(crate) struct EmState {
    pub ln_alpha: Vec<f64>,
    pub ln_beta: Vec<f64>,
    pub ln_phi: Vec<f64>,
    /// Posterior truth distribution per cell (z-space), dense row-major.
    pub truths: Vec<TruthDist>,
    /// ELBO after every EM iteration (Fig. 12a's "objective value").
    pub trace: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// The `(mean ln α, mean ln β)` the identifiability polish subtracted
    /// after convergence. A warm restart adds them back so its seed sits in
    /// the *raw* gauge the M-step priors actually rest in — seeding with the
    /// renormalised parameters would make the first M-step jump back by
    /// exactly this shift and waste the restart's head start.
    pub renorm_shift: (f64, f64),
    /// Where the wall-clock of this run went, by EM phase.
    pub timings: EmTimings,
}

/// Per-phase wall-clock breakdown of one EM run. Totals across the whole
/// run (an EM run performs `iterations + 1` E-steps/ELBO evaluations and
/// `iterations` M-steps). Surfaced through
/// [`crate::InferenceResult::timings`], the service `/stats` endpoint and
/// the inference bench, so refit-lag regressions are attributable to a
/// phase rather than a single opaque number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmTimings {
    /// Total E-step time, nanoseconds.
    pub estep_ns: u64,
    /// Total M-step (block-coordinate Newton) time, nanoseconds.
    pub mstep_ns: u64,
    /// Total ELBO-evaluation time, nanoseconds.
    pub elbo_ns: u64,
    /// Number of M-step objective passes (value, gradient and curvature of
    /// every answer term) across the run — the multiplier that makes the
    /// batch-kernel evaluation the hot loop.
    pub objective_evals: u64,
    /// Threads the parallel phases were split across (1 = serial).
    pub threads: usize,
}

const LN_2PI: f64 = 1.8378770664093453;

/// The variance `φ₀` implied by the initial quality under window `epsilon`:
/// inverts `q = erf(ε/√(2φ))`.
pub(crate) fn initial_phi(epsilon: f64, init_quality: f64) -> f64 {
    let q0 = init_quality.clamp(0.05, 0.99);
    let x = tcrowd_stat::special::erf_inv(q0).max(EPS);
    let phi = epsilon / (std::f64::consts::SQRT_2 * x);
    (phi * phi).max(EPS)
}

/// A warm-start seed for [`run_em_from`]: the fitted log-parameters of a
/// previous, slightly-stale EM run, already aligned to the new workspace's
/// dense indices (rows/columns are positional; workers are mapped by id by
/// the caller, unseen workers get the calibrated initial `φ₀`).
///
/// Only the *parameters* are seeded — the E-step recomputes every posterior
/// from the parameters exactly, so seeding truths would be redundant. EM
/// started near the previous optimum converges in a handful of iterations
/// instead of the full cold trajectory, and — because the EM map and its
/// fixed points are unchanged — lands on the same estimates (the sim
/// regression suite asserts agreement within 1e-6 against the cold path).
#[derive(Debug, Clone)]
pub(crate) struct WarmStart {
    pub ln_alpha: Vec<f64>,
    pub ln_beta: Vec<f64>,
    pub ln_phi: Vec<f64>,
}

/// Run the full EM loop (Algorithm 1) on a workspace, cold-started.
#[cfg_attr(not(test), allow(dead_code))] // production callers go through `run_em_from`
pub(crate) fn run_em(ws: &Workspace, opts: &EmOptions) -> EmState {
    run_em_from(ws, opts, None)
}

/// Run the full EM loop, optionally seeding the parameters from a previous
/// fit (see [`WarmStart`]).
pub(crate) fn run_em_from(ws: &Workspace, opts: &EmOptions, warm: Option<&WarmStart>) -> EmState {
    let bound = opts.ln_param_bound;
    let (ln_alpha, ln_beta, ln_phi) = match warm {
        Some(w) => {
            assert_eq!(w.ln_alpha.len(), ws.n_rows, "warm-start row count mismatch");
            assert_eq!(w.ln_beta.len(), ws.n_cols, "warm-start column count mismatch");
            assert_eq!(w.ln_phi.len(), ws.n_workers, "warm-start worker count mismatch");
            let clamp = |v: &[f64]| v.iter().map(|x| x.clamp(-bound, bound)).collect();
            (clamp(&w.ln_alpha), clamp(&w.ln_beta), clamp(&w.ln_phi))
        }
        None => (
            vec![0.0; ws.n_rows],
            vec![0.0; ws.n_cols],
            vec![initial_phi(ws.epsilon, opts.init_quality).ln(); ws.n_workers],
        ),
    };
    let mut state = EmState {
        ln_alpha,
        ln_beta,
        ln_phi,
        truths: initial_truths(ws),
        trace: Vec::new(),
        iterations: 0,
        converged: false,
        renorm_shift: (0.0, 0.0),
        timings: EmTimings { threads: 1, ..EmTimings::default() },
    };
    if ws.answers.is_empty() {
        // Nothing to learn; posteriors are the priors.
        state.converged = true;
        return state;
    }

    // Resolve the batch-kernel path once and spawn the worker pool once —
    // both are reused across every iteration of this run (pre-PR-6 the
    // E-step spawned OS threads every call, which ate its own speedup).
    let kern = kernels();
    let estep_threads = thread_count(opts.parallel_estep, opts.threads);
    let mstep_threads = thread_count(opts.parallel_mstep, opts.threads);
    let pool_threads = estep_threads.max(mstep_threads);
    let pool = (pool_threads > 1).then(|| WorkerPool::new(pool_threads));
    let epool = pool.as_ref().filter(|_| estep_threads > 1);
    let mpool = pool.as_ref().filter(|_| mstep_threads > 1);
    let mut scratch = EmScratch::new(ws);
    state.timings.threads = pool_threads;

    let t = Instant::now();
    e_step_with(ws, &mut state, epool);
    state.timings.estep_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut elbo = compute_elbo(ws, &state, opts, kern, &mut scratch, mpool);
    state.timings.elbo_ns += t.elapsed().as_nanos() as u64;
    state.trace.push(elbo);

    let mut prev_params: Vec<f64> = Vec::new();
    for iter in 1..=opts.max_iters {
        if opts.param_tol > 0.0 {
            prev_params.clear();
            prev_params.extend_from_slice(&state.ln_alpha);
            prev_params.extend_from_slice(&state.ln_beta);
            prev_params.extend_from_slice(&state.ln_phi);
        }
        let t = Instant::now();
        let evals = m_step(ws, &mut state, opts, kern, &mut scratch, mpool);
        state.timings.mstep_ns += t.elapsed().as_nanos() as u64;
        state.timings.objective_evals += evals as u64;
        let t = Instant::now();
        e_step_with(ws, &mut state, epool);
        state.timings.estep_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let next = compute_elbo(ws, &state, opts, kern, &mut scratch, mpool);
        state.timings.elbo_ns += t.elapsed().as_nanos() as u64;
        state.trace.push(next);
        state.iterations = iter;
        if (next - elbo).abs() < opts.tol * (1.0 + elbo.abs()) {
            state.converged = true;
            elbo = next;
            break;
        }
        if opts.param_tol > 0.0 {
            let moved = state
                .ln_alpha
                .iter()
                .chain(&state.ln_beta)
                .chain(&state.ln_phi)
                .zip(&prev_params)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if moved < opts.param_tol {
                state.converged = true;
                elbo = next;
                break;
            }
        }
        elbo = next;
    }
    let _ = elbo;
    state.renorm_shift = renormalize(&mut state, opts);
    state
}

/// Prior truth distributions: `N(0, 1)` in z-space for continuous cells,
/// uniform for categorical cells.
fn initial_truths(ws: &Workspace) -> Vec<TruthDist> {
    let mut out = Vec::with_capacity(ws.n_rows * ws.n_cols);
    for slot in 0..ws.n_rows * ws.n_cols {
        let col = slot % ws.n_cols;
        out.push(match ws.col_kind[col] {
            ColKind::Cat(l) => TruthDist::uniform(l),
            ColKind::Cont => TruthDist::Continuous(Normal::STANDARD),
        });
    }
    out
}

/// Threads to split a parallel phase across: the option override, else one
/// per available core; always `1` when the phase (or the `parallel`
/// feature) is off.
fn thread_count(phase_enabled: bool, requested: usize) -> usize {
    if !cfg!(feature = "parallel") || !phase_enabled {
        return 1;
    }
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Posterior of one cell under the current parameters (Eq. 4).
fn cell_posterior(
    ws: &Workspace,
    la: &[f64],
    lb: &[f64],
    lp: &[f64],
    slot: usize,
) -> Option<TruthDist> {
    let cell = ws.cell_answers(slot);
    if cell.is_empty() {
        return None; // posterior stays at the prior
    }
    let row = (slot / ws.n_cols) as u32;
    let col = (slot % ws.n_cols) as u32;
    let ln_v_of = |a: &IntAnswer| la[row as usize] + lb[col as usize] + lp[a.worker as usize];
    Some(match ws.col_kind[col as usize] {
        ColKind::Cont => {
            // Streamed precision-weighted update — same accumulation order as
            // `Normal::posterior_with_observations`, without the obs buffer.
            let mut prec = 1.0; // standard-normal prior: 1/var
            let mut weighted = 0.0; // prior mean / var
            for a in cell {
                let v = tcrowd_stat::clamp_var(ln_v_of(a).exp());
                prec += 1.0 / v;
                weighted += a.value / v;
            }
            let var = 1.0 / prec;
            TruthDist::Continuous(Normal::new(weighted * var, var))
        }
        ColKind::Cat(l) => {
            let l_us = l.max(1) as usize;
            let mut ln_p = vec![0.0f64; l_us]; // uniform prior cancels
            for a in cell {
                let q = quality_from_ln_variance_fast(ws.epsilon, ln_v_of(a));
                // Only two distinct likelihood values exist per answer.
                let ln_hit = cat_answer_ln_likelihood(q, l, true);
                let ln_miss = cat_answer_ln_likelihood(q, l, false);
                for (z, lp) in ln_p.iter_mut().enumerate() {
                    *lp += if z as u32 == a.label { ln_hit } else { ln_miss };
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
    })
}

/// Cell slots per E-step chunk. With the persistent pool a chunk claim is
/// one atomic increment plus an uncontended mutex lock, so the batch no
/// longer has to amortise a thread spawn; 64 keeps the claim traffic
/// negligible against the per-cell math while still load-balancing a
/// skewed answer distribution (chunks are *claimed* dynamically — only the
/// chunk *boundaries* are fixed, and each cell's posterior is independent,
/// so scheduling never affects the result).
const ESTEP_CHUNK: usize = 64;

/// Below this many cells a parallel E-step costs more in dispatch than it
/// saves in compute; run serial regardless of the pool.
const ESTEP_PARALLEL_MIN: usize = 256;

/// E-step (Eq. 4), serial entry point (tests and tiny tables).
#[cfg(test)]
pub(crate) fn e_step(ws: &Workspace, state: &mut EmState, _opts: &EmOptions) {
    e_step_with(ws, state, None);
}

/// E-step (Eq. 4): recompute every cell's posterior from the current
/// parameters. Cells are independent, so with a pool the slots are split
/// into fixed 64-slot chunks claimed off the pool's cursor (the paper's §7
/// notes this acceleration). Each chunk writes its posteriors directly into
/// its disjoint slice of `state.truths`, so there is no merge step and the
/// result is bit-identical to the serial path regardless of scheduling —
/// which is tested.
pub(crate) fn e_step_with(ws: &Workspace, state: &mut EmState, pool: Option<&WorkerPool>) {
    let n_slots = ws.n_rows * ws.n_cols;
    let EmState { ln_alpha, ln_beta, ln_phi, truths, .. } = state;
    let (la, lb, lp) = (&ln_alpha[..], &ln_beta[..], &ln_phi[..]);
    match pool.filter(|p| p.threads() > 1 && n_slots >= ESTEP_PARALLEL_MIN) {
        None => {
            for slot in 0..n_slots {
                if let Some(t) = cell_posterior(ws, la, lb, lp, slot) {
                    truths[slot] = t;
                }
            }
        }
        Some(p) => {
            let tasks: Vec<Mutex<(usize, &mut [TruthDist])>> = truths
                .chunks_mut(ESTEP_CHUNK)
                .enumerate()
                .map(|(i, c)| Mutex::new((i * ESTEP_CHUNK, c)))
                .collect();
            p.run(tasks.len(), &|ci| {
                let mut guard = tasks[ci].lock().expect("estep chunk mutex");
                let (base, chunk) = &mut *guard;
                for (off, out) in chunk.iter_mut().enumerate() {
                    if let Some(t) = cell_posterior(ws, la, lb, lp, *base + off) {
                        *out = t;
                    }
                }
            });
        }
    }
}

/// Answers per M-step chunk: the unit of parallelism for the batch-kernel
/// evaluation. Boundaries are **fixed** by this constant (never by thread
/// count), each chunk writes only its own disjoint slices, and the chunk
/// partial sums are reduced serially in chunk order — which is what makes
/// the parallel objective bit-identical to the serial one. 4096 answers is
/// ~100 µs of kernel work, comfortably above the per-chunk claim cost.
const MSTEP_CHUNK: usize = 4096;

/// Reusable buffer set for one EM run: the per-answer caches, the staging
/// arrays the batch kernels read/write, and the per-parameter block
/// buffers of the Newton M-step. Allocated once per `run_em_from` (sized by
/// the workspace's SoA runs).
pub(crate) struct EmScratch {
    /// Continuous answers: `K = (a − T^µ)² + T^φ` (rebuilt per posterior).
    cont_k: Vec<f64>,
    /// Categorical answers: posterior probability the answer is correct.
    cat_p: Vec<f64>,
    /// Categorical answers: `(1 − p)·ln(L−1)`, the constant miss term.
    cat_c: Vec<f64>,
    /// Staging: per-answer effective `ln v` under the evaluated parameters.
    cont_ln_v: Vec<f64>,
    cat_ln_v: Vec<f64>,
    /// Per-answer derivatives written by the latest evaluation.
    eval: AnswerDerivs,
    /// Per-answer derivatives at the M-step's accepted point; swapped with
    /// [`Self::eval`] whenever a trial point is accepted.
    cur: AnswerDerivs,
    /// Block buffers: per-parameter gradient, curvature and Newton step,
    /// and the block's values before the step.
    grad: Vec<f64>,
    curv: Vec<f64>,
    step: Vec<f64>,
    base: Vec<f64>,
}

/// Per-answer derivatives of the objective with respect to `ln v` at one
/// parameter point. The Gaussian curvature needs no buffer: it is
/// `-(g + ½)`.
#[derive(Default)]
struct AnswerDerivs {
    cont_g: Vec<f64>,
    cat_g: Vec<f64>,
    cat_h: Vec<f64>,
}

impl AnswerDerivs {
    /// Size for the runs; the curvature buffer only when asked for, so an
    /// EM run that never reaches an M-step (`Seed::Evaluate`) allocates
    /// no more than the ELBO needs. A no-op once sized.
    fn size_for(&mut self, runs: &MStepRuns, curv: bool) {
        self.cont_g.resize(runs.cont_row.len(), 0.0);
        self.cat_g.resize(runs.cat_row.len(), 0.0);
        if curv {
            self.cat_h.resize(runs.cat_row.len(), 0.0);
        }
    }
}

impl EmScratch {
    pub(crate) fn new(ws: &Workspace) -> EmScratch {
        let nc = ws.runs.cont_row.len();
        let nk = ws.runs.cat_row.len();
        EmScratch {
            cont_k: vec![0.0; nc],
            cat_p: vec![0.0; nk],
            cat_c: vec![0.0; nk],
            cont_ln_v: vec![0.0; nc],
            cat_ln_v: vec![0.0; nk],
            eval: AnswerDerivs::default(),
            cur: AnswerDerivs::default(),
            grad: Vec::new(),
            curv: Vec::new(),
            step: Vec::new(),
            base: Vec::new(),
        }
    }
}

/// Refresh the per-answer sufficient statistics from the current posteriors
/// (used by both the M-step objective and the ELBO, which see different
/// posteriors within one iteration).
fn build_cache(ws: &Workspace, truths: &[TruthDist], scratch: &mut EmScratch) {
    let r = &ws.runs;
    for j in 0..r.cont_row.len() {
        let slot = r.cont_row[j] as usize * ws.n_cols + r.cont_col[j] as usize;
        let TruthDist::Continuous(n) = &truths[slot] else {
            unreachable!("continuous answer on non-continuous posterior")
        };
        let d = r.cont_value[j] - n.mean;
        scratch.cont_k[j] = d * d + n.var;
    }
    for j in 0..r.cat_row.len() {
        let slot = r.cat_row[j] as usize * ws.n_cols + r.cat_col[j] as usize;
        let TruthDist::Categorical(p) = &truths[slot] else {
            unreachable!("categorical answer on non-categorical posterior")
        };
        let pc = clamp_prob(p.get(r.cat_label[j] as usize).copied().unwrap_or(0.0));
        scratch.cat_p[j] = pc;
        scratch.cat_c[j] = (1.0 - pc) * r.cat_ln_card1[j];
    }
}

/// One fixed chunk of a run: the slices a single kernel invocation reads
/// and writes. Chunks are disjoint, so the `Mutex` is uncontended — it
/// exists to hand the `&mut` slices across the pool's shared-closure
/// boundary, not to serialize anything.
struct ChunkTask<'a> {
    cat: bool,
    rows: &'a [u32],
    cols: &'a [u32],
    workers: &'a [u32],
    /// Cont: the `K` cache. Cat: the hit-probability cache `p`.
    aux: &'a [f64],
    /// Cat only: the miss-constant cache `c`.
    aux2: &'a [f64],
    ln_v: &'a mut [f64],
    g: &'a mut [f64],
    /// Cat only, and only when curvature is asked for: its output.
    h: &'a mut [f64],
    /// The chunk's objective partial sum, written by the job.
    q: f64,
}

/// Gather the effective log-variances `ln(α_i β_j φ_u)` of one chunk.
/// `None` parameter slices contribute zero (difficulties frozen by the
/// ablation flags); the clamp is the M-step's optimiser box (the ELBO
/// evaluates unclamped, exactly like the pre-batch code).
#[allow(clippy::too_many_arguments)] // three param lanes + three index runs
fn fill_ln_v(
    la: Option<&[f64]>,
    lb: Option<&[f64]>,
    lp: &[f64],
    clamp: Option<f64>,
    rows: &[u32],
    cols: &[u32],
    workers: &[u32],
    out: &mut [f64],
) {
    for j in 0..out.len() {
        let va = la.map_or(0.0, |v| v[rows[j] as usize]);
        let vb = lb.map_or(0.0, |v| v[cols[j] as usize]);
        out[j] = va + vb + lp[workers[j] as usize];
    }
    if let Some(b) = clamp {
        for v in out.iter_mut() {
            *v = v.clamp(-b, b);
        }
    }
}

/// The Σ-over-answers part of both the M-step objective and the ELBO:
/// per-answer Gaussian terms over the continuous run plus categorical
/// quality terms over the categorical run, evaluated by the batch kernels
/// chunk by chunk (optionally across the pool). Returns the summed
/// objective contribution; per-answer `∂/∂ln v` lands in
/// `scratch.eval.{cont_g, cat_g}`, and with `curv` the categorical
/// `∂²/∂(ln v)²` in `scratch.eval.cat_h`.
///
/// **Determinism:** chunk boundaries come from [`MSTEP_CHUNK`], each chunk
/// writes only its own slices, and the partial sums are folded serially in
/// chunk order after the barrier — so the result is bit-identical at any
/// thread count, including one.
#[allow(clippy::too_many_arguments)] // the two param groups are documented above
fn eval_answers(
    ws: &Workspace,
    la: Option<&[f64]>,
    lb: Option<&[f64]>,
    lp: &[f64],
    clamp: Option<f64>,
    curv: bool,
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> f64 {
    let r = &ws.runs;
    let EmScratch { cont_k, cat_p, cat_c, cont_ln_v, cat_ln_v, eval, .. } = scratch;
    eval.size_for(r, curv);
    let AnswerDerivs { cont_g, cat_g, cat_h } = eval;
    let mut tasks: Vec<Mutex<ChunkTask>> = Vec::new();
    for (i, (ln_v, g)) in
        cont_ln_v.chunks_mut(MSTEP_CHUNK).zip(cont_g.chunks_mut(MSTEP_CHUNK)).enumerate()
    {
        let s = i * MSTEP_CHUNK;
        let e = s + ln_v.len();
        tasks.push(Mutex::new(ChunkTask {
            cat: false,
            rows: &r.cont_row[s..e],
            cols: &r.cont_col[s..e],
            workers: &r.cont_worker[s..e],
            aux: &cont_k[s..e],
            aux2: &[],
            ln_v,
            g,
            h: &mut [],
            q: 0.0,
        }));
    }
    let mut cat_h_chunks = cat_h.chunks_mut(MSTEP_CHUNK);
    for (i, (ln_v, g)) in
        cat_ln_v.chunks_mut(MSTEP_CHUNK).zip(cat_g.chunks_mut(MSTEP_CHUNK)).enumerate()
    {
        let s = i * MSTEP_CHUNK;
        let e = s + ln_v.len();
        let h = if curv { cat_h_chunks.next().expect("curvature buffer sized") } else { &mut [] };
        tasks.push(Mutex::new(ChunkTask {
            cat: true,
            rows: &r.cat_row[s..e],
            cols: &r.cat_col[s..e],
            workers: &r.cat_worker[s..e],
            aux: &cat_p[s..e],
            aux2: &cat_c[s..e],
            ln_v,
            g,
            h,
            q: 0.0,
        }));
    }
    let job = |ci: usize| {
        let mut guard = tasks[ci].lock().expect("mstep chunk mutex");
        let t = &mut *guard;
        fill_ln_v(la, lb, lp, clamp, t.rows, t.cols, t.workers, t.ln_v);
        t.q = if t.cat {
            let h = curv.then_some(&mut *t.h);
            kern.quality_terms(ws.epsilon, t.ln_v, t.aux, t.aux2, t.g, h)
        } else {
            kern.gaussian_terms(t.ln_v, t.aux, t.g)
        };
    };
    match pool.filter(|p| p.threads() > 1 && tasks.len() > 1) {
        Some(p) => p.run(tasks.len(), &job),
        None => {
            for ci in 0..tasks.len() {
                job(ci);
            }
        }
    }
    // In-order reduction: cont chunks first, then cat chunks.
    tasks.iter().map(|t| t.lock().expect("mstep chunk mutex").q).sum()
}

/// Most Newton sweeps per M-step; a sweep steps φ, then α, then β.
pub(crate) const MSTEP_SWEEPS: usize = 3;

/// An M-step stops early once a sweep raises its objective by less than
/// this (absolute).
pub(crate) const MSTEP_SWEEP_TOL: f64 = 1e-8;

/// Rounding noise of one objective pass, relative to its value: a block
/// whose predicted gain is smaller cannot be judged by comparing values.
pub(crate) const MSTEP_NOISE_REL: f64 = 1e-14;

/// Step halvings a block tries before it is left unchanged for the sweep.
pub(crate) const MSTEP_MAX_BACKTRACKS: usize = 10;

/// One parameter block of the M-step. With the other two fixed, each of a
/// block's log-parameters touches a disjoint set of answers, so the block
/// objective separates into one 1-D problem per parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Block {
    /// Worker variances `ln φ_u`.
    Phi,
    /// Row difficulties `ln α_i`.
    Alpha,
    /// Column difficulties `ln β_j`.
    Beta,
}

impl Block {
    /// The blocks an M-step sweeps, in order: φ always, α and β when
    /// learned.
    pub(crate) fn active(opts: &EmOptions) -> impl Iterator<Item = Block> {
        [
            Some(Block::Phi),
            opts.learn_row_difficulty.then_some(Block::Alpha),
            opts.learn_col_difficulty.then_some(Block::Beta),
        ]
        .into_iter()
        .flatten()
    }

    /// `(prior strength, prior centre)` of this block's parameters.
    pub(crate) fn prior(self, opts: &EmOptions, phi_center: f64) -> (f64, f64) {
        match self {
            Block::Phi => (opts.phi_prior_strength, phi_center),
            Block::Alpha | Block::Beta => (opts.difficulty_prior_strength, 0.0),
        }
    }
}

/// The safeguarded 1-D Newton step of one log-parameter from its gradient
/// and curvature: `-grad/curv` where the curvature is negative, the plain
/// gradient elsewhere, clipped to `±1` in log space.
pub(crate) fn newton_step(grad: f64, curv: f64) -> f64 {
    let step = if curv < 0.0 { -grad / curv } else { grad };
    step.clamp(-1.0, 1.0)
}

/// The MAP log-prior of the parameters (see the field docs on
/// [`EmOptions`]); unlearned difficulty blocks contribute nothing.
pub(crate) fn log_prior(
    la: &[f64],
    lb: &[f64],
    lp: &[f64],
    opts: &EmOptions,
    phi_center: f64,
) -> f64 {
    let mut v = 0.0;
    if opts.learn_row_difficulty {
        v -= 0.5 * opts.difficulty_prior_strength * la.iter().map(|x| x * x).sum::<f64>();
    }
    if opts.learn_col_difficulty {
        v -= 0.5 * opts.difficulty_prior_strength * lb.iter().map(|x| x * x).sum::<f64>();
    }
    v - 0.5
        * opts.phi_prior_strength
        * lp.iter().map(|x| (x - phi_center) * (x - phi_center)).sum::<f64>()
}

/// The closed-form gauge step. The likelihood sees only
/// `ln v = ln α_i + ln β_j + ln φ_u`, so shifting every `ln α` by `c`, every
/// `ln β` by `d` and every `ln φ` by `-(c + d)` leaves each answer's term
/// unchanged: only the priors pin these two directions, and block steps
/// crawl along them. This moves straight to the priors' maximum along both
/// (a 2×2 linear solve; one direction when a difficulty block is frozen),
/// without a pass over the answers. Skipped if it would leave the
/// `±ln_param_bound` box.
pub(crate) fn gauge_step(
    la: &mut [f64],
    lb: &mut [f64],
    lp: &mut [f64],
    opts: &EmOptions,
    phi_center: f64,
) {
    let (learn_a, learn_b) = (opts.learn_row_difficulty, opts.learn_col_difficulty);
    if !learn_a && !learn_b {
        return;
    }
    let (ld, lf) = (opts.difficulty_prior_strength, opts.phi_prior_strength);
    let u = lf * lp.len() as f64;
    let (a11, a22) = (ld * la.len() as f64 + u, ld * lb.len() as f64 + u);
    let sp = lf * lp.iter().map(|x| x - phi_center).sum::<f64>();
    let r1 = sp - ld * la.iter().sum::<f64>();
    let r2 = sp - ld * lb.iter().sum::<f64>();
    let (c, d) = match (learn_a, learn_b) {
        (true, true) => {
            let det = a11 * a22 - u * u;
            ((r1 * a22 - u * r2) / det, (a11 * r2 - u * r1) / det)
        }
        (true, false) => (r1 / a11, 0.0),
        _ => (0.0, r2 / a22),
    };
    let cd = c + d;
    let bound = opts.ln_param_bound;
    let inside = |v: &[f64], shift: f64| v.iter().all(|x| (x + shift).abs() <= bound);
    if !c.is_finite() || !d.is_finite() || !inside(la, c) || !inside(lb, d) || !inside(lp, -cd) {
        return;
    }
    if learn_a {
        la.iter_mut().for_each(|x| *x += c);
    }
    if learn_b {
        lb.iter_mut().for_each(|x| *x += d);
    }
    lp.iter_mut().for_each(|x| *x -= cd);
}

impl EmState {
    /// The log-parameters of one M-step block.
    pub(crate) fn block(&self, block: Block) -> &[f64] {
        match block {
            Block::Phi => &self.ln_phi,
            Block::Alpha => &self.ln_alpha,
            Block::Beta => &self.ln_beta,
        }
    }

    fn block_mut(&mut self, block: Block) -> &mut [f64] {
        match block {
            Block::Phi => &mut self.ln_phi,
            Block::Alpha => &mut self.ln_alpha,
            Block::Beta => &mut self.ln_beta,
        }
    }
}

/// What one M-step evaluates against: the workspace, the options and the
/// kernel/pool pair, plus the φ prior's centre.
pub(crate) struct MStep<'a> {
    pub ws: &'a Workspace,
    pub opts: &'a EmOptions,
    pub kern: BatchKernels,
    pub pool: Option<&'a WorkerPool>,
    pub phi_center: f64,
}

impl MStep<'_> {
    /// The objective's per-answer part at the state's parameters, clamped
    /// to the optimiser box; per-answer derivatives (categorical curvature
    /// included) land in `scratch.eval`.
    pub(crate) fn data(&self, state: &EmState, scratch: &mut EmScratch) -> f64 {
        eval_answers(
            self.ws,
            self.opts.learn_row_difficulty.then_some(&state.ln_alpha[..]),
            self.opts.learn_col_difficulty.then_some(&state.ln_beta[..]),
            &state.ln_phi,
            Some(self.opts.ln_param_bound),
            true,
            self.kern,
            scratch,
            self.pool,
        )
    }

    /// The objective's prior part at the state's parameters.
    pub(crate) fn prior(&self, state: &EmState) -> f64 {
        log_prior(&state.ln_alpha, &state.ln_beta, &state.ln_phi, self.opts, self.phi_center)
    }

    /// Scatter the per-answer derivatives at the accepted point
    /// (`scratch.cur`) into one block's per-parameter gradient and
    /// curvature (`scratch.grad`, `scratch.curv`), priors included.
    /// Serial, in fixed run order.
    pub(crate) fn derivatives(&self, block: Block, params: &[f64], scratch: &mut EmScratch) {
        let r = &self.ws.runs;
        let (cont_idx, cat_idx) = match block {
            Block::Phi => (&r.cont_worker, &r.cat_worker),
            Block::Alpha => (&r.cont_row, &r.cat_row),
            Block::Beta => (&r.cont_col, &r.cat_col),
        };
        let EmScratch { cur, grad, curv, .. } = scratch;
        grad.clear();
        grad.resize(params.len(), 0.0);
        curv.clear();
        curv.resize(params.len(), 0.0);
        for (j, &k) in cont_idx.iter().enumerate() {
            let g = cur.cont_g[j];
            grad[k as usize] += g;
            curv[k as usize] -= g + 0.5;
        }
        for (j, &k) in cat_idx.iter().enumerate() {
            grad[k as usize] += cur.cat_g[j];
            curv[k as usize] += cur.cat_h[j];
        }
        let (lam, center) = block.prior(self.opts, self.phi_center);
        for (k, &x) in params.iter().enumerate() {
            grad[k] -= lam * (x - center);
            curv[k] -= lam;
        }
    }

    /// One safeguarded Newton step of `block` from the accepted point
    /// (objective `value`, per-answer part `data`): the per-parameter
    /// [`newton_step`]s, halved together until the objective improves.
    /// On success the trial becomes the accepted point; after
    /// [`MSTEP_MAX_BACKTRACKS`] failed halvings the block is restored.
    /// Returns the objective passes spent.
    ///
    /// A step too small for a value comparison to see (see
    /// [`MSTEP_NOISE_REL`]) is taken whole when every curvature in the
    /// block is negative. Without this, fits driven to the fixed point
    /// (`deep_convergence`) stall where rounding rejects every step.
    fn block_step(
        &self,
        block: Block,
        state: &mut EmState,
        scratch: &mut EmScratch,
        data: &mut f64,
        value: &mut f64,
    ) -> usize {
        self.derivatives(block, state.block(block), scratch);
        let EmScratch { grad, curv, step, base, .. } = &mut *scratch;
        step.clear();
        step.extend(grad.iter().zip(curv.iter()).map(|(&g, &h)| newton_step(g, h)));
        let slope: f64 = grad.iter().zip(step.iter()).map(|(g, s)| g * s).sum();
        if slope.is_nan() || slope <= 0.0 {
            return 0; // stationary block: no ascent direction
        }
        // A concave block's Newton gain, ½·slope, that is below the
        // objective's rounding noise is invisible to a value comparison;
        // the quadratic model is exact there, so the full step stands.
        let below_noise =
            curv.iter().all(|&h| h < 0.0) && 0.5 * slope < MSTEP_NOISE_REL * value.abs();
        base.clear();
        base.extend_from_slice(state.block(block));
        let bound = self.opts.ln_param_bound;
        let mut t = 1.0;
        for evals in 1..=MSTEP_MAX_BACKTRACKS + 1 {
            let params = state.block_mut(block);
            for ((x, &b), &s) in params.iter_mut().zip(&scratch.base).zip(&scratch.step) {
                *x = (b + t * s).clamp(-bound, bound);
            }
            let trial = self.data(state, scratch);
            let tv = trial + self.prior(state);
            if (tv > *value || below_noise) && tv.is_finite() {
                *data = trial;
                *value = tv;
                std::mem::swap(&mut scratch.eval, &mut scratch.cur);
                return evals;
            }
            t *= 0.5;
        }
        state.block_mut(block).copy_from_slice(&scratch.base);
        MSTEP_MAX_BACKTRACKS + 1
    }
}

/// M-step (Eq. 5): safeguarded block-coordinate Newton ascent on the
/// expected complete-data log-likelihood plus the MAP priors, the
/// objective evaluated by the batch kernels (optionally across the pool).
///
/// Each sweep first takes the closed-form [`gauge_step`], then steps the φ,
/// α and β blocks in turn ([`MStep::block_step`]). An accepted trial's
/// per-answer derivatives are the next block's, so a block step costs one
/// objective pass unless it backtracks. At most [`MSTEP_SWEEPS`] sweeps,
/// fewer once one gains less than [`MSTEP_SWEEP_TOL`]. Returns the number
/// of objective evaluations.
fn m_step(
    ws: &Workspace,
    state: &mut EmState,
    opts: &EmOptions,
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> usize {
    build_cache(ws, &state.truths, scratch);
    let ms =
        MStep { ws, opts, kern, pool, phi_center: initial_phi(ws.epsilon, opts.init_quality).ln() };
    let mut data = ms.data(state, scratch);
    std::mem::swap(&mut scratch.eval, &mut scratch.cur);
    let mut evals = 1;
    let mut value = data + ms.prior(state);
    for _ in 0..MSTEP_SWEEPS {
        let start = value;
        gauge_step(&mut state.ln_alpha, &mut state.ln_beta, &mut state.ln_phi, opts, ms.phi_center);
        value = data + ms.prior(state);
        for block in Block::active(opts) {
            evals += ms.block_step(block, state, scratch, &mut data, &mut value);
        }
        if value - start < MSTEP_SWEEP_TOL {
            break;
        }
    }
    evals
}

/// Identifiability polish applied once after EM converges: set the geometric
/// means of `α` and `β` to 1 and push the scale into `φ`. The likelihood only
/// sees the product `αβφ`, so posteriors are unaffected; doing this *inside*
/// the loop would fight the MAP priors and void the ELBO monotonicity
/// guarantee, so it runs exactly once at the end.
fn renormalize(state: &mut EmState, opts: &EmOptions) -> (f64, f64) {
    let mut shift = (0.0, 0.0);
    if opts.learn_row_difficulty {
        let m = state.ln_alpha.iter().sum::<f64>() / state.ln_alpha.len().max(1) as f64;
        for v in &mut state.ln_alpha {
            *v -= m;
        }
        for v in &mut state.ln_phi {
            *v += m;
        }
        shift.0 = m;
    }
    if opts.learn_col_difficulty {
        let m = state.ln_beta.iter().sum::<f64>() / state.ln_beta.len().max(1) as f64;
        for v in &mut state.ln_beta {
            *v -= m;
        }
        for v in &mut state.ln_phi {
            *v += m;
        }
        shift.1 = m;
    }
    shift
}

/// The evidence lower bound of the MAP objective: expected complete-data
/// log-likelihood plus posterior entropy plus the log-priors on the
/// parameters. Monotone non-decreasing across EM iterations (each M-step
/// only accepts improving steps, each E-step sets the posterior to the exact
/// conditional), which is property-tested.
///
/// The per-answer expectation is exactly the [`eval_answers`] sum the
/// M-step maximises — same kernels, same chunk order — evaluated at the
/// *state* parameters, unclamped (the optimiser box only applies inside
/// the M-step). What remains here is the per-cell part: prior expectation
/// and posterior entropy.
pub(crate) fn compute_elbo(
    ws: &Workspace,
    state: &EmState,
    opts: &EmOptions,
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> f64 {
    let phi_center = initial_phi(ws.epsilon, opts.init_quality).ln();
    let mut elbo = log_prior(&state.ln_alpha, &state.ln_beta, &state.ln_phi, opts, phi_center);
    build_cache(ws, &state.truths, scratch);
    elbo += eval_answers(
        ws,
        Some(&state.ln_alpha),
        Some(&state.ln_beta),
        &state.ln_phi,
        None,
        false,
        kern,
        scratch,
        pool,
    );
    for slot in 0..ws.n_rows * ws.n_cols {
        if ws.cell_answers(slot).is_empty() {
            continue;
        }
        match &state.truths[slot] {
            TruthDist::Continuous(n) => {
                // Prior N(0,1) expectation + posterior entropy.
                elbo += -0.5 * LN_2PI - (n.mean * n.mean + n.var) / 2.0;
                elbo += n.differential_entropy();
            }
            TruthDist::Categorical(p) => {
                let l = match ws.col_kind[slot % ws.n_cols] {
                    ColKind::Cat(l) => l,
                    ColKind::Cont => unreachable!(),
                };
                // Uniform prior expectation + Shannon entropy.
                elbo += -(l.max(1) as f64).ln();
                elbo += tcrowd_stat::entropy::shannon(p);
            }
        }
    }
    elbo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{quality_dlnv, quality_from_variance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tcrowd_stat::optimize::numerical_gradient;
    use tcrowd_stat::sample::{sample_std_normal, sample_weighted};

    /// Build a small synthetic workspace directly (bypassing the public API)
    /// with known worker variances.
    fn synth_workspace(
        n_rows: usize,
        cat_cols: usize,
        cont_cols: usize,
        phis: &[f64],
        seed: u64,
    ) -> (Workspace, Vec<Vec<f64>>, Vec<Vec<u32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_cols = cat_cols + cont_cols;
        let epsilon = 0.5;
        let mut col_kind = vec![ColKind::Cat(4); cat_cols];
        col_kind.extend(vec![ColKind::Cont; cont_cols]);
        // Truths: cat labels and z-space continuous values.
        let cat_truth: Vec<Vec<u32>> =
            (0..n_rows).map(|_| (0..cat_cols).map(|_| rng.gen_range(0..4)).collect()).collect();
        let cont_truth: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..cont_cols).map(|_| sample_std_normal(&mut rng)).collect())
            .collect();
        let mut answers = Vec::new();
        for i in 0..n_rows {
            for (w, &phi) in phis.iter().enumerate() {
                for j in 0..n_cols {
                    let (label, value) = if j < cat_cols {
                        let q = quality_from_variance(epsilon, phi);
                        let t = cat_truth[i][j];
                        let lab = if rng.gen_range(0.0..1.0) < q {
                            t
                        } else {
                            let w: Vec<f64> =
                                (0..4).map(|z| if z == t { 0.0 } else { 1.0 }).collect();
                            sample_weighted(&mut rng, &w) as u32
                        };
                        (lab, 0.0)
                    } else {
                        let t = cont_truth[i][j - cat_cols];
                        (0, t + phi.sqrt() * sample_std_normal(&mut rng))
                    };
                    answers.push(IntAnswer {
                        worker: w as u32,
                        row: i as u32,
                        col: j as u32,
                        label,
                        value,
                    });
                }
            }
        }
        (
            Workspace::assemble(n_rows, n_cols, phis.len(), col_kind, answers, epsilon),
            cont_truth,
            cat_truth,
        )
    }

    #[test]
    fn elbo_is_monotone_nondecreasing() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(25, 2, 2, &phis, 3);
        let state = run_em(&ws, &EmOptions::default());
        for w in state.trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()),
                "ELBO decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(state.iterations >= 1);
    }

    #[test]
    fn em_recovers_worker_ranking() {
        // Workers with small true φ must come out with small fitted φ.
        let phis = [0.05, 0.15, 0.4, 1.2, 3.0];
        let (ws, _, _) = synth_workspace(60, 2, 2, &phis, 7);
        let state = run_em(&ws, &EmOptions::default());
        let fitted: Vec<f64> = state.ln_phi.iter().map(|l| l.exp()).collect();
        // Spearman-ish check: order preserved pairwise for well-separated φ.
        for i in 0..phis.len() {
            for j in 0..phis.len() {
                if phis[j] >= 4.0 * phis[i] {
                    assert!(
                        fitted[i] < fitted[j],
                        "fitted φ ordering broken: true {} vs {} but fitted {} vs {}",
                        phis[i],
                        phis[j],
                        fitted[i],
                        fitted[j]
                    );
                }
            }
        }
    }

    #[test]
    fn em_recovers_continuous_truth_better_than_single_worker() {
        let phis = [0.1, 0.3, 1.0, 2.5];
        let (ws, cont_truth, _) = synth_workspace(50, 0, 3, &phis, 11);
        let state = run_em(&ws, &EmOptions::default());
        let mut se_est = 0.0;
        let mut se_first = 0.0;
        let mut n = 0.0;
        for i in 0..ws.n_rows {
            for j in 0..ws.n_cols {
                let slot = i * ws.n_cols + j;
                if let TruthDist::Continuous(post) = &state.truths[slot] {
                    let t = cont_truth[i][j];
                    se_est += (post.mean - t) * (post.mean - t);
                    // First answer on the cell as the naive single-source estimate.
                    let first = ws.cell_answers(slot)[0].value;
                    se_first += (first - t) * (first - t);
                    n += 1.0;
                }
            }
        }
        assert!(se_est / n < se_first / n, "EM should beat a single answer");
    }

    #[test]
    fn em_recovers_categorical_truth() {
        let phis = [0.08, 0.2, 0.5, 1.5];
        let (ws, _, cat_truth) = synth_workspace(60, 3, 0, &phis, 13);
        let state = run_em(&ws, &EmOptions::default());
        let mut correct = 0;
        let mut total = 0;
        for i in 0..ws.n_rows {
            for j in 0..ws.n_cols {
                if let TruthDist::Categorical(p) = &state.truths[i * ws.n_cols + j] {
                    let est = p
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .unwrap()
                        .0 as u32;
                    total += 1;
                    if est == cat_truth[i][j] {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        // Worker qualities here are (0.92, 0.74, 0.52, 0.32) on |L| = 4 with
        // only 4 answers per cell; the Bayes-optimal accuracy with *known*
        // parameters is itself below 0.95, so 0.85 is a tight bar.
        assert!(acc > 0.85, "EM accuracy {acc}");
    }

    #[test]
    fn mstep_gradient_matches_numeric() {
        let phis = [0.1, 0.8];
        let (ws, _, _) = synth_workspace(6, 1, 1, &phis, 5);
        let mut state = EmState {
            ln_alpha: vec![0.0; ws.n_rows],
            ln_beta: vec![0.0; ws.n_cols],
            ln_phi: vec![0.3f64.ln(); ws.n_workers],
            truths: initial_truths(&ws),
            trace: vec![],
            iterations: 0,
            converged: false,
            renorm_shift: (0.0, 0.0),
            timings: EmTimings::default(),
        };
        e_step(&ws, &mut state, &EmOptions::default());
        // Dense per-answer caches, independent of the SoA scratch layout.
        let mut cache_cont_k = vec![0.0; ws.answers.len()];
        let mut cache_cat_p = vec![0.0; ws.answers.len()];
        for (i, a) in ws.answers.iter().enumerate() {
            match &state.truths[ws.cell_slot(a.row, a.col)] {
                TruthDist::Continuous(n) => {
                    let d = a.value - n.mean;
                    cache_cont_k[i] = d * d + n.var;
                }
                TruthDist::Categorical(p) => {
                    cache_cat_p[i] = clamp_prob(p.get(a.label as usize).copied().unwrap_or(0.0));
                }
            }
        }
        // Re-create the m-step objective inline (full parameter set).
        let (na, nb) = (ws.n_rows, ws.n_cols);
        let f = |x: &[f64]| -> f64 {
            let (la, rest) = x.split_at(na);
            let (lb, lp) = rest.split_at(nb);
            let mut q_val = 0.0;
            for (i, a) in ws.answers.iter().enumerate() {
                let v = (la[a.row as usize] + lb[a.col as usize] + lp[a.worker as usize]).exp();
                match ws.col_kind[a.col as usize] {
                    ColKind::Cont => {
                        q_val += -0.5 * (LN_2PI + v.ln()) - cache_cont_k[i] / (2.0 * v);
                    }
                    ColKind::Cat(l) => {
                        let p = cache_cat_p[i];
                        let q = quality_from_variance(ws.epsilon, v);
                        q_val += p * q.ln() + (1.0 - p) * ((1.0 - q) / (l - 1) as f64).ln();
                    }
                }
            }
            q_val
        };
        // Analytic gradient via the same scatter logic as m_step.
        let x: Vec<f64> = state
            .ln_alpha
            .iter()
            .chain(state.ln_beta.iter())
            .chain(state.ln_phi.iter())
            .copied()
            .collect();
        let mut grad = vec![0.0; x.len()];
        for (i, a) in ws.answers.iter().enumerate() {
            let v =
                (x[a.row as usize] + x[na + a.col as usize] + x[na + nb + a.worker as usize]).exp();
            let g = match ws.col_kind[a.col as usize] {
                ColKind::Cont => -0.5 + cache_cont_k[i] / (2.0 * v),
                ColKind::Cat(_) => {
                    let p = cache_cat_p[i];
                    let q = quality_from_variance(ws.epsilon, v);
                    (p / q - (1.0 - p) / (1.0 - q)) * quality_dlnv(ws.epsilon, v)
                }
            };
            grad[a.row as usize] += g;
            grad[na + a.col as usize] += g;
            grad[na + nb + a.worker as usize] += g;
        }
        let numeric = numerical_gradient(f, &x, 1e-6);
        for (k, (a, n)) in grad.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-4 * (1.0 + n.abs()),
                "param {k}: analytic {a} vs numeric {n}"
            );
        }
    }

    /// A state at the given log-parameters with posteriors from one E-step
    /// at `ln φ = ln 0.3`.
    fn state_at(ws: &Workspace, la: Vec<f64>, lb: Vec<f64>, lp: Vec<f64>) -> EmState {
        let mut state = EmState {
            ln_alpha: vec![0.0; ws.n_rows],
            ln_beta: vec![0.0; ws.n_cols],
            ln_phi: vec![0.3f64.ln(); ws.n_workers],
            truths: initial_truths(ws),
            trace: vec![],
            iterations: 0,
            converged: false,
            renorm_shift: (0.0, 0.0),
            timings: EmTimings::default(),
        };
        e_step(ws, &mut state, &EmOptions::default());
        (state.ln_alpha, state.ln_beta, state.ln_phi) = (la, lb, lp);
        state
    }

    fn mstep_for<'a>(ws: &'a Workspace, opts: &'a EmOptions) -> MStep<'a> {
        let phi_center = initial_phi(ws.epsilon, opts.init_quality).ln();
        MStep { ws, opts, kern: kernels(), pool: None, phi_center }
    }

    #[test]
    fn mstep_curvature_matches_numeric() {
        let phis = [0.1, 0.8];
        let (ws, _, _) = synth_workspace(6, 1, 1, &phis, 5);
        let opts = EmOptions::default();
        // Worker 0 is precise enough (x = ε/√(2v) ≈ 5.3–5.8) that its
        // categorical quality sits on its clamp, where the gradient keeps
        // the link's slope and a doubted answer's curvature is positive.
        let la: Vec<f64> = (0..ws.n_rows).map(|i| 0.02 * (i as f64 - 2.5)).collect();
        let state = state_at(&ws, la, vec![0.03, -0.03], vec![-5.5, 0.3f64.ln()]);
        let ms = mstep_for(&ws, &opts);
        let mut scratch = EmScratch::new(&ws);
        build_cache(&ws, &state.truths, &mut scratch);
        ms.data(&state, &mut scratch);
        assert!(!scratch.eval.cont_g.is_empty() && !scratch.eval.cat_g.is_empty());
        assert!(
            scratch.eval.cat_h.iter().any(|&h| h > 0.0),
            "no positive categorical curvature at the test point"
        );
        let derivs = |state: &EmState, block: Block, scratch: &mut EmScratch| {
            ms.data(state, scratch);
            std::mem::swap(&mut scratch.eval, &mut scratch.cur);
            ms.derivatives(block, state.block(block), scratch);
            (scratch.grad.clone(), scratch.curv.clone())
        };
        let step = 1e-5;
        for block in [Block::Phi, Block::Alpha, Block::Beta] {
            let (_, curv) = derivs(&state, block, &mut scratch);
            for k in 0..curv.len() {
                let (mut plus, mut minus) = (state.clone(), state.clone());
                plus.block_mut(block)[k] += step;
                minus.block_mut(block)[k] -= step;
                let (gp, _) = derivs(&plus, block, &mut scratch);
                let (gm, _) = derivs(&minus, block, &mut scratch);
                let numeric = (gp[k] - gm[k]) / (2.0 * step);
                assert!(
                    (curv[k] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "{block:?}[{k}]: analytic {} vs numeric {numeric}",
                    curv[k]
                );
            }
        }
    }

    #[test]
    fn gauge_step_keeps_every_ln_v_and_never_lowers_the_mstep_objective() {
        let (ws, _, _) = synth_workspace(12, 2, 2, &[0.05, 0.3, 1.2], 43);
        for (learn_a, learn_b) in [(true, true), (true, false), (false, true), (false, false)] {
            let opts = EmOptions {
                learn_row_difficulty: learn_a,
                learn_col_difficulty: learn_b,
                ..Default::default()
            };
            // Off the gauge optimum: difficulties shifted up, variances down.
            let on = |learn: bool, v: f64| if learn { v } else { 0.0 };
            let la = (0..ws.n_rows).map(|i| on(learn_a, 0.4 + 0.05 * (i as f64).sin())).collect();
            let lb = (0..ws.n_cols).map(|j| on(learn_b, 0.3 - 0.1 * j as f64)).collect();
            let lp = vec![-1.9, -1.1, -0.2];
            let mut state = state_at(&ws, la, lb, lp);
            let ln_v = |s: &EmState| -> Vec<f64> {
                let r = &ws.runs;
                let (rows, cols, workers) = (
                    r.cont_row.iter().chain(&r.cat_row),
                    r.cont_col.iter().chain(&r.cat_col),
                    r.cont_worker.iter().chain(&r.cat_worker),
                );
                rows.zip(cols)
                    .zip(workers)
                    .map(|((&i, &j), &u)| {
                        s.ln_alpha[i as usize] + s.ln_beta[j as usize] + s.ln_phi[u as usize]
                    })
                    .collect()
            };
            let ms = mstep_for(&ws, &opts);
            let mut scratch = EmScratch::new(&ws);
            build_cache(&ws, &state.truths, &mut scratch);
            let before_v = ln_v(&state);
            let (data0, prior0) = (ms.data(&state, &mut scratch), ms.prior(&state));
            let EmState { ln_alpha, ln_beta, ln_phi, .. } = &mut state;
            gauge_step(ln_alpha, ln_beta, ln_phi, &opts, ms.phi_center);
            for (a, b) in before_v.iter().zip(ln_v(&state)) {
                assert!((a - b).abs() <= 1e-12, "ln v moved: {a} -> {b} ({learn_a}, {learn_b})");
            }
            let (data1, prior1) = (ms.data(&state, &mut scratch), ms.prior(&state));
            assert!((data1 - data0).abs() <= 1e-9 * (1.0 + data0.abs()), "{data0} -> {data1}");
            assert!(prior1 >= prior0, "prior fell: {prior0} -> {prior1} ({learn_a}, {learn_b})");
            if learn_a || learn_b {
                assert!(prior1 > prior0 + 1e-3, "no gauge gain ({learn_a}, {learn_b})");
            }
            // The closed form lands on the maximum: a second step stays put.
            let moved = state.clone();
            let EmState { ln_alpha, ln_beta, ln_phi, .. } = &mut state;
            gauge_step(ln_alpha, ln_beta, ln_phi, &opts, ms.phi_center);
            for (a, b) in moved
                .ln_alpha
                .iter()
                .chain(&moved.ln_beta)
                .chain(&moved.ln_phi)
                .zip(state.ln_alpha.iter().chain(&state.ln_beta).chain(&state.ln_phi))
            {
                assert!((a - b).abs() <= 1e-12, "second gauge step moved {a} -> {b}");
            }
            if !learn_a {
                assert!(state.ln_alpha.iter().all(|v| *v == 0.0));
            }
            if !learn_b {
                assert!(state.ln_beta.iter().all(|v| *v == 0.0));
            }
        }
    }

    #[test]
    fn empty_workspace_converges_to_priors() {
        let ws = Workspace::assemble(3, 2, 0, vec![ColKind::Cat(3), ColKind::Cont], vec![], 0.5);
        let state = run_em(&ws, &EmOptions::default());
        assert!(state.converged);
        assert_eq!(state.truths.len(), 6);
        assert_eq!(state.truths[0], TruthDist::uniform(3));
    }

    #[test]
    fn difficulty_normalisation_holds() {
        let phis = [0.1, 0.5, 1.0];
        let (ws, _, _) = synth_workspace(20, 1, 1, &phis, 19);
        let state = run_em(&ws, &EmOptions::default());
        let ma: f64 = state.ln_alpha.iter().sum::<f64>() / state.ln_alpha.len() as f64;
        let mb: f64 = state.ln_beta.iter().sum::<f64>() / state.ln_beta.len() as f64;
        assert!(ma.abs() < 1e-9, "mean ln α = {ma}");
        assert!(mb.abs() < 1e-9, "mean ln β = {mb}");
    }

    #[test]
    fn ablation_flags_freeze_difficulties() {
        let phis = [0.1, 0.5, 1.0];
        let (ws, _, _) = synth_workspace(20, 1, 1, &phis, 23);
        let opts = EmOptions {
            learn_row_difficulty: false,
            learn_col_difficulty: false,
            ..Default::default()
        };
        let state = run_em(&ws, &opts);
        assert!(state.ln_alpha.iter().all(|v| *v == 0.0));
        assert!(state.ln_beta.iter().all(|v| *v == 0.0));
        // φ must still have been learned (moved off the calibrated init).
        let phi0 = initial_phi(ws.epsilon, opts.init_quality).ln();
        assert!(state.ln_phi.iter().any(|v| (*v - phi0).abs() > 1e-6));
    }

    #[test]
    fn parallel_estep_matches_serial_exactly() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1, 0.4, 0.9, 1.5];
        // 60×6 = 360 slots: above the threading threshold, so the
        // work-stealing path genuinely runs (the default is feature-driven,
        // so both sides pin the flag explicitly).
        let (ws, _, _) = synth_workspace(60, 3, 3, &phis, 31);
        let serial = run_em(&ws, &EmOptions { parallel_estep: false, ..Default::default() });
        let parallel = run_em(&ws, &EmOptions { parallel_estep: true, ..Default::default() });
        assert_eq!(serial.iterations, parallel.iterations);
        assert_eq!(serial.truths, parallel.truths, "posteriors must be bit-identical");
        assert_eq!(serial.ln_phi, parallel.ln_phi);
        assert_eq!(serial.trace, parallel.trace);
    }

    #[test]
    fn default_parallel_estep_matches_the_parallel_feature() {
        assert_eq!(EmOptions::default().parallel_estep, cfg!(feature = "parallel"));
    }

    #[test]
    fn default_parallel_mstep_matches_the_parallel_feature() {
        assert_eq!(EmOptions::default().parallel_mstep, cfg!(feature = "parallel"));
    }

    #[test]
    fn parallel_mstep_matches_serial_exactly() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1, 0.4, 0.9, 1.5];
        // 50 rows × 6 cols × 8 workers = 2400 answers — several M-step
        // chunks of each kind once split, and big enough that the pooled
        // path genuinely runs chunks on more than one thread.
        let (ws, _, _) = synth_workspace(50, 3, 3, &phis, 37);
        let serial = run_em(
            &ws,
            &EmOptions { parallel_estep: false, parallel_mstep: false, ..Default::default() },
        );
        for threads in [1usize, 2, 4, 8] {
            let parallel = run_em(
                &ws,
                &EmOptions {
                    parallel_estep: false,
                    parallel_mstep: true,
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(serial.iterations, parallel.iterations, "threads = {threads}");
            for (a, b) in serial.ln_phi.iter().zip(&parallel.ln_phi) {
                assert_eq!(a.to_bits(), b.to_bits(), "ln φ not bit-identical ({threads} threads)");
            }
            for (a, b) in serial.ln_alpha.iter().zip(&parallel.ln_alpha) {
                assert_eq!(a.to_bits(), b.to_bits(), "ln α not bit-identical ({threads} threads)");
            }
            assert_eq!(serial.truths, parallel.truths, "threads = {threads}");
            assert_eq!(serial.trace, parallel.trace, "threads = {threads}");
        }
    }

    #[test]
    fn fully_parallel_em_matches_serial_exactly() {
        // Both phases pooled at once — the pool is shared across E and M.
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1, 0.4, 0.9, 1.5];
        let (ws, _, _) = synth_workspace(60, 3, 3, &phis, 41);
        let serial = run_em(
            &ws,
            &EmOptions { parallel_estep: false, parallel_mstep: false, ..Default::default() },
        );
        let parallel = run_em(
            &ws,
            &EmOptions {
                parallel_estep: true,
                parallel_mstep: true,
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial.iterations, parallel.iterations);
        assert_eq!(serial.truths, parallel.truths);
        assert_eq!(serial.ln_phi, parallel.ln_phi);
        assert_eq!(serial.trace, parallel.trace);
    }

    #[test]
    fn warm_start_from_fitted_params_converges_fast_to_the_same_fit() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(30, 2, 2, &phis, 17);
        // The parameter criterion pins both runs to the shared fixed point;
        // the drift a warm restart may add shrinks with `param_tol` (the
        // ELBO-only default keeps ~1e-3 slack in ln φ).
        let opts = EmOptions { tol: 1e-12, param_tol: 1e-6, max_iters: 4000, ..Default::default() };
        let cold = run_em(&ws, &opts);
        let warm = WarmStart {
            ln_alpha: cold.ln_alpha.clone(),
            ln_beta: cold.ln_beta.clone(),
            ln_phi: cold.ln_phi.clone(),
        };
        let rerun = run_em_from(&ws, &opts, Some(&warm));
        assert!(rerun.converged);
        let drift = cold
            .ln_phi
            .iter()
            .zip(&rerun.ln_phi)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "cold iters {}, warm iters {}, max ln_phi drift {drift:.3e}",
            cold.iterations, rerun.iterations
        );
        assert!(drift < 1e-5, "phi drifted across a warm restart by {drift:.3e}");
    }

    #[test]
    fn converges_within_paper_iteration_budget() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(40, 2, 2, &phis, 29);
        let state = run_em(&ws, &EmOptions::default());
        assert!(state.converged, "EM did not converge");
        assert!(state.iterations <= 30, "took {} iterations (paper: < 20)", state.iterations);
    }
}
