//! # tcrowd-trust
//!
//! Worker **trust scoring** and the **quarantine state machine**: the
//! adversarial-worker defense layered on top of T-Crowd's unified worker
//! model (paper §4). The paper's own result — the fitted per-worker quality
//! `q_u = erf(ε/√(2φ_u))` identifies bad workers better than heuristic
//! filters — is already computed on every refit; this crate turns it into a
//! serving-layer defense:
//!
//! * [`score_workers`] derives one [`WorkerTrust`] per worker from a fit and
//!   its freeze: the fitted quality where the worker participated in the fit,
//!   and a *shadow* quality (the same erf link, evaluated against the
//!   published truth estimates) for workers excluded from it — so a
//!   quarantined worker keeps earning a score and can be released when it
//!   recovers.
//! * A pairwise-agreement **collusion signal** over the freeze's cell-major
//!   payload: workers who answer identically on many shared cells without
//!   the quality to explain it are flagged ([`WorkerTrust::max_agreement`]).
//! * [`advance`] runs the hysteresis state machine
//!   `Trusted → Suspect → Quarantined`: entry and exit thresholds are
//!   deliberately separated ([`TrustConfig`]) so scores hovering at a
//!   boundary do not flap a worker in and out of quarantine between refits.
//!
//! The crate is pure computation — deterministic, no clocks, no I/O. Who
//! acts on the scores (filtered refits, WAL persistence, rate limits, HTTP
//! endpoints) is `tcrowd-service`'s business; how the exclusion is applied
//! without touching the log is `tcrowd-tabular::quarantine`'s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tcrowd_core::model::quality_from_variance;
use tcrowd_core::{InferenceResult, TruthDist};
use tcrowd_tabular::{AnswerMatrix, CellId, Value, WorkerId};

/// Thresholds and evidence bounds of the trust subsystem.
///
/// All score thresholds live on the quality scale `[0, 1]`. Hysteresis
/// invariant (checked by [`TrustConfig::validate`]): every exit threshold is
/// strictly above its entry threshold, so a score must *recover*, not merely
/// wobble, to leave a worse state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustConfig {
    /// Minimum answers before any automatic transition — below this the
    /// evidence is too thin to move a worker in either direction.
    pub min_answers: usize,
    /// Score below which a `Trusted` worker becomes `Suspect`.
    pub suspect_enter: f64,
    /// Score a `Suspect` must exceed to return to `Trusted` (> `suspect_enter`).
    pub suspect_exit: f64,
    /// Score below which a worker is quarantined outright.
    pub quarantine_enter: f64,
    /// Score an auto-quarantined worker must exceed to re-enter `Suspect`
    /// (> `quarantine_enter`).
    pub quarantine_exit: f64,
    /// Minimum shared cells before a pairwise agreement rate counts as a
    /// collusion signal.
    pub collusion_min_overlap: usize,
    /// Pairwise agreement rate at or above which a pair is collusion-suspect.
    pub collusion_agreement: f64,
    /// Bit-identical **continuous** answers shared with a single partner at
    /// which the pair is treated as script-copying outright, regardless of
    /// fitted score. Honest continuous answers essentially never collide
    /// bit-for-bit, so this signal stays valid even when a large collusion
    /// ring has *captured* the fit and awarded itself a perfect quality —
    /// the case the score-based carve-out in [`WorkerTrust::colluding`] is
    /// blind to.
    pub collusion_value_collisions: usize,
}

impl Default for TrustConfig {
    fn default() -> Self {
        TrustConfig {
            min_answers: 16,
            suspect_enter: 0.55,
            suspect_exit: 0.70,
            quarantine_enter: 0.40,
            quarantine_exit: 0.60,
            collusion_min_overlap: 8,
            collusion_agreement: 0.95,
            collusion_value_collisions: 4,
        }
    }
}

impl TrustConfig {
    /// Check the hysteresis and range invariants, returning what is wrong.
    pub fn validate(&self) -> Result<(), String> {
        let in_unit = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} = {v} is outside [0, 1]"))
            }
        };
        in_unit("suspect_enter", self.suspect_enter)?;
        in_unit("suspect_exit", self.suspect_exit)?;
        in_unit("quarantine_enter", self.quarantine_enter)?;
        in_unit("quarantine_exit", self.quarantine_exit)?;
        in_unit("collusion_agreement", self.collusion_agreement)?;
        if self.suspect_exit <= self.suspect_enter {
            return Err(format!(
                "suspect_exit ({}) must exceed suspect_enter ({}) — hysteresis",
                self.suspect_exit, self.suspect_enter
            ));
        }
        if self.quarantine_exit <= self.quarantine_enter {
            return Err(format!(
                "quarantine_exit ({}) must exceed quarantine_enter ({}) — hysteresis",
                self.quarantine_exit, self.quarantine_enter
            ));
        }
        if self.quarantine_enter > self.suspect_enter {
            return Err(format!(
                "quarantine_enter ({}) must not exceed suspect_enter ({})",
                self.quarantine_enter, self.suspect_enter
            ));
        }
        if self.collusion_value_collisions < 2 {
            return Err(format!(
                "collusion_value_collisions ({}) must be at least 2 — a single identical \
                 continuous answer is not evidence of copying",
                self.collusion_value_collisions
            ));
        }
        Ok(())
    }
}

/// The per-worker quarantine state machine's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrustState {
    /// Full standing: the worker's answers feed truth inference.
    #[default]
    Trusted,
    /// Flagged but still contributing: the score dipped below the suspect
    /// threshold (or a collusion signal fired) and has not recovered.
    Suspect,
    /// Excluded from truth inference (EM runs over a freeze without the
    /// worker's answers); the log keeps everything, so release is exact.
    Quarantined,
}

impl TrustState {
    /// The canonical wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            TrustState::Trusted => "trusted",
            TrustState::Suspect => "suspect",
            TrustState::Quarantined => "quarantined",
        }
    }

    /// Parse a canonical name.
    pub fn parse(name: &str) -> Result<TrustState, String> {
        match name {
            "trusted" => Ok(TrustState::Trusted),
            "suspect" => Ok(TrustState::Suspect),
            "quarantined" => Ok(TrustState::Quarantined),
            other => {
                Err(format!("unknown trust state '{other}' (expected trusted|suspect|quarantined)"))
            }
        }
    }
}

impl std::fmt::Display for TrustState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One worker's trust evidence at a refit, as computed by [`score_workers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerTrust {
    /// The worker.
    pub worker: WorkerId,
    /// Answers the worker has contributed (quarantined answers included —
    /// they are in the log and the freeze, just not in the fit).
    pub answers: usize,
    /// The fitted quality `q_u` when the worker participated in the fit;
    /// `None` for workers the fit excluded (quarantined) or never saw.
    pub quality: Option<f64>,
    /// The trust score driving the state machine: the fitted quality when
    /// available, otherwise the shadow quality against the published
    /// estimates (same scale, so thresholds apply uniformly).
    pub score: f64,
    /// Highest pairwise agreement rate with any single other worker over at
    /// least [`TrustConfig::collusion_min_overlap`] shared cells (0 when no
    /// pair clears the overlap bound).
    pub max_agreement: f64,
    /// The partner achieving [`Self::max_agreement`] (lowest id on ties).
    pub partner: Option<WorkerId>,
    /// Bit-identical continuous answers shared with the single
    /// most-matching partner. Honest continuous answers essentially never
    /// collide exactly, so this counts script copies — and unlike the
    /// fitted score it cannot be laundered by a ring large enough to
    /// capture the fit.
    pub value_collisions: usize,
}

impl WorkerTrust {
    /// Whether the collusion signal fires under `cfg`. Two routes:
    ///
    /// * **Agreement + low score** — near-identical answers on enough
    ///   shared cells, without the score to explain it (two excellent
    ///   workers agree because both are right — that is consensus, not
    ///   collusion).
    /// * **Value collisions** — enough bit-identical continuous answers
    ///   with one partner, *regardless of score*. A ring big enough to
    ///   capture the fit awards itself a perfect fitted quality, which
    ///   defeats the score carve-out above; exact continuous collisions
    ///   are the capture-proof tell (honest gaussian answers never match
    ///   bit-for-bit).
    pub fn colluding(&self, cfg: &TrustConfig) -> bool {
        self.value_collisions >= cfg.collusion_value_collisions
            || (self.max_agreement >= cfg.collusion_agreement && self.score < cfg.suspect_exit)
    }
}

/// Score every worker in `matrix` against `result` (the current published
/// fit, which may exclude quarantined workers). Returns one [`WorkerTrust`]
/// per worker in ascending id order — deterministic run to run.
pub fn score_workers(
    result: &InferenceResult,
    matrix: &AnswerMatrix,
    cfg: &TrustConfig,
) -> Vec<WorkerTrust> {
    let agreement = pairwise_agreement(matrix, cfg.collusion_min_overlap);
    (0..matrix.num_workers())
        .map(|i| {
            let worker = matrix.worker_id(i);
            let answers = matrix.worker_answer_indices(i).len();
            let quality = result.quality_of(worker);
            let score = quality.unwrap_or_else(|| shadow_quality(result, matrix, i));
            let (max_agreement, partner, value_collisions) = agreement[i];
            WorkerTrust {
                worker,
                answers,
                quality,
                score,
                max_agreement,
                partner,
                value_collisions,
            }
        })
        .collect()
}

/// The shadow quality of worker index `i`: the model's erf quality link
/// evaluated against the *published* truth estimates instead of a fitted
/// `φ_u`. Categorical answers contribute their empirical hit rate against
/// the estimated label; continuous answers contribute
/// `erf(ε/√(2·φ̂))` with `φ̂` the difficulty-deflated mean squared z-residual.
/// Both are model-consistent estimators of `q_u`, so the score lands on the
/// same scale as the fitted quality and the thresholds apply uniformly.
fn shadow_quality(result: &InferenceResult, matrix: &AnswerMatrix, i: usize) -> f64 {
    let (mut cat_n, mut cat_hits) = (0usize, 0usize);
    let (mut cont_n, mut cont_sq) = (0usize, 0.0f64);
    for &k in matrix.worker_answer_indices(i) {
        let k = k as usize;
        let cell = CellId::new(matrix.answer_rows()[k], matrix.answer_cols()[k]);
        if matrix.is_categorical(k) {
            cat_n += 1;
            if let Value::Categorical(label) = result.estimate(cell) {
                if label == matrix.answer_labels()[k] {
                    cat_hits += 1;
                }
            }
        } else if let TruthDist::Continuous(n) = result.truth_z(cell) {
            if let Some((m, s)) = result.scaler(cell.col as usize) {
                let az = (matrix.answer_values()[k] - m) / s;
                let difficulty = result.alpha[cell.row as usize] * result.beta[cell.col as usize];
                cont_n += 1;
                cont_sq += (az - n.mean).powi(2) / difficulty.max(tcrowd_stat::EPS);
            }
        }
    }
    let total = cat_n + cont_n;
    if total == 0 {
        return 1.0; // no evidence; min_answers keeps this from mattering
    }
    let cat_q = if cat_n > 0 { cat_hits as f64 / cat_n as f64 } else { 0.0 };
    let cont_q = if cont_n > 0 {
        quality_from_variance(result.epsilon, cont_sq / cont_n as f64)
    } else {
        0.0
    };
    (cat_n as f64 * cat_q + cont_n as f64 * cont_q) / total as f64
}

/// For every worker index: the highest pairwise agreement rate with any
/// other worker over at least `min_overlap` shared cells with the partner
/// achieving it (lowest partner id on ties), plus the highest count of
/// bit-identical **continuous** answers shared with any single partner
/// (counted without the overlap gate — three exact f64 collisions over
/// three shared cells are already damning). A shared cell counts once per
/// pair of the two workers' answers on it.
///
/// One scratch row of `(shared, agree, collide)` tallies, indexed by
/// partner: each worker's answers are walked through the by-worker view,
/// every other worker's answer on the same cell is tallied, and the
/// touched partners are folded in ascending index with a strict `>` —
/// deterministic, and no per-refresh pair table.
fn pairwise_agreement(
    matrix: &AnswerMatrix,
    min_overlap: usize,
) -> Vec<(f64, Option<WorkerId>, usize)> {
    let (workers, offsets) = (matrix.answer_workers(), matrix.cell_offsets());
    let (rows, cols) = (matrix.answer_rows(), matrix.answer_cols());
    let mut tallies = vec![(0u32, 0u32, 0u32); matrix.num_workers()];
    let mut touched: Vec<u32> = Vec::new();
    let mut best = Vec::with_capacity(matrix.num_workers());
    for me in 0..matrix.num_workers() {
        for &a in matrix.worker_answer_indices(me) {
            let a = a as usize;
            let slot = rows[a] as usize * matrix.cols() + cols[a] as usize;
            let cell = offsets[slot] as usize..offsets[slot + 1] as usize;
            for (b, &other) in cell.clone().zip(&workers[cell]) {
                if other as usize == me {
                    continue; // repeat answers by one worker are not a pair
                }
                let agree = answers_match(matrix, a, b);
                let t = &mut tallies[other as usize];
                if t.0 == 0 {
                    touched.push(other);
                }
                t.0 += 1;
                t.1 += agree as u32;
                t.2 += (agree && !matrix.is_categorical(a)) as u32;
            }
        }
        touched.sort_unstable();
        let mut mine = (0.0, None, 0);
        for &other in &touched {
            let (shared, agree, collide) = std::mem::take(&mut tallies[other as usize]);
            if (shared as usize) >= min_overlap {
                let rate = agree as f64 / shared as f64;
                if rate > mine.0 {
                    mine.0 = rate;
                    mine.1 = Some(matrix.worker_id(other as usize));
                }
            }
            mine.2 = mine.2.max(collide as usize);
        }
        touched.clear();
        best.push(mine);
    }
    best
}

/// Whether two answers on the same cell agree: identical labels for
/// categorical cells, identical values for continuous ones (script colluders
/// copy values verbatim; honest continuous answers essentially never collide
/// bit-for-bit).
fn answers_match(matrix: &AnswerMatrix, a: usize, b: usize) -> bool {
    if matrix.is_categorical(a) != matrix.is_categorical(b) {
        return false;
    }
    if matrix.is_categorical(a) {
        matrix.answer_labels()[a] == matrix.answer_labels()[b]
    } else {
        matrix.answer_values()[a] == matrix.answer_values()[b]
    }
}

/// One automatic step of the hysteresis state machine for a worker whose
/// evidence is `t`. Manual quarantines are pinned by the caller and never
/// pass through here. With fewer than [`TrustConfig::min_answers`] answers
/// the state holds — thin evidence moves nobody in either direction.
pub fn advance(prev: TrustState, t: &WorkerTrust, cfg: &TrustConfig) -> TrustState {
    if t.answers < cfg.min_answers {
        return prev;
    }
    let colluding = t.colluding(cfg);
    match prev {
        TrustState::Trusted => {
            if t.score < cfg.quarantine_enter {
                TrustState::Quarantined
            } else if t.score < cfg.suspect_enter || colluding {
                TrustState::Suspect
            } else {
                TrustState::Trusted
            }
        }
        TrustState::Suspect => {
            if t.score < cfg.quarantine_enter || colluding {
                TrustState::Quarantined
            } else if t.score > cfg.suspect_exit {
                TrustState::Trusted
            } else {
                TrustState::Suspect
            }
        }
        TrustState::Quarantined => {
            if t.score > cfg.quarantine_exit && !colluding {
                TrustState::Suspect
            } else {
                TrustState::Quarantined
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tcrowd_core::TCrowd;
    use tcrowd_tabular::{generate_dataset, Answer, AnswerLog, GeneratorConfig};

    /// A generated table plus one injected spammer (uniform answers on every
    /// cell) and one colluding pair (identical wrong labels on every cell).
    fn adversarial_log() -> (tcrowd_tabular::Schema, AnswerLog, WorkerId, (WorkerId, WorkerId)) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 30,
                columns: 4,
                num_workers: 12,
                answers_per_task: 5,
                ..Default::default()
            },
            7,
        );
        let mut log = AnswerLog::new(d.rows(), d.cols());
        for a in d.answers.all() {
            log.push(*a);
        }
        let spammer = WorkerId(900);
        let colluders = (WorkerId(901), WorkerId(902));
        let mut rng = StdRng::seed_from_u64(99);
        for row in 0..d.rows() as u32 {
            for col in 0..d.cols() as u32 {
                let cell = CellId::new(row, col);
                let spam = |rng: &mut StdRng| match d.schema.column_type(col as usize) {
                    tcrowd_tabular::ColumnType::Categorical { labels } => {
                        Value::Categorical(rng.gen_range(0..labels.len() as u32))
                    }
                    tcrowd_tabular::ColumnType::Continuous { min, max } => {
                        Value::Continuous(rng.gen_range(*min..*max))
                    }
                };
                log.push(Answer { worker: spammer, cell, value: spam(&mut rng) });
                let script = spam(&mut rng);
                log.push(Answer { worker: colluders.0, cell, value: script });
                log.push(Answer { worker: colluders.1, cell, value: script });
            }
        }
        (d.schema.clone(), log, spammer, colluders)
    }

    #[test]
    fn spammer_and_colluders_score_at_the_bottom() {
        let (schema, log, spammer, colluders) = adversarial_log();
        let matrix = log.to_matrix();
        let result = TCrowd::default_full().infer_matrix(&schema, &matrix);
        let cfg = TrustConfig::default();
        let trust = score_workers(&result, &matrix, &cfg);
        let of = |w: WorkerId| *trust.iter().find(|t| t.worker == w).unwrap();
        let honest_min = trust
            .iter()
            .filter(|t| ![spammer, colluders.0, colluders.1].contains(&t.worker))
            .map(|t| t.score)
            .fold(f64::INFINITY, f64::min);
        assert!(
            of(spammer).score < honest_min,
            "spammer score {} >= honest floor {honest_min}",
            of(spammer).score
        );
        // The colluding pair is each other's top-agreement partner at ~1.0.
        assert!(of(colluders.0).max_agreement > 0.99);
        assert_eq!(of(colluders.0).partner, Some(colluders.1));
        assert_eq!(of(colluders.1).partner, Some(colluders.0));
        assert!(of(colluders.0).colluding(&cfg));
        // Honest workers do not fire the collusion signal.
        for t in trust.iter().filter(|t| t.worker.0 < 900) {
            assert!(!t.colluding(&cfg), "honest {} flagged as colluding", t.worker);
        }
        // Scoring is deterministic.
        assert_eq!(trust, score_workers(&result, &matrix, &cfg));
    }

    #[test]
    fn shadow_quality_tracks_excluded_workers() {
        let (schema, log, spammer, _) = adversarial_log();
        let matrix = log.to_matrix();
        // Fit WITHOUT the spammer (the quarantine filter path), then score
        // over the full freeze: the spammer must get a shadow score, and it
        // must stay in quarantine territory.
        let filtered = matrix.without_workers(&[spammer]);
        let result = TCrowd::default_full().infer_matrix(&schema, &filtered);
        let cfg = TrustConfig::default();
        let trust = score_workers(&result, &matrix, &cfg);
        let t = trust.iter().find(|t| t.worker == spammer).unwrap();
        assert_eq!(t.quality, None, "excluded worker has no fitted quality");
        assert!(t.score < cfg.quarantine_exit, "spammer shadow score {} too high", t.score);
        // Honest workers keep fitted qualities above the suspect band.
        let honest = trust.iter().filter(|t| t.worker.0 < 900).collect::<Vec<_>>();
        assert!(honest.iter().all(|t| t.quality.is_some()));
        assert!(honest.iter().filter(|t| t.score > cfg.suspect_enter).count() >= honest.len() / 2);
    }

    /// The pair-table tally `pairwise_agreement` replaced: every pair of
    /// answers on a cell by two different workers, accumulated per
    /// unordered worker pair in a hash map and folded in sorted order.
    fn pairwise_agreement_by_pair_table(
        matrix: &AnswerMatrix,
        min_overlap: usize,
    ) -> Vec<(f64, Option<WorkerId>, usize)> {
        type PairStats = (u32, u32, u32);
        let workers = matrix.answer_workers();
        let mut pairs: std::collections::HashMap<(u32, u32), PairStats> =
            std::collections::HashMap::new();
        let offsets = matrix.cell_offsets();
        for slot in 0..offsets.len().saturating_sub(1) {
            let (lo, hi) = (offsets[slot] as usize, offsets[slot + 1] as usize);
            for a in lo..hi {
                for b in (a + 1)..hi {
                    let (wa, wb) = (workers[a], workers[b]);
                    if wa == wb {
                        continue;
                    }
                    let key = (wa.min(wb), wa.max(wb));
                    let agree = answers_match(matrix, a, b);
                    let collide = agree && !matrix.is_categorical(a);
                    let e = pairs.entry(key).or_insert((0, 0, 0));
                    e.0 += 1;
                    e.1 += agree as u32;
                    e.2 += collide as u32;
                }
            }
        }
        let mut sorted: Vec<((u32, u32), PairStats)> = pairs.into_iter().collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        let mut best: Vec<(f64, Option<WorkerId>, usize)> =
            vec![(0.0, None, 0); matrix.num_workers()];
        for ((wa, wb), (shared, agree, collide)) in sorted {
            for (me, other) in [(wa, wb), (wb, wa)] {
                let slot = &mut best[me as usize];
                if (shared as usize) >= min_overlap {
                    let rate = agree as f64 / shared as f64;
                    if rate > slot.0 {
                        slot.0 = rate;
                        slot.1 = Some(matrix.worker_id(other as usize));
                    }
                }
                slot.2 = slot.2.max(collide as usize);
            }
        }
        best
    }

    #[test]
    fn agreement_on_the_adversarial_log_matches_the_pair_table() {
        let (schema, log, _, _) = adversarial_log();
        let matrix = log.to_matrix();
        let result = TCrowd::default_full().infer_matrix(&schema, &matrix);
        let cfg = TrustConfig::default();
        let oracle = pairwise_agreement_by_pair_table(&matrix, cfg.collusion_min_overlap);
        let trust = score_workers(&result, &matrix, &cfg);
        assert_eq!(trust.len(), oracle.len());
        for (t, &(max_agreement, partner, value_collisions)) in trust.iter().zip(&oracle) {
            assert_eq!(
                (t.max_agreement, t.partner, t.value_collisions),
                (max_agreement, partner, value_collisions)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]
        #[test]
        fn agreement_matches_the_pair_table_on_random_histories(
            // (worker, row, col, value level): few workers, cells and value
            // levels, so pairs overlap, agree, tie and repeat answers.
            answers in proptest::collection::vec((0u32..6, 0u32..4, 0u32..3, 0u32..3), 0..120),
            min_overlap in 0usize..5,
        ) {
            let mut log = AnswerLog::new(4, 3);
            for (worker, row, col, level) in answers {
                let value = if col == 2 {
                    Value::Continuous(f64::from(level) * 0.5)
                } else {
                    Value::Categorical(level)
                };
                log.push(Answer { worker: WorkerId(10 * worker), cell: CellId::new(row, col), value });
            }
            let matrix = log.to_matrix();
            proptest::prop_assert_eq!(
                pairwise_agreement(&matrix, min_overlap),
                pairwise_agreement_by_pair_table(&matrix, min_overlap)
            );
        }
    }

    #[test]
    fn state_machine_has_hysteresis_and_evidence_bounds() {
        let cfg = TrustConfig::default();
        cfg.validate().unwrap();
        let t = |answers: usize, score: f64| WorkerTrust {
            worker: WorkerId(1),
            answers,
            quality: Some(score),
            score,
            max_agreement: 0.0,
            partner: None,
            value_collisions: 0,
        };
        use TrustState::*;
        // Thin evidence never moves anyone.
        assert_eq!(advance(Trusted, &t(3, 0.0), &cfg), Trusted);
        assert_eq!(advance(Quarantined, &t(3, 1.0), &cfg), Quarantined);
        // Entry thresholds.
        assert_eq!(advance(Trusted, &t(40, 0.50), &cfg), Suspect);
        assert_eq!(advance(Trusted, &t(40, 0.30), &cfg), Quarantined);
        // Hysteresis: a score in the dead band between enter and exit holds.
        assert_eq!(advance(Suspect, &t(40, 0.60), &cfg), Suspect);
        assert_eq!(advance(Suspect, &t(40, 0.75), &cfg), Trusted);
        assert_eq!(advance(Quarantined, &t(40, 0.50), &cfg), Quarantined);
        assert_eq!(advance(Quarantined, &t(40, 0.65), &cfg), Suspect);
        // A flapping score at the entry threshold does not oscillate.
        let mut state = Trusted;
        for score in [0.54, 0.56, 0.54, 0.56] {
            state = advance(state, &t(40, score), &cfg);
            assert_eq!(state, Suspect, "score {score} must hold Suspect in the dead band");
        }
        // Collusion escalates even at a mid-band score.
        let colluder = WorkerTrust { max_agreement: 0.99, ..t(40, 0.60) };
        assert_eq!(advance(Trusted, &colluder, &cfg), Suspect);
        assert_eq!(advance(Suspect, &colluder, &cfg), Quarantined);
        assert_eq!(advance(Quarantined, &colluder, &cfg), Quarantined);
        // A high fitted score exempts plain agreement (consensus carve-out)…
        let consensus = WorkerTrust { max_agreement: 0.99, ..t(40, 0.90) };
        assert!(!consensus.colluding(&cfg));
        assert_eq!(advance(Trusted, &consensus, &cfg), Trusted);
        // …but NOT value collisions: a ring that captured the fit and
        // awarded itself a perfect quality is still caught by bit-identical
        // continuous answers.
        let captured = WorkerTrust { max_agreement: 1.0, value_collisions: 10, ..t(40, 1.0) };
        assert!(captured.colluding(&cfg));
        assert_eq!(advance(Trusted, &captured, &cfg), Suspect);
        assert_eq!(advance(Suspect, &captured, &cfg), Quarantined);
        // Bad hysteresis configs are rejected.
        assert!(TrustConfig { suspect_exit: 0.5, ..cfg }.validate().is_err());
        assert!(TrustConfig { quarantine_exit: 0.3, ..cfg }.validate().is_err());
        assert!(TrustConfig { quarantine_enter: 0.9, ..cfg }.validate().is_err());
        assert!(TrustConfig { collusion_value_collisions: 1, ..cfg }.validate().is_err());
    }
}
