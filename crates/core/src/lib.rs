//! # tcrowd-core
//!
//! The T-Crowd core (ICDE 2018): unified EM truth inference over mixed
//! categorical/continuous tables, and information-gain task assignment.
//!
//! ## Truth inference (paper §4)
//!
//! Worker `u` answers cell `c_ij` with an effective variance
//! `φ^u_ij = α_i · β_j · φ_u` — the product of the row difficulty, the column
//! difficulty and the worker's inherent variance. A continuous answer is
//! drawn `a ~ N(T̂_ij, φ^u_ij)` (Eq. 1); a categorical answer is correct with
//! probability `q^u_ij = erf(ε / √(2 φ^u_ij))` and otherwise uniform over the
//! wrong labels (Eq. 2–3). The same `φ_u` appears in both datatypes — that is
//! the "unified quality" contribution. Inference maximises the likelihood of
//! the observed answers by EM (Algorithm 1): the E-step computes posterior
//! truth distributions per cell (Eq. 4), the M-step fits `α, β, φ` by
//! block-coordinate Newton ascent on the expected complete-data
//! log-likelihood (Eq. 5).
//!
//! ## Incremental refits (the online loop)
//!
//! An assign → collect → re-infer loop refits with only a handful of new
//! answers each time. [`TCrowd::fit`] is the one way into EM on a frozen
//! matrix, and its [`Seed`] says how EM starts: cold, warm from a previous
//! fit's parameters, or evaluating stored parameters without iterating.
//! A warm seed restores the parameters in the raw (pre-renormalisation)
//! gauge so the restart begins exactly where the previous optimiser
//! stopped, and the steady-state refit converges in a few iterations
//! instead of replaying the cold trajectory; paired with
//! `AnswerMatrix::merge_delta` on the storage side this is the
//! `BENCH_refresh.json` speedup. Both starts share the EM map, so at
//! convergence the warm and cold fits agree (regression-tested to 1e-6);
//! [`EmOptions::param_tol`](em::EmOptions) adds a parameter-change stopping
//! rule for runs that need fixed-point-accurate parameters rather than a
//! flat ELBO. [`FitState`] is the online loop itself — absorb a log slice,
//! refit, catch up on answers that arrived mid-fit with the §5.1
//! incremental update — and both the simulator and the service drive it.
//!
//! ## Task assignment (paper §5)
//!
//! Tasks are ranked by *information gain*: the expected drop in the truth
//! distribution's entropy if the incoming worker answers the task (Eq. 6) —
//! Shannon entropy for categorical cells, differential entropy for continuous
//! cells; the *delta* form makes the two comparable. The *structure-aware*
//! variant (Eq. 7–8) additionally conditions the worker's predicted error on
//! the errors they already made on other attributes of the same row, through
//! a pairwise correlation model (Tables 4–5).
//!
//! Entry points: [`TCrowd`] for inference ([`TCrowd::infer`] on a log,
//! [`TCrowd::infer_matrix`] on a freeze, [`TCrowd::fit`] with a [`Seed`]),
//! [`FitState`] for the online loop, [`InherentGainPolicy`] /
//! [`StructureAwarePolicy`] for assignment, and [`EntityAwarePolicy`] for the
//! §7 entity-correlation extension.

// `deny` rather than `forbid`: the worker pool (`pool`) is the one
// sanctioned island of `unsafe` in this crate — it publishes a borrowed job
// closure to its helper threads as a lifetime-erased pointer behind a strict
// completion barrier (see `pool`'s module docs), opted in with a
// module-level `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod correlation;
pub mod diagnostics;
pub mod em;
pub mod entity;
pub mod gain;
pub mod inference;
pub mod model;
pub mod online;
pub(crate) mod pool;
pub mod truth;

pub use assign::{
    apply_answer_incrementally, AssignmentContext, AssignmentPolicy, InherentGainPolicy,
    StructureAwarePolicy, TopK,
};
pub use correlation::{CorrelationModel, ErrorObservation, PredictedError};
pub use em::{EmOptions, EmTimings};
pub use entity::{EntityAwarePolicy, EntityModel, EntityModelOptions, RowGrouping};
pub use inference::{
    ColumnFilter, EpsilonSpec, FitParams, InferenceResult, Seed, TCrowd, TCrowdOptions,
};
pub use online::FitState;
pub use truth::TruthDist;
