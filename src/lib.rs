//! # T-Crowd
//!
//! A Rust implementation of **T-Crowd: Effective Crowdsourcing for Tabular
//! Data** (Shan, Mamoulis, Li, Cheng, Huang, Zheng — ICDE 2018).
//!
//! T-Crowd crowdsources a *table* whose columns mix categorical and
//! continuous attributes. It contributes:
//!
//! 1. **Unified truth inference** — one EM model that learns a single quality
//!    per worker across both datatypes plus per-row/per-column difficulties.
//! 2. **Information-gain task assignment** — a datatype-comparable
//!    entropy-delta utility, extended with learned inter-attribute error
//!    correlations ("structure-aware" gain).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`stat`] — statistics substrate (erf, Gaussians, entropy, optimizers,
//!   k-means clustering, bootstrap significance tests).
//! * [`tabular`] — schemas, answers, datasets, generators, metrics.
//! * [`core`] — the T-Crowd EM inference and assignment policies, plus the
//!   §7 entity-correlation extension (`core::entity`).
//! * [`baselines`] — comparator inference methods and assignment policies
//!   (including Minimax-Entropy, Accu/AccuSim and a QASCA-style policy).
//! * [`sim`] — the crowdsourcing-platform simulator and experiment runner,
//!   with confidence-based adaptive stopping (`sim::stopping`) and crowd
//!   entity enumeration (`sim::discovery`).
//! * [`store`] — the durability layer: per-table CRC-framed write-ahead
//!   logs, snapshot files carrying warm-startable fit parameters, and
//!   crash recovery that tolerates torn tails (`tcrowd serve --data-dir`,
//!   `tcrowd store {inspect,verify,compact}`).
//! * [`service`] — the multi-table HTTP service layer: a std-only JSON API
//!   plus a background refresher per table driving the incremental
//!   delta-merge + warm-refit pipeline (`tcrowd serve`), with WAL-before-ack
//!   ingest and snapshot-after-publish on durable tables.
//!
//! ## Quickstart
//!
//! ```
//! use tcrowd::prelude::*;
//!
//! // Generate a small mixed-type synthetic dataset (§6.5 of the paper).
//! let config = GeneratorConfig { rows: 20, columns: 4, ..Default::default() };
//! let dataset = generate_dataset(&config, 7);
//!
//! // Run T-Crowd truth inference on its answer set.
//! let model = TCrowd::new(TCrowdOptions::default());
//! let result = model.infer(&dataset.schema, &dataset.answers);
//!
//! // Compare the estimates to the ground truth.
//! let quality = evaluate(&dataset.schema, &dataset.truth, &result.estimates());
//! assert!(quality.error_rate.unwrap() <= 0.5);
//! ```

pub use tcrowd_baselines as baselines;
pub use tcrowd_core as core;
pub use tcrowd_service as service;
pub use tcrowd_sim as sim;
pub use tcrowd_stat as stat;
pub use tcrowd_store as store;
pub use tcrowd_tabular as tabular;

/// Convenience re-exports covering the common workflow: generate or load a
/// dataset, infer truths, assign tasks, evaluate.
pub mod prelude {
    pub use tcrowd_core::{
        AssignmentPolicy, CorrelationModel, EmOptions, EntityAwarePolicy, EntityModel, FitState,
        InferenceResult, InherentGainPolicy, RowGrouping, Seed, StructureAwarePolicy, TCrowd,
        TCrowdOptions,
    };
    pub use tcrowd_sim::{
        ExperimentConfig, Runner, StoppingRule, TerminationState, WorkerPool, WorkerPoolConfig,
    };
    pub use tcrowd_tabular::{
        evaluate, generate_dataset, AnswerLog, CellId, ColumnType, Dataset, GeneratorConfig,
        Schema, Value, WorkerId,
    };
}
