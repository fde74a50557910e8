//! # tcrowd-sim
//!
//! The crowdsourcing-platform simulator for the T-Crowd reproduction.
//!
//! The paper's end-to-end experiments (§6.3, Figs. 2/5/11) ran on Amazon
//! Mechanical Turk with live workers assigned dynamically through the
//! "external-HIT" facility, which cannot be replayed. This crate substitutes
//! that deployment: a [`WorkerPool`] draws a long-tail quality population and
//! answers assigned cells through the paper's own worker model, and a
//! [`Runner`] plays out Algorithm 2 — seed answers, worker arrivals, policy
//! selection, answer collection, periodic truth inference — recording Error
//! Rate and MNAD on a fixed answers-per-task grid. A confidence-based
//! [`StoppingRule`] can additionally terminate settled cells early
//! (CDAS-style, rebuilt on T-Crowd's posteriors).
//!
//! ```
//! use tcrowd_sim::{ExperimentConfig, InferenceBackend, Runner, WorkerPool, WorkerPoolConfig};
//! use tcrowd_core::{StructureAwarePolicy, TCrowd};
//! use tcrowd_tabular::{generate_dataset, GeneratorConfig};
//!
//! let data = generate_dataset(&GeneratorConfig {
//!     rows: 10, columns: 3, num_workers: 8, ..Default::default()
//! }, 1);
//! let mut pool = WorkerPool::new(&data.schema, &data.truth,
//!     WorkerPoolConfig { num_workers: 8, ..Default::default() }, 1);
//! let runner = Runner::new(ExperimentConfig { budget_avg_answers: 2.0, ..Default::default() });
//! let mut policy = StructureAwarePolicy;
//! let backend = InferenceBackend::TCrowd(TCrowd::default_full());
//! let result = runner.run("T-Crowd", &mut pool, &mut policy, &backend);
//! assert!(!result.points.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod pool;
pub mod runner;
pub mod stopping;

pub use discovery::{DiscoveryState, EntityUniverse, ProposalOracle};
pub use pool::{AdversaryConfig, Archetype, ArrivalOrder, WorkerPool, WorkerPoolConfig};
pub use runner::{ExperimentConfig, InferenceBackend, RunResult, Runner, SeriesPoint};
pub use stopping::{StoppingRule, TerminationState};
