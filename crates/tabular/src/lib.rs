//! # tcrowd-tabular
//!
//! Tabular-data substrate for the T-Crowd reproduction (ICDE 2018).
//!
//! Implements the paper's data model (Definitions 1–2): a two-dimensional
//! table `C = {c_ij}` whose columns are categorical or continuous attributes,
//! a set of workers `U`, and the answer set `A = {a^u_ij}`. On top of the
//! model it provides everything the evaluation (§6) needs:
//!
//! * [`schema`] / [`value`] — column types, schemas and cell values.
//! * [`answer`] — the mutable append log (arrival order plus a per-cell
//!   index for point queries).
//! * [`matrix`] — the frozen columnar (CSR) answer store every sweep-side
//!   consumer iterates, and the one home of the by-worker and by-(worker,
//!   row) groupings; see its docs for the layout and complexity table.
//!   Freezes are **incrementally refreshable**: [`AnswerMatrix::merge_delta`]
//!   splices a log tail into an existing freeze (per-answer work on the
//!   delta only, field-for-field identical to a rebuild), each freeze
//!   carries an [`epoch`](matrix::AnswerMatrix::epoch) marking the log
//!   length it covers, and [`FrozenView`] is the copyable
//!   staleness-checkable handle consumers hold across log appends.
//! * [`quarantine`] — worker-exclusion filter views: serve inference and
//!   assignment queries minus a quarantined worker set without deleting
//!   anything from the log ([`QuarantineView`],
//!   [`AnswerMatrix::without_workers`](matrix::AnswerMatrix::without_workers)).
//! * [`dataset`] — ground truth + answers + statistics (Table 6).
//! * [`generator`] — the synthetic data generator of §6.5.1.
//! * [`noise`] — the γ-noise injector of §6.5.2.
//! * [`real_sim`] — simulated stand-ins for the paper's three AMT datasets
//!   (Celebrity, Restaurant, Emotion) with matching shapes and the
//!   inter-attribute error correlations the paper observed.
//! * [`metrics`] — Error Rate and MNAD (§6.2) plus the per-worker
//!   per-attribute error matrices used by the case studies (Fig. 3).
//! * [`io`] — tab-separated interchange format for schemas, answers and
//!   tables (what the CLI reads and writes).
//! * [`tsv`] — minimal TSV writers for the reproduction binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod dataset;
pub mod generator;
pub mod io;
pub mod matrix;
pub mod metrics;
pub mod noise;
pub mod quarantine;
pub mod real_sim;
pub mod schema;
pub mod shared;
pub mod tsv;
pub mod value;

pub use answer::{Answer, AnswerLog, AnswerQueries, CellId, WorkerId};
pub use dataset::{Dataset, DatasetStatistics};
pub use generator::{
    generate_dataset, EntityGroups, GeneratorConfig, RowFamiliarity, WorkerQualityConfig,
};
pub use matrix::{AnswerMatrix, FrozenView, MatrixAnswer};
pub use metrics::{evaluate, evaluate_with_answers, ColumnQuality, QualityReport};
pub use quarantine::QuarantineView;
pub use schema::{Column, ColumnType, Schema};
pub use shared::{LogSlice, SharedLog};
pub use value::Value;
