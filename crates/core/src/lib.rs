//! `kglids` — the KGLiDS platform (the paper's primary contribution).
//!
//! A scalable platform that abstracts the semantics of data-science
//! artifacts (datasets + pipeline scripts) into an RDF-star knowledge
//! graph — the *LiDS graph* — and drives discovery and on-demand
//! automation on top of it:
//!
//! - [`KgLids`]: the platform façade. Bootstrap it with datasets and
//!   pipeline scripts (the KG Governor profiles, abstracts, links — §2.1/§3),
//!   keep it in sync with [`KgLids::apply_delta`] — the one ingest path,
//!   of which bootstrap is the first run (§2.1: "KGLiDS continuously and
//!   incrementally maintains our KG") — and query it through the §5
//!   interfaces. [`LidsReader`] is the same query surface detached from
//!   the writer, for serving under live ingest.
//! - [`discovery`]: the fluent [`Discovery`] entry point — keyword table
//!   search, unionable columns/tables, joinable tables, join paths — on
//!   the platform or a reader.
//! - [`insights`]: `get_top_k_libraries_used`, `get_top_used_libraries`,
//!   `get_pipelines_calling_libraries` (Figure 4's data).
//! - [`automation`]: `recommend_cleaning_operations`, `apply_cleaning_
//!   operations`, `recommend_transformations`, `recommend_ml_models`,
//!   `recommend_hyperparameters`, `automl` (§4, §5): GNNs trained on the
//!   lake of the current store generation, on first use behind `&self`.
//! - [`manager`]: the Statistics Manager (`statistics`) and Model Manager.
//! - [`dataframe`]: query results materialise as a [`DataFrame`] ("KGLiDS
//!   exports query results as Pandas DataFrame" — §2.2).
//! - [`query`]: ad-hoc SPARQL ([`KgLids::query`], [`LidsReader::query`]) —
//!   the one governed query path every handle, every discovery search and
//!   every read of the lake the §4/§5 interfaces make runs through; each of
//!   them returns a typed [`LidsResult`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod automation;
pub mod dataframe;
pub mod discovery;
pub mod export;
pub mod insights;
pub mod manager;
pub mod platform;
pub mod query;
pub mod report;

pub use dataframe::DataFrame;
pub use discovery::{ColumnHit, Discovery, JoinPath, TableHit, UnionMode, SEARCH_TABLES_QUERY};
pub use lids_exec::{CancelToken, ErrorKind, LidsError, LidsResult, QueryLimits};
pub use lids_kg::{LinkingConfig, LinkingMode};
pub use lids_obs::{Obs, ObsSnapshot};
pub use lids_sparql::{EvalOptions, ExplainReport, Solutions};
pub use platform::{
    BootstrapStats, DeltaBatch, DeltaStats, KgLids, KgLidsBuilder, PipelineScript,
    SchemaStatsLite,
};
pub use query::{LidsReader, QueryGuardrails};
pub use report::{ArtifactKind, BootstrapReport, QuarantineEntry};
