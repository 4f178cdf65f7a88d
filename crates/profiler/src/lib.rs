//! `lids-profiler` — embedding-based data profiling (Section 3.2).
//!
//! Algorithm 2 of the paper: datasets are decomposed into columns; each
//! column is profiled independently (and in parallel) into a *column
//! profile* holding metadata, an inferred fine-grained type, statistics,
//! and a CoLR embedding averaged over a value sample of
//! `max(0.1·|col|, 1000)` values.
//!
//! The NER model (spaCy/OntoNotes 5 in the paper) is substituted by a
//! deterministic gazetteer + pattern recogniser covering the same 18
//! OntoNotes entity types; natural-language detection follows the paper's
//! rule — "predicted based on the existence of corresponding word
//! embeddings for the tokens".

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csv;
pub mod json;
pub mod ner;
pub mod profile;
pub mod stats;
pub mod table;
pub mod types;

pub use csv::{parse_csv_bytes, parse_csv_with, write_csv, CsvMode, RawDataset, RawTable};
pub use json::parse_json_table;
pub use lids_exec::{ErrorKind, LidsError, LidsResult};
pub use ner::{recognize_entity, EntityType};
pub use profile::{profile_column, profile_table, ColumnMeta, ColumnProfile, ProfilerConfig};
pub use stats::ColumnStats;
pub use table::{Column, Dataset, Table};
pub use types::infer_fine_grained_type;

// Re-export: the type enum lives with the CoLR models it parameterises.
pub use lids_embed::FineGrainedType;
