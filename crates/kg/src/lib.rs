//! `lids-kg` — the KG Governor (Sections 2.1 and 3).
//!
//! Builds the LiDS graph: every pipeline script is abstracted into its own
//! named graph (Algorithm 1, combining static analysis with library
//! documentation and dataset-usage analysis), datasets are profiled into a
//! *data global schema* with RDF-star-scored similarity edges (Algorithm
//! 3), a library graph captures package hierarchies, and the Graph Linker
//! verifies each pipeline's predicted table/column reads, held in memory
//! from abstraction, against its own dataset's schema, connecting the
//! pipeline and dataset sides of the graph.

pub mod abstraction;
pub mod docs;
pub mod incremental;
pub mod library_graph;
pub mod linker;
pub mod ontology;
pub mod provenance;
pub mod schema;

pub use abstraction::{
    abstract_pipeline, emit_pipeline_quads, AbstractionStats, Aspect, PipelineMetadata,
    PredictedRead,
};
pub use docs::{DocEntry, LibraryDocs};
pub use incremental::{retraction_ids, retraction_quads, LinkIndex};
pub use library_graph::{build_library_graph, library_graph_quads};
pub use linker::{LinkStats, Linker};
pub use ontology::Vocab;
pub use provenance::{emit_quarantine, push_quarantine, QuarantineRecord};
pub use schema::{
    build_data_global_schema, data_global_schema_quads_seeded, emit_metadata, BucketStats, Edge,
    EncodedBatch, LinkingConfig, LinkingMode, QuadSink, SchemaConfig, SchemaStats,
};
