//! `lids-kg` — the KG Governor (Sections 2.1 and 3).
//!
//! Builds the LiDS graph: every pipeline script is abstracted into its own
//! named graph (Algorithm 1, combining static analysis with library
//! documentation and dataset-usage analysis), datasets are profiled into a
//! *data global schema* with RDF-star-scored similarity edges (Algorithm
//! 3), a library graph captures package hierarchies, and the Graph Linker
//! verifies predicted table/column usages against the schema, connecting
//! the pipeline and dataset sides of the graph.

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
};
pub use docs::{DocEntry, LibraryDocs};
pub use incremental::{retraction_ids, retraction_quads, DeltaLinkStats, LinkIndex};
pub use library_graph::{build_library_graph, library_graph_quads};
pub use linker::link_pipelines;
pub use ontology::Vocab;
pub use provenance::{emit_quarantine, push_quarantine, QuarantineRecord};
pub use schema::{
    build_data_global_schema, data_global_schema_quads, data_global_schema_quads_seeded,
    emit_schema, insert_similarity_edge, link_schema, BucketStats, Edge, EncodedBatch, LinkSeed,
    LinkingConfig, LinkingMode, QuadSink, SchemaConfig, SchemaStats,
};
