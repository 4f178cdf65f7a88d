//! `lids-rdf` — an in-memory RDF-star quad store.
//!
//! This crate is the storage substrate the paper delegates to GraphDB: the
//! LiDS graph is an RDF-star knowledge graph where each abstracted pipeline
//! lives in its own *named graph* and similarity edges between column nodes
//! are annotated with scores via *quoted triples* (`<< s p o >> score v`).
//!
//! Layout follows the classic dictionary-encoded design: every [`Term`]
//! (IRI, literal, blank node, or quoted triple) is interned once in a
//! [`Dictionary`] and quads are stored as four-`u32` tuples in sorted runs
//! covering the access patterns SPARQL evaluation needs (`SPOG`, `POSG`,
//! `OSPG`, `GSPO`). Pattern scans pick the index with the longest bound
//! prefix, which is what makes the discovery queries in Section 5 cheap.
//! An annotation — a quad whose subject is a quoted triple — is one
//! six-`u32` key of a fifth run instead, its triple never interned (see
//! [`store`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dictionary;
pub mod nquads;
pub mod pattern;
mod run;
pub mod store;
pub mod term;

pub use dictionary::{Dictionary, TermId};
pub use pattern::QuadPattern;
pub use store::{
    CowStats, EncodedAnnotation, EncodedPattern, EncodedQuad, IndexOrder, QuadStore,
    RunCursor, StoreReader, StoreSnapshot,
};
pub use term::{GraphName, Literal, Quad, Term, Triple};
