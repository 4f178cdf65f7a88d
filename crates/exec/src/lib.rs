//! `lids-exec` — execution substrate shared by every system in this repository.
//!
//! The KGLiDS paper distributes its profiling and graph-construction
//! algorithms with PySpark (Algorithms 1–3 are all embarrassingly parallel
//! `map`s over scripts, columns, or column pairs). This crate provides the
//! single-machine equivalent: a chunked [`parallel_map`] over a slice on
//! std scoped threads, plus
//! the logical-bytes [`MemoryMeter`] with which each system in the
//! evaluation section reports the peak size of its resident data structures
//! (the substitute for the paper's process-level RSS measurements; see
//! DESIGN.md). Wall time is `std::time::Instant`.
//!
//! It also hosts the fault-tolerance substrate for ingestion: the
//! [`LidsError`] taxonomy and the panic-isolating [`parallel_try_map_with`],
//! whose workers claim one artifact at a time.
//! Every ingest stage is a deterministic function of its input's bytes, so
//! an item fails once and is quarantined; nothing is retried. The query
//! governor reads deadlines through an injectable [`Clock`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod error;
pub mod governor;
pub mod meter;
pub mod pool;

pub use clock::{Clock, SystemClock, TestClock};
pub use error::{ErrorKind, LidsError, LidsResult};
pub use governor::{CancelToken, GovernorTrip, QueryGovernor, QueryLimits, TripReason};
pub use meter::MemoryMeter;
pub use pool::{
    parallel_blocks, parallel_map, parallel_map_with, parallel_try_map_with, ParallelConfig,
};
