//! The platform façade: bootstrap (KG Governor) + storage + ad-hoc queries.
//!
//! Bootstrap is fault-tolerant end to end: raw artifacts are parsed in
//! strict mode, every per-artifact stage (parsing, profiling, script
//! analysis) runs under panic isolation with an optional soft budget,
//! transient failures get bounded retry with exponential backoff over an
//! injectable clock, and artifacts that still fail are quarantined into
//! the [`BootstrapReport`] and recorded as provenance triples — bootstrap
//! never aborts on a bad artifact.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lids_embed::{table_embedding, ColrModels, FineGrainedType, WordEmbeddings};
use lids_exec::{
    parallel_try_map_with, Clock, ErrorKind, IsolationConfig, LidsError, LidsResult, MemoryMeter,
    QueryLimits, RetryPolicy, Stopwatch, SystemClock, TripReason,
};
use lids_kg::abstraction::{emit_pipeline_quads, AbstractionStats, PipelineMetadata};
use lids_kg::docs::LibraryDocs;
use lids_kg::incremental::{retraction_ids, LinkIndex};
use lids_kg::library_graph::library_graph_quads;
use lids_kg::linker::{link_pipelines, LinkStats};
use lids_kg::ontology::Vocab;
use lids_kg::provenance::{push_quarantine, QuarantineRecord};
use lids_kg::schema::{
    emit_schema, link_schema, EncodedBatch, LinkingConfig, SchemaConfig, SchemaStats,
};
use lids_obs::{Obs, SpanId, TraceSnapshot};
use lids_profiler::table::Dataset;
use lids_profiler::{
    parse_csv_bytes, profile_table, ColumnProfile, CsvMode, ProfilerConfig, RawDataset, Table,
};
use lids_py::analysis::AnalyzedScript;
use lids_rdf::{IngestStats, Quad, QuadStore, StoreReader, StoreSnapshot};
use lids_sparql::{
    EvalOptions, ExecStats, ExplainReport, PlanCache, PlanCacheStats, Solutions, SparqlError,
};
use lids_vector::{BruteForceIndex, Metric, VectorIndex};

use crate::dataframe::DataFrame;
use crate::report::{ArtifactKind, BootstrapReport, QuarantineEntry};

/// A pipeline script plus its metadata (`S` and `MD` of Algorithm 1).
#[derive(Debug, Clone)]
pub struct PipelineScript {
    pub metadata: PipelineMetadata,
    pub source: String,
}

/// What bootstrap did, with per-phase timings — the numbers behind the
/// Table 2 "preprocessing" column and Table 3's analysis time.
#[derive(Debug, Clone, Default)]
pub struct BootstrapStats {
    pub ingestion_secs: f64,
    pub profiling_secs: f64,
    pub schema_secs: f64,
    pub abstraction_secs: f64,
    pub linking_secs: f64,
    pub columns_profiled: usize,
    pub pipelines_abstracted: usize,
    pub pipelines_failed: usize,
    pub triples: usize,
    pub schema: Option<SchemaStatsLite>,
    pub abstraction: AbstractionStats,
    pub links: LinkStats,
    /// Which artifacts were quarantined, with typed errors and retry counts.
    pub report: BootstrapReport,
    /// Span tree of the bootstrap run (`bootstrap` root with one child per
    /// stage; the schema stage carries one child per linking bucket).
    pub trace: TraceSnapshot,
}

/// Fault-tolerance knobs for bootstrap ingestion.
#[derive(Clone)]
pub struct IngestOptions {
    /// CSV failure semantics for raw artifacts. Strict (the default)
    /// quarantines damaged files; lenient applies documented coercions.
    pub csv_mode: CsvMode,
    /// Bounded retry with exponential backoff for transient failures
    /// (worker panics, budget overruns). Permanent errors fail fast.
    pub retry: RetryPolicy,
    /// Soft per-artifact budget for profiling/analysis; overruns become
    /// `ProfileTimeout` errors (and are retried per `retry`).
    pub item_budget: Option<Duration>,
    /// Delay source for backoff — injectable so tests run without sleeping.
    pub clock: Arc<dyn Clock>,
    /// Record quarantined artifacts as provenance triples in the dedicated
    /// named graph (`lids_kg::provenance::QUARANTINE_GRAPH`).
    pub record_provenance: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            csv_mode: CsvMode::Strict,
            retry: RetryPolicy::default(),
            item_budget: None,
            clock: Arc::new(SystemClock),
            record_provenance: true,
        }
    }
}

impl std::fmt::Debug for IngestOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestOptions")
            .field("csv_mode", &self.csv_mode)
            .field("retry", &self.retry)
            .field("item_budget", &self.item_budget)
            .field("record_provenance", &self.record_provenance)
            .finish_non_exhaustive()
    }
}

/// Map `f` over `items` under panic isolation, retrying transient per-item
/// failures per the ingest policy. Returns `(result, retries)` per item,
/// in input order.
fn quarantine_map<T, R>(
    items: &[T],
    opts: &IngestOptions,
    f: impl Fn(&T) -> LidsResult<R> + Sync,
) -> Vec<(LidsResult<R>, u32)>
where
    T: Sync,
    R: Send,
{
    let config = IsolationConfig {
        parallel: Default::default(),
        item_budget: opts.item_budget,
    };
    let mut results: Vec<(LidsResult<R>, u32)> = parallel_try_map_with(config, items, &f)
        .into_iter()
        .map(|r| (r, 0))
        .collect();
    for (i, slot) in results.iter_mut().enumerate() {
        while let Err(e) = &slot.0 {
            if !e.is_transient() || slot.1 >= opts.retry.max_retries {
                break;
            }
            opts.clock.sleep(opts.retry.delay(slot.1));
            slot.1 += 1;
            // re-run the single item, still under panic isolation
            slot.0 = parallel_try_map_with(config, &items[i..=i], &f)
                .pop()
                .unwrap_or_else(|| {
                    Err(LidsError::new(ErrorKind::Internal, "retry produced no result"))
                });
        }
    }
    results
}

/// Bulk-load a stage's accumulated quad batch and record the ingest
/// telemetry as an `ingest` child span of the stage. This is how metadata
/// of pipelines, the library graph and quarantine records arrive — terms
/// that mostly occur once; the schema stage, whose column nodes recur in
/// hundreds of edges each, goes through [`ingest_encoded`].
fn ingest_batch(
    store: &mut QuadStore,
    obs: &Obs,
    parent: SpanId,
    stage: &str,
    batch: Vec<Quad>,
) -> IngestStats {
    // opened before the load: the span times the bulk load itself,
    // copy-on-write clone included
    let span = obs.tracer.child(parent, "ingest");
    let stats = store.extend_stats(batch);
    close_ingest_span(obs, span, stage, &stats);
    stats
}

/// Let `emit` write a stage's quads as id tuples over the store's own
/// dictionary, bulk-load them, and record the same `ingest` child span as
/// [`ingest_batch`]: `encode_secs` is the emission (every term interned
/// once, where the emitter first names it), `index_secs` the load of the
/// finished tuples, and there is no extract phase to pay.
fn ingest_encoded(
    store: &mut QuadStore,
    obs: &Obs,
    parent: SpanId,
    stage: &str,
    emit: impl FnOnce(&mut EncodedBatch<'_>),
) -> IngestStats {
    // opened before the emission: the first interned term pays the
    // copy-on-write clone
    let span = obs.tracer.child(parent, "ingest");
    let terms_before = store.term_count();
    let t = Instant::now();
    let mut batch = EncodedBatch::new(store);
    emit(&mut batch);
    let quads = batch.into_quads();
    let encode_secs = t.elapsed().as_secs_f64();
    let quads_in = quads.len();
    let t = Instant::now();
    let quads_added = store.extend_encoded(quads);
    let stats = IngestStats {
        quads_in,
        quads_added,
        new_terms: store.term_count() - terms_before,
        extract_secs: 0.0,
        encode_secs,
        index_secs: t.elapsed().as_secs_f64(),
    };
    close_ingest_span(obs, span, stage, &stats);
    stats
}

fn close_ingest_span(obs: &Obs, span: SpanId, stage: &str, stats: &IngestStats) {
    obs.tracer.set_attr(span, "stage", stage);
    obs.tracer.set_attr(span, "quads_in", stats.quads_in);
    obs.tracer.add_count(span, "quads_added", stats.quads_added as u64);
    obs.tracer.add_count(span, "new_terms", stats.new_terms as u64);
    obs.tracer.set_attr(span, "dedup_rate", stats.dedup_rate());
    obs.tracer.set_attr(span, "extract_secs", stats.extract_secs);
    obs.tracer.set_attr(span, "encode_secs", stats.encode_secs);
    obs.tracer.set_attr(span, "index_secs", stats.index_secs);
    obs.tracer.set_attr(span, "quads_per_sec", stats.quads_per_sec());
    let _ = obs.tracer.close(span);
}

/// The derived embedding stores: the Faiss-substitute column index plus
/// the table/dataset aggregate embeddings. Rebuilt from the current
/// profile set after bootstrap and after every delta (aggregation is
/// linear in the number of columns — noise next to profiling/linking).
struct EmbeddingStore {
    column_index: BruteForceIndex,
    table_embeddings: HashMap<(String, String), Vec<f32>>,
    dataset_embeddings: HashMap<String, Vec<f32>>,
    dataset_embeddings_missing: HashMap<String, Vec<f32>>,
}

fn build_embedding_store(profiles: &[ColumnProfile]) -> EmbeddingStore {
    let mut column_index = BruteForceIndex::new(lids_embed::EMBEDDING_DIM, Metric::Cosine);
    for (i, p) in profiles.iter().enumerate() {
        if !p.embedding.is_empty() {
            column_index.add(i as u64, &p.embedding);
        }
    }
    let mut table_embeddings: HashMap<(String, String), Vec<f32>> = HashMap::new();
    let mut missing_table_embeddings: HashMap<(String, String), Vec<f32>> = HashMap::new();
    // (type, embedding, has-nulls) per column, grouped by table
    type ColumnEntry = (FineGrainedType, Vec<f32>, bool);
    let mut by_table: HashMap<(String, String), Vec<ColumnEntry>> = HashMap::new();
    for p in profiles {
        if !p.embedding.is_empty() {
            by_table
                .entry((p.meta.dataset.clone(), p.meta.table.clone()))
                .or_default()
                .push((p.fgt, p.embedding.clone(), p.stats.nulls > 0));
        }
    }
    for (key, cols) in by_table {
        let all: Vec<(FineGrainedType, Vec<f32>)> =
            cols.iter().map(|(t, e, _)| (*t, e.clone())).collect();
        let with_missing: Vec<(FineGrainedType, Vec<f32>)> = cols
            .iter()
            .filter(|(_, _, has_nulls)| *has_nulls)
            .map(|(t, e, _)| (*t, e.clone()))
            .collect();
        table_embeddings.insert(key.clone(), table_embedding(&all));
        // §4.2: average only the columns containing missing values
        let source = if with_missing.is_empty() { &all } else { &with_missing };
        missing_table_embeddings.insert(key, table_embedding(source));
    }
    let mut dataset_embeddings: HashMap<String, Vec<f32>> = HashMap::new();
    let mut dataset_embeddings_missing: HashMap<String, Vec<f32>> = HashMap::new();
    for (map, out) in [
        (&table_embeddings, &mut dataset_embeddings),
        (&missing_table_embeddings, &mut dataset_embeddings_missing),
    ] {
        let mut by_dataset: HashMap<String, Vec<Vec<f32>>> = HashMap::new();
        for ((d, _), e) in map {
            by_dataset.entry(d.clone()).or_default().push(e.clone());
        }
        for (d, embs) in by_dataset {
            let dim = embs[0].len();
            out.insert(d, lids_vector::mean_vector(embs.iter().map(|e| e.as_slice()), dim));
        }
    }
    EmbeddingStore {
        column_index,
        table_embeddings,
        dataset_embeddings,
        dataset_embeddings_missing,
    }
}

/// Platform-wide resource-governance defaults for the query path.
///
/// Per-call [`EvalOptions`] win when set; these fill the gaps so every
/// ad-hoc and discovery query runs under the same deadline/budget policy
/// without callers having to thread options everywhere. Shapes that keep
/// tripping the governor are quarantined in the plan cache and fail fast
/// (typed `QueryBudgetExceeded`) until their TTL expires.
#[derive(Debug, Clone)]
pub struct QueryGuardrails {
    /// Default wall-clock deadline per query (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Default logical memory budget per query in bytes (`None` = unlimited).
    pub memory_budget: Option<u64>,
    /// Row cap applied when a budget trip degrades a query to the
    /// streaming row engine; the partial result is marked truncated.
    pub degraded_row_cap: usize,
    /// Governor trips of the same query shape before it is quarantined.
    pub poison_threshold: u32,
    /// How long a quarantined shape keeps failing fast.
    pub poison_ttl: Duration,
}

impl Default for QueryGuardrails {
    fn default() -> Self {
        QueryGuardrails {
            deadline: None,
            memory_budget: None,
            degraded_row_cap: 100_000,
            poison_threshold: 3,
            poison_ttl: Duration::from_secs(60),
        }
    }
}

/// Copyable subset of [`SchemaStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemaStatsLite {
    pub pairs_compared: usize,
    pub candidates_generated: usize,
    pub pairs_pruned: usize,
    pub label_edges: usize,
    pub content_edges: usize,
}

impl From<&SchemaStats> for SchemaStatsLite {
    fn from(s: &SchemaStats) -> Self {
        SchemaStatsLite {
            pairs_compared: s.pairs_compared,
            candidates_generated: s.candidates_generated,
            pairs_pruned: s.pairs_pruned,
            label_edges: s.label_edges,
            content_edges: s.content_edges,
        }
    }
}

/// Builder for a [`KgLids`] platform instance.
pub struct KgLidsBuilder {
    datasets: Vec<Dataset>,
    raw_datasets: Vec<RawDataset>,
    pipelines: Vec<PipelineScript>,
    profiler_config: ProfilerConfig,
    schema_config: SchemaConfig,
    ingest: IngestOptions,
    custom_profiles: Option<Vec<ColumnProfile>>,
    guardrails: QueryGuardrails,
}

impl Default for KgLidsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KgLidsBuilder {
    pub fn new() -> Self {
        KgLidsBuilder {
            datasets: Vec::new(),
            raw_datasets: Vec::new(),
            pipelines: Vec::new(),
            profiler_config: ProfilerConfig::default(),
            schema_config: SchemaConfig::default(),
            ingest: IngestOptions::default(),
            custom_profiles: None,
            guardrails: QueryGuardrails::default(),
        }
    }

    /// Override the platform-wide query resource-governance defaults.
    pub fn with_query_guardrails(mut self, guardrails: QueryGuardrails) -> Self {
        self.guardrails = guardrails;
        self
    }

    /// Add a dataset (one or more tables) to be profiled.
    pub fn with_dataset(mut self, dataset: Dataset) -> Self {
        self.datasets.push(dataset);
        self
    }

    /// Add many datasets.
    pub fn with_datasets(mut self, datasets: impl IntoIterator<Item = Dataset>) -> Self {
        self.datasets.extend(datasets);
        self
    }

    /// Add a dataset of raw (unparsed) table files, as read from a data
    /// lake. Files are parsed during bootstrap under the fault-tolerance
    /// policy of [`IngestOptions`]; damaged files are quarantined.
    pub fn with_raw_dataset(mut self, raw: RawDataset) -> Self {
        self.raw_datasets.push(raw);
        self
    }

    /// Add many raw datasets.
    pub fn with_raw_datasets(mut self, raws: impl IntoIterator<Item = RawDataset>) -> Self {
        self.raw_datasets.extend(raws);
        self
    }

    /// Override the fault-tolerance policy for ingestion.
    pub fn with_ingest_options(mut self, ingest: IngestOptions) -> Self {
        self.ingest = ingest;
        self
    }

    /// Add pipeline scripts to be abstracted.
    pub fn with_pipelines(mut self, pipelines: impl IntoIterator<Item = PipelineScript>) -> Self {
        self.pipelines.extend(pipelines);
        self
    }

    /// Override profiling parameters.
    pub fn with_profiler_config(mut self, config: ProfilerConfig) -> Self {
        self.profiler_config = config;
        self
    }

    /// Override similarity thresholds (`α`, `β`, `θ`).
    pub fn with_schema_config(mut self, config: SchemaConfig) -> Self {
        self.schema_config = config;
        self
    }

    /// Override only the candidate-generation strategy of the schema pass
    /// (exact vs index-pruned linking and its tuning knobs).
    pub fn with_linking_config(mut self, linking: LinkingConfig) -> Self {
        self.schema_config.linking = linking;
        self
    }

    /// Use pre-computed column profiles instead of profiling datasets —
    /// for ablations with alternative embedding models (Figure 6's
    /// coarse-grained arm).
    pub fn with_custom_profiles(mut self, profiles: Vec<ColumnProfile>) -> Self {
        self.custom_profiles = Some(profiles);
        self
    }

    /// Run the KG Governor: ingest → profile → schema → library graph →
    /// abstract → link. Returns the platform and bootstrap statistics.
    ///
    /// Never aborts on a bad artifact: damaged tables and scripts are
    /// quarantined into `stats.report` (and the provenance named graph)
    /// while the rest of the lake bootstraps normally.
    pub fn bootstrap(self) -> (KgLids, BootstrapStats) {
        let KgLidsBuilder {
            datasets,
            raw_datasets,
            pipelines,
            profiler_config,
            schema_config,
            ingest,
            custom_profiles,
            guardrails,
        } = self;
        let mut stats = BootstrapStats::default();
        let mut report = BootstrapReport::default();
        let mut store = QuadStore::new();
        let docs = LibraryDocs::builtin();
        let vocab = Vocab::new();
        let we = WordEmbeddings::new();
        let models = ColrModels::pretrained();
        let meter = MemoryMeter::new();
        let obs = Obs::new();
        let root = obs.tracer.root("bootstrap");

        // ---- ingestion: parse raw artifacts under the fault policy ----
        let span = obs.tracer.child(root, "parse");
        let mut sw = Stopwatch::started();
        let mut datasets = datasets;
        for raw in &raw_datasets {
            let outcomes = quarantine_map(&raw.tables, &ingest, |t| {
                parse_csv_bytes(&t.name, &t.bytes, ingest.csv_mode)
            });
            let mut tables = Vec::new();
            for (table, (result, retries)) in raw.tables.iter().zip(outcomes) {
                match result {
                    Ok(t) => tables.push(t),
                    Err(error) => report.quarantined.push(QuarantineEntry {
                        artifact: format!("{}/{}", raw.name, table.name),
                        kind: ArtifactKind::Table,
                        error,
                        retries,
                    }),
                }
            }
            datasets.push(Dataset::new(raw.name.clone(), tables));
        }
        sw.stop();
        stats.ingestion_secs = sw.secs();
        obs.tracer.set_attr(span, "raw_datasets", raw_datasets.len());
        obs.tracer.add_count(span, "quarantined", report.quarantined.len() as u64);
        let _ = obs.tracer.close(span);

        // ---- Algorithm 2: profile all datasets (panic-isolated) ----
        let span = obs.tracer.child(root, "profile");
        let mut sw = Stopwatch::started();
        let profiles: Vec<ColumnProfile> = match custom_profiles {
            Some(profiles) => profiles,
            None => {
                let units: Vec<(&str, &Table)> = datasets
                    .iter()
                    .flat_map(|d| d.tables.iter().map(move |t| (d.name.as_str(), t)))
                    .collect();
                let outcomes = quarantine_map(&units, &ingest, |unit| {
                    let (dataset, table) = *unit;
                    Ok(profile_table(
                        dataset,
                        table,
                        models,
                        &we,
                        &profiler_config,
                        Some(&meter),
                    ))
                });
                let mut profiles = Vec::new();
                for ((dataset, table), (result, retries)) in units.iter().zip(outcomes) {
                    match result {
                        Ok(p) => profiles.extend(p),
                        Err(error) => report.quarantined.push(QuarantineEntry {
                            artifact: format!("{dataset}/{}", table.name),
                            kind: ArtifactKind::Table,
                            error,
                            retries,
                        }),
                    }
                }
                profiles
            }
        };
        sw.stop();
        stats.profiling_secs = sw.secs();
        stats.columns_profiled = profiles.len();
        obs.tracer.set_attr(span, "columns", profiles.len());
        let _ = obs.tracer.close(span);

        // ---- Algorithm 3: data global schema ----
        let span = obs.tracer.child(root, "link.schema");
        let mut sw = Stopwatch::started();
        let (schema_stats, link_seed, edges) = link_schema(&profiles, &schema_config, &we);
        ingest_encoded(&mut store, &obs, span, "link.schema", |batch| {
            emit_schema(batch, &profiles, &edges);
        });
        sw.stop();
        stats.schema_secs = sw.secs();
        obs.tracer.add_count(span, "label_edges", schema_stats.label_edges as u64);
        obs.tracer.add_count(span, "content_edges", schema_stats.content_edges as u64);
        obs.tracer.add_count(span, "pairs_pruned", schema_stats.pairs_pruned as u64);
        for bucket in &schema_stats.buckets {
            let b = obs.tracer.child(span, "bucket");
            obs.tracer.set_attr(b, "fgt", bucket.fgt);
            obs.tracer.set_attr(b, "strategy", bucket.strategy);
            obs.tracer.set_attr(b, "rows", bucket.rows);
            obs.tracer.add_count(b, "eligible_pairs", bucket.eligible_pairs as u64);
            obs.tracer.add_count(b, "candidates", bucket.candidates as u64);
            obs.tracer.add_count(b, "pruned", bucket.pruned as u64);
            obs.tracer.add_count(b, "hnsw_hops", bucket.hnsw.hops);
            obs.tracer.add_count(b, "hnsw_dist_evals", bucket.hnsw.dist_evals);
            obs.tracer.add_count(b, "hnsw_searches", bucket.hnsw.searches);
            let _ = obs.tracer.close(b);
        }
        let _ = obs.tracer.close(span);
        stats.schema = Some(SchemaStatsLite::from(&schema_stats));

        // ---- Algorithm 1: library graph + pipeline abstraction ----
        let span = obs.tracer.child(root, "abstract");
        let mut sw = Stopwatch::started();
        let mut abstraction = AbstractionStats::default();
        // the library graph and every abstracted pipeline accumulate into
        // one batch, bulk-loaded once at the end of the stage
        let mut batch: Vec<Quad> = Vec::new();
        library_graph_quads(&mut batch, &docs, &mut abstraction, &vocab);
        // analysis is the parallel worker phase (panic-isolated); emission
        // is serial
        let analyzed: Vec<(LidsResult<AnalyzedScript>, u32)> =
            quarantine_map(&pipelines, &ingest, |p| {
                lids_py::analyze(&p.source).map_err(LidsError::from)
            });
        for (pipeline, (analysis, retries)) in pipelines.iter().zip(analyzed) {
            match analysis {
                Ok(a) => {
                    emit_pipeline_quads(
                        &mut batch,
                        &mut abstraction,
                        &docs,
                        &pipeline.metadata,
                        &a,
                        &vocab,
                    );
                    stats.pipelines_abstracted += 1;
                }
                Err(error) => {
                    stats.pipelines_failed += 1;
                    // qualified by dataset: bare pipeline ids need not be
                    // unique across datasets
                    let artifact =
                        format!("{}/{}", pipeline.metadata.dataset, pipeline.metadata.id);
                    report.quarantined.push(QuarantineEntry {
                        artifact: artifact.clone(),
                        kind: ArtifactKind::Pipeline,
                        error: error.with_artifact(artifact.clone()),
                        retries,
                    });
                }
            }
        }
        ingest_batch(&mut store, &obs, span, "abstract", batch);
        sw.stop();
        stats.abstraction_secs = sw.secs();
        stats.abstraction = abstraction;
        obs.tracer.set_attr(span, "pipelines", pipelines.len());
        obs.tracer.add_count(span, "abstracted", stats.pipelines_abstracted as u64);
        obs.tracer.add_count(span, "failed", stats.pipelines_failed as u64);
        let _ = obs.tracer.close(span);

        // ---- Graph Linker ----
        let span = obs.tracer.child(root, "link.pipelines");
        let mut sw = Stopwatch::started();
        stats.links = link_pipelines(&mut store);
        sw.stop();
        stats.linking_secs = sw.secs();
        obs.tracer.add_count(span, "tables_linked", stats.links.tables_linked as u64);
        obs.tracer.add_count(span, "columns_linked", stats.links.columns_linked as u64);
        let _ = obs.tracer.close(span);

        // ---- quarantine provenance: record *why* artifacts are missing ----
        if ingest.record_provenance && !report.quarantined.is_empty() {
            let mut batch: Vec<Quad> = Vec::with_capacity(report.quarantined.len() * 5);
            for entry in &report.quarantined {
                push_quarantine(
                    &mut batch,
                    &QuarantineRecord {
                        artifact_id: &entry.artifact,
                        artifact_kind: entry.kind.name(),
                        error: &entry.error,
                        retries: entry.retries,
                    },
                );
            }
            ingest_batch(&mut store, &obs, root, "quarantine", batch);
        }
        stats.report = report;
        stats.triples = store.len();

        // ---- embedding store ----
        let span = obs.tracer.child(root, "embed");
        let embeddings = build_embedding_store(&profiles);
        meter.alloc(
            embeddings.table_embeddings.values().map(|e| (e.len() * 4) as u64).sum::<u64>()
                + embeddings.column_index.approx_bytes(),
        );
        obs.tracer.set_attr(span, "table_embeddings", embeddings.table_embeddings.len());
        obs.tracer.set_attr(span, "indexed_columns", embeddings.column_index.len());
        let _ = obs.tracer.close(span);

        obs.tracer.set_attr(root, "triples", stats.triples);
        let _ = obs.tracer.close(root);
        obs.metrics.gauge_set("memory.peak_bytes", meter.peak() as f64);
        obs.metrics.gauge_set("bootstrap.ingestion_secs", stats.ingestion_secs);
        obs.metrics.gauge_set("bootstrap.profiling_secs", stats.profiling_secs);
        obs.metrics.gauge_set("bootstrap.schema_secs", stats.schema_secs);
        obs.metrics.gauge_set("bootstrap.abstraction_secs", stats.abstraction_secs);
        obs.metrics.gauge_set("bootstrap.linking_secs", stats.linking_secs);
        obs.metrics.counter_add("bootstrap.triples", stats.triples as u64);
        obs.metrics.counter_add("bootstrap.columns_profiled", stats.columns_profiled as u64);
        obs.metrics.counter_add("linking.label_edges", schema_stats.label_edges as u64);
        obs.metrics.counter_add("linking.content_edges", schema_stats.content_edges as u64);
        obs.metrics.counter_add("linking.pairs_pruned", schema_stats.pairs_pruned as u64);
        obs.metrics.counter_add("linking.hnsw_dist_evals", schema_stats.hnsw.dist_evals);
        obs.metrics.gauge_set("ingest.quarantine.artifacts", stats.report.len() as f64);
        stats.trace = obs.tracer.snapshot();

        // keep the stage-2 linking structures alive for incremental deltas
        let link_index = LinkIndex::from_seed(link_seed, &profiles, schema_config);

        let platform = KgLids {
            store,
            docs,
            we,
            profiler_config,
            schema_config,
            ingest,
            profiles,
            link_index,
            report: stats.report.clone(),
            column_index: embeddings.column_index,
            table_embeddings: embeddings.table_embeddings,
            dataset_embeddings: embeddings.dataset_embeddings,
            dataset_embeddings_missing: embeddings.dataset_embeddings_missing,
            meter,
            obs,
            plan_cache: Arc::new(PlanCache::new()),
            guardrails,
            cleaning_model: None,
            scaling_model: None,
            column_model: None,
        };
        (platform, stats)
    }
}

/// The KGLiDS platform: LiDS graph + embedding store + models.
pub struct KgLids {
    pub(crate) store: QuadStore,
    pub(crate) docs: LibraryDocs,
    pub(crate) we: WordEmbeddings,
    pub(crate) profiler_config: ProfilerConfig,
    #[allow(dead_code)]
    pub(crate) schema_config: SchemaConfig,
    /// Fault-tolerance policy bootstrap ran under; deltas reuse it.
    pub(crate) ingest: IngestOptions,
    pub(crate) profiles: Vec<ColumnProfile>,
    /// The persistent stage-2 linking structures (label cache, per-bucket
    /// matrices, sharded HNSW, cell geometry) kept alive after bootstrap
    /// so deltas link new columns without touching old-old pairs.
    pub(crate) link_index: LinkIndex,
    /// Cumulative quarantine ledger: bootstrap's report plus every
    /// delta's, minus entries withdrawn by dataset retraction.
    pub(crate) report: BootstrapReport,
    /// Faiss-substitute embedding store over column embeddings; vector ids
    /// index into `profiles`.
    pub(crate) column_index: BruteForceIndex,
    pub(crate) table_embeddings: HashMap<(String, String), Vec<f32>>,
    pub(crate) dataset_embeddings: HashMap<String, Vec<f32>>,
    /// §4.2 cleaning embeddings: per-type averages over the columns that
    /// contain missing values (falls back to all columns when none do).
    pub(crate) dataset_embeddings_missing: HashMap<String, Vec<f32>>,
    pub(crate) meter: MemoryMeter,
    pub(crate) obs: Obs,
    /// Prepared-query cache: every API/discovery query text is lexed,
    /// parsed, and planned at most once per shape and store snapshot.
    /// Behind an `Arc` so detached [`LidsReader`] handles share parses
    /// (and cache counters) with the platform.
    pub(crate) plan_cache: Arc<PlanCache>,
    /// Resource-governance defaults for every query through the platform.
    pub(crate) guardrails: QueryGuardrails,
    pub(crate) cleaning_model: Option<lids_gnn::CleaningModel>,
    pub(crate) scaling_model: Option<lids_gnn::ScalingModel>,
    pub(crate) column_model: Option<lids_gnn::ColumnTransformModel>,
}

impl KgLids {
    /// Bootstrap an empty platform (no artifacts).
    pub fn empty() -> Self {
        KgLidsBuilder::new().bootstrap().0
    }

    /// The LiDS graph (read-only).
    pub fn store(&self) -> &QuadStore {
        &self.store
    }

    /// The LiDS graph's current state as an immutable snapshot: O(1),
    /// no index copy. Queries executed against the snapshot see a
    /// consistent view even if the platform's store mutates afterwards.
    pub fn store_snapshot(&self) -> Arc<StoreSnapshot> {
        self.store.snapshot()
    }

    /// A detached query handle over the LiDS graph, safe to move to
    /// other threads while a writer keeps mutating the platform's
    /// store. The handle shares the platform's plan cache, so repeated
    /// query texts parse once across all readers and the platform
    /// itself.
    ///
    /// Use this when one thread owns the `KgLids` mutably (live
    /// ingest); for a read-only platform, sharing `Arc<KgLids>` across
    /// threads and calling [`KgLids::query`] directly works too.
    pub fn reader(&self) -> LidsReader {
        LidsReader {
            store: self.store.reader(),
            plan_cache: Arc::clone(&self.plan_cache),
        }
    }

    /// All column profiles.
    pub fn profiles(&self) -> &[ColumnProfile] {
        &self.profiles
    }

    /// Logical memory meter.
    pub fn meter(&self) -> &MemoryMeter {
        &self.meter
    }

    /// Number of triples in the LiDS graph.
    pub fn triple_count(&self) -> usize {
        self.store.len()
    }

    /// Ad-hoc SPARQL query returning a [`DataFrame`] (§5, Ad-hoc Queries).
    /// Failures surface as the platform-wide [`LidsError`] taxonomy
    /// (`ErrorKind::SparqlError`).
    pub fn query(&self, sparql: &str) -> LidsResult<DataFrame> {
        self.query_with(sparql, EvalOptions::default())
    }

    /// [`Self::query`] with explicit evaluation options, e.g.
    /// `EvalOptions::builder().deadline(..).memory_budget(..).build()`.
    ///
    /// Runs under the platform's [`QueryGuardrails`]: per-call options
    /// win, guardrails fill unset limits. On a budget trip the query is
    /// retried once on the streaming row engine under a row cap and the
    /// partial result is surfaced with [`DataFrame::truncated`] set;
    /// shapes that keep tripping are quarantined and fail fast.
    pub fn query_with(&self, sparql: &str, options: EvalOptions) -> LidsResult<DataFrame> {
        let solutions = self.governed_query(sparql, options)?;
        Ok(DataFrame::from_solutions(&solutions))
    }

    /// The governed query path shared by [`Self::query`],
    /// [`Self::query_with`], and [`Self::ask`]: quarantine fail-fast →
    /// governed (vectorized) execution → graceful degradation on budget
    /// pressure, with `query.*` governance counters throughout.
    pub(crate) fn governed_query(
        &self,
        sparql: &str,
        options: EvalOptions,
    ) -> LidsResult<Solutions> {
        self.governed_query_limited(sparql, options, None)
    }

    /// [`Self::governed_query`] with an extra [`QueryLimits`] layered in —
    /// the plumbing behind [`Discovery::limits`](crate::Discovery::limits)
    /// and the server's per-request limits. Precedence: per-call
    /// [`EvalOptions`] win, then `extra` fills deadline/budget, then the
    /// platform [`QueryGuardrails`] fill whatever is still unset. The
    /// extra limits also contribute cancellation (token, fault-injection
    /// checkpoint, clock) to the armed governor, which plain
    /// `EvalOptions` cannot carry.
    pub(crate) fn governed_query_limited(
        &self,
        sparql: &str,
        options: EvalOptions,
        extra: Option<&QueryLimits>,
    ) -> LidsResult<Solutions> {
        // an empty query can never be meant: fail typed (→ HTTP 400)
        // before touching the plan cache, whose tokenizer would otherwise
        // report it as a bare parse failure
        if sparql.trim().is_empty() {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "empty SPARQL query (no patterns to evaluate)",
            ));
        }
        let g = &self.guardrails;
        let metrics = &self.obs.metrics;
        if self.plan_cache.is_poisoned(sparql) {
            metrics.counter_add("query.quarantine_denials", 1);
            return Err(LidsError::new(
                ErrorKind::QueryBudgetExceeded,
                "query shape quarantined after repeated resource-limit violations",
            ));
        }
        // per-call options win; extra limits next; guardrails fill the rest
        let mut effective = options;
        if let Some(extra) = extra {
            if effective.deadline.is_none() {
                effective.deadline = extra.deadline;
            }
            if effective.memory_budget.is_none() {
                effective.memory_budget = extra.memory_budget_bytes;
            }
        }
        if effective.deadline.is_none() {
            effective.deadline = g.deadline;
        }
        if effective.memory_budget.is_none() {
            effective.memory_budget = g.memory_budget;
        }
        self.timed_query(|| {
            let prepared = self.plan_cache.prepare(sparql)?;
            let stats = ExecStats::default();
            let governor = merged_limits(&effective, extra).arm();
            let mut result =
                prepared.execute_governed(&self.store, effective, governor.as_ref(), Some(&stats));
            if let Some(gov) = &governor {
                if let Some(headroom) = gov.headroom_bytes() {
                    metrics.gauge_set("query.budget_headroom_bytes", headroom as f64);
                }
            }
            if let Err(SparqlError::Governed(trip)) = &result {
                match trip.reason {
                    TripReason::Timeout => metrics.counter_add("query.timeouts", 1),
                    TripReason::Cancelled => metrics.counter_add("query.cancelled", 1),
                    TripReason::BudgetExceeded => metrics.counter_add("query.budget_denials", 1),
                }
                if self.plan_cache.record_offense(sparql, g.poison_threshold, g.poison_ttl) {
                    metrics.counter_add("query.shapes_poisoned", 1);
                }
                // graceful degradation: budget pressure → streaming row
                // engine where the row cap replaces the byte budget as
                // the memory bound (the deadline still applies); partial
                // results beat no results
                if trip.reason == TripReason::BudgetExceeded {
                    metrics.counter_add("query.degraded", 1);
                    let degraded = EvalOptions {
                        vectorize: false,
                        memory_budget: None,
                        row_cap: Some(effective.row_cap.unwrap_or(g.degraded_row_cap)),
                        ..effective
                    };
                    let retry_governor = merged_limits(&degraded, extra).arm();
                    result = prepared.execute_governed(
                        &self.store,
                        degraded,
                        retry_governor.as_ref(),
                        Some(&stats),
                    );
                }
            }
            self.record_query_obs(&stats);
            if let Ok(solutions) = &result {
                if solutions.truncated {
                    metrics.counter_add("query.truncated", 1);
                }
            }
            result
        })
    }

    /// Evaluate `sparql` with per-pattern instrumentation and return the
    /// executed plan: join order, estimated vs actual rows per triple
    /// pattern, decode counts, parallel-vs-serial join decisions.
    pub fn explain(&self, sparql: &str) -> LidsResult<ExplainReport> {
        let (_, report) = self.timed_query(|| {
            let parsed = lids_sparql::parse_query(sparql)?;
            lids_sparql::evaluate_explained(&self.store, &parsed, EvalOptions::default())
        })?;
        Ok(report)
    }

    /// Ask query (governed like [`Self::query`]).
    pub fn ask(&self, sparql: &str) -> LidsResult<bool> {
        let solutions = self.governed_query(sparql, EvalOptions::default())?;
        Ok(solutions.ask.unwrap_or(false))
    }

    /// Prepared-query cache counters (hits, misses, parses, compiles).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Fold per-query operator counts and the current plan-cache
    /// counters into the obs registry: `query.ops.*` counters accumulate
    /// operator executions, `sparql.plan_cache.*` gauges carry the
    /// cache's monotonic totals.
    fn record_query_obs(&self, stats: &ExecStats) {
        let metrics = &self.obs.metrics;
        metrics.counter_add("query.ops.merge", stats.merge_joins());
        metrics.counter_add("query.ops.probe", stats.probe_joins());
        metrics.counter_add("query.ops.leapfrog", stats.leapfrog_joins());
        let cache = self.plan_cache.stats();
        metrics.gauge_set("sparql.plan_cache.hits", cache.hits() as f64);
        metrics.gauge_set("sparql.plan_cache.misses", cache.misses as f64);
        metrics.gauge_set("sparql.plan_cache.parses", cache.parses as f64);
        metrics.gauge_set("sparql.plan_cache.compiles", cache.compiles as f64);
        metrics.gauge_set("sparql.plan_cache.evictions", cache.evictions as f64);
        metrics.gauge_set("sparql.plan_cache.texts", cache.texts_len as f64);
        metrics.gauge_set("sparql.plan_cache.shapes", cache.shapes_len as f64);
    }

    /// Run a query closure under the `query.*` metrics: every call counts
    /// and records wall time; failures also bump `query.errors`.
    fn timed_query<T>(
        &self,
        run: impl FnOnce() -> Result<T, SparqlError>,
    ) -> LidsResult<T> {
        let start = Instant::now();
        self.obs.metrics.counter_add("query.count", 1);
        let result = run();
        self.obs.metrics.observe_duration("query.wall_us", start.elapsed());
        result.map_err(|e| {
            self.obs.metrics.counter_add("query.errors", 1);
            LidsError::from(e)
        })
    }

    /// Run one of the platform's own discovery/insight queries. These are
    /// compile-time constants (modulo IRI interpolation), so a parse error
    /// is a platform bug, not an input error.
    #[allow(clippy::expect_used)]
    pub(crate) fn internal_query(&self, sparql: &str) -> DataFrame {
        self.query(sparql).expect("well-formed internal query")
    }

    /// The discovery query path: a platform-authored SPARQL query run
    /// under caller-supplied [`QueryLimits`], with every failure — parse,
    /// evaluation, or governed stop — surfaced as a typed [`LidsError`]
    /// rather than a panic. This is what lets a network front end map a
    /// discovery failure to the right HTTP status.
    pub(crate) fn governed_frame(
        &self,
        sparql: &str,
        limits: &QueryLimits,
    ) -> LidsResult<DataFrame> {
        let solutions =
            self.governed_query_limited(sparql, EvalOptions::default(), Some(limits))?;
        Ok(DataFrame::from_solutions(&solutions))
    }

    /// The platform's observability handle: span tracer + metrics registry.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current observability state serialized to the `lids-obs/v1` JSON
    /// schema.
    pub fn obs_snapshot_json(&self) -> String {
        self.obs.snapshot().to_json()
    }

    /// Stored 1800-d embedding of a profiled table.
    pub fn table_embedding(&self, dataset: &str, table: &str) -> Option<&[f32]> {
        self.table_embeddings
            .get(&(dataset.to_string(), table.to_string()))
            .map(|e| e.as_slice())
    }

    /// Stored dataset embedding (mean of its tables').
    pub fn dataset_embedding(&self, dataset: &str) -> Option<&[f32]> {
        self.dataset_embeddings.get(dataset).map(|e| e.as_slice())
    }

    /// §4.2 cleaning embedding of a dataset: per-type averages over the
    /// columns that contain missing values.
    pub fn dataset_embedding_missing(&self, dataset: &str) -> Option<&[f32]> {
        self.dataset_embeddings_missing.get(dataset).map(|e| e.as_slice())
    }

    /// §4.2 cleaning embedding of an *unseen* table: per-type averages over
    /// its null-containing columns (all columns when none have nulls).
    pub fn embed_table_missing(&self, table: &Table) -> Vec<f32> {
        let models = ColrModels::pretrained();
        let profiles = profile_table(
            "__unseen__",
            table,
            models,
            &self.we,
            &self.profiler_config,
            None,
        );
        let with_missing: Vec<(FineGrainedType, Vec<f32>)> = profiles
            .iter()
            .filter(|p| !p.embedding.is_empty() && p.stats.nulls > 0)
            .map(|p| (p.fgt, p.embedding.clone()))
            .collect();
        if !with_missing.is_empty() {
            return table_embedding(&with_missing);
        }
        let all: Vec<(FineGrainedType, Vec<f32>)> = profiles
            .into_iter()
            .filter(|p| !p.embedding.is_empty())
            .map(|p| (p.fgt, p.embedding))
            .collect();
        table_embedding(&all)
    }

    /// Embed an *unseen* table with the pre-trained CoLR models (the
    /// inference path of §4.1: "takes the unseen dataset in the form of a
    /// DataFrame and calculates the CoLR embedding for each column").
    pub fn embed_table(&self, table: &Table) -> Vec<f32> {
        let models = ColrModels::pretrained();
        let profiles = profile_table(
            "__unseen__",
            table,
            models,
            &self.we,
            &self.profiler_config,
            None,
        );
        let cols: Vec<(FineGrainedType, Vec<f32>)> = profiles
            .into_iter()
            .filter(|p| !p.embedding.is_empty())
            .map(|p| (p.fgt, p.embedding))
            .collect();
        table_embedding(&cols)
    }

    /// Column-level embeddings of an unseen table (300-d each).
    pub fn embed_columns(&self, table: &Table) -> Vec<(String, FineGrainedType, Vec<f32>)> {
        let models = ColrModels::pretrained();
        profile_table("__unseen__", table, models, &self.we, &self.profiler_config, None)
            .into_iter()
            .map(|p| (p.meta.column, p.fgt, p.embedding))
            .collect()
    }

    /// Nearest profiled columns to an embedding (the Faiss-style search of
    /// §2.2). Returns `(profile index, similarity)`.
    pub fn similar_columns(&self, embedding: &[f32], k: usize) -> Vec<(usize, f32)> {
        self.column_index
            .search(embedding, k)
            .into_iter()
            .map(|n| (n.id as usize, 1.0 - n.distance))
            .collect()
    }

    /// The documentation KB.
    pub fn docs(&self) -> &LibraryDocs {
        &self.docs
    }

    /// The cumulative quarantine ledger: bootstrap's entries plus every
    /// delta's, minus artifacts withdrawn by dataset retraction.
    pub fn quarantine_report(&self) -> &BootstrapReport {
        &self.report
    }

    /// Apply one incremental change to the lake — the "pay for what
    /// changed" path. Removals run first, then additions, all inside one
    /// store delta: live [`LidsReader`]s observe the whole delta or
    /// nothing, and the plan-cache generation bumps exactly once.
    ///
    /// Additions profile only the new artifacts (under the same
    /// fault-tolerance policy as bootstrap) and link them against the
    /// persisted [`LinkIndex`] with the batch pass's exact kernels and a
    /// lossless triangle-inequality candidate bound — the resulting graph
    /// is identical to a from-scratch bootstrap of the final lake.
    /// Removals withdraw the dataset's metadata subgraph, its similarity
    /// edges (both directions plus RDF-star annotations), its pipelines'
    /// graphs, and its quarantine provenance via one batch
    /// [`QuadStore::retract_encoded`]. Both directions stay in id space:
    /// new edges are emitted as id tuples over the store's dictionary and
    /// victims are collected as id tuples, so no similarity edge is ever
    /// built, hashed or decoded as a [`Quad`].
    ///
    /// Re-adding a dataset name that is still present (and not in
    /// `remove_datasets` of the same batch) is a caller error: the store
    /// deduplicates quads, so metadata merges silently, but columns would
    /// be linked twice.
    pub fn apply_delta(&mut self, delta: DeltaBatch) -> DeltaStats {
        let DeltaBatch {
            add_datasets,
            add_raw_datasets,
            add_profiles,
            add_pipelines,
            remove_datasets,
        } = delta;
        let mut stats = DeltaStats::default();
        let mut delta_report = BootstrapReport::default();
        let root = self.obs.tracer.root("delta");
        let cow_before = self.store.cow_stats();
        self.store.begin_delta();

        // ---- retraction: withdraw removed datasets first ----
        let span = self.obs.tracer.child(root, "retract");
        let mut sw = Stopwatch::started();
        let (mut collect_secs, mut index_secs, mut victims_in) = (0.0, 0.0, 0usize);
        for ds in &remove_datasets {
            let (gone, kept): (Vec<ColumnProfile>, Vec<ColumnProfile>) =
                std::mem::take(&mut self.profiles).into_iter().partition(|p| &p.meta.dataset == ds);
            self.profiles = kept;
            let t = Instant::now();
            let victims = retraction_ids(&self.store, ds, &gone);
            collect_secs += t.elapsed().as_secs_f64();
            victims_in += victims.len();
            let t = Instant::now();
            stats.quads_retracted += self.store.retract_encoded(victims);
            index_secs += t.elapsed().as_secs_f64();
            stats.columns_retracted += self.link_index.remove_dataset(ds);
            // ghost-free ledger: drop the dataset's quarantine entries
            let prefix = format!("{ds}/");
            self.report.quarantined.retain(|e| !e.artifact.starts_with(&prefix));
        }
        stats.datasets_removed = remove_datasets.len();
        sw.stop();
        stats.retraction_secs = sw.secs();
        self.obs.tracer.set_attr(span, "datasets", remove_datasets.len());
        // where a removal's store time goes: scanning for the victims (id
        // space, no term decoded) against dropping them from the indexes
        self.obs.tracer.set_attr(span, "collect_secs", collect_secs);
        self.obs.tracer.set_attr(span, "index_secs", index_secs);
        self.obs.tracer.add_count(span, "victims", victims_in as u64);
        self.obs.tracer.add_count(span, "quads_retracted", stats.quads_retracted as u64);
        self.obs.tracer.add_count(span, "columns_retracted", stats.columns_retracted as u64);
        let _ = self.obs.tracer.close(span);

        // ---- parse raw artifacts under the fault policy ----
        let span = self.obs.tracer.child(root, "parse");
        let mut datasets = add_datasets;
        for raw in &add_raw_datasets {
            let outcomes = quarantine_map(&raw.tables, &self.ingest, |t| {
                parse_csv_bytes(&t.name, &t.bytes, self.ingest.csv_mode)
            });
            let mut tables = Vec::new();
            for (table, (result, retries)) in raw.tables.iter().zip(outcomes) {
                match result {
                    Ok(t) => tables.push(t),
                    Err(error) => delta_report.quarantined.push(QuarantineEntry {
                        artifact: format!("{}/{}", raw.name, table.name),
                        kind: ArtifactKind::Table,
                        error,
                        retries,
                    }),
                }
            }
            datasets.push(Dataset::new(raw.name.clone(), tables));
        }
        stats.datasets_added = datasets.len();
        self.obs.tracer.set_attr(span, "raw_datasets", add_raw_datasets.len());
        let _ = self.obs.tracer.close(span);

        // ---- profile only the new artifacts (panic-isolated) ----
        let span = self.obs.tracer.child(root, "profile");
        let mut sw = Stopwatch::started();
        let models = ColrModels::pretrained();
        let units: Vec<(&str, &Table)> = datasets
            .iter()
            .flat_map(|d| d.tables.iter().map(move |t| (d.name.as_str(), t)))
            .collect();
        let outcomes = quarantine_map(&units, &self.ingest, |unit| {
            let (dataset, table) = *unit;
            Ok(profile_table(
                dataset,
                table,
                models,
                &self.we,
                &self.profiler_config,
                Some(&self.meter),
            ))
        });
        let mut new_profiles: Vec<ColumnProfile> = Vec::new();
        for ((dataset, table), (result, retries)) in units.iter().zip(outcomes) {
            match result {
                Ok(p) => new_profiles.extend(p),
                Err(error) => delta_report.quarantined.push(QuarantineEntry {
                    artifact: format!("{dataset}/{}", table.name),
                    kind: ArtifactKind::Table,
                    error,
                    retries,
                }),
            }
        }
        new_profiles.extend(add_profiles);
        sw.stop();
        stats.profiling_secs = sw.secs();
        stats.columns_profiled = new_profiles.len();
        self.obs.tracer.set_attr(span, "columns", new_profiles.len());
        let _ = self.obs.tracer.close(span);

        // ---- link new columns against the persisted index ----
        let span = self.obs.tracer.child(root, "link.schema");
        let mut sw = Stopwatch::started();
        let (link, edges) = self.link_index.link_columns(&new_profiles, &self.we);
        let ingested = ingest_encoded(&mut self.store, &self.obs, span, "link.schema", |batch| {
            self.link_index.emit_columns(batch, &new_profiles, &edges);
        });
        stats.quads_added += ingested.quads_added;
        sw.stop();
        stats.linking_secs = sw.secs();
        stats.relink_candidates = link.candidates;
        stats.label_edges = link.label_edges;
        stats.content_edges = link.content_edges;
        self.obs.tracer.add_count(span, "label_edges", link.label_edges as u64);
        self.obs.tracer.add_count(span, "content_edges", link.content_edges as u64);
        self.obs.tracer.add_count(span, "candidates", link.candidates as u64);
        self.obs.tracer.add_count(span, "cell_rebuilds", link.cell_rebuilds as u64);
        let _ = self.obs.tracer.close(span);

        // ---- abstract new pipelines (panic-isolated, quarantining) ----
        let span = self.obs.tracer.child(root, "abstract");
        let mut sw = Stopwatch::started();
        let mut abstraction = AbstractionStats::default();
        let mut batch: Vec<Quad> = Vec::new();
        let vocab = Vocab::new();
        let analyzed: Vec<(LidsResult<AnalyzedScript>, u32)> =
            quarantine_map(&add_pipelines, &self.ingest, |p| {
                lids_py::analyze(&p.source).map_err(LidsError::from)
            });
        for (pipeline, (analysis, retries)) in add_pipelines.iter().zip(analyzed) {
            match analysis {
                Ok(a) => {
                    emit_pipeline_quads(
                        &mut batch,
                        &mut abstraction,
                        &self.docs,
                        &pipeline.metadata,
                        &a,
                        &vocab,
                    );
                    stats.pipelines_abstracted += 1;
                }
                Err(error) => {
                    stats.pipelines_failed += 1;
                    let artifact =
                        format!("{}/{}", pipeline.metadata.dataset, pipeline.metadata.id);
                    delta_report.quarantined.push(QuarantineEntry {
                        artifact: artifact.clone(),
                        kind: ArtifactKind::Pipeline,
                        error: error.with_artifact(artifact.clone()),
                        retries,
                    });
                }
            }
        }
        let ingested = ingest_batch(&mut self.store, &self.obs, span, "abstract", batch);
        stats.quads_added += ingested.quads_added;
        sw.stop();
        stats.abstraction_secs = sw.secs();
        self.obs.tracer.set_attr(span, "pipelines", add_pipelines.len());
        self.obs.tracer.add_count(span, "abstracted", stats.pipelines_abstracted as u64);
        self.obs.tracer.add_count(span, "failed", stats.pipelines_failed as u64);
        let _ = self.obs.tracer.close(span);

        // ---- Graph Linker over the new pipelines' predictions ----
        // Every pass consumes all `predictedRead` literals, so only a
        // delta that abstracted a pipeline can have left any to link.
        let span = self.obs.tracer.child(root, "link.pipelines");
        let scan = stats.pipelines_abstracted > 0;
        if scan {
            stats.links = link_pipelines(&mut self.store);
        }
        self.obs.tracer.set_attr(span, "scanned", scan);
        self.obs.tracer.add_count(span, "tables_linked", stats.links.tables_linked as u64);
        self.obs.tracer.add_count(span, "columns_linked", stats.links.columns_linked as u64);
        let _ = self.obs.tracer.close(span);

        // ---- quarantine provenance for this delta's failures ----
        if self.ingest.record_provenance && !delta_report.quarantined.is_empty() {
            let mut batch: Vec<Quad> = Vec::with_capacity(delta_report.quarantined.len() * 5);
            for entry in &delta_report.quarantined {
                push_quarantine(
                    &mut batch,
                    &QuarantineRecord {
                        artifact_id: &entry.artifact,
                        artifact_kind: entry.kind.name(),
                        error: &entry.error,
                        retries: entry.retries,
                    },
                );
            }
            let ingested = ingest_batch(&mut self.store, &self.obs, root, "quarantine", batch);
            stats.quads_added += ingested.quads_added;
        }

        // ---- refresh derived state, commit, publish once ----
        let span = self.obs.tracer.child(root, "embed");
        self.profiles.extend(new_profiles);
        let embeddings = build_embedding_store(&self.profiles);
        self.column_index = embeddings.column_index;
        self.table_embeddings = embeddings.table_embeddings;
        self.dataset_embeddings = embeddings.dataset_embeddings;
        self.dataset_embeddings_missing = embeddings.dataset_embeddings_missing;
        self.obs.tracer.set_attr(span, "table_embeddings", self.table_embeddings.len());
        self.obs.tracer.set_attr(span, "indexed_columns", self.column_index.len());
        let _ = self.obs.tracer.close(span);
        self.report.quarantined.extend(delta_report.quarantined.iter().cloned());
        // publication, and the release of the snapshot it supersedes when
        // no reader still pins it
        let span = self.obs.tracer.child(root, "commit");
        self.store.commit_delta();
        let _ = self.obs.tracer.close(span);

        let metrics = &self.obs.metrics;
        metrics.counter_add("ingest.delta.datasets_added", stats.datasets_added as u64);
        metrics.counter_add("ingest.delta.datasets_removed", stats.datasets_removed as u64);
        metrics.counter_add("ingest.delta.quads_retracted", stats.quads_retracted as u64);
        metrics.counter_add("ingest.delta.relink_candidates", stats.relink_candidates as u64);
        metrics.gauge_set("ingest.quarantine.artifacts", self.report.len() as f64);
        // the store's monotonic totals, and this delta's share of them
        let cow = self.store.cow_stats();
        metrics.gauge_set("store.cow.clones", cow.clones as f64);
        metrics.gauge_set("store.cow.secs", cow.secs);
        stats.cow_clones = cow.clones - cow_before.clones;
        stats.cow_secs = cow.secs - cow_before.secs;
        self.obs.tracer.set_attr(root, "generation", self.store.generation());
        let _ = self.obs.tracer.close(root);
        stats.generation = self.store.generation();
        stats.report = delta_report;
        stats.trace = self.obs.tracer.snapshot();
        stats
    }
}

/// One incremental change to the lake: datasets and pipelines to add,
/// dataset names to remove. Removals are applied before additions, so a
/// batch may replace a dataset by naming it in both.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    pub add_datasets: Vec<Dataset>,
    pub add_raw_datasets: Vec<RawDataset>,
    /// Pre-computed column profiles to ingest as-is, skipping the
    /// profiler (the delta-side mirror of
    /// [`KgLidsBuilder::with_custom_profiles`] — ablations and benches).
    pub add_profiles: Vec<ColumnProfile>,
    pub add_pipelines: Vec<PipelineScript>,
    pub remove_datasets: Vec<String>,
}

impl DeltaBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.add_datasets.is_empty()
            && self.add_raw_datasets.is_empty()
            && self.add_profiles.is_empty()
            && self.add_pipelines.is_empty()
            && self.remove_datasets.is_empty()
    }

    /// Add a parsed dataset.
    pub fn add_dataset(mut self, dataset: Dataset) -> Self {
        self.add_datasets.push(dataset);
        self
    }

    /// Add a raw (unparsed) dataset; files parse under the fault policy.
    pub fn add_raw_dataset(mut self, raw: RawDataset) -> Self {
        self.add_raw_datasets.push(raw);
        self
    }

    /// Add pre-computed column profiles (skips the profiler).
    pub fn add_profiles(mut self, profiles: impl IntoIterator<Item = ColumnProfile>) -> Self {
        self.add_profiles.extend(profiles);
        self
    }

    /// Add pipeline scripts.
    pub fn add_pipelines(mut self, pipelines: impl IntoIterator<Item = PipelineScript>) -> Self {
        self.add_pipelines.extend(pipelines);
        self
    }

    /// Remove a dataset (its quads, similarity edges, pipelines, and
    /// quarantine provenance).
    pub fn remove_dataset(mut self, name: impl Into<String>) -> Self {
        self.remove_datasets.push(name.into());
        self
    }
}

/// What one [`KgLids::apply_delta`] call did.
#[derive(Debug, Clone, Default)]
pub struct DeltaStats {
    pub datasets_added: usize,
    pub datasets_removed: usize,
    pub columns_profiled: usize,
    pub columns_retracted: usize,
    pub pipelines_abstracted: usize,
    pub pipelines_failed: usize,
    pub quads_added: usize,
    pub quads_retracted: usize,
    /// Column pairs the incremental linker exact-scored.
    pub relink_candidates: usize,
    pub label_edges: usize,
    pub content_edges: usize,
    pub retraction_secs: f64,
    pub profiling_secs: f64,
    pub linking_secs: f64,
    pub abstraction_secs: f64,
    /// Copy-on-write store clones this delta paid (one, at its first
    /// write, when a reader pins the previous snapshot; none otherwise)
    /// and the seconds they took — already inside whichever stage wrote
    /// first, not an extra stage.
    pub cow_clones: u64,
    pub cow_secs: f64,
    /// Store generation after the delta committed (exactly base + 1 when
    /// the delta mutated anything).
    pub generation: u64,
    /// Graph-linker outcome over the delta's pipelines.
    pub links: LinkStats,
    /// This delta's quarantined artifacts (the cumulative ledger lives on
    /// the platform: [`KgLids::quarantine_report`]).
    pub report: BootstrapReport,
    /// Span tree including the `delta` root of this call.
    pub trace: TraceSnapshot,
}

/// The [`QueryLimits`] to arm for one governed execution: deadline and
/// budget come from the (already-merged) [`EvalOptions`]; the extra limits
/// contribute what options cannot carry — the cancellation token, the
/// fault-injection checkpoint, and the clock.
fn merged_limits(options: &EvalOptions, extra: Option<&QueryLimits>) -> QueryLimits {
    let mut limits = options.limits();
    if let Some(extra) = extra {
        limits.cancel = extra.cancel.clone();
        limits.cancel_after_checks = extra.cancel_after_checks;
        limits.clock = extra.clock.clone();
    }
    limits
}

/// A detached, thread-safe query handle over the LiDS graph.
///
/// Obtained from [`KgLids::reader`]. Each call to [`Self::snapshot`]
/// observes the store's latest *published* state — the store publishes
/// after every committed mutation, so a reader sees whole batches or
/// nothing, never a torn intermediate. Query texts are parsed and
/// planned through the platform's shared [`PlanCache`], so a query
/// shape parses once across every reader and the platform itself.
///
/// The handle is `Clone + Send + Sync`: clone it once per serving
/// thread.
#[derive(Debug, Clone)]
pub struct LidsReader {
    store: StoreReader,
    plan_cache: Arc<PlanCache>,
}

impl LidsReader {
    /// A reader over a bare [`QuadStore`] (no platform), with its own
    /// plan cache. For serving a store that is being written by a
    /// non-platform writer — benches, tests, replication receivers.
    pub fn for_store(store: &QuadStore) -> LidsReader {
        LidsReader {
            store: store.reader(),
            plan_cache: Arc::new(PlanCache::new()),
        }
    }

    /// The latest published store snapshot: O(1), no index copy.
    ///
    /// Hold the returned `Arc` to pin a consistent view across several
    /// queries; call again to observe newer writes.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.store.snapshot()
    }

    /// Ad-hoc SPARQL query against the latest published snapshot.
    pub fn query(&self, sparql: &str) -> LidsResult<DataFrame> {
        self.query_with(sparql, EvalOptions::default())
    }

    /// [`Self::query`] with explicit evaluation options.
    pub fn query_with(&self, sparql: &str, options: EvalOptions) -> LidsResult<DataFrame> {
        let snapshot = self.store.snapshot();
        self.query_at(&snapshot, sparql, options)
    }

    /// Run `sparql` against a pinned snapshot (from [`Self::snapshot`]).
    /// The query runs to completion on that consistent view even while
    /// the writer publishes newer generations.
    pub fn query_at(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
    ) -> LidsResult<DataFrame> {
        self.query_limited(snapshot, sparql, options, None)
    }

    /// [`Self::query_at`] with an extra [`QueryLimits`] layered in (the
    /// server's per-request governance path): options win for
    /// deadline/budget, the limits contribute the cancellation handle and
    /// clock that options cannot carry.
    pub fn query_limited(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
        extra: Option<&QueryLimits>,
    ) -> LidsResult<DataFrame> {
        // typed pre-flight (→ HTTP 400), same as the platform path: an
        // empty query is a caller mistake, not a platform invariant
        // violation
        if sparql.trim().is_empty() {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "empty SPARQL query (no patterns to evaluate)",
            ));
        }
        let mut effective = options;
        if let Some(extra) = extra {
            if effective.deadline.is_none() {
                effective.deadline = extra.deadline;
            }
            if effective.memory_budget.is_none() {
                effective.memory_budget = extra.memory_budget_bytes;
            }
        }
        let prepared = self.plan_cache.prepare(sparql).map_err(LidsError::from)?;
        let governor = merged_limits(&effective, extra).arm();
        let solutions = prepared
            .execute_governed(snapshot, effective, governor.as_ref(), None)
            .map_err(LidsError::from)?;
        Ok(DataFrame::from_solutions(&solutions))
    }

    /// Evaluate `sparql` against the latest published snapshot with
    /// per-pattern instrumentation (the reader-side [`KgLids::explain`]).
    pub fn explain(&self, sparql: &str) -> LidsResult<ExplainReport> {
        let snapshot = self.store.snapshot();
        self.explain_at(&snapshot, sparql)
    }

    /// [`Self::explain`] against a pinned snapshot.
    pub fn explain_at(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
    ) -> LidsResult<ExplainReport> {
        if sparql.trim().is_empty() {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "empty SPARQL query (no patterns to evaluate)",
            ));
        }
        let parsed = lids_sparql::parse_query(sparql).map_err(LidsError::from)?;
        let (_, report) =
            lids_sparql::evaluate_explained(snapshot, &parsed, EvalOptions::default())
                .map_err(LidsError::from)?;
        Ok(report)
    }

    /// Shared plan-cache counters (hits, misses, parses, compiles).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_profiler::table::Column;

    fn titanic() -> Dataset {
        Dataset::new(
            "titanic",
            vec![Table::new(
                "train",
                vec![
                    Column::new("Survived", vec!["0".into(), "1".into(), "1".into(), "0".into()]),
                    Column::new("Age", vec!["22".into(), "38".into(), "26".into(), "35".into()]),
                    Column::new("Sex", vec!["male".into(), "female".into(), "female".into(), "male".into()]),
                ],
            )],
        )
    }

    const SCRIPT: &str = r#"
import pandas as pd
from sklearn.ensemble import RandomForestClassifier
df = pd.read_csv('titanic/train.csv')
X, y = df.drop('Survived', axis=1), df['Survived']
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X, y)
"#;

    fn script() -> PipelineScript {
        PipelineScript {
            metadata: PipelineMetadata {
                id: "p1".into(),
                dataset: "titanic".into(),
                title: "Titanic".into(),
                author: "alice".into(),
                votes: 10,
                score: 0.8,
                task: "classification".into(),
            },
            source: SCRIPT.to_string(),
        }
    }

    #[test]
    fn bootstrap_builds_linked_graph() {
        let (platform, stats) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_pipelines([script()])
            .bootstrap();
        assert_eq!(stats.columns_profiled, 3);
        assert_eq!(stats.pipelines_abstracted, 1);
        assert_eq!(stats.pipelines_failed, 0);
        assert!(stats.triples > 100);
        assert!(stats.links.tables_linked >= 1);
        assert!(platform.triple_count() > 100);
        assert!(platform.meter().peak() > 0);
    }

    #[test]
    fn adhoc_sparql_works() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_pipelines([script()])
            .bootstrap();
        let df = platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?t WHERE { ?t a k:Table . }",
            )
            .unwrap();
        assert_eq!(df.len(), 1);
        assert!(df.get(0, "t").unwrap().contains("titanic/train"));
        assert!(platform
            .ask("PREFIX k: <http://kglids.org/ontology/> ASK { ?p a k:Pipeline . }")
            .unwrap());
    }

    #[test]
    fn embeddings_available() {
        let (platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        let e = platform.table_embedding("titanic", "train").unwrap();
        assert_eq!(e.len(), lids_embed::TABLE_EMBEDDING_DIM);
        assert!(platform.dataset_embedding("titanic").is_some());
        assert!(platform.table_embedding("nope", "x").is_none());

        // unseen table embeds to the same space
        let unseen = Table::new(
            "probe",
            vec![Column::new("Age", vec!["30".into(), "40".into()])],
        );
        let pe = platform.embed_table(&unseen);
        assert_eq!(pe.len(), lids_embed::TABLE_EMBEDDING_DIM);
    }

    #[test]
    fn similar_columns_round_trip() {
        let (platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        // the stored Age column should be its own nearest neighbour
        let age_idx = platform
            .profiles()
            .iter()
            .position(|p| p.meta.column == "Age")
            .unwrap();
        let emb = platform.profiles()[age_idx].embedding.clone();
        let hits = platform.similar_columns(&emb, 1);
        assert_eq!(hits[0].0, age_idx);
        assert!(hits[0].1 > 0.999);
    }

    #[test]
    fn bootstrap_emits_span_tree_and_metrics() {
        let (platform, stats) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_pipelines([script()])
            .bootstrap();
        let root = stats.trace.root("bootstrap").expect("bootstrap root span");
        assert!(root.closed);
        for stage in ["parse", "profile", "link.schema", "abstract", "link.pipelines", "embed"] {
            let span = root.child(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
            assert!(span.closed, "{stage} left open");
        }
        // the schema stage carries one child per linking bucket
        let schema = root.child("link.schema").expect("schema span");
        assert!(!schema.children.is_empty(), "no bucket spans");
        // the platform keeps the live obs handle; queries feed it
        platform.internal_query(
            "PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }",
        );
        let json = platform.obs_snapshot_json();
        assert!(json.contains("\"lids-obs/v1\""));
        assert!(json.contains("query.wall_us"));
        assert!(json.contains("memory.peak_bytes"));
        let metrics = platform.obs().metrics.snapshot();
        assert!(metrics.counter("query.count").unwrap_or(0) >= 1);
        assert!(metrics.counter("bootstrap.triples").unwrap_or(0) > 100);
    }

    #[test]
    fn query_errors_are_lids_errors_and_counted() {
        let platform = KgLids::empty();
        let err = platform.query("SELECT broken {{{").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::SparqlError);
        let metrics = platform.obs().metrics.snapshot();
        assert_eq!(metrics.counter("query.errors"), Some(1));
    }

    #[test]
    fn query_with_and_explain() {
        let (platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        let q = "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }";
        let opts = EvalOptions::builder().reorder_joins(false).build();
        let df = platform.query_with(q, opts).unwrap();
        assert_eq!(df.len(), 3);
        let report = platform.explain(q).unwrap();
        assert_eq!(report.rows, 3);
        assert_eq!(report.patterns.len(), 2);
        assert!(report.patterns.iter().all(|p| p.satisfiable && p.order.is_some()));
    }

    #[test]
    fn deadline_guardrail_times_out_queries() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                deadline: Some(Duration::ZERO),
                ..QueryGuardrails::default()
            })
            .bootstrap();
        let err = platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }",
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryTimeout);
        let metrics = platform.obs().metrics.snapshot();
        assert!(metrics.counter("query.timeouts").unwrap_or(0) >= 1);
        assert!(metrics.counter("query.errors").unwrap_or(0) >= 1);
    }

    #[test]
    fn budget_trip_degrades_to_truncated_partial_result() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                memory_budget: Some(64),
                degraded_row_cap: 1,
                ..QueryGuardrails::default()
            })
            .bootstrap();
        let df = platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }",
            )
            .unwrap();
        assert!(df.truncated, "degraded result must be marked truncated");
        assert!(df.len() <= 1, "degraded result must respect the row cap");
        let metrics = platform.obs().metrics.snapshot();
        assert!(metrics.counter("query.budget_denials").unwrap_or(0) >= 1);
        assert!(metrics.counter("query.degraded").unwrap_or(0) >= 1);
        assert!(metrics.counter("query.truncated").unwrap_or(0) >= 1);
    }

    #[test]
    fn repeat_offender_shapes_fail_fast() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                deadline: Some(Duration::ZERO),
                poison_threshold: 2,
                poison_ttl: Duration::from_secs(3600),
                ..QueryGuardrails::default()
            })
            .bootstrap();
        let q = "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }";
        assert_eq!(platform.query(q).unwrap_err().kind(), ErrorKind::QueryTimeout);
        assert_eq!(platform.query(q).unwrap_err().kind(), ErrorKind::QueryTimeout);
        // two trips crossed the threshold: the shape now fails fast
        let err = platform.query(q).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded);
        assert!(err.to_string().contains("quarantined"), "err: {err}");
        let metrics = platform.obs().metrics.snapshot();
        assert!(metrics.counter("query.shapes_poisoned").unwrap_or(0) >= 1);
        assert!(metrics.counter("query.quarantine_denials").unwrap_or(0) >= 1);
        // a different, well-behaved shape still runs normally
        assert!(platform
            .query("PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }")
            .is_err()); // (deadline 0 still times it out, but NOT as a quarantine)
    }

    #[test]
    fn generous_guardrails_leave_queries_exact() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                deadline: Some(Duration::from_secs(60)),
                memory_budget: Some(256 << 20),
                ..QueryGuardrails::default()
            })
            .bootstrap();
        let df = platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }",
            )
            .unwrap();
        assert_eq!(df.len(), 3);
        assert!(!df.truncated);
        let metrics = platform.obs().metrics.snapshot();
        assert_eq!(metrics.counter("query.degraded").unwrap_or(0), 0);
        // headroom gauge was exported for the governed run
        assert!(metrics.gauge("query.budget_headroom_bytes").is_some());
    }

    #[test]
    fn empty_platform() {
        let platform = KgLids::empty();
        // no artifacts, but the library graph (from the docs KB) is always
        // built during bootstrap
        assert!(platform.profiles().is_empty());
        assert!(platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?t WHERE { ?t a k:Table . }"
            )
            .unwrap()
            .is_empty());
        assert!(platform.triple_count() > 0);
    }

    #[test]
    fn platform_and_reader_are_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KgLids>();
        assert_send_sync::<LidsReader>();
        assert_send_sync::<Arc<KgLids>>();
    }

    #[test]
    fn shared_platform_queries_from_many_threads() {
        let platform = Arc::new(KgLids::empty());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&platform);
                std::thread::spawn(move || {
                    let df = p
                        .query(
                            "PREFIX k: <http://kglids.org/ontology/> \
                             SELECT ?t WHERE { ?t a k:Table . }",
                        )
                        .unwrap();
                    df.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 0);
        }
        // all four queries hit the same cache: one parse, three text hits
        let stats = platform.plan_cache_stats();
        assert_eq!(stats.parses, 1);
    }

    #[test]
    fn reader_sees_writes_published_after_acquisition() {
        use lids_rdf::{Quad, Term};
        let mut platform = KgLids::empty();
        let reader = platform.reader();
        let before = reader.snapshot().len();
        platform.store.insert(&Quad::new(
            Term::iri("urn:ex:s"),
            Term::iri("urn:ex:p"),
            Term::iri("urn:ex:o"),
        ));
        // a fresh snapshot observes the committed write...
        assert_eq!(reader.snapshot().len(), before + 1);
        let df = reader
            .query("SELECT ?o WHERE { <urn:ex:s> <urn:ex:p> ?o . }")
            .unwrap();
        assert_eq!(df.len(), 1);
        // ...while a snapshot pinned before the write stays frozen
        let pinned = reader.snapshot();
        platform.store.insert(&Quad::new(
            Term::iri("urn:ex:s2"),
            Term::iri("urn:ex:p"),
            Term::iri("urn:ex:o"),
        ));
        assert_eq!(pinned.len(), before + 1);
        assert_eq!(reader.snapshot().len(), before + 2);
    }
}
