//! The platform façade: storage plus the one ingest path (KG Governor).
//! (The one query path is [`crate::query`].)
//!
//! The LiDS graph is built and maintained by one stage sequence — retract
//! → parse → profile → link.schema → abstract → link.pipelines →
//! quarantine → embed → commit ([`KgLids::apply_delta`]).
//! [`KgLidsBuilder::bootstrap`] is that sequence run once on a platform
//! that holds nothing yet, with the builder's inputs as one
//! [`DeltaBatch`]. It is fault-tolerant end to end: raw artifacts are
//! parsed in strict mode ([`CsvMode::Strict`]), every per-artifact stage
//! (parsing, profiling, script analysis) runs under panic isolation, and
//! an artifact that fails — each stage is a deterministic function of its
//! bytes, so it fails once and is not retried — is quarantined into the
//! [`BootstrapReport`] and recorded as provenance triples: a bad artifact
//! never aborts a run.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use lids_embed::{
    table_embedding, ColrModels, FineGrainedType, WordEmbeddings, TABLE_EMBEDDING_DIM,
};
use lids_exec::{parallel_try_map_with, LidsError, LidsResult, MemoryMeter, ParallelConfig};
use lids_kg::abstraction::{
    emit_pipeline_quads, AbstractionStats, PipelineGraphInfo, PipelineMetadata,
};
use lids_kg::docs::LibraryDocs;
use lids_kg::incremental::{retraction_ids, LinkIndex};
use lids_kg::library_graph::library_graph_quads;
use lids_kg::linker::{LinkStats, Linker};
use lids_kg::ontology::Vocab;
use lids_kg::provenance::{push_quarantine, QuarantineRecord};
use lids_kg::schema::{EncodedBatch, SchemaConfig, SchemaStats};
use lids_obs::{Obs, SpanId, TraceSnapshot};
use lids_profiler::table::Dataset;
use lids_profiler::{
    parse_csv_bytes, profile_table, ColumnProfile, CsvMode, ProfilerConfig, RawDataset, Table,
};
use lids_py::analysis::AnalyzedScript;
use lids_rdf::{EncodedAnnotation, EncodedQuad, Quad, QuadStore, StoreSnapshot};
use lids_vector::{cosine_similarity, mean_vector};

use crate::automation::Models;
use crate::query::{QueryEnv, QueryGuardrails};
#[cfg(doc)]
use crate::query::LidsReader;
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
    pub schema: SchemaStatsLite,
    pub abstraction: AbstractionStats,
    pub links: LinkStats,
    /// Which artifacts were quarantined, with their typed errors.
    pub report: BootstrapReport,
    /// Span tree of the bootstrap run (`bootstrap` root with one child per
    /// stage; the schema stage carries one child per linking bucket).
    pub trace: TraceSnapshot,
}

/// Load one stage's quads and record the load as an `ingest` child span of
/// the stage. `encode` turns what the stage produced into id tuples over
/// the store's own dictionary (`encode_secs`): the schema stage emits them
/// through an [`EncodedBatch`], every term interned once where the emitter
/// first names it; the other stages — pipeline graphs, the library graph,
/// quarantine provenance, whose terms mostly occur once — hand over
/// decoded quads to [`QuadStore::intern_quads`]. One
/// [`QuadStore::extend_encoded`] then loads the tuples (`index_secs`).
/// Returns how many quads were new.
fn ingest_quads(
    store: &mut QuadStore,
    obs: &Obs,
    parent: SpanId,
    stage: &str,
    encode: impl FnOnce(&mut QuadStore) -> (Vec<EncodedQuad>, Vec<EncodedAnnotation>),
) -> usize {
    // opened before the encoding: the first interned term pays the
    // copy-on-write clone
    let span = obs.tracer.child(parent, "ingest");
    let terms_before = store.term_count();
    let t = Instant::now();
    let (quads, notes) = encode(store);
    let encode_secs = t.elapsed().as_secs_f64();
    let quads_in = quads.len() + notes.len();
    let t = Instant::now();
    let quads_added = store.extend_encoded(quads, notes);
    let tracer = &obs.tracer;
    tracer.set_attr(span, "index_secs", t.elapsed().as_secs_f64());
    tracer.set_attr(span, "encode_secs", encode_secs);
    tracer.set_attr(span, "stage", stage);
    tracer.set_attr(span, "quads_in", quads_in);
    tracer.add_count(span, "quads_added", quads_added as u64);
    tracer.add_count(span, "new_terms", (store.term_count() - terms_before) as u64);
    let _ = tracer.close(span);
    quads_added
}

/// The derived table and dataset embeddings (Equation 1 and its dataset
/// mean). Each is a function of one dataset's profiles, so an ingest run
/// refreshes the datasets it touched and leaves the rest alone.
#[derive(Default)]
pub(crate) struct EmbeddingStore {
    pub(crate) table_embeddings: HashMap<(String, String), Vec<f32>>,
    pub(crate) dataset_embeddings: HashMap<String, Vec<f32>>,
    /// §4.2 cleaning embeddings: per-type averages over the columns that
    /// contain missing values (falls back to all columns when none do).
    pub(crate) dataset_embeddings_missing: HashMap<String, Vec<f32>>,
}

impl EmbeddingStore {
    /// What the platform's [`MemoryMeter`] holds this store at.
    fn approx_bytes(&self) -> u64 {
        self.table_embeddings.values().map(|e| (e.len() * 4) as u64).sum()
    }

    /// Drop what is held for `datasets` and recompute it from their
    /// columns in `profiles` (none, for a dataset that was removed).
    /// Columns aggregate in profile order and tables in name order, so a
    /// value maintained over any sequence of deltas equals, bit for bit,
    /// the one a bootstrap of the same lake computes.
    fn refresh(&mut self, datasets: &HashSet<&str>, profiles: &[ColumnProfile]) {
        self.table_embeddings.retain(|(d, _), _| !datasets.contains(d.as_str()));
        self.dataset_embeddings.retain(|d, _| !datasets.contains(d.as_str()));
        self.dataset_embeddings_missing.retain(|d, _| !datasets.contains(d.as_str()));
        let mut touched: BTreeMap<&str, BTreeMap<&str, Vec<&ColumnProfile>>> = BTreeMap::new();
        for p in profiles {
            if !p.embedding.is_empty() && datasets.contains(p.meta.dataset.as_str()) {
                let tables = touched.entry(&p.meta.dataset).or_default();
                tables.entry(&p.meta.table).or_default().push(p);
            }
        }
        for (dataset, tables) in touched {
            let all: Vec<Vec<f32>> = tables.values().map(|c| table_embedding_of(c)).collect();
            let missing: Vec<Vec<f32>> =
                tables.values().map(|c| table_embedding_missing_of(c)).collect();
            for (of_tables, out) in [
                (&all, &mut self.dataset_embeddings),
                (&missing, &mut self.dataset_embeddings_missing),
            ] {
                let mean = mean_vector(of_tables.iter().map(Vec::as_slice), TABLE_EMBEDDING_DIM);
                out.insert(dataset.to_string(), mean);
            }
            for (table, embedding) in tables.keys().zip(all) {
                self.table_embeddings.insert((dataset.to_string(), table.to_string()), embedding);
            }
        }
    }
}

/// Equation 1 over the embedded columns among `columns`.
fn table_embedding_of(columns: &[&ColumnProfile]) -> Vec<f32> {
    let embedded: Vec<(FineGrainedType, &[f32])> = columns
        .iter()
        .filter(|p| !p.embedding.is_empty())
        .map(|p| (p.fgt, p.embedding.as_slice()))
        .collect();
    table_embedding(&embedded)
}

/// §4.2: Equation 1 over the embedded columns that contain missing values
/// (all embedded columns when none do).
fn table_embedding_missing_of(columns: &[&ColumnProfile]) -> Vec<f32> {
    let has_nulls = |p: &&ColumnProfile| !p.embedding.is_empty() && p.stats.nulls > 0;
    let with_missing: Vec<&ColumnProfile> = columns.iter().copied().filter(has_nulls).collect();
    table_embedding_of(if with_missing.is_empty() { columns } else { &with_missing })
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
    /// lake. Files are parsed during bootstrap in [`CsvMode::Strict`];
    /// damaged files are quarantined.
    pub fn with_raw_dataset(mut self, raw: RawDataset) -> Self {
        self.raw_datasets.push(raw);
        self
    }

    /// Add many raw datasets.
    pub fn with_raw_datasets(mut self, raws: impl IntoIterator<Item = RawDataset>) -> Self {
        self.raw_datasets.extend(raws);
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

    /// Use pre-computed column profiles instead of profiling datasets —
    /// for ablations with alternative embedding models (Figure 6's
    /// coarse-grained arm).
    pub fn with_custom_profiles(mut self, profiles: Vec<ColumnProfile>) -> Self {
        self.custom_profiles = Some(profiles);
        self
    }

    /// Run the KG Governor over the builder's inputs: the first delta into
    /// a platform that holds nothing yet (see [`KgLids::apply_delta`] for
    /// the stage sequence), traced under a `bootstrap` root. Returns the
    /// platform and bootstrap statistics.
    ///
    /// Never aborts on a bad artifact: damaged tables and scripts are
    /// quarantined into `stats.report` (and the provenance named graph)
    /// while the rest of the lake bootstraps normally.
    pub fn bootstrap(self) -> (KgLids, BootstrapStats) {
        let mut platform = KgLids::blank(self.profiler_config, self.guardrails);
        // custom profiles stand in for profiling the datasets
        let (add_datasets, add_raw_datasets, add_profiles) = match self.custom_profiles {
            Some(profiles) => (Vec::new(), Vec::new(), profiles),
            None => (self.datasets, self.raw_datasets, Vec::new()),
        };
        let delta = platform.ingest(
            "bootstrap",
            DeltaBatch {
                add_datasets,
                add_raw_datasets,
                add_profiles,
                add_pipelines: self.pipelines,
                remove_datasets: Vec::new(),
            },
        );
        let stats = BootstrapStats {
            ingestion_secs: delta.parse_secs,
            profiling_secs: delta.profiling_secs,
            schema_secs: delta.linking_secs,
            abstraction_secs: delta.abstraction_secs,
            linking_secs: delta.pipeline_linking_secs,
            columns_profiled: delta.columns_profiled,
            pipelines_abstracted: delta.pipelines_abstracted,
            pipelines_failed: delta.pipelines_failed,
            triples: platform.store.len(),
            schema: delta.schema,
            abstraction: delta.abstraction,
            links: delta.links,
            report: delta.report,
            trace: delta.trace,
        };
        let metrics = &platform.env.obs.metrics;
        metrics.gauge_set("bootstrap.ingestion_secs", stats.ingestion_secs);
        metrics.gauge_set("bootstrap.profiling_secs", stats.profiling_secs);
        metrics.gauge_set("bootstrap.schema_secs", stats.schema_secs);
        metrics.gauge_set("bootstrap.abstraction_secs", stats.abstraction_secs);
        metrics.gauge_set("bootstrap.linking_secs", stats.linking_secs);
        metrics.counter_add("bootstrap.triples", stats.triples as u64);
        metrics.counter_add("bootstrap.columns_profiled", stats.columns_profiled as u64);
        (platform, stats)
    }
}

/// The KGLiDS platform: LiDS graph + embedding store + models.
pub struct KgLids {
    pub(crate) store: QuadStore,
    pub(crate) docs: LibraryDocs,
    pub(crate) we: WordEmbeddings,
    pub(crate) profiler_config: ProfilerConfig,
    pub(crate) profiles: Vec<ColumnProfile>,
    /// The persistent linking structures (label cache, per-bucket
    /// matrices, sharded HNSW, cell geometry): filled by the first run,
    /// kept alive so later deltas link new columns without touching
    /// old-old pairs.
    pub(crate) link_index: LinkIndex,
    /// Cumulative quarantine ledger: every run's report, minus entries
    /// withdrawn by dataset retraction.
    pub(crate) report: BootstrapReport,
    pub(crate) embeddings: EmbeddingStore,
    pub(crate) meter: MemoryMeter,
    /// What every query through this platform and its [`LidsReader`]s
    /// runs under; also owns the platform's [`Obs`].
    pub(crate) env: QueryEnv,
    /// The §4 models of the current store generation, each trained on
    /// first use; an ingest run that changes the generation drops them.
    pub(crate) models: Models,
}

/// Delta span trees the tracer keeps besides the `bootstrap` one: enough
/// to look back over the last few changes, bounded so a churning lake's
/// tracer does not grow for the life of the process.
const RECENT_DELTA_TRACES: usize = 16;

impl KgLids {
    /// Bootstrap an empty platform (no artifacts; the library graph only).
    pub fn empty() -> Self {
        KgLidsBuilder::new().bootstrap().0
    }

    /// A platform that holds nothing yet — not even the library graph,
    /// which its first [`Self::ingest`] run loads.
    fn blank(profiler_config: ProfilerConfig, guardrails: QueryGuardrails) -> Self {
        let schema_config = SchemaConfig::default();
        KgLids {
            store: QuadStore::new(),
            docs: LibraryDocs::builtin(),
            we: WordEmbeddings::new(),
            profiler_config,
            profiles: Vec::new(),
            link_index: LinkIndex::new(schema_config),
            report: BootstrapReport::default(),
            embeddings: EmbeddingStore::default(),
            meter: MemoryMeter::new(),
            env: QueryEnv::new(guardrails, &schema_config),
            models: Models::default(),
        }
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

    /// The platform's observability handle: span tracer + metrics registry.
    pub fn obs(&self) -> &Obs {
        &self.env.obs
    }

    /// Current observability state serialized to the `lids-obs/v1` JSON
    /// schema.
    pub fn obs_snapshot_json(&self) -> String {
        self.env.obs.snapshot().to_json()
    }

    /// Stored 1800-d embedding of a profiled table.
    pub fn table_embedding(&self, dataset: &str, table: &str) -> Option<&[f32]> {
        self.embeddings
            .table_embeddings
            .get(&(dataset.to_string(), table.to_string()))
            .map(|e| e.as_slice())
    }

    /// Stored dataset embedding (mean of its tables').
    pub fn dataset_embedding(&self, dataset: &str) -> Option<&[f32]> {
        self.embeddings.dataset_embeddings.get(dataset).map(|e| e.as_slice())
    }

    /// §4.2 cleaning embedding of a dataset: per-type averages over the
    /// columns that contain missing values.
    pub fn dataset_embedding_missing(&self, dataset: &str) -> Option<&[f32]> {
        self.embeddings.dataset_embeddings_missing.get(dataset).map(|e| e.as_slice())
    }

    /// Profile an *unseen* table with the pre-trained CoLR models (the
    /// inference path of §4.1: "takes the unseen dataset in the form of a
    /// DataFrame and calculates the CoLR embedding for each column").
    fn profile_unseen(&self, table: &Table) -> Vec<ColumnProfile> {
        let models = ColrModels::pretrained();
        profile_table("__unseen__", table, models, &self.we, &self.profiler_config, None)
    }

    /// §4.2 cleaning embedding of an *unseen* table: per-type averages over
    /// its null-containing columns (all columns when none have nulls).
    pub fn embed_table_missing(&self, table: &Table) -> Vec<f32> {
        table_embedding_missing_of(&self.profile_unseen(table).iter().collect::<Vec<_>>())
    }

    /// Equation 1 embedding of an *unseen* table.
    pub fn embed_table(&self, table: &Table) -> Vec<f32> {
        table_embedding_of(&self.profile_unseen(table).iter().collect::<Vec<_>>())
    }

    /// Column-level embeddings of an unseen table (300-d each).
    pub fn embed_columns(&self, table: &Table) -> Vec<(String, FineGrainedType, Vec<f32>)> {
        let profiles = self.profile_unseen(table).into_iter();
        profiles.map(|p| (p.meta.column, p.fgt, p.embedding)).collect()
    }

    /// Nearest profiled columns to an embedding by cosine similarity (the
    /// Faiss-style search of §2.2), best first: an exact scan of the
    /// embedded [`Self::profiles`]. Returns `(profile index, similarity)`.
    pub fn similar_columns(&self, embedding: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut hits: Vec<(usize, f32)> = self
            .profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.embedding.is_empty())
            .map(|(i, p)| (i, cosine_similarity(embedding, &p.embedding)))
            .collect();
        let best_first =
            |a: &(usize, f32), b: &(usize, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if k < hits.len() {
            hits.select_nth_unstable_by(k, best_first);
            hits.truncate(k);
        }
        hits.sort_unstable_by(best_first);
        hits
    }

    /// The documentation KB.
    pub fn docs(&self) -> &LibraryDocs {
        &self.docs
    }

    /// The cumulative quarantine ledger: every ingest run's entries, minus
    /// artifacts withdrawn by dataset retraction.
    pub fn quarantine_report(&self) -> &BootstrapReport {
        &self.report
    }

    /// Apply one incremental change to the lake — the "pay for what
    /// changed" path, and the only ingest path: bootstrap is this same
    /// sequence run on a platform that holds nothing yet. Removals run
    /// first, then additions, all inside one store delta: live
    /// [`LidsReader`]s observe the whole delta or nothing, and the
    /// plan-cache generation bumps exactly once.
    ///
    /// Additions profile only the new artifacts (under the platform's
    /// fault-tolerance policy) and link them through the persisted
    /// [`LinkIndex`], which scores only pairs with a new endpoint — on an
    /// empty index, every pair — with exact kernels behind a lossless
    /// candidate bound. The resulting graph is identical to a from-scratch
    /// bootstrap of the final lake.
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
        self.ingest("delta", delta)
    }

    /// The stage sequence, traced under a root span named `root_name`.
    fn ingest(&mut self, root_name: &str, delta: DeltaBatch) -> DeltaStats {
        let DeltaBatch {
            add_datasets,
            add_raw_datasets,
            add_profiles,
            add_pipelines,
            remove_datasets,
        } = delta;
        let mut stats = DeltaStats::default();
        let mut report = BootstrapReport::default();
        let obs: &Obs = &self.env.obs;
        let tracer = &obs.tracer;
        let root = tracer.root(root_name);
        let cow_before = self.store.cow_stats();
        let generation_before = self.store.generation();
        // a store that holds nothing yet lacks the library graph too
        let first_fill = self.store.is_empty();
        self.store.begin_delta();

        // ---- retraction: withdraw removed datasets first ----
        let span = tracer.child(root, "retract");
        let (mut collect_secs, mut index_secs, mut victims_in) = (0.0, 0.0, 0usize);
        for ds in &remove_datasets {
            let (gone, kept): (Vec<ColumnProfile>, Vec<ColumnProfile>) =
                std::mem::take(&mut self.profiles).into_iter().partition(|p| &p.meta.dataset == ds);
            self.profiles = kept;
            // what profiling charged for them
            self.meter.free(gone.iter().map(ColumnProfile::approx_bytes).sum());
            let t = Instant::now();
            let (victims, notes) = retraction_ids(&self.store, ds, &gone);
            collect_secs += t.elapsed().as_secs_f64();
            victims_in += victims.len() + notes.len();
            let t = Instant::now();
            stats.quads_retracted += self.store.retract_encoded(victims, notes);
            index_secs += t.elapsed().as_secs_f64();
            stats.columns_retracted += self.link_index.remove_dataset(ds);
            // ghost-free ledger: drop the dataset's quarantine entries
            let prefix = format!("{ds}/");
            self.report.quarantined.retain(|e| !e.artifact.starts_with(&prefix));
        }
        stats.datasets_removed = remove_datasets.len();
        tracer.set_attr(span, "datasets", remove_datasets.len());
        // where a removal's store time goes: scanning for the victims (id
        // space, no term decoded) against dropping them from the indexes
        tracer.set_attr(span, "collect_secs", collect_secs);
        tracer.set_attr(span, "index_secs", index_secs);
        tracer.add_count(span, "victims", victims_in as u64);
        tracer.add_count(span, "quads_retracted", stats.quads_retracted as u64);
        tracer.add_count(span, "columns_retracted", stats.columns_retracted as u64);
        stats.retraction_secs = tracer.close(span).unwrap_or_default();

        // ---- parse raw artifacts (strict, panic-isolated) ----
        let span = tracer.child(root, "parse");
        let mut datasets = add_datasets;
        for raw in &add_raw_datasets {
            let outcomes = parallel_try_map_with(ParallelConfig::default(), &raw.tables, |t| {
                parse_csv_bytes(&t.name, &t.bytes, CsvMode::Strict)
            });
            let mut tables = Vec::new();
            for (table, result) in raw.tables.iter().zip(outcomes) {
                match result {
                    Ok(t) => tables.push(t),
                    Err(error) => report.quarantined.push(QuarantineEntry {
                        artifact: format!("{}/{}", raw.name, table.name),
                        kind: ArtifactKind::Table,
                        error,
                    }),
                }
            }
            datasets.push(Dataset::new(raw.name.clone(), tables));
        }
        stats.datasets_added = datasets.len();
        tracer.set_attr(span, "raw_datasets", add_raw_datasets.len());
        tracer.add_count(span, "quarantined", report.quarantined.len() as u64);
        stats.parse_secs = tracer.close(span).unwrap_or_default();

        // ---- Algorithm 2: profile the new artifacts (panic-isolated) ----
        let span = tracer.child(root, "profile");
        let models = ColrModels::pretrained();
        let units: Vec<(&str, &Table)> = datasets
            .iter()
            .flat_map(|d| d.tables.iter().map(move |t| (d.name.as_str(), t)))
            .collect();
        let outcomes = parallel_try_map_with(ParallelConfig::default(), &units, |unit| {
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
        for ((dataset, table), result) in units.iter().zip(outcomes) {
            match result {
                Ok(p) => new_profiles.extend(p),
                Err(error) => report.quarantined.push(QuarantineEntry {
                    artifact: format!("{dataset}/{}", table.name),
                    kind: ArtifactKind::Table,
                    error,
                }),
            }
        }
        // charged as profiled ones are, so a retraction frees what it held
        for p in &add_profiles {
            self.meter.alloc(p.approx_bytes());
        }
        new_profiles.extend(add_profiles);
        stats.columns_profiled = new_profiles.len();
        tracer.set_attr(span, "columns", new_profiles.len());
        stats.profiling_secs = tracer.close(span).unwrap_or_default();

        // ---- Algorithm 3: link the new columns into the global schema ----
        let span = tracer.child(root, "link.schema");
        let (link, edges) = self.link_index.link_columns(&new_profiles, &self.we);
        stats.quads_added += ingest_quads(&mut self.store, obs, span, "link.schema", |store| {
            let mut batch = EncodedBatch::new(store);
            self.link_index.emit_columns(&mut batch, &new_profiles, &edges);
            batch.into_ids()
        });
        stats.relink_candidates = link.candidates_generated;
        stats.label_edges = link.label_edges;
        stats.content_edges = link.content_edges;
        stats.schema = SchemaStatsLite::from(&link);
        tracer.add_count(span, "label_edges", link.label_edges as u64);
        tracer.add_count(span, "content_edges", link.content_edges as u64);
        tracer.add_count(span, "candidates", link.candidates_generated as u64);
        tracer.add_count(span, "cell_rebuilds", link.cell_rebuilds as u64);
        tracer.add_count(span, "pairs_pruned", link.pairs_pruned as u64);
        obs.metrics.counter_add("linking.pairs_pruned", link.pairs_pruned as u64);
        // the candidate stage, bucket by bucket
        for bucket in &link.buckets {
            let b = tracer.child(span, "bucket");
            tracer.set_attr(b, "fgt", bucket.fgt);
            tracer.set_attr(b, "strategy", bucket.strategy);
            tracer.set_attr(b, "rows", bucket.rows);
            tracer.add_count(b, "eligible_pairs", bucket.eligible_pairs as u64);
            tracer.add_count(b, "candidates", bucket.candidates as u64);
            tracer.add_count(b, "pruned", bucket.pruned as u64);
            tracer.add_count(b, "hnsw_hops", bucket.hnsw.hops);
            tracer.add_count(b, "hnsw_dist_evals", bucket.hnsw.dist_evals);
            tracer.add_count(b, "hnsw_searches", bucket.hnsw.searches);
            let _ = tracer.close(b);
        }
        stats.linking_secs = tracer.close(span).unwrap_or_default();

        // ---- Algorithm 1: library graph + pipeline abstraction ----
        let span = tracer.child(root, "abstract");
        // the library graph (first fill only) and every abstracted
        // pipeline accumulate into one batch, bulk-loaded once at the end
        // of the stage
        let mut batch: Vec<Quad> = Vec::new();
        let vocab = Vocab::new();
        if first_fill {
            library_graph_quads(&mut batch, &self.docs, &mut stats.abstraction, &vocab);
        }
        // analysis is the parallel worker phase (panic-isolated); emission
        // is serial
        let mut abstracted: Vec<PipelineGraphInfo> = Vec::new();
        let analyzed: Vec<LidsResult<AnalyzedScript>> =
            parallel_try_map_with(ParallelConfig::default(), &add_pipelines, |p| {
                lids_py::analyze(&p.source).map_err(LidsError::from)
            });
        for (pipeline, analysis) in add_pipelines.iter().zip(analyzed) {
            match analysis {
                Ok(a) => abstracted.push(emit_pipeline_quads(
                    &mut batch,
                    &mut stats.abstraction,
                    &self.docs,
                    &pipeline.metadata,
                    &a,
                    &vocab,
                )),
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
                    });
                }
            }
        }
        stats.pipelines_abstracted = abstracted.len();
        stats.quads_added +=
            ingest_quads(&mut self.store, obs, span, "abstract", |store| store.intern_quads(batch));
        tracer.set_attr(span, "pipelines", add_pipelines.len());
        tracer.add_count(span, "abstracted", stats.pipelines_abstracted as u64);
        tracer.add_count(span, "failed", stats.pipelines_failed as u64);
        stats.abstraction_secs = tracer.close(span).unwrap_or_default();

        // ---- Graph Linker over this run's pipelines' predicted reads ----
        // each against its own dataset's schema, in memory: only the
        // verified edges reach the store
        let span = tracer.child(root, "link.pipelines");
        let mut linker = Linker::new(&self.store);
        let mut edges: Vec<Quad> = Vec::new();
        for pipeline in &abstracted {
            linker.link(pipeline, &mut edges);
        }
        stats.links = linker.stats().clone();
        tracer.set_attr(span, "datasets", linker.datasets());
        if !edges.is_empty() {
            stats.quads_added +=
                ingest_quads(&mut self.store, obs, span, "link.pipelines", |store| {
                    store.intern_quads(edges)
                });
        }
        tracer.add_count(span, "tables_linked", stats.links.tables_linked as u64);
        tracer.add_count(span, "columns_linked", stats.links.columns_linked as u64);
        stats.pipeline_linking_secs = tracer.close(span).unwrap_or_default();

        // ---- quarantine provenance: record *why* artifacts are missing ----
        if !report.quarantined.is_empty() {
            let mut batch: Vec<Quad> = Vec::with_capacity(report.quarantined.len() * 4);
            for entry in &report.quarantined {
                push_quarantine(
                    &mut batch,
                    &QuarantineRecord {
                        artifact_id: &entry.artifact,
                        artifact_kind: entry.kind.name(),
                        error: &entry.error,
                    },
                );
            }
            stats.quads_added += ingest_quads(&mut self.store, obs, root, "quarantine", |store| {
                store.intern_quads(batch)
            });
        }

        // ---- refresh derived state, commit, publish once ----
        let span = tracer.child(root, "embed");
        let first_new = self.profiles.len();
        self.profiles.extend(new_profiles);
        let touched: HashSet<&str> = self.profiles[first_new..]
            .iter()
            .map(|p| p.meta.dataset.as_str())
            .chain(remove_datasets.iter().map(String::as_str))
            .collect();
        self.meter.free(self.embeddings.approx_bytes());
        self.embeddings.refresh(&touched, &self.profiles);
        self.meter.alloc(self.embeddings.approx_bytes());
        tracer.set_attr(span, "table_embeddings", self.embeddings.table_embeddings.len());
        let _ = tracer.close(span);
        self.report.quarantined.extend(report.quarantined.iter().cloned());
        // the overlay fold when one is due, publication, and the release
        // of the snapshot it supersedes when no reader still pins it
        let span = tracer.child(root, "commit");
        self.store.commit_delta();
        let _ = tracer.close(span);

        let metrics = &obs.metrics;
        metrics.counter_add("ingest.delta.datasets_added", stats.datasets_added as u64);
        metrics.counter_add("ingest.delta.datasets_removed", stats.datasets_removed as u64);
        metrics.counter_add("ingest.delta.quads_retracted", stats.quads_retracted as u64);
        metrics.counter_add("ingest.delta.relink_candidates", stats.relink_candidates as u64);
        metrics.counter_add("linking.label_edges", link.label_edges as u64);
        metrics.counter_add("linking.content_edges", link.content_edges as u64);
        metrics.counter_add("linking.hnsw_dist_evals", link.hnsw.dist_evals);
        metrics.gauge_set("ingest.quarantine.artifacts", self.report.len() as f64);
        metrics.gauge_set("memory.peak_bytes", self.meter.peak() as f64);
        // the store's monotonic totals, and this run's share of them
        let cow = self.store.cow_stats();
        metrics.gauge_set("store.cow.clones", cow.clones as f64);
        metrics.gauge_set("store.cow.secs", cow.secs);
        metrics.gauge_set("store.folds", cow.folds as f64);
        metrics.gauge_set("store.fold.secs", cow.fold_secs);
        metrics.gauge_set("store.overlay_quads", self.store.overlay_len() as f64);
        stats.cow_clones = cow.clones - cow_before.clones;
        stats.cow_secs = cow.secs - cow_before.secs;
        stats.folds = cow.folds - cow_before.folds;
        stats.fold_secs = cow.fold_secs - cow_before.fold_secs;
        stats.generation = self.store.generation();
        if stats.generation != generation_before {
            self.models = Models::default();
        }
        tracer.set_attr(root, "generation", stats.generation);
        tracer.set_attr(root, "triples", self.store.len());
        let _ = tracer.close(root);
        stats.report = report;
        stats.trace = TraceSnapshot { roots: tracer.snapshot_span(root).into_iter().collect() };
        tracer.retain_roots(1, RECENT_DELTA_TRACES);
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
    /// [`KgLidsBuilder::with_custom_profiles`], which fills it — ablations).
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

/// What one run of the ingest sequence did: one [`KgLids::apply_delta`]
/// call, or the bootstrap (whose [`BootstrapStats`] are read off this).
/// Each stage's `*_secs` is the wall time of that stage's span in
/// [`Self::trace`] (named in brackets): the trace is the one clock.
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
    /// Column pairs the linker exact-scored.
    pub relink_candidates: usize,
    pub label_edges: usize,
    pub content_edges: usize,
    /// Withdrawing removed datasets (`retract`).
    pub retraction_secs: f64,
    /// Parsing of raw artifacts (`parse`).
    pub parse_secs: f64,
    /// Profiling the new columns (`profile`).
    pub profiling_secs: f64,
    /// The schema stage: linking the new columns and loading their quads
    /// (`link.schema`).
    pub linking_secs: f64,
    /// Library graph and pipeline abstraction (`abstract`).
    pub abstraction_secs: f64,
    /// The graph linker over the new pipelines' predicted reads
    /// (`link.pipelines`).
    pub pipeline_linking_secs: f64,
    /// Copy-on-write store clones this delta paid (one, at its first
    /// write, when a reader pins the previous snapshot; none otherwise)
    /// and the seconds they took — the store's overlay and the
    /// dictionary's tail, already inside whichever stage wrote first, not
    /// an extra stage.
    pub cow_clones: u64,
    pub cow_secs: f64,
    /// Overlay folds at this delta's commit (one when what the store
    /// holds unfolded outgrew its fold threshold, none otherwise) and the
    /// seconds they took, inside the `commit` span.
    pub folds: u64,
    pub fold_secs: f64,
    /// Store generation after the delta committed (exactly base + 1 when
    /// the delta mutated anything).
    pub generation: u64,
    /// The linker's counters over this run's new columns (on the first
    /// run, the whole lake's).
    pub schema: SchemaStatsLite,
    /// Triples emitted per abstraction aspect (library graph included,
    /// on the run that loaded it).
    pub abstraction: AbstractionStats,
    /// Graph-linker outcome over the delta's pipelines.
    pub links: LinkStats,
    /// This delta's quarantined artifacts (the cumulative ledger lives on
    /// the platform: [`KgLids::quarantine_report`]).
    pub report: BootstrapReport,
    /// This run's span tree: one root, `delta` (`bootstrap` for the
    /// first), with one child per stage.
    pub trace: TraceSnapshot,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lids_profiler::table::Column;

    pub(crate) fn titanic() -> Dataset {
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

    pub(crate) fn script() -> PipelineScript {
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

    /// The scan ranks the embedded profiles only (a boolean column has no
    /// embedding), best first, and `k` cuts that ranking.
    #[test]
    fn similar_columns_ranks_embedded_profiles_best_first() {
        let mut lake = titanic();
        let alive = ["true", "false", "false", "true"].map(String::from).to_vec();
        lake.tables[0].columns.push(Column::new("Alive", alive));
        let (platform, _) = KgLidsBuilder::new().with_dataset(lake).bootstrap();
        let profiles = platform.profiles();
        let embedded = profiles.iter().filter(|p| !p.embedding.is_empty()).count();
        assert!(embedded < profiles.len());
        let ranked = platform.similar_columns(&profiles[0].embedding, usize::MAX);
        assert_eq!((ranked.len(), ranked[0].0), (embedded, 0));
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1), "{ranked:?}");
        assert!(ranked.iter().all(|hit| !profiles[hit.0].embedding.is_empty()));
        assert_eq!(platform.similar_columns(&profiles[0].embedding, 2), ranked[..2]);
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
        platform
            .query("PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }")
            .unwrap();
        let json = platform.obs_snapshot_json();
        assert!(json.contains("\"lids-obs/v1\""));
        assert!(json.contains("query.wall_us"));
        assert!(json.contains("memory.peak_bytes"));
        let metrics = platform.obs().metrics.snapshot();
        assert!(metrics.counter("query.count").unwrap_or(0) >= 1);
        assert!(metrics.counter("bootstrap.triples").unwrap_or(0) > 100);
    }

    /// Retraction frees what profiling charged: a dataset added and
    /// removed leaves the meter where it was.
    #[test]
    fn retraction_frees_the_removed_profiles() {
        let (mut platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        let settled = platform.meter().current();
        for _ in 0..3 {
            let other = Dataset::new("other", titanic().tables);
            platform.apply_delta(DeltaBatch::new().add_dataset(other));
            assert!(platform.meter().current() > settled);
            platform.apply_delta(DeltaBatch::new().remove_dataset("other"));
            assert_eq!(platform.meter().current(), settled);
        }
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

}
