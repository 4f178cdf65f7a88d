//! Pipeline abstraction — Algorithm 1.
//!
//! Each pipeline script is statically analysed (via `lids-py`), enriched
//! with library documentation (return types, implicit parameter names,
//! default parameters) and dataset-usage analysis, and emitted as RDF
//! triples into its own named graph. Triples are tagged with a modelled
//! [`Aspect`] so the Table 3/4 statistics can be reproduced.

use std::collections::HashMap;

use lids_py::{analyze, AnalyzedScript, PyParseError};
use lids_rdf::{GraphName, Quad, QuadStore, Term};

use crate::docs::LibraryDocs;
use crate::linker::Linker;
use crate::ontology::{class, data_prop, object_prop, res, Vocab};

/// The modelled aspects of Table 4 (KGLiDS column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Aspect {
    DatasetReads,
    LibraryHierarchy,
    RdfNodeTypes,
    ColumnReads,
    LibraryCalls,
    CodeFlow,
    DataFlow,
    ControlFlowType,
    FuncParameters,
    StatementText,
    PipelineMetadata,
}

impl Aspect {
    /// All aspects in Table 4 row order.
    pub const ALL: [Aspect; 11] = [
        Aspect::DatasetReads,
        Aspect::LibraryHierarchy,
        Aspect::RdfNodeTypes,
        Aspect::ColumnReads,
        Aspect::LibraryCalls,
        Aspect::CodeFlow,
        Aspect::DataFlow,
        Aspect::ControlFlowType,
        Aspect::FuncParameters,
        Aspect::StatementText,
        Aspect::PipelineMetadata,
    ];

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            Aspect::DatasetReads => "Dataset reads",
            Aspect::LibraryHierarchy => "Library hierarchy",
            Aspect::RdfNodeTypes => "RDF node types",
            Aspect::ColumnReads => "Column reads",
            Aspect::LibraryCalls => "Library calls",
            Aspect::CodeFlow => "Code flow",
            Aspect::DataFlow => "Data flow",
            Aspect::ControlFlowType => "Control flow type",
            Aspect::FuncParameters => "Func. parameters",
            Aspect::StatementText => "Statement text",
            Aspect::PipelineMetadata => "Pipeline metadata",
        }
    }
}

/// Per-aspect triple counts (Table 4) plus totals.
#[derive(Debug, Clone, Default)]
pub struct AbstractionStats {
    counts: HashMap<Aspect, u64>,
}

impl AbstractionStats {
    /// Record `n` triples of an aspect.
    pub fn add(&mut self, aspect: Aspect, n: u64) {
        *self.counts.entry(aspect).or_insert(0) += n;
    }

    /// Count for one aspect.
    pub fn get(&self, aspect: Aspect) -> u64 {
        self.counts.get(&aspect).copied().unwrap_or(0)
    }

    /// Total across aspects.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &AbstractionStats) {
        for (a, n) in &other.counts {
            self.add(*a, *n);
        }
    }
}

/// Pipeline metadata (`MD` in Algorithm 1): dataset linkage, author, votes.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineMetadata {
    /// Stable pipeline id (file stem on Kaggle).
    pub id: String,
    /// The dataset the pipeline belongs to.
    pub dataset: String,
    pub title: String,
    pub author: String,
    pub votes: u32,
    /// Quality score (e.g. medal score).
    pub score: f64,
    /// Task tag, e.g. `classification` / `regression` / `eda`.
    pub task: String,
}

/// A table or column a statement is predicted to read (dataset-usage
/// analysis, Algorithm 1 lines 14–17): a name as the script spells it,
/// which the Graph Linker ([`crate::linker`]) verifies against the
/// pipeline's dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictedRead {
    /// A table, by the file stem of the path the script reads.
    Table(String),
    /// A column, by the key the script subscripts a frame with.
    Column(String),
}

/// Summary of one abstracted pipeline.
#[derive(Debug, Clone)]
pub struct PipelineGraphInfo {
    /// The pipeline IRI (= its named graph IRI).
    pub graph_iri: String,
    /// The dataset the pipeline belongs to (its metadata's).
    pub dataset: String,
    pub statements: usize,
    /// Root libraries used (`pandas`, `sklearn`, …).
    pub libraries: Vec<String>,
    /// Each statement's distinct predicted reads, as `(statement index,
    /// read)`. They stay in memory: the linker turns the verified ones
    /// into `readsTable`/`readsColumn` edges and the rest never reach the
    /// store.
    pub reads: Vec<(usize, PredictedRead)>,
}

/// Abstract one pipeline script into the store (Algorithm 1's worker plus
/// the metadata subgraph of the main node), its predicted reads linked
/// against the schema the store holds.
pub fn abstract_pipeline(
    store: &mut QuadStore,
    stats: &mut AbstractionStats,
    docs: &LibraryDocs,
    md: &PipelineMetadata,
    source: &str,
) -> Result<PipelineGraphInfo, PyParseError> {
    let analyzed = analyze(source)?;
    let mut batch = Vec::new();
    let info = emit_pipeline_quads(&mut batch, stats, docs, md, &analyzed, &Vocab::new());
    Linker::new(store).link(&info, &mut batch);
    store.extend(batch);
    Ok(info)
}

/// Append an already-analysed pipeline's quads to a batch (lets callers
/// parallelise analysis and bulk-load many pipelines in one
/// [`QuadStore::extend`] call). Its predicted reads come back on the
/// returned info, for [`Linker::link`].
pub fn emit_pipeline_quads(
    out: &mut Vec<Quad>,
    stats: &mut AbstractionStats,
    docs: &LibraryDocs,
    md: &PipelineMetadata,
    analyzed: &AnalyzedScript,
    vocab: &Vocab,
) -> PipelineGraphInfo {
    let pipe_iri = res::pipeline(&md.dataset, &md.id);
    let graph = GraphName::named(pipe_iri.clone());
    let mut libraries: Vec<String> = Vec::new();
    let mut reads: Vec<(usize, PredictedRead)> = Vec::new();

    // --- pipeline metadata subgraph (default graph) ---
    let p = Term::iri(pipe_iri.clone());
    out.push(Quad::new(p.clone(), vocab.rdf_type.clone(), vocab.class(class::PIPELINE)));
    stats.add(Aspect::RdfNodeTypes, 1);
    let meta_triples = [
        (vocab.rdfs_label.clone(), Term::string(md.title.clone())),
        (vocab.data(data_prop::HAS_AUTHOR), Term::string(md.author.clone())),
        (vocab.data(data_prop::HAS_VOTES), Term::integer(md.votes as i64)),
        (vocab.data(data_prop::HAS_SCORE), Term::double(md.score)),
        (vocab.data(data_prop::HAS_NAME), Term::string(md.task.clone())),
        (
            vocab.obj(object_prop::ABOUT_DATASET),
            Term::iri(res::dataset(&md.dataset)),
        ),
    ];
    for (pred, obj) in meta_triples {
        out.push(Quad::new(p.clone(), pred, obj));
        stats.add(Aspect::PipelineMetadata, 1);
    }

    // --- documentation-driven variable typing ---
    // seed with constructor classes found by static analysis
    let mut var_types: HashMap<String, String> = analyzed.var_classes.clone();

    // --- statement subgraph (named graph) ---
    for info in &analyzed.statements {
        let s_iri = res::statement(&pipe_iri, info.index);
        let s = Term::iri(s_iri.clone());
        // (predicate, object, aspect) triples for this statement, inserted
        // in one pass at the end of the loop body
        let mut triples: Vec<(Term, Term, Aspect)> = Vec::new();
        let mut quad = |pred: Term, obj: Term, aspect: Aspect| {
            triples.push((pred, obj, aspect));
        };

        quad(vocab.rdf_type.clone(), vocab.class(class::STATEMENT), Aspect::RdfNodeTypes);
        quad(
            vocab.data(data_prop::HAS_TEXT),
            Term::string(info.text.clone()),
            Aspect::StatementText,
        );
        quad(
            vocab.data(data_prop::HAS_CONTROL_FLOW),
            Term::string(info.control_flow.label()),
            Aspect::ControlFlowType,
        );
        if info.index + 1 < analyzed.statements.len() {
            let next = res::statement(&pipe_iri, info.index + 1);
            quad(
                vocab.obj(object_prop::NEXT_STATEMENT),
                Term::iri(next),
                Aspect::CodeFlow,
            );
        }
        for &from in &info.data_flow_from {
            let from_iri = res::statement(&pipe_iri, from);
            out.push(Quad::in_graph(
                Term::iri(from_iri),
                vocab.obj(object_prop::HAS_DATA_FLOW_TO),
                s.clone(),
                graph.clone(),
            ));
            stats.add(Aspect::DataFlow, 1);
        }

        // --- calls: resolve through imports, var classes, and docs ---
        for call in &info.calls {
            let resolved = call.resolved.clone().or_else(|| {
                let receiver = call.receiver_var.as_ref()?;
                let ty = var_types.get(receiver)?;
                Some(format!("{}.{}", ty, call.path[1..].join(".")))
            });
            let Some(resolved) = resolved else { continue };
            let entry = docs.resolve(&resolved);

            quad(
                vocab.obj(object_prop::CALLS_FUNCTION),
                Term::iri(res::library(&resolved)),
                Aspect::LibraryCalls,
            );
            let root = resolved.split('.').next().unwrap_or("").to_string();
            if !root.is_empty() && !libraries.contains(&root) {
                libraries.push(root);
            }

            // documentation enrichment: parameter names, defaults, and
            // return-type propagation (Algorithm 1 lines 9–13)
            if let Some(entry) = entry {
                let enriched = docs.enrich_parameters(entry, &call.args, &call.kwargs);
                for (name, value, _explicit) in &enriched {
                    quad(
                        vocab.data(data_prop::HAS_PARAMETER),
                        Term::string(format!("{name}={value}")),
                        Aspect::FuncParameters,
                    );
                }
                if let (Some(ret), [first_def, ..]) =
                    (&entry.return_type, info.defines.as_slice())
                {
                    if ret != "self" && info.defines.len() == 1 {
                        var_types.insert(first_def.clone(), ret.clone());
                    }
                }
            } else {
                // undocumented call: keep the explicit arguments as written
                for (i, value) in call.args.iter().enumerate() {
                    quad(
                        vocab.data(data_prop::HAS_PARAMETER),
                        Term::string(format!("arg{i}={value}")),
                        Aspect::FuncParameters,
                    );
                }
                for (name, value) in &call.kwargs {
                    quad(
                        vocab.data(data_prop::HAS_PARAMETER),
                        Term::string(format!("{name}={value}")),
                        Aspect::FuncParameters,
                    );
                }
            }
        }

        // --- dataset usage analysis (Algorithm 1 lines 14–17): every
        // mention counts toward Table 4, each distinct read is kept once
        let tables = info.dataset_reads.iter().map(|path| {
            (PredictedRead::Table(table_name_from_path(path)), Aspect::DatasetReads)
        });
        let columns = info.column_reads.iter().chain(&info.column_writes).map(|(_, column)| {
            (PredictedRead::Column(column.clone()), Aspect::ColumnReads)
        });
        let first = reads.len();
        for (read, aspect) in tables.chain(columns) {
            stats.add(aspect, 1);
            if !reads[first..].iter().any(|(_, seen)| *seen == read) {
                reads.push((info.index, read));
            }
        }

        for (pred, obj, aspect) in triples {
            out.push(Quad::in_graph(s.clone(), pred, obj, graph.clone()));
            stats.add(aspect, 1);
        }
    }

    PipelineGraphInfo {
        graph_iri: pipe_iri,
        dataset: md.dataset.clone(),
        statements: analyzed.statements.len(),
        libraries,
        reads,
    }
}

/// File stem of a dataset read path: `titanic/train.csv` → `train`.
pub fn table_name_from_path(path: &str) -> String {
    let file = path.rsplit(['/', '\\']).next().unwrap_or(path);
    file.rsplit_once('.')
        .map(|(stem, _)| stem)
        .unwrap_or(file)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_rdf::QuadPattern;

    const SCRIPT: &str = r#"
import pandas as pd
from sklearn.ensemble import RandomForestClassifier
df = pd.read_csv('titanic/train.csv')
X = df.drop('Survived', axis=1)
y = df['Survived']
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X, y)
"#;

    fn md() -> PipelineMetadata {
        PipelineMetadata {
            id: "p1".into(),
            dataset: "titanic".into(),
            title: "Titanic survival".into(),
            author: "alice".into(),
            votes: 120,
            score: 0.9,
            task: "classification".into(),
        }
    }

    fn build() -> (QuadStore, AbstractionStats, PipelineGraphInfo) {
        let mut store = QuadStore::new();
        let mut stats = AbstractionStats::default();
        let docs = LibraryDocs::builtin();
        let info = abstract_pipeline(&mut store, &mut stats, &docs, &md(), SCRIPT).unwrap();
        (store, stats, info)
    }

    #[test]
    fn creates_named_graph_per_pipeline() {
        let (store, _, info) = build();
        assert!(store.named_graphs().contains(&info.graph_iri));
        assert_eq!(info.statements, 7);
    }

    #[test]
    fn return_type_propagates_to_method_calls() {
        // df = pd.read_csv(...) types df as pandas.DataFrame, so df.drop
        // resolves to pandas.DataFrame.drop — the paper's motivating case.
        let (store, _, _) = build();
        let drop_iri = res::library("pandas.DataFrame.drop");
        let hits = store
            .match_pattern(&QuadPattern::any().with_object(Term::iri(drop_iri)))
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn implicit_and_default_parameters_are_recorded() {
        let (store, _, _) = build();
        let params: Vec<String> = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri(data_prop::iri(data_prop::HAS_PARAMETER))),
            )
            .filter_map(|q| q.object.as_literal().map(|l| l.lexical.clone()))
            .collect();
        assert!(params.iter().any(|p| p == "n_estimators=50"), "{params:?}");
        assert!(params.iter().any(|p| p == "max_depth=10"));
        // default appended for criterion
        assert!(params.iter().any(|p| p == "criterion='gini'"));
    }

    #[test]
    fn dataset_and_column_reads_predicted() {
        let (_, stats, info) = build();
        // `df = pd.read_csv(..)` is statement 2, `y = df['Survived']` 4
        assert!(info.reads.contains(&(2, PredictedRead::Table("train".into()))));
        assert!(info.reads.contains(&(4, PredictedRead::Column("Survived".into()))));
        assert!(stats.get(Aspect::DatasetReads) >= 1);
        assert!(stats.get(Aspect::ColumnReads) >= 1);
    }

    /// A statement that names a column twice predicts it once, and Table 4
    /// counts both mentions.
    #[test]
    fn reads_are_distinct_per_statement() {
        let source = "import pandas as pd\n\
                      df = pd.read_csv('t/a.csv')\n\
                      df['x'] = df['x'] + 1\n\
                      y = df['x']\n";
        let analyzed = analyze(source).unwrap();
        let mut stats = AbstractionStats::default();
        let info = emit_pipeline_quads(
            &mut Vec::new(),
            &mut stats,
            &LibraryDocs::builtin(),
            &md(),
            &analyzed,
            &Vocab::new(),
        );
        let x = PredictedRead::Column("x".into());
        let statements: Vec<usize> =
            info.reads.iter().filter(|(_, read)| *read == x).map(|(i, _)| *i).collect();
        assert_eq!(statements, [2, 3]);
        assert_eq!(stats.get(Aspect::ColumnReads), 3);
    }

    #[test]
    fn code_and_data_flow_edges() {
        let (store, stats, info) = build();
        let next = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri(object_prop::iri(object_prop::NEXT_STATEMENT))),
            )
            .count();
        assert_eq!(next, info.statements - 1);
        assert!(stats.get(Aspect::DataFlow) > 0);
    }

    #[test]
    fn metadata_in_default_graph() {
        let (store, _, info) = build();
        let votes = store
            .match_pattern(
                &QuadPattern::any()
                    .with_subject(Term::iri(info.graph_iri.clone()))
                    .with_predicate(Term::iri(data_prop::iri(data_prop::HAS_VOTES)))
                    .with_graph(GraphName::Default),
            )
            .count();
        assert_eq!(votes, 1);
    }

    #[test]
    fn libraries_used() {
        let (_, _, info) = build();
        assert!(info.libraries.contains(&"pandas".to_string()));
        assert!(info.libraries.contains(&"sklearn".to_string()));
    }

    #[test]
    fn table_name_extraction() {
        assert_eq!(table_name_from_path("titanic/train.csv"), "train");
        assert_eq!(table_name_from_path("data.csv"), "data");
        assert_eq!(table_name_from_path("deep/path/to/file.parquet"), "file");
        assert_eq!(table_name_from_path("noext"), "noext");
    }

    #[test]
    fn stats_merge_and_total() {
        let (_, stats, _) = build();
        let mut merged = AbstractionStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.total(), stats.total() * 2);
    }
}
