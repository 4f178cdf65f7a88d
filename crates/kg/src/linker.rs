//! The Global Graph Linker (Section 2.1 / 3.1).
//!
//! Pipeline abstraction emits *predicted* table/column reads as literals.
//! The linker verifies each prediction against the Data Global Schema of
//! the pipeline's dataset: verified tables/columns become `readsTable` /
//! `readsColumn` edges into the dataset graph; unverified predictions
//! (user-defined columns like `NormalizedAge` in Figure 3) are removed.

use std::collections::HashMap;

use lids_rdf::{GraphName, Quad, QuadPattern, QuadStore, Term};

use crate::ontology::{class, object_prop, RDF_TYPE};
#[cfg(test)]
use crate::ontology::res;

/// Linking statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub tables_linked: usize,
    pub columns_linked: usize,
    pub predictions_dropped: usize,
}

/// Link every abstracted pipeline in the store against the data global
/// schema. Idempotent: consumes all `predictedRead` literals.
///
/// Mutations are batched: verified edges accumulate in a `Vec<Quad>` that
/// is bulk-loaded once at the end ([`QuadStore::extend`]), and consumed
/// predictions leave in one [`QuadStore::retract`] after it. The read
/// side (schema index, pipeline metadata, per-graph predictions) only
/// touches quads disjoint from both batches, so deferral preserves the
/// per-quad semantics.
pub fn link_pipelines(store: &mut QuadStore) -> LinkStats {
    let mut stats = LinkStats::default();

    // dataset → (table name → table IRI, column name → column IRIs)
    let mut schema_index: HashMap<String, DatasetSchema> = HashMap::new();
    build_schema_index(store, &mut schema_index);

    // pipeline → dataset from the metadata subgraph
    let pipelines: Vec<(String, String)> = store
        .match_pattern(
            &QuadPattern::any()
                .with_predicate(Term::iri(object_prop::iri(object_prop::ABOUT_DATASET))),
        )
        .filter_map(|q| {
            let p = q.subject.as_iri()?.to_string();
            let d = q.object.as_iri()?.to_string();
            Some((p, d))
        })
        .collect();

    let reads_table = Term::iri(object_prop::iri(object_prop::READS_TABLE));
    let reads_column = Term::iri(object_prop::iri(object_prop::READS_COLUMN));
    let mut edges: Vec<Quad> = Vec::new();
    let mut consumed: Vec<Quad> = Vec::new();
    for (pipe_iri, dataset_iri) in pipelines {
        let graph = GraphName::named(pipe_iri.clone());
        let schema = schema_index.get(&dataset_iri);
        let predictions: Vec<Quad> = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri(object_prop::iri(object_prop::PREDICTED_READ)))
                    .with_graph(graph.clone()),
            )
            .collect();
        for quad in predictions {
            let Some(lit) = quad.object.as_literal() else { continue };
            let mut linked = false;
            if let Some(schema) = schema {
                if let Some(table) = lit.lexical.strip_prefix("table:") {
                    if let Some(table_iri) = schema.tables.get(table) {
                        edges.push(Quad::in_graph(
                            quad.subject.clone(),
                            reads_table.clone(),
                            Term::iri(table_iri.clone()),
                            graph.clone(),
                        ));
                        stats.tables_linked += 1;
                        linked = true;
                    }
                } else if let Some(column) = lit.lexical.strip_prefix("column:") {
                    if let Some(col_iris) = schema.columns.get(column) {
                        for col_iri in col_iris {
                            edges.push(Quad::in_graph(
                                quad.subject.clone(),
                                reads_column.clone(),
                                Term::iri(col_iri.clone()),
                                graph.clone(),
                            ));
                            stats.columns_linked += 1;
                        }
                        linked = true;
                    }
                }
            }
            if !linked {
                stats.predictions_dropped += 1;
            }
            consumed.push(quad);
        }
    }
    store.extend(edges);
    store.retract(consumed);
    stats
}

struct DatasetSchema {
    /// table name → table IRI
    tables: HashMap<String, String>,
    /// column name → column IRIs (a name can recur across tables)
    columns: HashMap<String, Vec<String>>,
}

fn build_schema_index(store: &QuadStore, index: &mut HashMap<String, DatasetSchema>) {
    // tables: ?t isPartOf ?d where ?t a Table
    let tables: Vec<(String, String)> = store
        .match_pattern(
            &QuadPattern::any()
                .with_predicate(Term::iri(RDF_TYPE))
                .with_object(Term::iri(class::iri(class::TABLE))),
        )
        .filter_map(|q| {
            let t_iri = q.subject.as_iri()?.to_string();
            let d_iri = store
                .match_pattern(
                    &QuadPattern::any()
                        .with_subject(q.subject.clone())
                        .with_predicate(Term::iri(object_prop::iri(object_prop::IS_PART_OF))),
                )
                .next()?
                .object
                .as_iri()?
                .to_string();
            Some((t_iri, d_iri))
        })
        .collect();

    for (t_iri, d_iri) in tables {
        let t_name = t_iri.rsplit('/').next().unwrap_or("").to_string();
        let entry = index.entry(d_iri).or_insert_with(|| DatasetSchema {
            tables: HashMap::new(),
            columns: HashMap::new(),
        });
        // columns of this table
        for q in store.match_pattern(
            &QuadPattern::any()
                .with_subject(Term::iri(t_iri.clone()))
                .with_predicate(Term::iri(object_prop::iri(object_prop::HAS_COLUMN))),
        ) {
            if let Some(c_iri) = q.object.as_iri() {
                let c_name = c_iri.rsplit('/').next().unwrap_or("").to_string();
                entry.columns.entry(c_name).or_default().push(c_iri.to_string());
            }
        }
        entry.tables.insert(t_name, t_iri);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{abstract_pipeline, AbstractionStats, PipelineMetadata};
    use crate::docs::LibraryDocs;
    use crate::schema::{build_data_global_schema, SchemaConfig};
    use lids_embed::{ColrModels, WordEmbeddings};
    use lids_profiler::table::{Column, Table};
    use lids_profiler::{profile_table, ProfilerConfig};

    const SCRIPT: &str = r#"
import pandas as pd
df = pd.read_csv('titanic/train.csv')
y = df['Survived']
age = df['Age']
df['NormalizedAge'] = age
"#;

    fn build_linked() -> (QuadStore, LinkStats) {
        let mut store = QuadStore::new();
        // dataset side
        let table = Table::new(
            "train",
            vec![
                Column::new("Survived", vec!["0".into(), "1".into()]),
                Column::new("Age", vec!["22".into(), "30".into()]),
            ],
        );
        let profiles = profile_table(
            "titanic",
            &table,
            &ColrModels::untrained(1),
            &WordEmbeddings::new(),
            &ProfilerConfig::default(),
            None,
        );
        build_data_global_schema(
            &mut store,
            &profiles,
            &SchemaConfig::default(),
            &WordEmbeddings::new(),
        );
        // pipeline side
        let md = PipelineMetadata {
            id: "p1".into(),
            dataset: "titanic".into(),
            title: "t".into(),
            author: "a".into(),
            votes: 1,
            score: 0.5,
            task: "classification".into(),
        };
        let mut stats = AbstractionStats::default();
        abstract_pipeline(&mut store, &mut stats, &LibraryDocs::builtin(), &md, SCRIPT).unwrap();
        let link_stats = link_pipelines(&mut store);
        (store, link_stats)
    }

    #[test]
    fn verified_predictions_become_edges() {
        let (store, stats) = build_linked();
        assert_eq!(stats.tables_linked, 1);
        // Survived + Age verified; NormalizedAge dropped
        assert_eq!(stats.columns_linked, 2);
        assert_eq!(stats.predictions_dropped, 1);

        let reads_col = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri(object_prop::iri(object_prop::READS_COLUMN))),
            )
            .count();
        assert_eq!(reads_col, 2);
        let reads_table: Vec<Quad> = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri(object_prop::iri(object_prop::READS_TABLE))),
            )
            .collect();
        assert_eq!(reads_table.len(), 1);
        assert_eq!(
            reads_table[0].object.as_iri().unwrap(),
            res::table("titanic", "train")
        );
    }

    #[test]
    fn predictions_are_consumed() {
        let (store, _) = build_linked();
        let leftover = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri(object_prop::iri(object_prop::PREDICTED_READ))),
            )
            .count();
        assert_eq!(leftover, 0);
    }

    #[test]
    fn linking_is_idempotent() {
        let (mut store, _) = build_linked();
        let again = link_pipelines(&mut store);
        assert_eq!(again, LinkStats::default());
    }

    #[test]
    fn pipeline_without_schema_drops_all() {
        let mut store = QuadStore::new();
        let md = PipelineMetadata {
            id: "p9".into(),
            dataset: "ghost".into(),
            title: "t".into(),
            author: "a".into(),
            votes: 0,
            score: 0.0,
            task: "eda".into(),
        };
        let mut stats = AbstractionStats::default();
        abstract_pipeline(&mut store, &mut stats, &LibraryDocs::builtin(), &md, SCRIPT).unwrap();
        let link = link_pipelines(&mut store);
        assert_eq!(link.tables_linked + link.columns_linked, 0);
        assert!(link.predictions_dropped >= 3);
    }
}
