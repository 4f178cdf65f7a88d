//! The Statistics Manager and Model Manager (§2.2, §5).
//!
//! "The *Statistics Manager* helps collect and manage statistics about the
//! system and the LiDS graph. Finally, the *Model Manager* enables data
//! scientists to run analyses and train models directly on the LiDS graph
//! … Users can upload their models, explore the available ones, and use
//! them in their applications."

use std::collections::HashMap;

use lids_exec::LidsResult;

use crate::dataframe::DataFrame;
use crate::platform::KgLids;

/// A snapshot of platform statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformStatistics {
    pub triples: usize,
    pub unique_terms: usize,
    pub datasets: usize,
    pub tables: usize,
    pub columns: usize,
    pub pipelines: usize,
    pub statements: usize,
    pub label_similarity_edges: usize,
    pub content_similarity_edges: usize,
    pub reads_column_edges: usize,
    pub store_bytes: u64,
    pub peak_memory_bytes: u64,
}

impl KgLids {
    /// §2.2 Statistics Manager: counts of every entity kind in the LiDS
    /// graph plus storage/memory figures.
    pub fn statistics(&self) -> LidsResult<PlatformStatistics> {
        let count = |pattern: String| -> LidsResult<usize> {
            let rows = self.solutions(&format!(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT (COUNT(?x) AS ?n) WHERE {{ {pattern} }}"
            ))?;
            Ok(rows.get_f64(0, "n").unwrap_or(0.0) as usize)
        };
        let count_type = |class: &str| count(format!("?x a k:{class} ."));
        let count_pred = |pred: &str| count(format!("?x k:{pred} ?o ."));
        Ok(PlatformStatistics {
            triples: self.store.len(),
            unique_terms: self.store.term_count(),
            datasets: count_type("Dataset")?,
            tables: count_type("Table")?,
            columns: count_type("Column")?,
            pipelines: count_type("Pipeline")?,
            statements: count_type("Statement")?,
            // symmetric edges are stored in both directions
            label_similarity_edges: count_pred("hasLabelSimilarity")? / 2,
            content_similarity_edges: count_pred("hasContentSimilarity")? / 2,
            reads_column_edges: count_pred("readsColumn")?,
            store_bytes: self.store.approx_bytes(),
            peak_memory_bytes: self.meter.peak(),
        })
    }

    /// Statistics rendered as a DataFrame (the interactive view).
    pub fn statistics_frame(&self) -> LidsResult<DataFrame> {
        let s = self.statistics()?;
        let mut df = DataFrame::new(vec!["statistic".into(), "value".into()]);
        for (name, value) in [
            ("triples", s.triples as u64),
            ("unique terms", s.unique_terms as u64),
            ("datasets", s.datasets as u64),
            ("tables", s.tables as u64),
            ("columns", s.columns as u64),
            ("pipelines", s.pipelines as u64),
            ("statements", s.statements as u64),
            ("label similarity edges", s.label_similarity_edges as u64),
            ("content similarity edges", s.content_similarity_edges as u64),
            ("readsColumn edges", s.reads_column_edges as u64),
            ("store bytes", s.store_bytes),
            ("peak memory bytes", s.peak_memory_bytes),
        ] {
            df.push(vec![name.to_string(), value.to_string()]);
        }
        Ok(df)
    }
}

/// Metadata of a registered model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    pub name: String,
    pub task: String,
    pub owner: String,
    pub description: String,
}

/// A model stored in the manager.
pub enum ManagedModel {
    Cleaning(lids_gnn::CleaningModel),
    Scaling(lids_gnn::ScalingModel),
    ColumnTransform(lids_gnn::ColumnTransformModel),
    /// A generic GNN usable for custom node-classification analyses.
    Custom(lids_gnn::GnnModel),
}

/// §2.2 Model Manager: a registry of models trained on (or uploaded for)
/// the LiDS graph.
#[derive(Default)]
pub struct ModelManager {
    models: HashMap<String, (ModelInfo, ManagedModel)>,
}

impl ModelManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Upload (register) a model. Replaces any previous model of the same
    /// name.
    pub fn upload(&mut self, info: ModelInfo, model: ManagedModel) {
        self.models.insert(info.name.clone(), (info, model));
    }

    /// Explore the available models.
    pub fn explore(&self) -> Vec<&ModelInfo> {
        let mut infos: Vec<&ModelInfo> = self.models.values().map(|(i, _)| i).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Fetch a model by name.
    pub fn get(&self, name: &str) -> Option<&ManagedModel> {
        self.models.get(name).map(|(_, m)| m)
    }

    /// Remove a model.
    pub fn remove(&mut self, name: &str) -> bool {
        self.models.remove(name).is_some()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{KgLidsBuilder, PipelineScript};
    use lids_kg::abstraction::PipelineMetadata;
    use lids_profiler::table::{Column, Dataset, Table};

    #[test]
    fn statistics_reflect_graph_content() {
        let ds = Dataset::new(
            "d",
            vec![Table::new(
                "t",
                vec![
                    Column::new("a", (0..20).map(|i| i.to_string()).collect()),
                    Column::new("b", (0..20).map(|i| format!("x{i}")).collect()),
                ],
            )],
        );
        let script = PipelineScript {
            metadata: PipelineMetadata {
                id: "p".into(),
                dataset: "d".into(),
                title: "p".into(),
                author: "a".into(),
                votes: 1,
                score: 0.5,
                task: "eda".into(),
            },
            source: "import pandas as pd\ndf = pd.read_csv('d/t.csv')\nx = df['a']\n".into(),
        };
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(ds)
            .with_pipelines([script])
            .bootstrap();
        let s = platform.statistics().unwrap();
        assert_eq!(s.datasets, 1);
        assert_eq!(s.tables, 1);
        assert_eq!(s.columns, 2);
        assert_eq!(s.pipelines, 1);
        assert!(s.statements >= 3);
        assert_eq!(s.reads_column_edges, 1);
        assert!(s.triples > 50);
        assert!(s.store_bytes > 0);

        let df = platform.statistics_frame().unwrap();
        assert_eq!(df.column_index("statistic"), Some(0));
        assert!(df.len() >= 12);
    }

    #[test]
    fn model_manager_crud() {
        let mut mm = ModelManager::new();
        assert!(mm.is_empty());
        let examples: Vec<(Vec<f32>, lids_ml::CleaningOp)> = (0..8)
            .map(|i| {
                let op = lids_ml::CleaningOp::ALL[i % 2];
                (vec![op.index() as f32; 8], op)
            })
            .collect();
        let model = lids_gnn::CleaningModel::train(&examples, 3);
        mm.upload(
            ModelInfo {
                name: "cleaning-v1".into(),
                task: "data cleaning".into(),
                owner: "alice".into(),
                description: "trained on the Kaggle corpus".into(),
            },
            ManagedModel::Cleaning(model),
        );
        assert_eq!(mm.len(), 1);
        assert_eq!(mm.explore()[0].owner, "alice");
        assert!(matches!(mm.get("cleaning-v1"), Some(ManagedModel::Cleaning(_))));
        assert!(mm.get("nope").is_none());
        assert!(mm.remove("cleaning-v1"));
        assert!(mm.is_empty());
    }
}
