//! On-demand automation interfaces (§4, §5): cleaning, transformation, and
//! AutoML recommendations driven by GNN models trained on the LiDS graph.
//!
//! The models train on examples *harvested from the knowledge graph*: each
//! abstracted pipeline's cleaning/scaling/transformation and estimator
//! calls, joined with its dataset's stored CoLR embeddings — "KGLiDS could
//! be queried to fetch the cleaning or transformation operations and
//! dataset nodes … used as input" (§4.1). A model belongs to one store
//! generation: it trains on first use behind `&self`, and an ingest run
//! that changes the lake drops it, so the next call answers for the lake
//! as it is now. Every harvest is a governed query: a failed one is the
//! caller's typed error, and nothing is cached from it.

use std::collections::HashMap;
use std::sync::OnceLock;

use lids_automl::{AutoMl, Config, ModelKind, SeenDataset};
use lids_exec::LidsResult;
use lids_gnn::{CleaningModel, ColumnTransformModel, ScalingModel};
use lids_ml::{CleaningOp, ColumnTransform, MlFrame, ScalingOp};
use lids_profiler::Table;
use lids_sparql::Solutions;

use crate::dataframe::DataFrame;
use crate::discovery::short_name;
use crate::platform::KgLids;

/// One harvested estimator call:
/// `(dataset, estimator, votes, score, parameters)`.
type EstimatorCall = (String, String, u32, f64, Vec<(String, String)>);
/// Per-dataset estimator usage: `(estimator, votes, parameters)`.
type EstimatorUsage = (String, u32, Vec<(String, String)>);
/// Per-pipeline accumulator: `(dataset, votes, score, parameters)`.
type PipelineParams = (String, u32, f64, Vec<(String, String)>);

/// Fewer harvested examples than this and a model is not trained: its
/// recommender answers with the fallback.
const MIN_EXAMPLES: usize = 4;

/// The §4 models of one store generation. Each slot is filled on first
/// use: with the model trained on the harvested examples, or with `None`
/// (the fallback) when there are fewer than [`MIN_EXAMPLES`].
#[derive(Default)]
pub(crate) struct Models {
    cleaning: OnceLock<Option<CleaningModel>>,
    scaling: OnceLock<Option<ScalingModel>>,
    column: OnceLock<Option<ColumnTransformModel>>,
}

/// The model in `slot`, trained by `train` on what `harvest` returns when
/// the slot is still empty. A harvest error leaves the slot empty.
fn trained<M, Op>(
    slot: &OnceLock<Option<M>>,
    harvest: impl FnOnce() -> LidsResult<Vec<(Vec<f32>, Op)>>,
    train: impl FnOnce(&[(Vec<f32>, Op)]) -> M,
) -> LidsResult<Option<&M>> {
    if let Some(model) = slot.get() {
        return Ok(model.as_ref());
    }
    let examples = harvest()?;
    let model = (examples.len() >= MIN_EXAMPLES).then(|| train(&examples));
    Ok(slot.get_or_init(|| model).as_ref())
}

/// A transformation recommendation: one table-level scaling operation plus
/// per-column unary transforms (§4.3's two-step formulation).
#[derive(Debug, Clone, PartialEq)]
pub struct TransformRecommendation {
    pub scaling: ScalingOp,
    /// `(column name, transform)` for numeric columns.
    pub column_transforms: Vec<(String, ColumnTransform)>,
}

impl KgLids {
    // ------------------------------------------------------------ cleaning

    /// §5 `recommend_cleaning_operations(df)`: ranked cleaning operations
    /// for an unseen table. Trains the cleaning GNN from the LiDS graph on
    /// first use in a store generation; falls back to `SimpleImputer` when
    /// the graph holds too few cleaning examples.
    pub fn recommend_cleaning_operations(
        &self,
        table: &Table,
    ) -> LidsResult<Vec<(CleaningOp, f32)>> {
        let model = trained(
            &self.models.cleaning,
            || self.harvest_examples(&CLEANING_OPS, CleaningOp::from_label, true),
            |examples| CleaningModel::train(examples, 0x11D5),
        )?;
        let embedding = self.embed_table_missing(table);
        Ok(match model {
            Some(model) => model.recommend_ranked(&embedding),
            None => vec![(CleaningOp::SimpleImputer, 1.0)],
        })
    }

    /// §5 `apply_cleaning_operations(op, df)`: apply a cleaning operation,
    /// returning the cleaned frame.
    pub fn apply_cleaning_operations(&self, op: CleaningOp, frame: &MlFrame) -> MlFrame {
        op.apply(frame)
    }

    // ------------------------------------------------------- transformation

    /// §5 `recommend_transformations(dataset)`: a scaling operation for the
    /// whole table plus unary transforms per numeric column.
    pub fn recommend_transformations(&self, table: &Table) -> LidsResult<TransformRecommendation> {
        let scaling_model = trained(
            &self.models.scaling,
            || self.harvest_examples(&SCALING_OPS, ScalingOp::from_label, false),
            |examples| ScalingModel::train(examples, 0x5CA1),
        )?;
        let column_model = trained(
            &self.models.column,
            || self.harvest_column_transform_examples(),
            |examples| ColumnTransformModel::train(examples, 0xC01),
        )?;
        let table_emb = self.embed_table(table);
        let scaling = match scaling_model {
            Some(m) => m.recommend(&table_emb),
            None => ScalingOp::StandardScaler,
        };
        let mut column_transforms = Vec::new();
        for (name, fgt, emb) in self.embed_columns(table) {
            if !fgt.is_numeric() || emb.is_empty() {
                continue;
            }
            let t = match column_model {
                Some(m) => m.recommend(&emb),
                None => ColumnTransform::None,
            };
            column_transforms.push((name, t));
        }
        Ok(TransformRecommendation { scaling, column_transforms })
    }

    /// §5 apply-transformations: scaling first, then unary column
    /// transforms (the order §4.3 motivates).
    pub fn apply_transformations(
        &self,
        rec: &TransformRecommendation,
        frame: &MlFrame,
    ) -> MlFrame {
        // unary transforms reshape distributions; scaling then normalises
        // magnitudes (paper applies scaling first, transforms on the result)
        let mut out = rec.scaling.apply(frame);
        for (column, transform) in &rec.column_transforms {
            if let Some(j) = out.feature_names.iter().position(|n| n == column) {
                transform.apply_column(&mut out, j);
            }
        }
        out
    }

    // ------------------------------------------------------------- AutoML

    /// §5 `recommend_ml_models(dataset, task)`: estimators used on the
    /// given dataset by abstracted pipelines, with votes and scores.
    pub fn recommend_ml_models(&self, dataset: &str) -> LidsResult<DataFrame> {
        let mut df = DataFrame::new(vec!["model".into(), "votes".into(), "score".into()]);
        let mut per_model: HashMap<String, (u32, f64)> = HashMap::new();
        for (ds, model, votes, score, _params) in self.estimator_calls()? {
            if ds != dataset {
                continue;
            }
            let entry = per_model.entry(model).or_insert((0, 0.0));
            entry.0 += votes;
            entry.1 = entry.1.max(score);
        }
        let mut ranked: Vec<(String, (u32, f64))> = per_model.into_iter().collect();
        ranked.sort_by_key(|(_, (votes, _))| std::cmp::Reverse(*votes));
        for (model, (votes, score)) in ranked {
            df.push(vec![model, votes.to_string(), format!("{score:.3}")]);
        }
        Ok(df)
    }

    /// §5 `recommend_hyperparameters(model_info)`: the hyperparameters used
    /// with an estimator on a dataset, most-voted first.
    pub fn recommend_hyperparameters(&self, dataset: &str, model: &str) -> LidsResult<DataFrame> {
        let mut df = DataFrame::new(vec!["parameter".into(), "value".into(), "votes".into()]);
        let mut weights: HashMap<(String, String), u32> = HashMap::new();
        for (ds, m, votes, _score, params) in self.estimator_calls()? {
            if ds != dataset || m != model {
                continue;
            }
            for (name, value) in params {
                *weights.entry((name, value)).or_insert(0) += votes.max(1);
            }
        }
        let mut ranked: Vec<((String, String), u32)> = weights.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((name, value), votes) in ranked {
            df.push(vec![name, value, votes.to_string()]);
        }
        Ok(df)
    }

    /// Build the KGpip-style AutoML knowledge base from the LiDS graph:
    /// per seen dataset, the most-voted estimator and its harvested
    /// configurations (XGBoost/LightGBM calls map to the random-forest
    /// family of the portfolio).
    pub fn automl(&self) -> LidsResult<AutoMl> {
        let mut per_dataset: HashMap<String, Vec<EstimatorUsage>> = HashMap::new();
        for (ds, model, votes, _score, params) in self.estimator_calls()? {
            per_dataset.entry(ds).or_default().push((model, votes, params));
        }
        let mut seen = Vec::new();
        for (dataset, calls) in per_dataset {
            let Some(embedding) = self.dataset_embedding(&dataset) else {
                continue;
            };
            // most-voted estimator wins
            let mut votes_per_model: HashMap<ModelKind, u32> = HashMap::new();
            for (model, votes, _) in &calls {
                if let Some(kind) = portfolio_kind(model) {
                    *votes_per_model.entry(kind).or_insert(0) += votes.max(&1);
                }
            }
            let Some((&best_model, _)) =
                votes_per_model.iter().max_by_key(|(_, &v)| v)
            else {
                continue;
            };
            // harvested configs for the winning estimator, most-voted first
            let mut configs: Vec<(u32, Config)> = calls
                .iter()
                .filter(|(m, _, _)| portfolio_kind(m) == Some(best_model))
                .map(|(_, votes, params)| {
                    let numeric: Vec<(String, f64)> = params
                        .iter()
                        .filter_map(|(k, v)| {
                            v.trim_matches('\'').parse::<f64>().ok().map(|n| (k.clone(), n))
                        })
                        .collect();
                    (*votes, Config { model: best_model, params: numeric })
                })
                .collect();
            configs.sort_by_key(|(votes, _)| std::cmp::Reverse(*votes));
            seen.push(SeenDataset {
                name: dataset,
                embedding: embedding.to_vec(),
                best_model,
                configs: configs.into_iter().map(|(_, c)| c).take(3).collect(),
            });
        }
        Ok(AutoMl::new(seen))
    }

    // ----------------------------------------------------------- harvesting

    /// All estimator calls in the graph:
    /// `(dataset, estimator, votes, score, params)`.
    fn estimator_calls(&self) -> LidsResult<Vec<EstimatorCall>> {
        let mut out = Vec::new();
        for est in ESTIMATORS {
            let q = format!(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?g ?votes ?score ?ds ?param WHERE {{ \
                    GRAPH ?g {{ ?s k:callsFunction <{}> . \
                                OPTIONAL {{ ?s k:hasParameter ?param . }} }} \
                    ?g k:hasVotes ?votes ; k:hasScore ?score ; k:aboutDataset ?ds . \
                 }}",
                lids_kg::ontology::res::library(est)
            );
            let rows = self.solutions(&q)?;
            // group parameter rows per pipeline
            let mut per_pipeline: HashMap<u32, PipelineParams> = HashMap::new();
            for row in rows.rows.iter() {
                let &[g, votes, score, ds, param] = row else { continue };
                let entry = per_pipeline.entry(g).or_insert_with(|| {
                    (
                        short_name(&rows.text(ds)),
                        number(&rows, votes) as u32,
                        number(&rows, score),
                        Vec::new(),
                    )
                });
                if let Some((name, value)) = rows.text(param).split_once('=') {
                    let pair = (name.to_string(), value.to_string());
                    if !entry.3.contains(&pair) {
                        entry.3.push(pair);
                    }
                }
            }
            let model = est.rsplit('.').next().unwrap_or(est).to_string();
            for (_, (ds, votes, score, params)) in per_pipeline {
                out.push((ds, model.clone(), votes, score, params));
            }
        }
        Ok(out)
    }

    /// Harvest `(dataset embedding, operation)` training examples for
    /// table-level operations; `missing_aware` selects the §4.2 cleaning
    /// embeddings (averages over null-containing columns).
    fn harvest_examples<Op: Copy>(
        &self,
        ops: &[(&str, &str)],
        parse: impl Fn(&str) -> Option<Op>,
        missing_aware: bool,
    ) -> LidsResult<Vec<(Vec<f32>, Op)>> {
        let mut out = Vec::new();
        for (lib_path, label) in ops {
            let Some(op) = parse(label) else { continue };
            let q = format!(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT DISTINCT ?ds WHERE {{ \
                    GRAPH ?g {{ ?s k:callsFunction <{}> . }} \
                    ?g k:aboutDataset ?ds . \
                 }}",
                lids_kg::ontology::res::library(lib_path)
            );
            let rows = self.solutions(&q)?;
            for row in rows.rows.iter() {
                let ds = short_name(&rows.text(row[0]));
                let embedding = if missing_aware {
                    self.dataset_embedding_missing(&ds)
                } else {
                    self.dataset_embedding(&ds)
                };
                if let Some(e) = embedding {
                    out.push((e.to_vec(), op));
                }
            }
        }
        Ok(out)
    }

    /// Column-transform examples: `(column embedding, transform)` for
    /// columns of datasets whose pipelines apply `np.log1p` / `np.sqrt`.
    fn harvest_column_transform_examples(&self) -> LidsResult<Vec<(Vec<f32>, ColumnTransform)>> {
        let mut out = Vec::new();
        for (lib_path, label) in COLUMN_TRANSFORMS {
            let Some(op) = ColumnTransform::from_label(label) else { continue };
            let q = format!(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT DISTINCT ?col WHERE {{ \
                    GRAPH ?g {{ ?s k:callsFunction <{}> ; k:readsColumn ?col . }} \
                 }}",
                lids_kg::ontology::res::library(lib_path)
            );
            let rows = self.solutions(&q)?;
            for row in rows.rows.iter() {
                let col_iri = rows.text(row[0]);
                if let Some(profile) = self
                    .profiles
                    .iter()
                    .find(|p| {
                        lids_kg::ontology::res::column(
                            &p.meta.dataset,
                            &p.meta.table,
                            &p.meta.column,
                        ) == col_iri
                    })
                {
                    if !profile.embedding.is_empty() {
                        out.push((profile.embedding.clone(), op));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A numeric cell's value (0 when it holds no number).
fn number(rows: &Solutions, cell: u32) -> f64 {
    rows.text(cell).parse().unwrap_or(0.0)
}

/// Cleaning operations and the library calls that mark them.
const CLEANING_OPS: [(&str, &str); 5] = [
    ("pandas.DataFrame.fillna", "Fillna"),
    ("pandas.DataFrame.interpolate", "Interpolate"),
    ("sklearn.impute.SimpleImputer", "SimpleImputer"),
    ("sklearn.impute.KNNImputer", "KNNImputer"),
    ("sklearn.impute.IterativeImputer", "IterativeImputer"),
];

/// Scaling operations.
const SCALING_OPS: [(&str, &str); 3] = [
    ("sklearn.preprocessing.StandardScaler", "StandardScaler"),
    ("sklearn.preprocessing.MinMaxScaler", "MinMaxScaler"),
    ("sklearn.preprocessing.RobustScaler", "RobustScaler"),
];

/// Column transforms.
const COLUMN_TRANSFORMS: [(&str, &str); 3] = [
    ("numpy.log1p", "log"),
    ("numpy.log", "log"),
    ("numpy.sqrt", "sqrt"),
];

/// Estimators harvested for AutoML.
const ESTIMATORS: [&str; 6] = [
    "sklearn.ensemble.RandomForestClassifier",
    "sklearn.tree.DecisionTreeClassifier",
    "sklearn.linear_model.LogisticRegression",
    "sklearn.neighbors.KNeighborsClassifier",
    "xgboost.XGBClassifier",
    "lightgbm.LGBMClassifier",
];

/// Map an estimator class name to the portfolio family (boosted trees fall
/// back to the forest family).
fn portfolio_kind(model: &str) -> Option<ModelKind> {
    ModelKind::from_label(model).or(match model {
        "XGBClassifier" | "LGBMClassifier" => Some(ModelKind::RandomForest),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeltaBatch, KgLidsBuilder, PipelineScript};
    use crate::query::QueryGuardrails;
    use lids_exec::ErrorKind;
    use lids_kg::abstraction::PipelineMetadata;
    use lids_profiler::table::{Column, Dataset};
    use std::time::Duration;

    fn dataset(name: &str, base: i64) -> Dataset {
        Dataset::new(
            name,
            vec![Table::new(
                "train",
                vec![
                    Column::new("a", (0..30).map(|i| (base + i).to_string()).collect()),
                    Column::new(
                        "b",
                        (0..30).map(|i| format!("{:.2}", base as f64 * 0.5 + i as f64)).collect(),
                    ),
                ],
            )],
        )
    }

    fn script(id: &str, ds: &str, votes: u32, body: &str) -> PipelineScript {
        PipelineScript {
            metadata: PipelineMetadata {
                id: id.into(),
                dataset: ds.into(),
                title: id.into(),
                author: "a".into(),
                votes,
                score: 0.8,
                task: "classification".into(),
            },
            source: body.to_string(),
        }
    }

    fn platform() -> KgLids {
        lake().bootstrap().0
    }

    fn lake() -> KgLidsBuilder {
        let clean1 = "import pandas as pd\nfrom sklearn.impute import SimpleImputer\n\
                      df = pd.read_csv('ds1/train.csv')\nimp = SimpleImputer(strategy='mean')\n\
                      X = imp.fit_transform(df)\n";
        let clean2 = "import pandas as pd\nfrom sklearn.impute import KNNImputer\n\
                      df = pd.read_csv('ds2/train.csv')\nimp = KNNImputer(n_neighbors=5)\n\
                      X = imp.fit_transform(df)\n";
        let scale1 = "import pandas as pd\nfrom sklearn.preprocessing import StandardScaler\n\
                      df = pd.read_csv('ds1/train.csv')\nsc = StandardScaler()\nX = sc.fit_transform(df)\n";
        let model1 = "import pandas as pd\nfrom sklearn.ensemble import RandomForestClassifier\n\
                      df = pd.read_csv('ds1/train.csv')\nclf = RandomForestClassifier(n_estimators=40, max_depth=12)\n\
                      clf.fit(df, df)\n";
        let model2 = "import pandas as pd\nfrom sklearn.linear_model import LogisticRegression\n\
                      df = pd.read_csv('ds2/train.csv')\nclf = LogisticRegression(C=10.0)\nclf.fit(df, df)\n";
        KgLidsBuilder::new()
            .with_datasets([dataset("ds1", 0), dataset("ds2", 5000)])
            .with_pipelines([
                script("p1", "ds1", 100, clean1),
                script("p2", "ds2", 80, clean2),
                script("p3", "ds1", 60, scale1),
                script("p4", "ds1", 90, model1),
                script("p5", "ds2", 70, model2),
                // extra examples so GNN training has enough nodes
                script("p6", "ds1", 10, clean1),
                script("p7", "ds2", 10, clean2),
                script("p8", "ds1", 10, clean1),
                script("p9", "ds2", 10, clean2),
            ])
    }

    const IMPUTE: &str = "import pandas as pd\nfrom sklearn.impute import SimpleImputer\n\
                          df = pd.read_csv('d/train.csv')\nX = SimpleImputer().fit_transform(df)\n";

    /// One dataset per name, each with one `SimpleImputer` pipeline: one
    /// cleaning example per dataset.
    fn imputer_lake(names: &[String]) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for (i, name) in names.iter().enumerate() {
            batch = batch
                .add_dataset(dataset(name, 100 * i as i64))
                .add_pipelines([script(&format!("p{i}"), name, 1, IMPUTE)]);
        }
        batch
    }

    fn probe() -> Table {
        Table::new("probe", vec![Column::new("a", (0..20).map(|i| i.to_string()).collect())])
    }

    fn queries_run(p: &KgLids) -> u64 {
        p.obs().metrics.snapshot().counter("query.count").unwrap_or(0)
    }

    /// A model answers for the lake as it is now: once every example it
    /// trained on is retracted, the answer is a fresh empty lake's.
    #[test]
    fn a_trained_model_goes_with_its_lake() {
        let names: Vec<String> = (0..6).map(|i| format!("ds{i}")).collect();
        let mut p = KgLids::empty();
        p.apply_delta(imputer_lake(&names));
        let trained = p.recommend_cleaning_operations(&probe()).unwrap();
        assert_eq!(trained.len(), CleaningOp::ALL.len(), "six examples train the GNN");
        p.apply_delta(DeltaBatch { remove_datasets: names, ..DeltaBatch::new() });
        let fresh = KgLids::empty().recommend_cleaning_operations(&probe()).unwrap();
        assert_eq!(fresh, vec![(CleaningOp::SimpleImputer, 1.0)]);
        assert_eq!(p.recommend_cleaning_operations(&probe()).unwrap(), fresh);
    }

    /// Too few examples cache the fallback: the harvest runs once per
    /// store generation, not once per call.
    #[test]
    fn a_thin_lake_is_harvested_once_per_generation() {
        let mut p = KgLids::empty();
        p.apply_delta(imputer_lake(&["ds0".to_string()]));
        let start = queries_run(&p);
        let first = p.recommend_cleaning_operations(&probe()).unwrap();
        assert_eq!(first, vec![(CleaningOp::SimpleImputer, 1.0)]);
        let harvest = queries_run(&p) - start;
        assert_eq!(harvest, CLEANING_OPS.len() as u64);
        assert_eq!(p.recommend_cleaning_operations(&probe()).unwrap(), first);
        assert_eq!(queries_run(&p) - start, harvest, "the second call harvests nothing");
        let stats = p.apply_delta(imputer_lake(&["ds1".to_string()]));
        assert!(stats.generation > 0);
        let before = queries_run(&p);
        p.recommend_cleaning_operations(&probe()).unwrap();
        assert_eq!(queries_run(&p) - before, harvest, "a new generation harvests again");
    }

    /// Every §4/§5 read of the lake runs the governed path: an expired
    /// deadline is each method's typed error, never a panic or a zero.
    #[test]
    fn every_lake_read_fails_typed_under_an_expired_deadline() {
        let expired = QueryGuardrails { deadline: Some(Duration::ZERO), ..Default::default() };
        let (p, _) = lake().with_query_guardrails(expired).bootstrap();
        let probe = probe();
        let kinds = [
            p.recommend_cleaning_operations(&probe).map(drop),
            p.recommend_transformations(&probe).map(drop),
            p.recommend_ml_models("ds1").map(drop),
            p.recommend_hyperparameters("ds1", "RandomForestClassifier").map(drop),
            p.automl().map(drop),
            p.get_top_k_libraries_used(5).map(drop),
            p.get_top_used_libraries(5, "classification").map(drop),
            p.get_pipelines_calling_libraries(&["pandas.read_csv"]).map(drop),
            p.statistics().map(drop),
            p.statistics_frame().map(drop),
            p.find_unionable_columns(("ds1", "train"), ("ds2", "train")).map(drop),
        ]
        .map(|result| result.map_err(|e| e.kind()));
        assert_eq!(kinds, [Err(ErrorKind::QueryTimeout); 11]);
    }

    /// A dataset name that needs IRI encoding is found under the name its
    /// pipelines give.
    #[test]
    fn names_that_need_encoding_are_harvested() {
        let model = "import pandas as pd\nfrom sklearn.ensemble import RandomForestClassifier\n\
                     df = pd.read_csv('heart failure/train.csv')\n\
                     clf = RandomForestClassifier(n_estimators=40)\nclf.fit(df, df)\n";
        let (p, _) = KgLidsBuilder::new()
            .with_dataset(dataset("heart failure", 0))
            .with_pipelines([script("p1", "heart failure", 5, model)])
            .bootstrap();
        let models = p.recommend_ml_models("heart failure").unwrap();
        assert_eq!(models.get(0, "model"), Some("RandomForestClassifier"));
        assert_eq!(p.automl().unwrap().len(), 1);
    }

    #[test]
    fn cleaning_recommendation_from_graph() {
        let p = platform();
        let probe = Table::new(
            "probe",
            vec![Column::new("a", (0..20).map(|i| i.to_string()).collect())],
        );
        let ranked = p.recommend_cleaning_operations(&probe).unwrap();
        assert!(!ranked.is_empty());
        // probabilities sum to 1 when the GNN is trained
        if ranked.len() == CleaningOp::ALL.len() {
            let total: f32 = ranked.iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn apply_cleaning_removes_nans() {
        let p = KgLids::empty();
        let frame = MlFrame {
            feature_names: vec!["x".into()],
            x: vec![vec![1.0], vec![f64::NAN], vec![3.0]],
            y: vec![0, 1, 0],
            n_classes: 2,
        };
        let cleaned = p.apply_cleaning_operations(CleaningOp::Interpolate, &frame);
        assert!(!cleaned.has_missing());
    }

    #[test]
    fn transform_recommendation_and_application() {
        let p = platform();
        let probe = Table::new(
            "probe",
            vec![
                Column::new("num", (0..20).map(|i| (i * i).to_string()).collect()),
                Column::new("txt", (0..20).map(|i| format!("v{i}")).collect()),
            ],
        );
        let rec = p.recommend_transformations(&probe).unwrap();
        // only the numeric column gets a unary transform slot
        assert_eq!(rec.column_transforms.len(), 1);
        assert_eq!(rec.column_transforms[0].0, "num");

        let frame = MlFrame {
            feature_names: vec!["num".into()],
            x: (0..10).map(|i| vec![(i * i) as f64]).collect(),
            y: (0..10).map(|i| i % 2).collect(),
            n_classes: 2,
        };
        let rec2 = TransformRecommendation {
            scaling: ScalingOp::MinMaxScaler,
            column_transforms: vec![("num".into(), ColumnTransform::Sqrt)],
        };
        let out = p.apply_transformations(&rec2, &frame);
        assert!(out.x.iter().all(|r| (0.0..=1.0 + 1e-9).contains(&r[0])));
    }

    #[test]
    fn ml_model_recommendation() {
        let p = platform();
        let df = p.recommend_ml_models("ds1").unwrap();
        assert_eq!(df.get(0, "model"), Some("RandomForestClassifier"));
        let hp = p.recommend_hyperparameters("ds1", "RandomForestClassifier").unwrap();
        let params: Vec<&str> = hp.column("parameter");
        assert!(params.contains(&"n_estimators"));
        assert!(params.contains(&"max_depth"));
        // documentation defaults harvested too
        assert!(params.contains(&"criterion"));
    }

    #[test]
    fn automl_kb_from_graph() {
        let p = platform();
        let automl = p.automl().unwrap();
        assert_eq!(automl.len(), 2);
        let e1 = p.dataset_embedding("ds1").unwrap();
        assert_eq!(automl.recommend_model(e1), ModelKind::RandomForest);
        let priors = automl.recommend_hyperparameters(e1, ModelKind::RandomForest);
        assert!(priors
            .iter()
            .any(|c| c.params.iter().any(|(k, v)| k == "n_estimators" && *v == 40.0)));
    }

    #[test]
    fn portfolio_mapping() {
        assert_eq!(portfolio_kind("XGBClassifier"), Some(ModelKind::RandomForest));
        assert_eq!(
            portfolio_kind("LogisticRegression"),
            Some(ModelKind::LogisticRegression)
        );
        assert_eq!(portfolio_kind("MysteryModel"), None);
    }
}
