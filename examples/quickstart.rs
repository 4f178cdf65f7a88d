//! Quickstart: bootstrap KGLiDS over a dataset and a pipeline script, then
//! query the LiDS graph.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use kglids::{KgLidsBuilder, PipelineScript};
use lids_kg::abstraction::PipelineMetadata;
use lids_profiler::table::{Column, Dataset, Table};

fn main() {
    // 1. A dataset: the Titanic-style table from the paper's Figure 3.
    let titanic = Dataset::new(
        "titanic",
        vec![Table::new(
            "train",
            vec![
                Column::new("Survived", ["0", "1", "1", "0", "1"].iter().map(|s| s.to_string()).collect()),
                Column::new("Age", ["22", "38", "26", "35", "28"].iter().map(|s| s.to_string()).collect()),
                Column::new("Sex", ["male", "female", "female", "male", "female"].iter().map(|s| s.to_string()).collect()),
                Column::new("Fare", ["7.25", "71.28", "7.92", "53.10", "8.05"].iter().map(|s| s.to_string()).collect()),
            ],
        )],
    );

    // 2. The pipeline of Figure 3 (as a script + Kaggle-style metadata).
    let pipeline = PipelineScript {
        metadata: PipelineMetadata {
            id: "titanic-survival".into(),
            dataset: "titanic".into(),
            title: "Titanic survival prediction".into(),
            author: "alice".into(),
            votes: 412,
            score: 0.83,
            task: "classification".into(),
        },
        source: r#"
import pandas as pd
from sklearn.impute import SimpleImputer
from sklearn.preprocessing import LabelEncoder, StandardScaler
from sklearn.ensemble import RandomForestClassifier
from sklearn.model_selection import train_test_split
from sklearn.metrics import accuracy_score

df = pd.read_csv('titanic/train.csv')
X, y = df.drop('Survived', axis=1), df['Survived']
imputer = SimpleImputer(strategy='most_frequent')
X['Sex'] = LabelEncoder().fit_transform(X['Sex'])
X = imputer.fit_transform(X)
scaler = StandardScaler()
X['NormalizedAge'] = scaler.fit_transform(X['Age'])
X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2)
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X_train, y_train)
print(accuracy_score(y_test, clf.predict(X_test)))
"#
        .to_string(),
    };

    // 3. Bootstrap: the KG Governor profiles, abstracts, and links.
    let (platform, stats) = KgLidsBuilder::new()
        .with_dataset(titanic)
        .with_pipelines([pipeline])
        .bootstrap();

    println!("LiDS graph bootstrapped:");
    println!("  columns profiled      {}", stats.columns_profiled);
    println!("  pipelines abstracted  {}", stats.pipelines_abstracted);
    println!("  triples               {}", stats.triples);
    println!(
        "  linked: {} table reads, {} column reads; {} predictions dropped",
        stats.links.tables_linked, stats.links.columns_linked, stats.links.predictions_dropped
    );
    println!("  {}", stats.report.summary());
    println!();

    // 4. Ad-hoc SPARQL: which columns does the pipeline read?
    let df = platform
        .query(
            "PREFIX k: <http://kglids.org/ontology/> \
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
             SELECT DISTINCT ?column WHERE { \
                GRAPH ?g { ?s k:readsColumn ?c . } \
                ?c rdfs:label ?column . \
             } ORDER BY ?column",
        )
        .expect("query parses");
    println!("columns the pipeline reads (via the graph linker):");
    println!("{}", df.to_text());

    // 5. The implicit hyperparameter the documentation analysis recovered
    //    (`RandomForestClassifier(50, …)` → `n_estimators=50`).
    let hp = platform
        .recommend_hyperparameters("titanic", "RandomForestClassifier")
        .expect("harvest queries run");
    println!("hyperparameters harvested for RandomForestClassifier:");
    println!("{}", hp.to_text());

    // 6. Keyword table search (§5) — typed result like every query path.
    let hits = platform.search_tables(&[&["titanic"]]).expect("search query runs");
    println!("search_tables(titanic):");
    println!("{}", hits.to_text());
}
