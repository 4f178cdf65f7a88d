//! The Section 5 walkthrough: a data scientist predicting heart failure
//! drives every pre-defined operation in sequence — keyword search,
//! unionable columns, join-path discovery, library/pipeline discovery,
//! transformation/classifier/hyperparameter recommendation.
//!
//! ```text
//! cargo run --example heart_failure_discovery
//! ```

use kglids::{KgLidsBuilder, PipelineScript};
use lids_kg::abstraction::PipelineMetadata;
use lids_profiler::table::{Column, Dataset, Table};

fn col(name: &str, values: &[&str]) -> Column {
    Column::new(name, values.iter().map(|s| s.to_string()).collect())
}

fn main() {
    // Two heart datasets (the §5 scenario) plus a lab dataset joinable
    // through patient ids.
    let ages: &[&str] = &["63", "37", "41", "56", "57", "44", "52", "61"];
    let ids: &[&str] = &["p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08"];
    let heart_failure_prediction = Dataset::new(
        "heart-failure-prediction",
        vec![Table::new(
            "heart",
            vec![
                col("patient_id", ids),
                col("age", ages),
                col("cholesterol", &["233", "250", "204", "236", "354", "192", "294", "263"]),
                col("outcome", &["true", "false", "false", "true", "false", "false", "true", "false"]),
            ],
        )],
    );
    let heart_failure_clinical = Dataset::new(
        "heart-failure-clinical-data",
        vec![Table::new(
            "clinical",
            vec![
                col("patient_age", ages),
                col("serum_cholesterol", &["233", "250", "204", "236", "354", "192", "294", "263"]),
                col("smoker", &["true", "false", "false", "true", "true", "false", "false", "true"]),
            ],
        )],
    );
    let labs = Dataset::new(
        "patient-labs",
        vec![Table::new(
            "labs",
            vec![
                col("record_id", ids),
                col("bnp_level", &["812", "455", "300", "977", "623", "214", "740", "388"]),
            ],
        )],
    );

    // A few pipelines so library/pipeline discovery has content.
    let scripts = [
        (
            "hf-xgb", "heart-failure-prediction", 230,
            "import pandas as pd\nimport numpy as np\nfrom xgboost import XGBClassifier\nfrom sklearn.metrics import f1_score\n\
             df = pd.read_csv('heart-failure-prediction/heart.csv')\n\
             clf = XGBClassifier(n_estimators=100, max_depth=4)\nclf.fit(df, df['outcome'])\n\
             print(f1_score(df['outcome'], clf.predict(df)))\n",
        ),
        (
            "hf-rf", "heart-failure-prediction", 180,
            "import pandas as pd\nfrom sklearn.ensemble import RandomForestClassifier\nfrom sklearn.preprocessing import MinMaxScaler\n\
             df = pd.read_csv('heart-failure-prediction/heart.csv')\n\
             scaler = MinMaxScaler()\nX = scaler.fit_transform(df)\n\
             clf = RandomForestClassifier(n_estimators=60, max_depth=8)\nclf.fit(X, df['outcome'])\n",
        ),
        (
            "clinical-eda", "heart-failure-clinical-data", 40,
            "import pandas as pd\nimport seaborn as sns\nimport matplotlib.pyplot as plt\n\
             df = pd.read_csv('heart-failure-clinical-data/clinical.csv')\n\
             sns.heatmap(df)\nplt.show()\n",
        ),
    ];
    let pipelines: Vec<PipelineScript> = scripts
        .iter()
        .map(|(id, ds, votes, src)| PipelineScript {
            metadata: PipelineMetadata {
                id: id.to_string(),
                dataset: ds.to_string(),
                title: format!("{id} pipeline"),
                author: "dana".into(),
                votes: *votes,
                score: 0.8,
                task: "classification".into(),
            },
            source: src.to_string(),
        })
        .collect();

    let (platform, stats) = KgLidsBuilder::new()
        .with_datasets([heart_failure_prediction, heart_failure_clinical, labs])
        .with_pipelines(pipelines)
        .bootstrap();
    println!("{}\n", stats.report.summary());

    // --- Search Tables Based on Specific Columns ---
    // (heart AND failure) OR patients
    println!("== search_tables([['heart','failure'], ['patients']]) ==");
    let tables = platform
        .discovery()
        .search(&[&["heart", "failure"], &["patients"]])
        .expect("search query runs");
    println!("{}", tables.to_text());

    // --- Discover Unionable Columns ---
    println!("== find_unionable_columns(heart, clinical) ==");
    for hit in platform
        .find_unionable_columns(
            ("heart-failure-prediction", "heart"),
            ("heart-failure-clinical-data", "clinical"),
        )
        .expect("discovery queries run")
    {
        println!(
            "  {} ~ {}  ({} similarity {:.3})",
            hit.column_a, hit.column_b, hit.kind, hit.score
        );
    }
    println!();

    // --- Join Path Discovery (2 hops, via the fluent discovery API) ---
    println!("== discovery().hops(2).paths(heart → labs) ==");
    for path in platform
        .discovery()
        .hops(2)
        .paths(("heart-failure-prediction", "heart"), ("patient-labs", "labs"))
        .expect("in-domain discovery options")
    {
        println!("  join path: {path} ({} hops)", path.hops());
    }
    println!();

    // --- Library Discovery ---
    println!("== get_top_k_libraries_used(5) ==");
    let top = platform.get_top_k_libraries_used(5).expect("insight queries run");
    println!("{}", top.to_text());
    println!("== get_top_used_libraries(5, 'classification') ==");
    let top = platform.get_top_used_libraries(5, "classification").expect("insight queries run");
    println!("{}", top.to_text());

    // --- Pipeline Discovery ---
    println!("== get_pipelines_calling_libraries(read_csv, XGBClassifier, f1_score) ==");
    let pipes = platform
        .get_pipelines_calling_libraries(&[
            "pandas.read_csv",
            "xgboost.XGBClassifier",
            "sklearn.metrics.f1_score",
        ])
        .expect("insight queries run");
    println!("{}", pipes.to_text());

    // --- Transformation Recommendation ---
    let probe = Table::new(
        "heart",
        vec![
            col("age", &["63", "37", "41", "56"]),
            col("cholesterol", &["233", "250", "204", "236"]),
        ],
    );
    let rec = platform.recommend_transformations(&probe).expect("harvest queries run");
    println!("== recommend_transformations(heart-failure-prediction) ==");
    println!("  scaling: {}", rec.scaling.label());
    for (column, t) in &rec.column_transforms {
        println!("  column {column}: {}", t.label());
    }
    println!();

    // --- Classifier Recommendation ---
    println!("== recommend_ml_models('heart-failure-prediction') ==");
    let models =
        platform.recommend_ml_models("heart-failure-prediction").expect("harvest queries run");
    println!("{}", models.to_text());

    // --- Hyperparameter Recommendation ---
    if let Some(best) = models.get(0, "model") {
        let best = best.to_string();
        println!("== recommend_hyperparameters({best}) ==");
        let params = platform
            .recommend_hyperparameters("heart-failure-prediction", &best)
            .expect("harvest queries run");
        println!("{}", params.to_text());
    }
}
