//! Library and pipeline insight interfaces (§5): the queries behind
//! Figure 4 and the "Library Discovery" / "Pipeline Discovery" operations.

use std::collections::{HashMap, HashSet};

use lids_exec::LidsResult;
use lids_kg::ontology::res;
use lids_rdf::Term;

use crate::dataframe::DataFrame;
use crate::platform::KgLids;

impl KgLids {
    /// §5 `get_top_k_library_used(k)`: the number of unique pipelines
    /// calling each root library, descending (Figure 4's bars).
    pub fn get_top_k_libraries_used(&self, k: usize) -> LidsResult<DataFrame> {
        self.top_libraries(k, None)
    }

    /// §5 `get_top_used_libraries(k, task)`: restricted to pipelines with
    /// the given task tag.
    pub fn get_top_used_libraries(&self, k: usize, task: &str) -> LidsResult<DataFrame> {
        self.top_libraries(k, Some(task))
    }

    fn top_libraries(&self, k: usize, task: Option<&str>) -> LidsResult<DataFrame> {
        // every call edge with its pipeline (named graph IRI = pipeline IRI);
        // the task enters the text as an escaped literal
        let task_filter = match task {
            Some(task) => format!("?g k:hasName {} . ", Term::string(task)),
            None => String::new(),
        };
        let rows = self.solutions(&format!(
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT ?g ?f WHERE {{ {task_filter}GRAPH ?g {{ ?s k:callsFunction ?f . }} }}"
        ))?;
        // count DISTINCT pipelines per root library; total calls break ties
        let mut pipelines_per_lib: HashMap<String, (HashSet<u32>, usize)> = HashMap::new();
        for row in rows.rows.iter() {
            let &[pipeline, f] = row else { continue };
            if let Some(root) = library_root(&rows.text(f)) {
                let entry = pipelines_per_lib.entry(root).or_default();
                entry.0.insert(pipeline);
                entry.1 += 1;
            }
        }
        let mut counts: Vec<(String, usize, usize)> = pipelines_per_lib
            .into_iter()
            .map(|(lib, (pipes, calls))| (lib, pipes.len(), calls))
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
        counts.truncate(k);
        let mut df = DataFrame::new(vec!["library".into(), "pipelines".into(), "calls".into()]);
        for (lib, n, calls) in counts {
            df.push(vec![lib, n.to_string(), calls.to_string()]);
        }
        Ok(df)
    }

    /// §5 `get_pipelines_calling_libraries(...)`: pipelines whose graph
    /// calls **all** the given dotted library paths, with their metadata,
    /// sorted by votes descending.
    pub fn get_pipelines_calling_libraries(&self, paths: &[&str]) -> LidsResult<DataFrame> {
        if paths.is_empty() {
            return Ok(DataFrame::new(
                ["pipeline", "title", "author", "votes", "score"].map(String::from).to_vec(),
            ));
        }
        // single query: all call patterns share the graph variable
        let patterns: String = paths
            .iter()
            .enumerate()
            .map(|(i, p)| format!("?s{i} k:callsFunction <{}> . ", res::library(p)))
            .collect();
        let rows = self.solutions(&format!(
            "PREFIX k: <http://kglids.org/ontology/> \
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
             SELECT DISTINCT ?pipeline ?title ?author ?votes ?score WHERE {{ \
                GRAPH ?pipeline {{ {patterns} }} \
                ?pipeline rdfs:label ?title ; k:hasAuthor ?author ; \
                   k:hasVotes ?votes ; k:hasScore ?score . \
             }} ORDER BY DESC(?votes)"
        ))?;
        Ok(DataFrame::from_solutions(&rows))
    }
}

/// Root library name from a library resource IRI
/// (`…/resource/library/pandas/read_csv` → `pandas`).
fn library_root(iri: &str) -> Option<String> {
    let marker = "/resource/library/";
    let idx = iri.find(marker)? + marker.len();
    let rest = &iri[idx..];
    Some(rest.split('/').next().unwrap_or(rest).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{KgLidsBuilder, PipelineScript};
    use lids_kg::abstraction::PipelineMetadata;

    fn script(id: &str, task: &str, votes: u32, body: &str) -> PipelineScript {
        PipelineScript {
            metadata: PipelineMetadata {
                id: id.into(),
                dataset: "d1".into(),
                title: format!("pipeline {id}"),
                author: "alice".into(),
                votes,
                score: 0.7,
                task: task.into(),
            },
            source: body.to_string(),
        }
    }

    fn platform() -> KgLids {
        let p1 = script(
            "p1",
            "classification",
            100,
            "import pandas as pd\nimport numpy as np\n\
             df = pd.read_csv('d1/t.csv')\nx = np.log1p(df['a'])\n",
        );
        let p2 = script(
            "p2",
            "classification",
            50,
            "import pandas as pd\nfrom xgboost import XGBClassifier\n\
             df = pd.read_csv('d1/t.csv')\nclf = XGBClassifier(n_estimators=100)\nclf.fit(df, df)\n",
        );
        let p3 = script(
            "p3",
            "eda",
            10,
            "import pandas as pd\nimport seaborn as sns\n\
             df = pd.read_csv('d1/t.csv')\nsns.heatmap(df)\n",
        );
        KgLidsBuilder::new().with_pipelines([p1, p2, p3]).bootstrap().0
    }

    #[test]
    fn top_libraries_counts_distinct_pipelines() {
        let p = platform();
        let df = p.get_top_k_libraries_used(10).unwrap();
        assert_eq!(df.get(0, "library"), Some("pandas"));
        assert_eq!(df.get_f64(0, "pipelines"), Some(3.0));
        let libs: Vec<&str> = df.column("library");
        assert!(libs.contains(&"numpy"));
        assert!(libs.contains(&"xgboost"));
        assert!(libs.contains(&"seaborn"));
    }

    #[test]
    fn task_filter_restricts() {
        let p = platform();
        let df = p.get_top_used_libraries(10, "classification").unwrap();
        assert_eq!(df.get_f64(0, "pipelines"), Some(2.0)); // pandas in p1+p2
        assert!(!df.column("library").contains(&"seaborn"));
        // the task is a literal, whatever it holds
        assert!(p.get_top_used_libraries(5, "a\"b").unwrap().is_empty());
    }

    #[test]
    fn k_truncates() {
        let p = platform();
        assert_eq!(p.get_top_k_libraries_used(2).unwrap().len(), 2);
    }

    #[test]
    fn pipelines_calling_all_libraries() {
        let p = platform();
        let df = p
            .get_pipelines_calling_libraries(&["pandas.read_csv", "xgboost.XGBClassifier"])
            .unwrap();
        assert_eq!(df.len(), 1);
        assert!(df.get(0, "pipeline").unwrap().contains("p2"));
        assert_eq!(df.get(0, "author"), Some("alice"));
        // single library matches several, sorted by votes
        let all = p.get_pipelines_calling_libraries(&["pandas.read_csv"]).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all.get_f64(0, "votes"), Some(100.0));
        // empty input
        let none = p.get_pipelines_calling_libraries(&[]).unwrap();
        assert!(none.is_empty());
        assert_eq!(none.columns, all.columns);
    }

    #[test]
    fn library_root_extraction() {
        assert_eq!(
            library_root("http://kglids.org/resource/library/pandas/read_csv"),
            Some("pandas".into())
        );
        assert_eq!(library_root("http://other/thing"), None);
    }
}
