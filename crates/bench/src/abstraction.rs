//! Pipeline-abstraction experiments: Table 3 (graph size + analysis time),
//! Table 4 (per-aspect breakdown), Figure 4 (top-10 libraries).

use kglids::DataFrame;
use lids_baselines::graphgen4code::{G4cAspect, G4cStats, GraphGen4Code};
use lids_datagen::pipelines::GeneratedPipeline;
use lids_kg::abstraction::{AbstractionStats, Aspect};
use lids_kg::docs::LibraryDocs;
use lids_kg::library_graph::build_library_graph;
use lids_rdf::QuadStore;
use std::time::Instant;

/// One system's abstraction of the corpus (a Table 3 column).
#[derive(Debug, Clone)]
pub struct AbstractionRun {
    pub system: String,
    pub triples: usize,
    pub unique_nodes: usize,
    pub size_mib: f64,
    pub analysis_secs: f64,
    /// `(aspect label, triple count)` — Table 4's column.
    pub breakdown: Vec<(String, u64)>,
}

/// Abstract the corpus with KGLiDS (Algorithm 1).
pub fn run_kglids_abstraction(pipelines: &[GeneratedPipeline]) -> AbstractionRun {
    let docs = LibraryDocs::builtin();
    let mut store = QuadStore::new();
    let mut stats = AbstractionStats::default();
    let start = Instant::now();
    build_library_graph(&mut store, &docs, &mut stats);
    for p in pipelines {
        let _ = lids_kg::abstraction::abstract_pipeline(
            &mut store,
            &mut stats,
            &docs,
            &p.metadata,
            &p.source,
        );
    }
    let analysis_secs = start.elapsed().as_secs_f64();
    AbstractionRun {
        system: "KGLiDS".into(),
        triples: store.len(),
        unique_nodes: store.term_count(),
        size_mib: store.approx_bytes() as f64 / (1024.0 * 1024.0),
        analysis_secs,
        breakdown: Aspect::ALL
            .iter()
            .map(|a| (a.label().to_string(), stats.get(*a)))
            .collect(),
    }
}

/// Abstract the corpus with GraphGen4Code.
pub fn run_g4c_abstraction(pipelines: &[GeneratedPipeline]) -> AbstractionRun {
    let mut store = QuadStore::new();
    let mut stats = G4cStats::default();
    let start = Instant::now();
    for p in pipelines {
        let id = format!("{}_{}", p.metadata.dataset, p.metadata.id);
        let _ = GraphGen4Code::abstract_pipeline(&mut store, &mut stats, &id, &p.source);
    }
    let analysis_secs = start.elapsed().as_secs_f64();
    AbstractionRun {
        system: "GraphGen4Code".into(),
        triples: store.len(),
        unique_nodes: store.term_count(),
        size_mib: store.approx_bytes() as f64 / (1024.0 * 1024.0),
        analysis_secs,
        breakdown: G4cAspect::ALL
            .iter()
            .map(|a| (a.label().to_string(), stats.get(*a)))
            .collect(),
    }
}

/// Render Figure 4 (the frame `KgLids::get_top_k_libraries_used` returns)
/// as a text bar chart.
pub fn library_bar_chart(df: &DataFrame) -> String {
    let max = df
        .rows
        .iter()
        .filter_map(|r| r[1].parse::<f64>().ok())
        .fold(1.0f64, f64::max);
    let mut out = String::new();
    for i in 0..df.len() {
        let lib = df.get(i, "library").unwrap_or("");
        let n: f64 = df.get_f64(i, "pipelines").unwrap_or(0.0);
        let bar = "#".repeat(((n / max) * 40.0).round() as usize);
        out.push_str(&format!("{lib:>12} | {bar} {n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_datagen::pipelines::{generate_corpus, CorpusSpec};

    #[test]
    fn table3_shape_holds() {
        let corpus = generate_corpus(&CorpusSpec::synthetic(6, 4, 1));
        let lids = run_kglids_abstraction(&corpus);
        let g4c = run_g4c_abstraction(&corpus);
        assert!(lids.triples > 0 && g4c.triples > 0);
        // GraphGen4Code graphs are several times larger (Table 3's shape)
        assert!(
            g4c.triples as f64 > lids.triples as f64 * 1.5,
            "g4c {} vs lids {}",
            g4c.triples,
            lids.triples
        );
        assert!(g4c.unique_nodes > lids.unique_nodes);
    }

    #[test]
    fn table4_breakdowns_are_complete() {
        let corpus = generate_corpus(&CorpusSpec::synthetic(3, 3, 2));
        let lids = run_kglids_abstraction(&corpus);
        let g4c = run_g4c_abstraction(&corpus);
        // KGLiDS models dataset reads + library hierarchy; G4C does not
        let get = |run: &AbstractionRun, label: &str| {
            run.breakdown
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert!(get(&lids, "Dataset reads") > 0);
        assert!(get(&lids, "Library hierarchy") > 0);
        assert!(get(&g4c, "Statement location") > 0);
        assert!(get(&g4c, "Func. parameter order") > 0);
        // RDF node types only on the KGLiDS side (a Table 4 point)
        assert!(get(&lids, "RDF node types") > 0);
        assert!(!g4c.breakdown.iter().any(|(l, _)| l == "RDF node types"));
    }
}
