//! The metric catalogue and the run report.
//!
//! The catalogue is the one list of metric names in the benchmark:
//! `BENCHMARK.json` repeats it (a unit test compares the two) and a run
//! reports exactly these names, each with its unit, sample count and bound.

use std::collections::BTreeMap;

use crate::deck::Class;

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the system sees. Every workload reports every one.
pub fn end_to_end() -> Vec<MetricDef> {
    let gated = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        gated("setup_s", "s", "lower", 0.25),
        gated("delta_add_ms", "ms", "lower", 0.25),
        gated("delta_remove_ms", "ms", "lower", 0.25),
        gated("read_rps", "req/s", "higher", 0.25),
        gated("read_cpu_ms_per_req", "ms", "lower", 0.25),
        gated("unionable_p50_ms", "ms", "lower", 0.25),
        gated("star_p50_ms", "ms", "lower", 0.25),
        gated("peak_rss_mb", "MiB", "lower", 0.20),
    ]
}

/// The end-to-end metrics that are the median of a phase's windows.
pub const WINDOWED: [&str; 4] = [
    "read_rps",
    "read_cpu_ms_per_req",
    "unionable_p50_ms",
    "star_p50_ms",
];
/// The classes whose wire round trip is replayed layer by layer.
pub const REPLAYED: [Class; 3] = [Class::Point, Class::Unionable, Class::Star];
/// The SPARQL classes executed in process.
pub const SPARQL: [Class; 3] = [Class::Point, Class::Union2hop, Class::Star];

/// Metrics of single layers (layer = crate), from the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = vec![
        def("profiler.csv_parse_mb_per_s", "MB/s", "higher"),
        def("profiler.profile_cols_per_s", "columns/s", "higher"),
        def("embed.colr_cols_per_s", "columns/s", "higher"),
        def("pyast.parse_scripts_per_s", "scripts/s", "higher"),
        def("pyast.parse_mb_per_s", "MB/s", "higher"),
        def("kg.abstract_scripts_per_s", "scripts/s", "higher"),
        def("kg.schema_link_cols_per_s", "columns/s", "higher"),
        def("kg.pairs_compared", "count", "lower"),
        def("kg.candidates_generated", "count", "lower"),
        def("kg.pruned_ratio", "ratio", "higher"),
        def("kg.edges_per_candidate", "ratio", "higher"),
        def("kg.link_index_add_ms", "ms", "lower"),
        def("kg.link_index_remove_ms", "ms", "lower"),
        def("kg.retraction_scan_ms", "ms", "lower"),
        def("kg.relink_candidates", "count", "lower"),
        def("vector.hnsw_search_us", "us", "lower"),
        def("vector.hnsw_dist_evals_per_search", "count", "lower"),
        def("vector.similar_columns_us", "us", "lower"),
        def("rdf.extend_quads_per_s", "quads/s", "higher"),
        def("rdf.extend_cow_quads_per_s", "quads/s", "higher"),
        def("rdf.retract_quads_per_s", "quads/s", "higher"),
        def("rdf.retract_cow_quads_per_s", "quads/s", "higher"),
        def("rdf.snapshot_ns", "ns", "lower"),
        def("rdf.scan_ns_per_quad", "ns", "lower"),
        def("rdf.seek_ge_ns", "ns", "lower"),
        def("rdf.approx_bytes_per_quad", "bytes", "lower"),
        def("rdf.dict_terms", "count", "lower"),
        def("sparql.prepare_cold_us", "us", "lower"),
        def("sparql.prepare_text_hit_us", "us", "lower"),
        def("sparql.prepare_shape_hit_us", "us", "lower"),
        def("sparql.recompile_us", "us", "lower"),
        def("sparql.plan_cache_hit_ratio", "ratio", "higher"),
        def("sparql.plan_cache_evictions", "count", "lower"),
        def("sparql.ops.merge", "count", "lower"),
        def("sparql.ops.probe", "count", "lower"),
        def("sparql.ops.leapfrog", "count", "lower"),
        def("core.discovery_us.unionable", "us", "lower"),
        def("core.discovery_us.joinable", "us", "lower"),
        def("core.discovery_us.search", "us", "lower"),
        def("core.query_us.point", "us", "lower"),
        def("core.query_us.star", "us", "lower"),
        def("core.frame_overhead_us.point", "us", "lower"),
        def("core.frame_overhead_us.star", "us", "lower"),
        def("core.bootstrap_cols_per_s", "columns/s", "higher"),
        def("core.bootstrap.ingestion_s", "s", "lower"),
        def("core.bootstrap.profiling_s", "s", "lower"),
        def("core.bootstrap.schema_s", "s", "lower"),
        def("core.bootstrap.abstraction_s", "s", "lower"),
        def("core.bootstrap.linking_s", "s", "lower"),
        def("core.delta.profiling_ms", "ms", "lower"),
        def("core.delta.linking_ms", "ms", "lower"),
        def("core.delta.abstraction_ms", "ms", "lower"),
        def("core.delta.retraction_ms", "ms", "lower"),
        def("core.delta.unattributed_ms", "ms", "lower"),
        def("server.http_parse_us", "us", "lower"),
        def("server.http_write_us", "us", "lower"),
        def("server.json_decode_req_us", "us", "lower"),
        def("server.rejected_503", "count", "lower"),
        def("server.responses_5xx", "count", "lower"),
        def("exec.governor_overhead_ratio", "ratio", "lower"),
        def("exec.budget_denials", "count", "lower"),
        def("loadgen.late_start_p99_ms", "ms", "lower"),
        def("loadgen.open_achieved_rps", "req/s", "higher"),
        def("loadgen.closed_rps", "req/s", "higher"),
        def("loadgen.writer_duty_pct", "%", "lower"),
    ];
    for windowed in WINDOWED {
        out.push(def(
            &format!("loadgen.window_spread_pct.{windowed}"),
            "%",
            "lower",
        ));
    }
    for class in SPARQL {
        let c = class.name();
        out.push(def(&format!("sparql.execute_us.{c}"), "us", "lower"));
        out.push(def(
            &format!("sparql.scans_per_row_out.{c}"),
            "ratio",
            "lower",
        ));
    }
    for class in REPLAYED {
        let c = class.name();
        out.push(def(
            &format!("server.json_encode_resp_us.{c}"),
            "us",
            "lower",
        ));
        out.push(def(&format!("server.resp_bytes.{c}"), "bytes", "lower"));
        out.push(def(&format!("server.handler_us.{c}"), "us", "lower"));
        out.push(def(&format!("server.wire_overhead_us.{c}"), "us", "lower"));
        out.push(def(&format!("server.client_decode_us.{c}"), "us", "lower"));
        out.push(def(&format!("server.unattributed_us.{c}"), "us", "lower"));
    }
    for class in Class::ALL {
        let c = class.name();
        for tail in ["p50_ms", "p95_ms", "p99_ms"] {
            out.push(def(&format!("loadgen.{c}.{tail}"), "ms", "lower"));
        }
    }
    out
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Measured>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_string(), Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations of every kind: bootstraps, deltas, requests, checks.
    pub attempted: u64,
    /// Failed, refused, wrongly answered or torn.
    pub failed: u64,
    /// What went wrong, one line each (empty on a correct run).
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Count one check; a failed one is recorded with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Print every metric of `catalogue` by name with value, unit, sample
/// count and bound, then the result line the driver reads. A metric the
/// run did not measure is a bug in the benchmark and is reported as one.
pub fn print(workload: &str, catalogue: &[MetricDef], outcome: &mut Outcome) {
    println!("workload {workload}");
    println!(
        "{:<44} {:>16} {:<10} {:>8}  bound",
        "metric", "value", "unit", "samples"
    );
    let mut fields = Vec::new();
    for m in catalogue {
        let measured = outcome.metrics.get(&m.name);
        outcome.check(measured.is_some(), || {
            format!("metric {} was not measured", m.name)
        });
        let Measured { value, samples } = measured.unwrap_or(Measured {
            value: 0.0,
            samples: 0,
        });
        let bound = m.bound.map_or(String::new(), |b| {
            format!("{} by at most {:.0}%", m.better, b * 100.0)
        });
        println!(
            "{:<44} {:>16.4} {:<10} {:>8}  {}",
            m.name, value, m.unit, samples, bound
        );
        fields.push(format!(
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    for problem in &outcome.problems {
        println!("FAILED: {problem}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn object(v: &Value) -> &serde_json::Map {
        match v {
            Value::Object(m) => m,
            other => panic!("object expected, got {other:?}"),
        }
    }

    fn array<'a>(m: &'a serde_json::Map, key: &str) -> &'a Vec<Value> {
        match m.get(key) {
            Some(Value::Array(a)) => a,
            other => panic!("array {key} expected, got {other:?}"),
        }
    }

    fn text<'a>(m: &'a serde_json::Map, key: &str) -> &'a str {
        match m.get(key) {
            Some(Value::String(s)) => s,
            other => panic!("string {key} expected, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` is the contract the driver reads; the catalogue is
    /// what the binary prints. They must name the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json is JSON");
        let doc = object(&doc);
        for (key, catalogue) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = array(doc, key);
            assert_eq!(listed.len(), catalogue.len(), "{key}: metric count");
            for (entry, m) in listed.iter().zip(&catalogue) {
                let entry = object(entry);
                assert_eq!(text(entry, "name"), m.name);
                assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(entry, "better"), m.better, "{}", m.name);
                let bound = match entry.get("bound") {
                    Some(Value::Number(n)) => n.as_f64(),
                    _ => None,
                };
                assert_eq!(bound, m.bound, "{}", m.name);
            }
        }
        let workloads: Vec<&str> = array(doc, "workloads")
            .iter()
            .map(|w| text(object(w), "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let run_seconds = match doc.get("run_seconds") {
            Some(Value::Number(n)) => n.as_f64(),
            _ => None,
        };
        assert_eq!(run_seconds, Some(crate::FULL_SECONDS));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are used once");
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
