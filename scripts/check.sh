#!/usr/bin/env bash
# Full local gate: release build, tests (incl. the chaos suite), lint-clean
# clippy, and a guard against new unwrap/expect in fault-tolerant crates.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step prints its wall seconds as `step <name>: <s> s`, so one run
# shows where the gate's time goes.
step_start=$SECONDS
step() {
  echo "step $1: $((SECONDS - step_start)) s"
  step_start=$SECONDS
}

cargo build --release --workspace
step build
# The vendored JSON parser reads a string in one pass. When it re-validated
# the rest of the document per character a 136 kB answer took 0.2 s to
# decode and this 1 MB one would take hours — so it runs first and under a
# timeout, before the suites that would hang on the same regression.
timeout 60 cargo test -q --release -p serde_json megabyte_document_round_trips
step json_megabyte
# `lids-bench`'s unit tests replay the paper's experiments (figure 9's
# AutoML shape alone ran 100 s unoptimised), so they run in release: every
# test still runs once.
cargo test -q --workspace --exclude lids-bench
step workspace_tests
cargo test -q --release -p lids-bench
step bench_unit_tests
# Exact-vs-pruned linking must agree edge for edge, score for score — on
# 100 small lakes with every bucket pruned, and under the shipped cutoff on
# a 3,000-column lake whose edges need the component-pair bound.
cargo test -q --release --test linking_differential
step linking_differential
# Incremental maintenance must be exact: any interleaving of apply_delta
# adds/removals equals a from-scratch bootstrap of the surviving lake,
# retraction restores the never-ingested baseline, and live readers see
# whole deltas or nothing (a reader spinning on torn state would hang,
# which the timeout turns into a failure).
timeout 600 cargo test -q --release --test incremental_differential
step incremental_differential
# Bulk loading must be indistinguishable from sequential insertion:
# identical quad sets, identical insert-order-dense TermId assignment —
# nested and object-position quoted triples included, which the dictionary
# keys by their constituents' ids, so they must be interned first. `extend`
# probes once per term occurrence as `insert` does, so this holds the two
# to each other and to `intern_quads` + `extend_encoded`, the platform's
# two-step load. The suite raises its own case count in release.
cargo test -q --release -p lids-rdf --test bulk_load_differential
step bulk_load_differential
# The sorted-run store against the representation it replaced: every write
# path (single, batch, encoded, in and out of a delta, under pins and a
# reader, on both sides of the fold threshold) mirrored on a BTreeSet
# oracle, every read path compared after every operation. The suite raises
# its own case count in release.
cargo test -q --release -p lids-rdf --test store_properties
step store_properties
# The oracle stays in the tests: one representation in the store itself.
for module in crates/rdf/src/store.rs crates/rdf/src/run.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$module" | grep -n 'BTreeSet'; then
        echo "BTreeSet in non-test code of $module: the store is sorted runs" >&2
        exit 1
    fi
done
# Span tree, explain cardinalities, and the <10% instrumentation budget.
cargo test -q --test observability
step observability
# The one executor (probe/merge/leapfrog over columnar batches) must answer
# what the reference evaluator answers, as a multiset, under both join plans
# and with a row cap as a flagged sub-multiset — over generated UNION,
# nested OPTIONAL, GRAPH ?g, quoted and star shapes — and again under
# generated solution modifiers (GROUP BY/aggregates, multi-key ORDER BY,
# DISTINCT, OFFSET/LIMIT), which the executor runs on ids and the reference
# on decoded rows. The suite raises its own case count in release; the edge
# cases hold the hand-written answers (ORDER BY on an unprojected variable
# among them).
cargo test -q --release -p lids-sparql --test encoded_vs_reference
step encoded_vs_reference
cargo test -q --release -p lids-sparql --test eval_edge_cases
step eval_edge_cases
# The parse cache: an identical query text parses exactly once while it
# stays cached, every execution sees the store it is handed, and the LRU
# holds its bound.
cargo test -q -p lids-sparql plan::
step plan_cache
# One cache tier, no compiled-plan slot: a parse is 2-5 us and a compile
# under 1 us, so the shape tier and the per-generation plan stay deleted.
if grep -rnwE 'by_shape|ShapeVariants|MAX_SHAPES|MAX_VARIANTS|hits_shape|shapes_len|CachedPlan|plan_for' crates/*/src; then
    echo "shape-tier / cached-plan leftovers under crates/*/src: PlanCache is text -> parse" >&2
    exit 1
fi
# One executor, one binding table: the row engine and the options that
# selected it stay deleted (whole words: prose may say "vectorized").
if grep -rnwE 'vectorize|parallel_threshold|IdBinding|NestedLoop|serial_joins' crates/*/src; then
    echo "row-engine leftovers under crates/*/src: lids-sparql has one executor" >&2
    exit 1
fi
# One linker: Algorithm 3's similarity pass is `LinkIndex::link_columns`,
# one path from a first fill to a one-column delta, so a change to pruning
# or tombstones is made in one place. The batch pass that stood beside it
# and the seed that handed its structures over stay deleted (whole words).
if grep -rnwE 'link_schema|boolean_content|embeddable_content|BucketCapture|LinkSeed' crates/*/src; then
    echo "second-linker leftovers under crates/*/src: LinkIndex is the one Algorithm 3 linker" >&2
    exit 1
fi
# The LiDS emitters mint no quoted triple: a similarity edge's certainty
# is a key of the store's annotation run, so interning the annotated
# triple (whole word) is back only if an emitter regressed to four quads.
if grep -rnw 'intern_quoted' crates/kg/src crates/core/src; then
    echo "intern_quoted under crates/kg/src or crates/core/src: the LiDS emitters mint no quoted triple" >&2
    exit 1
fi
# One way to turn a term into an id: `Dictionary::intern` / `id_of`. The
# store's parallel sort-based loader, its hashed dictionary entry points and
# the per-phase stats only it filled stay deleted (whole words).
if grep -rnwE 'extend_batch|extend_stats|PendingGroup|PendingMembers|SlotRef|intern_hashed|intern_iri_hashed|id_by_hash|extract_secs' crates/*/src; then
    echo "second term-to-id path under crates/*/src: extend probes the dictionary per occurrence, as insert does" >&2
    exit 1
fi
# Ingest fails once: every stage is a deterministic function of an
# artifact's bytes, so the retry policy, the soft per-item budget, the
# ingest options that carried them, the retry count in quarantine
# provenance, the EvalOptions builder and the allocating graph-slot
# helper stay deleted (whole words).
if grep -rnwE 'RetryPolicy|IngestOptions|IsolationConfig|item_budget|is_transient|ProfileTimeout|RETRY_COUNT|EvalOptionsBuilder|graph_term' crates/*/src; then
    echo "retired ingest-policy leftovers under crates/*/src: an artifact fails once and is quarantined" >&2
    exit 1
fi
# A query runs once, under its caller's limits: a trip is the caller's
# typed error, so the degraded retry and its row cap, and the shape
# quarantine with its offence table, stay deleted (whole words).
if grep -rnwE 'degraded_row_cap|poison_threshold|poison_ttl|record_offense|is_poisoned|poisoned_len|OffenseRecord|MAX_OFFENSE_RECORDS|shape_of' crates/*/src; then
    echo "retired query-policy leftovers under crates/*/src: a query runs once and a trip is the caller's typed error" >&2
    exit 1
fi
# Explain is a query: one compile-and-execute entry point
# (`evaluate_governed`) returns the plan when asked, and `/v1/explain`
# decodes the `/v1/query` body, so the second explain entry points and
# the explain-only request body stay deleted (whole words).
if grep -rnwE 'evaluate_explained|execute_explained|ExplainRequest' crates/*/src; then
    echo "second explain path under crates/*/src: explain is an output of the one governed run" >&2
    exit 1
fi
# Predicted reads stay in memory: the Graph Linker resolves each
# pipeline's reads against its own dataset, so the pass that rescanned
# the lake for `predictedRead` literals (whole word) stays deleted, and
# `PREDICTED_READ` is named only where the ontology declares it.
if grep -rnw 'link_pipelines' crates/*/src; then
    echo "lake-rescanning linker under crates/*/src: Linker::link resolves one pipeline's reads" >&2
    exit 1
fi
if grep -rnw 'PREDICTED_READ' crates/*/src | grep -v '^crates/kg/src/ontology.rs:'; then
    echo "PREDICTED_READ outside crates/kg/src/ontology.rs: predicted reads never reach the store" >&2
    exit 1
fi
# The §4/§5 interfaces read the lake through the one governed query path
# and return its typed errors: the panicking side path (`internal_query`,
# whole word) stays deleted, the recommenders train their models behind
# `&self` (non-test code of automation.rs takes no `&mut self`), and CSV
# parses one way, strictly (no `Lenient`, whole word).
if grep -rnw 'internal_query' crates/*/src; then
    echo "internal_query under crates/*/src: the platform reads its lake through QueryEnv::query" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/automation.rs | grep -nE '&mut self([,)]|$)'; then
    echo "&mut self in crates/core/src/automation.rs: the recommenders answer behind &self" >&2
    exit 1
fi
if grep -rnw 'Lenient' crates/*/src; then
    echo "Lenient under crates/*/src: CSV parses one way, strictly" >&2
    exit 1
fi
# Query-governance chaos suite under a hard external bound: adversarial
# workloads must terminate with typed errors, in process and over the
# socket. `query` and `explain` are one run — the same admission, the same
# armed governor, the same metrics — so they refuse alike; a hang here is
# a governance regression and the timeout turns it into a failure.
timeout 600 cargo test -q --release --test query_chaos
step query_chaos
# Snapshot-isolation suite under a hard external bound: frozen-snapshot
# proptests, the concurrent reader/writer stress loop (a deadlock or a
# reader spinning on torn state would hang, which the timeout turns into
# a failure), and the stale-generation plan-cache regression.
timeout 300 cargo test -q --release --test snapshot_isolation
step snapshot_isolation
# Server end-to-end suite on real ephemeral-port sockets: a query body read
# off the socket is byte for byte the serialized in-process answer (the
# server writes it from ids, never building that answer), discovery answers
# match field for field before and after a delta, every failure is a typed
# 4xx/5xx JSON error, shutdown drains, and live-ingest clients see whole
# batches. A hung connection would hang the suite; the timeout turns it
# into a failure.
timeout 300 cargo test -q --release --test server_e2e
step server_e2e
cargo clippy --workspace --all-targets -- -D warnings
step clippy
# Rustdoc gate over the repo's own crates (vendored path dependencies are
# workspace members too, hence the package list): a doc comment that links
# to a deleted or private item fails here, not on docs.rs.
own_crates="$(cargo metadata --no-deps --offline --format-version 1 | python3 -c '
import json, sys
packages = json.load(sys.stdin)["packages"]
print(" ".join("-p " + p["name"] for p in packages if "/vendor/" not in p["manifest_path"]))')"
# shellcheck disable=SC2086
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline $own_crates
step rustdoc
# Dead public surface is deleted, not deprecated. (`! grep` would not trip
# `set -e`: an inverted status never does.)
if grep -rn '#\[deprecated' crates/*/src; then
    echo "deprecated items under crates/*/src: delete them instead" >&2
    exit 1
fi
# One yardstick: `lids-e2e` measures, the suites above assert. The bench
# crate keeps the paper's tables and the demo server, and no report is
# committed at the root.
if ls BENCH_*.json >/dev/null 2>&1; then
    echo "BENCH_*.json at the root: benchmark reports are not committed" >&2
    exit 1
fi
if [ "$(ls crates/bench/src/bin | tr '\n' ' ')" != "lids_serve.rs repro.rs " ]; then
    echo "crates/bench/src/bin holds more than repro.rs and lids_serve.rs: measure in benchmark/" >&2
    exit 1
fi
# The criterion layer is retired with its stopwatch: `repro` prints the
# paper's comparisons and `lids-e2e` measures, so no bench target, no
# `criterion` dependency and no `Stopwatch` (whole word) come back.
if [ -e crates/bench/benches ]; then
    echo "crates/bench/benches exists: measure in benchmark/, not in criterion benches" >&2
    exit 1
fi
if find . -name Cargo.toml -not -path '*/target/*' -print0 | xargs -0 grep -n 'criterion'; then
    echo "a Cargo.toml names criterion: the criterion layer is retired" >&2
    exit 1
fi
if grep -rnw 'Stopwatch' crates/*/src; then
    echo "Stopwatch under crates/*/src: time with std::time::Instant" >&2
    exit 1
fi

# Server smoke over a real socket: start the demo server on an ephemeral
# port under a hard timeout, then drive healthz + one query + metrics from
# an independent HTTP client (python3 http.client; curl is not in the
# container). The request counter in /metrics proves the server-side obs
# registry saw the same requests.
serve_log="$(mktemp)"
timeout 90 target/release/lids_serve --duration-ms 30000 >"$serve_log" 2>/dev/null &
serve_pid=$!
addr=""
for _ in $(seq 100); do
  addr="$(sed -n 's/^lids-server listening on //p' "$serve_log" | head -1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "error: lids_serve never reported its address" >&2; exit 1; }
python3 - "$addr" <<'EOF'
import json, sys, http.client
conn = http.client.HTTPConnection(sys.argv[1], timeout=15)
conn.request("GET", "/healthz")
r = conn.getresponse(); health = json.loads(r.read())
assert r.status == 200 and health["status"] == "ok", health
assert health["api"] == "lids-api/v1" and health["triples"] > 0, health
body = json.dumps({"query":
    "PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }"})
conn.request("POST", "/v1/query", body, {"Content-Type": "application/json"})
r = conn.getresponse(); q = json.loads(r.read())
assert r.status == 200 and q["api"] == "lids-api/v1", q
assert len(q["rows"]) > 0 and q["generation"] > 0, q
conn.request("GET", "/metrics")
r = conn.getresponse(); m = json.loads(r.read())
assert r.status == 200 and m["schema"] == "lids-obs/v1", m
assert m["metrics"]["counters"]["server.requests"] >= 2, m["metrics"]["counters"]
print("server socket smoke ok (%d triples, %d rows)"
      % (health["triples"], len(q["rows"])))
EOF
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -f "$serve_log"
step server_smoke

# The end-to-end benchmark is a workspace of its own, so nothing above
# builds it: its unit tests (order statistics, deck determinism, catalogue
# = BENCHMARK.json), then a short run of each workload on the smoke lake.
# The build proves the benchmark — which this repository's changes leave
# alone — still compiles against the kg/rdf signatures it replays.
# `churn` is a writer applying deltas under a snapshot reader (every
# publish copies on write); `ingest_serve` applies them with no reader
# attached, the only run of the in-place write path against the store
# fingerprint. The binary exits 1 on a torn read, a wrong row count or a
# store fingerprint that does not return to the bootstrap's; a hung reader
# or writer trips the timeout (the binary is built first, so the timeout
# bounds the run and not the compile).
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
step e2e_unit_tests
cargo build --release --offline --manifest-path benchmark/Cargo.toml
step e2e_build
for workload in churn ingest_serve; do
  timeout 120 cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --smoke --seconds 6 >/dev/null
  echo "lids-e2e $workload smoke ok"
  step "e2e_smoke_$workload"
done

# The ingestion-path and query-path crates deny unwrap/expect outside tests;
# make sure the crate-root opt-ins are still in place so clippy keeps
# enforcing it.
for lib in crates/{exec,profiler,pyast,core,sparql,rdf,server}/src/lib.rs \
           crates/kg/src/incremental.rs; do
  if ! grep -q "deny(clippy::unwrap_used" "$lib"; then
    echo "error: ${lib} dropped the unwrap_used/expect_used deny opt-in" >&2
    exit 1
  fi
done

echo "all checks passed"
