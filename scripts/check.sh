#!/usr/bin/env bash
# Full local gate: release build, tests (incl. the chaos suite), lint-clean
# clippy, and a guard against new unwrap/expect in fault-tolerant crates.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo test -q --test chaos
# Exact-vs-pruned linking must agree edge for edge, score for score.
cargo test -q --test linking_differential
# Incremental maintenance must be exact: any interleaving of apply_delta
# adds/removals equals a from-scratch bootstrap of the surviving lake,
# retraction restores the never-ingested baseline, and live readers see
# whole deltas or nothing (a reader spinning on torn state would hang,
# which the timeout turns into a failure).
timeout 600 cargo test -q --release --test incremental_differential
# Bulk loading must be indistinguishable from sequential insertion:
# identical quad sets, identical insert-order-dense TermId assignment.
cargo test -q -p lids-rdf --test bulk_load_differential
# The sorted-run store against the representation it replaced: every write
# path (single, batch, encoded, in and out of a delta, under pins and a
# reader, on both sides of the fold threshold) mirrored on a BTreeSet
# oracle, every read path compared after every operation. The suite raises
# its own case count in release.
cargo test -q --release -p lids-rdf --test store_properties
# The oracle stays in the tests: one representation in the store itself.
for module in crates/rdf/src/store.rs crates/rdf/src/run.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$module" | grep -n 'BTreeSet'; then
        echo "BTreeSet in non-test code of $module: the store is sorted runs" >&2
        exit 1
    fi
done
# Span tree, explain cardinalities, and the <10% instrumentation budget.
cargo test -q --test observability
# The one executor (probe/merge/leapfrog over columnar batches) must answer
# what the reference evaluator answers, as a multiset, under both join plans
# and with a row cap as a flagged sub-multiset — over generated UNION,
# nested OPTIONAL, GRAPH ?g, quoted and star shapes. The suite raises its own
# case count in release. Identical query shapes must parse exactly once.
cargo test -q --release -p lids-sparql --test encoded_vs_reference
cargo test -q -p lids-sparql plan::
# One executor, one binding table: the row engine and the options that
# selected it stay deleted (whole words: prose may say "vectorized").
if grep -rnwE 'vectorize|parallel_threshold|IdBinding|NestedLoop|serial_joins' crates/*/src; then
    echo "row-engine leftovers under crates/*/src: lids-sparql has one executor" >&2
    exit 1
fi
# Query-governance chaos suite under a hard external bound: adversarial
# workloads must terminate with typed errors or truncated partials; a hang
# here is a governance regression and the timeout turns it into a failure.
timeout 600 cargo test -q --release --test query_chaos
# Snapshot-isolation suite under a hard external bound: frozen-snapshot
# proptests, the concurrent reader/writer stress loop (a deadlock or a
# reader spinning on torn state would hang, which the timeout turns into
# a failure), and the stale-generation plan-cache regression.
timeout 300 cargo test -q --release --test snapshot_isolation
# Server end-to-end suite on real ephemeral-port sockets: HTTP answers
# byte-equal the in-process API, every failure is a typed 4xx/5xx JSON
# error, shutdown drains, and live-ingest clients see whole batches. A
# hung connection would hang the suite; the timeout turns it into a
# failure.
timeout 300 cargo test -q --release --test server_e2e
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate over the repo's own crates (vendored path dependencies are
# workspace members too, hence the package list): a doc comment that links
# to a deleted or private item fails here, not on docs.rs.
own_crates="$(cargo metadata --no-deps --offline --format-version 1 | python3 -c '
import json, sys
packages = json.load(sys.stdin)["packages"]
print(" ".join("-p " + p["name"] for p in packages if "/vendor/" not in p["manifest_path"]))')"
# shellcheck disable=SC2086
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline $own_crates
# Dead public surface is deleted, not deprecated. (`! grep` would not trip
# `set -e`: an inverted status never does.)
if grep -rn '#\[deprecated' crates/*/src; then
    echo "deprecated items under crates/*/src: delete them instead" >&2
    exit 1
fi

# Smoke-run the linking benchmark: both modes complete, edge sets match
# (asserted inside the binary), and the report is well-formed JSON with the
# fields EXPERIMENTS.md cites.
smoke_out="$(mktemp)"
target/release/linking_schema --smoke --out "$smoke_out" >/dev/null
python3 - "$smoke_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "linking_schema", report
assert report["smoke"] is True, report
for mode in ("exact", "pruned"):
    stats = report[mode]
    for field in ("content_secs", "label_secs", "pairs_compared",
                  "candidates_generated", "pairs_pruned", "content_edges",
                  "label_edges", "triples"):
        assert field in stats, (mode, field)
assert report["exact"]["content_edges"] == report["pruned"]["content_edges"]
assert report["content_speedup"] > 0
print("linking_schema smoke report ok")
EOF
rm -f "$smoke_out"

# Smoke-run the delta benchmark: a one-dataset delta into a bootstrapped
# lake must produce a store identical to a full rebuild (asserted inside
# the binary and re-checked here), cost no more than the rebuild, and
# retraction must restore the never-ingested baseline.
delta_out="$(mktemp)"
timeout 300 target/release/delta_bench --smoke --out "$delta_out" >/dev/null
python3 - "$delta_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "delta_bench", report
assert report["smoke"] is True, report
assert report["identical"] is True, report
assert report["delta_speedup"] >= 1.0, report["delta_speedup"]
assert report["delta_columns"] > 0, report
retraction = report["retraction"]
assert retraction["identical"] is True, retraction
assert retraction["quads_retracted"] > 0, retraction
print("delta_bench smoke report ok (speedup %.1fx, %d quads retracted)"
      % (report["delta_speedup"], retraction["quads_retracted"]))
EOF
rm -f "$delta_out"

# Smoke-run the observability benchmark: the embedded metrics snapshot must
# carry the lids-obs/v1 schema, the bootstrap counters, and histograms whose
# bucket boundaries are strictly monotone.
obs_out="$(mktemp)"
target/release/obs_bench --smoke --out "$obs_out" >/dev/null
python3 - "$obs_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "observability", report
assert report["smoke"] is True, report
assert report["overhead_ratio"] > 0, report
snap = report["snapshot"]
assert snap["schema"] == "lids-obs/v1", snap.get("schema")
metrics = snap["metrics"]
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, section
counters = metrics["counters"]
for key in ("bootstrap.triples", "bootstrap.columns_profiled", "query.count"):
    assert key in counters and counters[key] > 0, key
assert "memory.peak_bytes" in metrics["gauges"]
histograms = metrics["histograms"]
assert "query.wall_us" in histograms, sorted(histograms)
for name, hist in histograms.items():
    assert hist["count"] > 0, name
    les = [b["le"] for b in hist["buckets"]]
    assert les == sorted(set(les)), f"{name}: non-monotone buckets {les}"
print("obs_bench smoke report ok")
EOF
rm -f "$obs_out"

# Smoke-run the ingest benchmark: sequential and bulk loaders both complete
# on the synthetic lake batch, the stores are bit-identical (asserted inside
# the binary), and bulk loading is at least as fast as sequential insertion.
ingest_out="$(mktemp)"
target/release/ingest_bench --smoke --out "$ingest_out" >/dev/null
python3 - "$ingest_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "ingest", report
assert report["smoke"] is True, report
assert report["quads"] > 0, report
assert report["quads_added"] > 0, report
assert report["identical"] is True, report
assert report["speedup"] >= 1.0, report["speedup"]
for field in ("extract_secs", "encode_secs", "index_secs"):
    assert field in report["phases"], field
print("ingest_bench smoke report ok (speedup %.2fx)" % report["speedup"])
EOF
rm -f "$ingest_out"

# Smoke-run the governor benchmark: every adversarial case must terminate
# (typed governed error, truncated partial, or completion) with zero panics
# and zero hard-wall breaches, and the armed-but-generous governor must not
# meaningfully slow the representative discovery query.
governor_out="$(mktemp)"
target/release/governor_bench --smoke --out "$governor_out" >/dev/null
python3 - "$governor_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "governor", report
assert report["smoke"] is True, report
assert report["cases"] > 0, report
assert report["terminated"] == report["cases"], report
assert report["aborts"] == 0, report
assert report["typed_errors"] + report["completed"] == report["cases"], report
assert report["max_case_secs"] < 10.0, report["max_case_secs"]
# smoke runs are noisy; this is a sanity bound, the tight 5% acceptance
# bound is checked on the full-scale run
assert report["overhead_ratio"] < 1.5, report["overhead_ratio"]
print("governor smoke report ok (%d/%d terminated, overhead %.2fx)"
      % (report["terminated"], report["cases"], report["overhead_ratio"]))
EOF
rm -f "$governor_out"

# Smoke-run the serving benchmark: reader threads answer through store
# snapshots while a writer streams batches; the report must carry a p99
# per config cell, exact parity against the single-threaded oracle, and
# zero torn reads (the binary itself exits non-zero on either failure).
serving_out="$(mktemp)"
target/release/serving_bench --smoke --out "$serving_out" >/dev/null
python3 - "$serving_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "serving", report
assert report["smoke"] is True, report
assert report["parity"] is True, report
assert report["torn_reads"] == 0, report
assert report["base_quads"] > 0, report
assert report["configs"], "no configs measured"
writer_cells = 0
for cfg in report["configs"]:
    for field in ("threads", "writer", "ops", "qps", "p50_us", "p99_us"):
        assert field in cfg, (field, cfg)
    assert cfg["ops"] > 0, cfg
    assert cfg["p99_us"] >= cfg["p50_us"], cfg
    assert cfg["parity"] is True, cfg
    if cfg["writer"]:
        writer_cells += 1
        assert cfg["batches_committed"] > 0, cfg
assert writer_cells > 0, "no writer-on cells measured"
print("serving_bench smoke report ok (%d configs, parity, 0 torn reads)"
      % len(report["configs"]))
EOF
rm -f "$serving_out"

# Refresh the committed serving report from the smoke run if the full-scale
# file is missing (full-scale runs overwrite it directly).
if [ ! -f BENCH_serving.json ]; then
  target/release/serving_bench --smoke >/dev/null
fi

# Smoke-run the network serving benchmark: client threads drive the HTTP
# server over real sockets while a writer streams batches; every cell must
# report a p99 and parity (HTTP rows == in-process == oracle replay, all
# asserted inside the binary) with zero torn reads over the wire.
net_out="$(mktemp)"
timeout 120 target/release/serving_net_bench --smoke --out "$net_out" >/dev/null
python3 - "$net_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "serving_net", report
assert report["smoke"] is True, report
assert report["parity"] is True, report
assert report["torn_reads"] == 0, report
assert report["configs"], "no configs measured"
for cfg in report["configs"]:
    for field in ("threads", "ops", "qps", "p50_us", "p99_us", "batches_committed"):
        assert field in cfg, (field, cfg)
    assert cfg["ops"] > 0, cfg
    assert cfg["p99_us"] >= cfg["p50_us"], cfg
    assert cfg["parity"] is True, cfg
    assert cfg["batches_committed"] > 0, cfg
print("serving_net_bench smoke report ok (%d cells, parity, 0 torn reads)"
      % len(report["configs"]))
EOF
rm -f "$net_out"

# Refresh the committed network serving report if the full-scale file is
# missing (full-scale runs overwrite it directly).
if [ ! -f BENCH_net.json ]; then
  timeout 120 target/release/serving_net_bench --smoke >/dev/null
fi

# Validate the committed BENCH_net.json: p99 per cell, parity, 0 torn reads.
python3 - BENCH_net.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "serving_net", report
assert report["parity"] is True, report
assert report["torn_reads"] == 0, report
for cfg in report["configs"]:
    assert "p99_us" in cfg and cfg["p99_us"] > 0, cfg
    assert cfg["parity"] is True, cfg
print("BENCH_net.json ok (%d cells)" % len(report["configs"]))
EOF

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
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in churn ingest_serve; do
  timeout 120 cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --smoke --seconds 6 >/dev/null
  echo "lids-e2e $workload smoke ok"
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
