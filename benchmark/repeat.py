#!/usr/bin/env python3
"""Repeatability harness of the lids-e2e benchmark.

Runs N untraced runs per workload, each with another seed, twice (two sets,
back to back), and prints for every workload and end-to-end metric what the
driver computes when it decides whether the benchmark is quiet enough:

- spread: the distance between the first and third quartile of a set's
  values (statistics.quantiles(values, n=4)) as a share of their median;
- gap: how much worse the second set's median is than the first's.

It fails when a spread (setup_s excepted) exceeds a third of the metric's
bound or a gap exceeds half of it. One traced run per workload then gives
the tracing overhead: traced against untraced closed-loop request rate.

    python3 benchmark/repeat.py [N] [--out benchmark/REPEATABILITY.md]
                                [--raw runs.jsonl] [--smoke]

Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "benchmark", "Cargo.toml")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, trace, extra):
    """One run; returns its result line (a dict) plus the per-window values."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", str(trace)] + extra
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} failed with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["windows"] = {
        parts[1]: [float(v) for v in parts[2:]]
        for parts in (line.split() for line in lines if line.startswith("windows "))
    }
    result.update(workload=workload, seed=seed, trace=trace, wall_s=time.time() - started)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="?", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--out", help="write the report to this markdown file too")
    parser.add_argument("--raw", help="append every run's result as a JSON line")
    parser.add_argument("--smoke", action="store_true", help="small lake, short phases")
    args = parser.parse_args()

    bench = contract()
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "benchmark", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    subprocess.run(build, cwd=ROOT, env=env, check=True)
    binary = os.path.join(target, "release", "lids-e2e")
    extra = ["--smoke"] if args.smoke else ["--seconds", str(bench["run_seconds"])]

    workloads = [w["name"] for w in bench["workloads"]]
    sets = ([], [])
    for s, runs in enumerate(sets):
        for i in range(args.runs):
            for workload in workloads:
                seed = 1 + s * args.runs + i
                result = run_once(binary, workload, seed, 0, extra)
                runs.append(result)
                sys.stderr.write(
                    f"set {s + 1} run {i + 1}/{args.runs} {workload} seed {seed}: "
                    f"{result['wall_s']:.0f}s correct={result['correct']}\n"
                )
                if args.raw:
                    with open(args.raw, "a") as f:
                        f.write(json.dumps(result) + "\n")
    traced = {w: run_once(binary, w, 1, 1, extra) for w in workloads}

    out = []
    failed = []
    out.append("# Repeatability of `lids-e2e`\n")
    out.append(
        f"{args.runs} untraced runs per workload and set, seeds 1–{2 * args.runs}, "
        f"`{' '.join(extra)}`, {os.cpu_count()} cores; produced by `benchmark/repeat.py`.\n"
    )
    out.append(
        "spread = (q3 − q1) ÷ median of a set's values; gap = how much worse the second "
        "set's median is than the first's; window spread = (max − min) ÷ median of a "
        "run's windows, median over runs. A spread must stay below a third of the bound "
        "(`setup_s` excepted), a gap below half of it.\n"
    )
    for workload in workloads:
        out.append(f"## `{workload}`\n")
        out.append(
            "| metric | unit | bound | median 1 | q1–q3 1 | spread 1 | median 2 | spread 2 "
            "| gap | window spread | verdict |"
        )
        out.append("|---|---|---|---|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [
                [r["metrics"][name]["value"] for r in runs if r["workload"] == workload]
                for runs in sets
            ]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            q1, _, q3 = statistics.quantiles(values[0], n=4)
            gap = worse_by(medians[0], medians[1], m["better"])
            windows = [
                (max(w) - min(w)) / statistics.median(w)
                for runs in sets
                for r in runs
                if r["workload"] == workload
                for w in [r["windows"].get(name)]
                if w
            ]
            window_spread = f"{statistics.median(windows):.1%}" if windows else "–"
            noisy = name != "setup_s" and max(spreads) > bound / 3
            verdict = "noisy" if noisy else "drifts" if gap > bound / 2 else "ok"
            if verdict != "ok":
                failed.append(f"{workload}/{name}: {verdict}")
            out.append(
                f"| `{name}` | {m['unit']} | {bound:.0%} | {medians[0]:.4g} | "
                f"{q1:.4g}–{q3:.4g} | {spreads[0]:.1%} | {medians[1]:.4g} | {spreads[1]:.1%} | "
                f"{gap:+.1%} | {window_spread} | {verdict} |"
            )
        incorrect = [r["seed"] for runs in sets for r in runs
                     if r["workload"] == workload and not r["correct"]]
        if incorrect:
            failed.append(f"{workload}: incorrect runs at seeds {incorrect}")
        walls = [r["wall_s"] for runs in sets for r in runs if r["workload"] == workload]
        untraced = statistics.median(
            r["metrics"]["read_rps"]["value"] for runs in sets for r in runs
            if r["workload"] == workload
        )
        traced_rps = traced[workload]["metrics"]["loadgen.closed_rps"]["value"]
        out.append("")
        out.append(
            f"Wall time of a run: median {statistics.median(walls):.0f} s, "
            f"max {max(walls):.0f} s (traced: {traced[workload]['wall_s']:.0f} s). "
            f"Failed operations: {sum(r['failed'] for runs in sets for r in runs if r['workload'] == workload)}. "
            f"Tracing overhead: traced closed-loop rate {traced_rps:.1f} req/s against "
            f"{untraced:.1f} untraced ({1 - traced_rps / untraced:+.1%}).\n"
        )
    out.append("## Verdict\n")
    out.append("Every metric is quiet enough.\n" if not failed else
               "Not quiet enough: " + "; ".join(failed) + ".\n")
    report = "\n".join(out)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
