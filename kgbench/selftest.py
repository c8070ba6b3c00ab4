#!/usr/bin/env python3
"""Self-test of the benchmark: what must repeat for a seed does repeat.

    python3 kgbench/selftest.py [--workloads spark-movie,mc-tables,evolve-seq] [--seconds 5]

Run from the repository root. For each workload it makes two untraced and two
traced runs with the same seed and checks that:
  * every run is correct, ok_frac is 1.0 and op_p50_ms <= op_tail_ms;
  * annot_cost_h and ci_coverage are bit-identical across the two runs;
  * the per-layer counts (Spark jobs, stages, tasks, single-task stages and
    codegen classes per call; draws, triples, insertions, hours) are identical.
It also checks that run.py fails, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNLISTED = "# unlisted-metrics "  # per-layer metrics that BENCHMARK.json leaves out

# Per-layer metrics that count work; they must repeat exactly for a seed.
REPEATING = ("spark.*.jobs", "spark.*.stages", "spark.*.tasks", "spark.*.one_task_stages",
             "spark.*.codegen_classes", "core.draws.*", "core.triples.*", "core.entity_reuse",
             "evolve.rs_insertions", "evolve.rs_topup_draws", "evolve.hours.*")


def repeating(name):
    return any(fnmatch.fnmatchcase(name, p) for p in REPEATING)


def command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["command"]


def run(workload, seed, seconds, trace, cwd=ROOT):
    out = subprocess.run(command() + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", trace],
                         cwd=cwd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{out.stdout[-3000:]}{out.stderr[-3000:]}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    for l in lines[:-1]:
        if l.startswith(UNLISTED):
            result["metrics"].update(json.loads(l[len(UNLISTED):]))
    return result


def check_workload(workload, seed, seconds):
    problems = []
    a, b = (run(workload, seed, seconds, "0") for _ in range(2))
    for r in (a, b):
        m = {k: v["value"] for k, v in r["metrics"].items()}
        if not r["correct"] or r["failed"] or m["ok_frac"] != 1.0:
            problems.append(f"untraced run not correct: {r['correct']} failed={r['failed']}")
        if m["op_p50_ms"] > m["op_tail_ms"]:
            problems.append(f"op_p50_ms {m['op_p50_ms']} > op_tail_ms {m['op_tail_ms']}")
    for k in ("annot_cost_h", "ci_coverage"):
        if a["metrics"][k]["value"] != b["metrics"][k]["value"]:
            problems.append(f"{k} differs: {a['metrics'][k]['value']} vs {b['metrics'][k]['value']}")
    ta, tb = (run(workload, seed, seconds, "1") for _ in range(2))
    for k, v in ta["metrics"].items():
        if repeating(k) and v["value"] != tb["metrics"][k]["value"]:
            problems.append(f"{k} differs: {v['value']} vs {tb['metrics'][k]['value']}")
    return problems


def check_bare_directory():
    """run.py in a directory with only BENCHMARK.json and kgbench/ must fail fast."""
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "target")) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "kgbench"), ignore=shutil.ignore_patterns("target"))
        t0 = time.monotonic()
        out = subprocess.run(command() + ["--workload", "mc-tables", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                             cwd=d, capture_output=True, text=True, timeout=180)
        took = time.monotonic() - t0
    printed = any(l.startswith("{") for l in out.stdout.splitlines())
    if out.returncode == 0 or printed or took > 180:
        return [f"bare directory: exit {out.returncode}, printed result {printed}, {took:.0f}s"]
    return []


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default="spark-movie,mc-tables,evolve-seq")
    p.add_argument("--seconds", default=5, type=int)
    p.add_argument("--seed", default=7, type=int)
    args = p.parse_args()
    problems = check_bare_directory()
    for w in args.workloads.split(","):
        found = check_workload(w, args.seed, args.seconds)
        print(f"{w}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += [f"{w}: {x}" for x in found]
    for x in problems:
        print(x)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
