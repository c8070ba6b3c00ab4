#!/usr/bin/env python3
"""Write the per-layer report of the benchmark to kgbench/REPORT.md.

    python3 kgbench/report.py [--seed 101] [--seconds 20]

Run from the repository root. For each workload it makes one untraced run
(end-to-end metrics) and one traced run (per-layer metrics) with the same
seed, using the command line of BENCHMARK.json, and writes:
  * the end-to-end metrics per workload;
  * self time per layer per workload, for the measured ops and for set-up;
  * the per-layer counters and per-call times;
  * the tracing overhead (untraced minus traced ops_per_s);
  * a comparison with the scratch figures quoted in ROADMAP.md.
"""
import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spark-movie", "mc-tables", "evolve-seq")
LAYERS = ("kg", "exp", "core", "spark", "evolve", "jvm", "bench")
UNLISTED = "# unlisted-metrics "


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stdout[-3000:]}{out.stderr[-3000:]}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [l[2:] for l in lines[:-1] if l.startswith("# ") and not l.startswith(UNLISTED)]
    for l in lines[:-1]:
        if l.startswith(UNLISTED):
            result["metrics"].update(json.loads(l[len(UNLISTED):]))
    return result


def fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 100:
        return f"{x:,.0f}"
    if abs(x) >= 1:
        return f"{x:.2f}"
    return f"{x:.3g}"


def table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", default=101, type=int)
    p.add_argument("--seconds", default=None, type=int)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    e2e, layer = {}, {}
    for w in WORKLOADS:
        e2e[w] = run(spec, w, args.seed, seconds, "0")
        layer[w] = run(spec, w, args.seed, seconds, "1")
        print(f"{w}: done", file=sys.stderr)

    def v(w, name, traced=True):
        return (layer if traced else e2e)[w]["metrics"][name]["value"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # per-layer metrics BENCHMARK.json leaves out, because only mc-tables exercises them
    unlisted = [(k, m["unit"]) for k, m in layer["mc-tables"]["metrics"].items() if k not in units]
    units.update(unlisted)
    lines = [
        "# Per-layer report",
        "",
        f"Written by `kgbench/report.py` on {datetime.date.today()}: one untraced and one traced run",
        f"per workload, seed {args.seed}, {seconds} s measured, on {os.cpu_count()} CPUs "
        f"({platform.machine()}, {platform.system()}).",
        "Command: `" + " ".join(spec["command"]) + "`.",
        "Single runs: for run-to-run spread, see the ten-seed figures in CHANGES.md.",
        "",
        "## End-to-end metrics (untraced)",
        "",
    ]
    names = [m["name"] for m in spec["end_to_end"]]
    lines += table(["metric", "unit"] + list(WORKLOADS),
                   [[n, units[n]] + [fmt(v(w, n, traced=False)) for w in WORKLOADS] for n in names])
    lines += ["", "Run notes:", ""]
    lines += [f"- {w}: {e2e[w]['notes'][0]}" for w in WORKLOADS]
    lines += ["", "## Self time per layer", "",
              "Self time is a span's duration minus the time of the spans inside it. `bench` is",
              "the harness itself; `jvm` is the Spark session start. GC pauses fall inside the",
              "span that was running (see `jvm.gc_ms_per_op`).", ""]
    rows = []
    for l in LAYERS:
        op_key, setup_key = f"self_ms_per_op.{l}", f"setup_self_ms.{l}"
        rows.append([l] + [fmt(v(w, op_key)) if op_key in units else "-" for w in WORKLOADS]
                    + [fmt(v(w, setup_key)) if setup_key in units else "-" for w in WORKLOADS])
    lines += table(["layer"] + [f"{w} ms/op" for w in WORKLOADS]
                   + [f"{w} set-up ms" for w in WORKLOADS], rows)
    lines += ["", "## Tracing overhead", ""]
    rows = []
    for w in WORKLOADS:
        plain, traced = v(w, "ops_per_s", traced=False), v(w, "trace.ops_per_s")
        rows.append([w, fmt(plain), fmt(traced), fmt(plain - traced),
                     f"{100 * (plain - traced) / plain:.1f} %", fmt(v(w, "trace.spans_per_op"))])
    lines += table(["workload", "untraced op/s", "traced op/s", "difference op/s", "share",
                    "spans/op"], rows)
    lines += ["", "A single pair of runs: the difference is within the run-to-run spread unless it",
              "exceeds the ops_per_s spread in CHANGES.md.", ""]
    lines += ["## Per-layer metrics (traced)", "",
              "A metric reads 0 on a workload that does not exercise its layer. The last",
              f"{len(unlisted)} rows are not in BENCHMARK.json: only mc-tables exercises them.", ""]
    rows = [[name, unit] + [fmt(v(w, name)) for w in WORKLOADS]
            for name, unit in [(m["name"], m["unit"]) for m in spec["per_layer"]] + unlisted]
    lines += table(["metric", "unit"] + list(WORKLOADS), rows)

    twcs_ms = v("spark-movie", "spark.twcs.ms")
    rs, ss = v("evolve-seq", "evolve.update_ms.rs"), v("evolve-seq", "evolve.update_ms.ss")
    driver_twcs = v("mc-tables", "core.eval_ms.twcs")
    lines += [
        "", "## Against the scratch figures in ROADMAP.md", "",
        "- ROADMAP: one distributed TWCS sample (n=60) takes about 3.7-4.5 s at full scale "
        "(2.6M triples), through unpartitioned global windows.",
        f"  Here, at scale 0.1 ({fmt(v('spark-movie', 'spark.twcs.jobs'))} jobs, "
        f"{fmt(v('spark-movie', 'spark.twcs.stages'))} stages, of which "
        f"{fmt(v('spark-movie', 'spark.twcs.one_task_stages'))} run a single task, "
        f"{fmt(v('spark-movie', 'spark.twcs.shuffle_mb'))} MB shuffled, "
        f"{fmt(v('spark-movie', 'spark.twcs.codegen_classes'))} codegen compilations), "
        f"one `twcsSample` + `clusterEstimate` takes {fmt(twcs_ms)} ms.",
        f"  Summed task time over op wall time on all slots is {fmt(v('spark-movie', 'spark.slot_util'))}: "
        "the slots idle most of the op, so per-job overhead, not data volume, sets the time.",
        "- ROADMAP: the RS evaluator costs about 60 ms per update against about 5 ms for SS.",
        f"  Here: RS {fmt(rs)} ms, SS {fmt(ss)} ms, Baseline "
        f"{fmt(v('evolve-seq', 'evolve.update_ms.baseline'))} ms per update (medians over 30-batch "
        f"sequences); RS is {fmt(rs / ss)}x SS. RS time late in a sequence over early in it is "
        f"{fmt(v('evolve-seq', 'evolve.rs_late_early'))}, as expected while the size index is rebuilt "
        "over all of G on every update.",
        "- ROADMAP: 100 driver TWCS runs on MOVIE-like take about 40 ms.",
        f"  Here the median driver TWCS call over the Table 4/5/7 cells takes {fmt(driver_twcs)} ms, "
        f"so 100 runs take about {fmt(100 * driver_twcs)} ms; the op is dominated by RCS "
        f"({fmt(v('mc-tables', 'core.eval_ms.rcs'))} ms median per call, "
        f"{fmt(v('mc-tables', 'core.draws.rcs'))} draws per call).",
        "- ROADMAP: generating and summarising a MOVIE-like KG takes about 2-12 s.",
        f"  Here the full-scale MOVIE-like load through `ExpData` takes "
        f"{fmt(v('mc-tables', 'exp.load_ms.movie'))} ms after NELL and YAGO warmed the session "
        f"(NELL, the first load, {fmt(v('mc-tables', 'exp.load_ms.nell'))} ms); at scale 0.1 "
        f"generation plus cache takes {fmt(v('spark-movie', 'kg.gen_ms'))} ms and the summary "
        f"{fmt(v('spark-movie', 'core.summary_ms'))} ms.",
        "",
    ]
    with open(os.path.join(HERE, "REPORT.md"), "w") as fh:
        fh.write("\n".join(lines))


if __name__ == "__main__":
    main()
