#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 kgbench/run.py <pins from BENCHMARK.json> --workload mc-tables --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run builds the harness and the
repository's main sources with sbt (offline) into kgbench/target; later runs
reuse the build while the sources are unchanged. Each run starts one JVM with
a pinned heap, collector and Spark settings, and the last line of standard
output is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the spans of the run are written
as JSON lines to kgbench/target/traces/. Per-layer metrics that BENCHMARK.json
does not list (those of the mc-tables workload) go on the comment line
"# unlisted-metrics {...}" before the result.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "target")
WORKLOADS = ("spark-movie", "mc-tables", "evolve-seq")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float,
                   help="length of the measured phase; it runs at least 22 ops")
    p.add_argument("--trace", required=True, choices=("0", "1"))
    # Runtime pins: BENCHMARK.json's command line sets them.
    p.add_argument("--heap", required=True, help="JVM heap, used as both -Xms and -Xmx")
    p.add_argument("--gc", required=True, help="the one collector, as in -XX:+Use<gc>")
    p.add_argument("--spark-threads", required=True, type=int, help="N of local[N], capped at nproc")
    p.add_argument("--shuffle-partitions", required=True, type=int)
    p.add_argument("--warmup", required=True,
                   help="ops run and discarded before timing, per workload: name=n,...")
    p.add_argument("--tiered", required=True,
                   help="tiered JIT compilation on or off, per workload: name=on|off,...")
    return p.parse_args()


def per_workload(pin, workload):
    """The value for `workload` in a pin of the form name=value,..."""
    values = dict(kv.split("=", 1) for kv in pin.split(","))
    if workload not in values:
        fail(f"no value for {workload} in {pin}")
    return values[workload]


def fail(msg):
    print(f"kgbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Everything the build reads: the harness and the repository's main build."""
    roots = [os.path.join(HERE, "src"), os.path.join(HERE, "project"), os.path.join(ROOT, "src", "main"),
             os.path.join(ROOT, "jobs"), os.path.join(ROOT, "project")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(ROOT, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def build():
    """Build with sbt unless the sources match the last build; return the classpath."""
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail(f"no repository sources under {ROOT} (expected build.sbt and src/main/scala)")
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp_file, cp_file = os.path.join(OUT, "stamp"), os.path.join(OUT, "classpath.txt")
    if os.path.isfile(stamp_file) and os.path.isfile(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == digest.hexdigest():
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(OUT, 'sbt-global')}",
           "export kgbench/Runtime/fullClasspath"]
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        code, out = run_group(cmd, HERE, env, BUILD_TIMEOUT_S, log)
        log.write(out)
    lines = [l for l in out.splitlines() if l.startswith("/") and ".jar" in l]
    if code != 0 or not lines:
        fail(f"build failed (exit {code}); see {log_path}")
    with open(cp_file, "w") as fh:
        fh.write(lines[-1])
    with open(stamp_file, "w") as fh:
        fh.write(digest.hexdigest())
    return lines[-1]


def run_group(cmd, cwd, env, timeout, stderr):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=stderr,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def select(result, trace):
    """Check the result and split its metrics: those BENCHMARK.json lists stay
    in the result; the others, of layers that only an unlisted workload
    exercises, are returned apart.
    """
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no op attempted")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is None:
        return {}
    missing = set(want.items()) - set(got.items())
    if missing:
        fail(f"metrics of BENCHMARK.json missing from the result: {sorted(missing)}")
    extra = {k: v for k, v in result["metrics"].items() if k not in want}
    result["metrics"] = {k: result["metrics"][k] for k in want}
    return extra


def main():
    args = parse_args()
    started = time.monotonic()
    classpath = build()
    warmup = per_workload(args.warmup, args.workload)
    tiered = per_workload(args.tiered, args.workload)
    if tiered not in ("on", "off"):
        fail(f"--tiered {tiered} for {args.workload}: expected on or off")
    threads = max(1, min(args.spark_threads, os.cpu_count() or 1))
    for d in ("spark-local", "tmp", "logs", "traces"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    env = dict(os.environ, SPARK_MASTER=f"local[{threads}]",
               SPARK_SHUFFLE_PARTITIONS=str(args.shuffle_partitions))
    cmd = ["java", f"-Xms{args.heap}", f"-Xmx{args.heap}", f"-XX:+Use{args.gc}",
           f"-XX:{'+' if tiered == 'on' else '-'}TieredCompilation",
           # A full GC of SerialGC leaves up to 5 % of the old generation
           # uncompacted as dead space: heap_mb after one seed's run read 106
           # to 211 MB over 102.9 MB of live objects.
           "-XX:MarkSweepDeadRatio=0",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           # Room for every class a run generates: evictions from the default
           # 100 entries depend on timing and make codegen counts differ
           # between runs of one seed.
           "-Dspark.sql.codegen.cache.maxEntries=10000",
           f"-Dspark.local.dir={os.path.join(OUT, 'spark-local')}",
           f"-Dspark.sql.warehouse.dir={os.path.join(OUT, 'warehouse')}",
           f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
           "-cp", classpath, "kgbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--warmup", warmup]
    if args.trace == "1":
        cmd += ["--trace-file", os.path.join(OUT, "traces", f"{tag}.jsonl")]
    log_path = os.path.join(OUT, "logs", f"{tag}.log")
    with open(log_path, "w") as log:
        code, out = run_group(cmd, ROOT, env, RUN_TIMEOUT_S, log)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"{args.workload} exited with {code}; see {log_path}")
    result = json.loads(lines[-1])
    extra = select(result, args.trace)
    for line in lines[:-1]:
        print(line)
    if extra:
        print(f"# unlisted-metrics {json.dumps(extra)}")
    print(f"# {args.workload} seed={args.seed} local[{threads}] "
          f"total {time.monotonic() - started:.1f}s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
