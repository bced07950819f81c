#!/usr/bin/env python3
"""Repository benchmark: builds jpg_perfbench from this checkout and runs one
workload of it (or all three), each in its own process.

    python3 perfbench/run.py --workload tool_flow|swap_hot|sched_dag|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
into .perfbench_build/ (Release); later runs only re-check the build.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; a per-layer metric of a layer the workload does not exercise reads 0.
Exits non-zero, printing no result, when the build or a correctness gate
fails. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench_build")
OUT = os.path.join(ROOT, ".perfbench_out")
BINARY = os.path.join(BUILD, "jpg_perfbench")
WORKLOADS = ["tool_flow", "swap_hot", "sched_dag"]
RUN_LIMIT_S = 170  # the workload runs, once the build is up to date


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    for need in ("src/CMakeLists.txt", "bench/scenarios.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("not inside a jpg-cpp checkout: %s is missing" % need)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "--target", "jpg_perfbench",
                "-j", jobs], timeout=840)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_binary(workload, args, deadline, setup_only=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--setup-only", "1" if setup_only else "0"]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (workload, timeout))
    if proc.returncode != 0:
        fail("%s exited with %d" % (workload, proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("%s printed no result" % workload)
    detail = json.loads(lines[-1])
    if detail.get("correct") is not True or detail.get("attempted", 0) < 1:
        fail("%s reported an incorrect or empty run" % workload)
    return detail


def run_workload(workload, args, deadline):
    """One measured run plus set-up-only runs, each a fresh process so that
    process-wide caches are cold at every set-up; setup_s and setup_rss_mb
    are the medians."""
    detail = run_binary(workload, args, deadline)
    runs = [detail] + [run_binary(workload, args, deadline, setup_only=True)
                       for _ in range(args.setup_reps - 1)]
    detail["setup_samples"] = {}
    for name in ("setup_s", "setup_rss_mb"):
        samples = [r["end_to_end"][name]["value"] for r in runs]
        detail["setup_samples"][name] = samples
        detail["end_to_end"][name]["value"] = statistics.median(samples)
    detail["named"]["setup_s"]["value"] = detail["end_to_end"]["setup_s"]["value"]
    return detail


def contract_metrics(detail, spec, trace):
    """Maps the binary's metrics onto BENCHMARK.json's list, units checked."""
    have = detail["per_layer"] if trace else detail["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(have) - names)
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    out = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}  # layer idle here
        if got["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_table(detail):
    meta = detail["meta"]
    print("== %s  seed %d  %.0f s  (host_cpus %d, %s build, telemetry %s)"
          % (meta["workload"], meta["seed"], meta["seconds"],
             meta["host_cpus"], meta["build_type"],
             "on" if meta["telemetry"] else "off"))
    for section in ("end_to_end", "named", "per_layer"):
        if detail[section]:
            print("  -- " + section)
        for name, m in detail[section].items():
            print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-32s %16s" % ("digest", detail["digest"]))
    if detail.get("trace_file"):
        print("  %-32s %s" % ("spans", detail["trace_file"]))
    # Machine-readable copy for perfbench/selftest.py.
    print("# detail " + json.dumps(detail, separators=(",", ":")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--max-ops", type=int, default=0,
                    help="cap measured operations (self-test)")
    ap.add_argument("--setup-reps", type=int, default=5,
                    help="cold set-ups per workload; setup_s is their median")
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        detail = run_workload(w, args, deadline)
        print_table(detail)
        results[w] = detail

    if len(workloads) == 1:
        d = results[workloads[0]]
        result = {"correct": True, "attempted": d["attempted"],
                  "failed": d["failed"],
                  "metrics": contract_metrics(d, spec, args.trace)}
    else:
        metrics = {}
        for w, d in results.items():
            for name, m in contract_metrics(d, spec, args.trace).items():
                metrics[w + "." + name] = m
        result = {"correct": True,
                  "attempted": sum(d["attempted"] for d in results.values()),
                  "failed": sum(d["failed"] for d in results.values()),
                  "metrics": metrics}
    print(json.dumps(result, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    main()
