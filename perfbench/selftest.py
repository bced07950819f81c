#!/usr/bin/env python3
"""Self-test of the repository benchmark: runs every workload at a tiny size
and checks the output contract, the correctness gates, determinism and the
refusal to run outside a checkout.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it builds through perfbench/run.py.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# The workload-level end-to-end metrics each workload prints by name.
NAMED = {
    "tool_flow": ["setup_s", "peak_rss_mb", "error_rate", "build_p50_ms",
                  "build_p99_ms", "pbit_gen_p50_ms", "pbit_bytes"],
    "swap_hot": ["setup_s", "peak_rss_mb", "error_rate", "swap_p50_ms",
                 "swap_p99_ms", "capacity_swaps_per_s"],
    "sched_dag": ["setup_s", "peak_rss_mb", "error_rate", "app_p50_ms",
                  "app_p90_ms", "nodes_per_s"],
}
# Per-layer metrics each workload must measure itself (the rest read 0).
LAYERS = {
    "tool_flow": ["pnr.pack_ms", "pnr.place_ms", "pnr.route_ms",
                  "pnr.route_iterations", "pnr.nets_rerouted",
                  "xdl.write_ms", "xdl.parse_ms", "ucf.parse_ms",
                  "core.bind_ms", "core.pgen_ms", "core.cbits_calls",
                  "core.frames_written", "core.cache_hit_rate",
                  "hwif.verified_ms", "hwif.readback_per_sent"],
    "swap_hot": ["service.queue_wait_p50_ms", "service.queue_wait_p99_ms",
                 "hwif.attempts_per_swap", "service.acquire_ms",
                 "hwif.download_p50_ms", "hwif.download_p99_ms",
                 "hwif.words_sent_per_swap", "hwif.readback_words_per_swap",
                 "hwif.readback_per_sent", "service.resident_hit_rate",
                 "bench.late_p99_ms"],
    "sched_dag": ["sched.queue_wait_p50_ms", "sched.queue_wait_p90_ms",
                  "sched.swap_retries", "sched.service_p50_ms",
                  "sched.reuse_rate", "sched.relocated_rate",
                  "sched.cold_rate", "service.queue_wait_p50_ms",
                  "hwif.download_p50_ms", "core.cache_hit_rate"],
}
MAX_OPS = {"tool_flow": 12, "swap_hot": 60, "sched_dag": 12}


def check(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg, file=sys.stderr)
        sys.exit(1)


def run(workload, seed, trace, cwd=ROOT, runner=RUN):
    cmd = [sys.executable, runner, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--max-ops",
           str(MAX_OPS[workload]), "--setup-reps", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def parse(proc, what):
    check(proc.returncode == 0,
          "%s exited %d:\n%s" % (what, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    detail = [l for l in lines if l.startswith("# detail ")]
    check(len(detail) == 1, what + ": no detail line")
    return json.loads(lines[-1]), json.loads(detail[0][len("# detail "):])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == list(NAMED),
          "BENCHMARK.json workloads differ from the self-test's")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in NAMED:
        res, detail = parse(run(w, 3, 0), w)
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              w + ": result keys " + str(sorted(res)))
        check(res["correct"] is True and res["failed"] == 0 and
              res["attempted"] >= 1, w + ": gates or counts")
        check({k: v["unit"] for k, v in res["metrics"].items()} == e2e,
              w + ": end-to-end metrics or units differ from BENCHMARK.json")
        for k, v in res["metrics"].items():
            check(v["value"] > 0, "%s: %s reads %r" % (w, k, v["value"]))
        for name in NAMED[w]:
            check(name in detail["named"] and detail["named"][name]["unit"],
                  "%s: named metric %s missing" % (w, name))

        again = parse(run(w, 3, 0), w + " (repeat)")[1]
        check(again["digest"] == detail["digest"],
              w + ": same seed gave a different output digest")

        res, detail = parse(run(w, 3, 1), w + " --trace 1")
        check({k: v["unit"] for k, v in res["metrics"].items()} == layers,
              w + ": per-layer metrics or units differ from BENCHMARK.json")
        for name in LAYERS[w] + ["trace.coverage", "trace.overhead"]:
            check(name in detail["per_layer"],
                  "%s: per-layer metric %s not measured" % (w, name))
        check(detail["per_layer"]["trace.coverage"]["value"] > 0,
              w + ": empty trace")
        check(os.path.isfile(detail["trace_file"]), w + ": no span file")
        print("selftest: %s ok (digest %s)" % (w, detail["digest"]))

    # Outside a checkout (only BENCHMARK.json and perfbench/) it must fail
    # without printing a result.
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("tool_flow", 3, 0, cwd=bare,
               runner=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory run exited 0")
    check('"metrics"' not in proc.stdout, "bare directory run printed a result")
    print("selftest: bare directory refused ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
