#!/usr/bin/env python3
"""Threshold gates for the service and scheduler bench smoke reports.

Usage: tools/bench_gates.py <service|sched> <dir>

Reads BENCH_service.json or BENCH_sched.json from <dir>, prints one summary
line per bench section and checks every gate of the table below against it.
Exits 1 (one "FAIL:" line per violation on stderr) when a gate fails, 0
otherwise. tools/run_checks.sh runs it after each smoke run.
"""
import json
import math
import os
import sys

# One entry per report. `marker` is the key that tells a bench section from
# the telemetry section. `summary` and each gate's message are format
# strings over the section's fields, plus `sec` (the section name) and a
# `<name>_ms` twin of every `<name>_ns` field. A gate is (fields, test,
# threshold, message): it fails when any of its fields fails the test.
GATES = {
    "service": {
        "report": "BENCH_service.json",
        "marker": "p99_swap_ns",
        "summary": "  {sec}: {swaps_per_sec:.0f} swaps/s, "
                   "p50 {p50_swap_ms:.2f} ms, "
                   "p99 {p99_swap_ms:.2f} ms, "
                   "rejected {rejected:.0f}, "
                   "admission_violations {admission_violations:.0f}, "
                   "quota_violations {quota_violations:.0f}",
        "gates": [
            (("p99_swap_ns",), "finite>", 0,
             "p99 swap latency not finite/positive"),
            (("swaps_per_sec",), ">", 0, "sustained swap rate is zero"),
            (("admission_violations",), "==", 0,
             "queue exceeded its configured depth "
             "({admission_violations:.0f} over)"),
            (("quota_violations",), "==", 0,
             "a tenant exceeded its resident quota "
             "({quota_violations:.0f} over)"),
            (("failed",), "==", 0, "{failed:.0f} dispatched requests failed"),
        ],
        "ok": "service gate OK",
    },
    "sched": {
        "report": "BENCH_sched.json",
        "marker": "locality_reuse_rate",
        "summary": "  {sec}: locality {locality_nodes_per_sec:.0f} nodes/s "
                   "reuse {locality_reuse_rate:.3f}, "
                   "mixed {mixed_nodes_per_sec:.0f} nodes/s "
                   "(queue wait p99 {mixed_queue_wait_p99_ms:.2f} ms), "
                   "dep_violations {dep_violations:.0f}, "
                   "admission_violations {admission_violations:.0f}",
        "gates": [
            (("locality_reuse_rate",), ">", 0.5,
             "swap-avoidance hit rate {locality_reuse_rate:.3f} <= 0.5 on "
             "the locality workload"),
            (("dep_violations",), "==", 0,
             "{dep_violations:.0f} dependency-order violations"),
            (("admission_violations",), "==", 0,
             "admission violations under scheduler load"),
            (("locality_nodes_per_sec", "mixed_nodes_per_sec"), ">", 0,
             "node throughput is zero"),
        ],
        "ok": "sched gate OK",
    },
}

TESTS = {
    ">": lambda v, t: v > t,
    "==": lambda v, t: v == t,
    "finite>": lambda v, t: math.isfinite(v) and v > t,
}


def main(argv):
    if len(argv) != 3 or argv[1] not in GATES:
        print(f"usage: {argv[0]} <{'|'.join(GATES)}> <dir>", file=sys.stderr)
        return 2
    spec = GATES[argv[1]]
    with open(os.path.join(argv[2], spec["report"])) as f:
        rep = json.load(f)
    failures = []
    for sec, kv in rep.items():
        if spec["marker"] not in kv:
            continue  # telemetry section
        fields = dict(kv, sec=sec)
        fields.update({k[:-3] + "_ms": v / 1e6
                       for k, v in kv.items() if k.endswith("_ns")})
        print(spec["summary"].format(**fields))
        for names, test, threshold, message in spec["gates"]:
            if not all(TESTS[test](kv[n], threshold) for n in names):
                failures.append(f"{sec}: " + message.format(**fields))
    if failures:
        print("\n".join("FAIL: " + f for f in failures), file=sys.stderr)
        return 1
    print(spec["ok"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
