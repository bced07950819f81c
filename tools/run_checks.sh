#!/usr/bin/env bash
# Build-and-test matrix for local pre-merge checking and for the nightly
# job. Eight configurations (the default run is the first four):
#
#   release    default flags, full fast tier          (the tier-1 gate)
#   asan       JPG_SANITIZE=address (ASan + UBSan + libstdc++ bounds
#              assertions), fast + fuzz               (memory bugs)
#   tsan       JPG_SANITIZE=thread, tsan-labelled     (threaded router)
#   telemoff   JPG_TELEMETRY=OFF, fast tier           (counters compile out)
#   service    TSan run of the service, concurrent-stream, shared-lease-
#              table and scheduler tests, stats coherence, the slot
#              circuit cache and the ThreadPool tests (a service dispatch
#              posts to the pool from a pool worker) included
#              (each repeated until a failure, up to 10 runs), then a
#              release JPG_BENCH_SMOKE=1 run of bench_service gated on the
#              BENCH_service.json sanity fields: p99 swap latency finite,
#              swaps/sec > 0, zero admission-control violations, zero
#              per-tenant quota violations and zero failed requests.
#   reloc      ASan build of the relocation stack: the fast relocation and
#              defragmentation tests, the attestation suite (incl. the
#              200-scenario fault sweep), the CLI tests of every command
#              that loads a base bitstream into a plane (relocate, attest,
#              apply, verify, download, and the truncated-partial case)
#              and the fuzz smoke whose corpus includes relocated streams.
#   sched      ASan build + run of the scheduler test suite (oracle family,
#              chaos tier, stats coherence), the sched CLI smoke sweep, then
#              a release JPG_BENCH_SMOKE=1 run of bench_sched gated on
#              BENCH_sched.json: swap-avoidance hit rate > 0.5 on the
#              locality workload, zero dependency-order violations, zero
#              admission violations, node throughput > 0. Both gates are
#              the threshold table in tools/bench_gates.py. NIGHTLY=1 adds
#              the >=500-graph-per-device scheduler oracle shards.
#   bench      release build, JPG_BENCH_SMOKE=1 run of the parallel-core
#              benches (router, partial gen, word kernels) plus the ICAP
#              streaming bench; on hosts with >= 4 cores it additionally
#              fails if the router threads sweep stops scaling (speedup
#              < 1.5x). The streaming gates hold on any host:
#              copy_bytes_per_resident_swap == 0, resident words/sec >=
#              cold, resident ns/frame < warm-buffered ns/frame; so does
#              the kernels gate, crc16_run_ns_per_word <
#              crc16_word_ns_per_word.
#
# Usage:
#   tools/run_checks.sh            # the full matrix
#   tools/run_checks.sh release    # one configuration
#   tools/run_checks.sh bench      # bench smoke + scaling gate only
#   NIGHTLY=1 tools/run_checks.sh release
#                                  # additionally run the >=10k-design
#                                  # property sweep (ctest -C nightly)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
CONFIGS=("${@:-release asan tsan telemoff}")
# Re-split in case the default string was taken as one word.
read -r -a CONFIGS <<< "${CONFIGS[*]}"

run_one() {
  local name=$1 build_dir=$2
  shift 2
  echo "=== [$name] configure: $* ==="
  cmake -B "$build_dir" -S . "$@" > /dev/null
  cmake --build "$build_dir" -j "$JOBS"
  case "$name" in
    asan)
      (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" -L 'fast|fuzz')
      ;;
    tsan)
      (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" -L tsan)
      ;;
    *)
      (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" -L fast)
      ;;
  esac
  if [[ "${NIGHTLY:-0}" == "1" && "$name" == "release" ]]; then
    echo "=== [$name] nightly property sweep (>=10000 designs) ==="
    (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" -C nightly -L nightly)
  fi
}

run_bench_smoke() {
  local build_dir=build
  echo "=== [bench] configure: -DCMAKE_BUILD_TYPE=Release ==="
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$build_dir" -j "$JOBS" --target \
    bench_cl_pnr_time bench_ablation_partial_gen bench_word_kernels \
    bench_icap_stream
  local out
  out=$(mktemp -d)
  echo "=== [bench] smoke run (JPG_BENCH_SMOKE=1, reports in $out) ==="
  (cd "$out" &&
   JPG_BENCH_SMOKE=1 "$OLDPWD/$build_dir/bench/bench_cl_pnr_time" &&
   JPG_BENCH_SMOKE=1 "$OLDPWD/$build_dir/bench/bench_ablation_partial_gen" &&
   JPG_BENCH_SMOKE=1 "$OLDPWD/$build_dir/bench/bench_word_kernels" &&
   JPG_BENCH_SMOKE=1 "$OLDPWD/$build_dir/bench/bench_icap_stream")
  echo "=== [bench] scaling gate ==="
  python3 - "$out" <<'EOF'
import json, os, sys

out = sys.argv[1]
cpus = os.cpu_count() or 1
MIN_SPEEDUP = 1.5
failures = []

pnr = json.load(open(os.path.join(out, "BENCH_pnr.json")))
for sec, kv in pnr.items():
    if "route_speedup_t8" not in kv:
        continue
    ratio = kv["route_speedup_t8"] / kv["route_speedup_t1"]
    print(f"  {sec}: route_speedup_t8/t1 = {ratio:.2f} "
          f"(host_cpus={int(kv.get('host_cpus', cpus))})")
    if cpus >= 4 and ratio < MIN_SPEEDUP:
        failures.append(f"{sec}: router threads sweep scales {ratio:.2f}x "
                        f"< {MIN_SPEEDUP}x on a {cpus}-core host")

# The kernels report has no thread axis. On any host, the CRC's run form
# (eight writes per step) must beat one update per word.
kern = json.load(open(os.path.join(out, "BENCH_word_kernels.json")))
for sec, kv in kern.items():
    if "crc16_run_ns_per_word" not in kv:
        continue
    print(f"  {sec}: crc16 ns/word run {kv['crc16_run_ns_per_word']:.2f} "
          f"vs word {kv['crc16_word_ns_per_word']:.2f}")
    if kv["crc16_run_ns_per_word"] >= kv["crc16_word_ns_per_word"]:
        failures.append(f"{sec}: crc16 update_run is not faster per word "
                        "than one update per word")

# ICAP streaming: the zero-copy and resident-beats-buffered claims hold on
# any host.
icap = json.load(open(os.path.join(out, "BENCH_icap_stream.json")))
for sec, kv in icap.items():
    if "copy_bytes_per_resident_swap" not in kv:
        continue
    print(f"  {sec}: copy B/resident swap = "
          f"{kv['copy_bytes_per_resident_swap']:.0f}, resident/cold words/s "
          f"= {kv['resident_words_per_sec'] / kv['cold_words_per_sec']:.2f}, "
          f"resident/warm ns/frame = "
          f"{kv['resident_ns_per_frame'] / kv['warm_buffered_ns_per_frame']:.2f} "
          f"(host_cpus={int(kv.get('host_cpus', cpus))})")
    if kv["copy_bytes_per_resident_swap"] != 0:
        failures.append(f"{sec}: resident swap copied "
                        f"{kv['copy_bytes_per_resident_swap']:.0f} bytes "
                        "(zero-copy datapath regressed)")
    if kv["resident_words_per_sec"] < kv["cold_words_per_sec"]:
        failures.append(f"{sec}: resident streaming slower than the cold "
                        "regenerate+send path")
    if kv["resident_ns_per_frame"] >= kv["warm_buffered_ns_per_frame"]:
        failures.append(f"{sec}: resident swap not faster than the "
                        "warm-buffered copy path")

if cpus < 4:
    print(f"  scaling thresholds skipped: host has {cpus} core(s); "
          "parallel speedup is not observable here")
if failures:
    print("\n".join("FAIL: " + f for f in failures), file=sys.stderr)
    sys.exit(1)
print("bench smoke OK")
EOF
}

run_reloc_checks() {
  echo "=== [reloc] ASan relocation + attestation + fuzz smoke ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Release -DJPG_SANITIZE=address > /dev/null
  cmake --build build-asan -j "$JOBS" --target \
    relocate_test attest_test cli_test jpg_cli
  (cd build-asan && ctest --output-on-failure -j "$JOBS" \
     -R 'RelocateTest|PlanDefrag|RelocationService|AttestTest|CliTest\.(Relocate|Attest|Apply|Verify|DownloadVerified|TruncatedPartial)|fuzzcfg_fast')
}

run_service_checks() {
  echo "=== [service] TSan service + concurrent-stream + shared-table + scheduler tests ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Release -DJPG_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target service_test concurrent_stream_test sched_test support_test
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" --repeat until-fail:10 \
     -R 'ServiceTest|ConcurrentStreamTest|ConcurrentLeaseTest|SchedulerTest|SchedulerChaosTest|ServiceStatsTest|SlotCircuitCacheTest|ThreadPool')
  echo "=== [service] bench_service smoke + gate ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build -j "$JOBS" --target bench_service
  local out
  out=$(mktemp -d)
  (cd "$out" && JPG_BENCH_SMOKE=1 "$OLDPWD/build/bench/bench_service")
  python3 tools/bench_gates.py service "$out"
}

run_sched_checks() {
  echo "=== [sched] ASan scheduler tests + CLI sweep ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Release -DJPG_SANITIZE=address > /dev/null
  cmake --build build-asan -j "$JOBS" --target sched_test jpg_cli
  (cd build-asan && ctest --output-on-failure -j "$JOBS" \
     -R 'TaskGraphTest|SchedFixtureTest|SchedulerTest|SchedulerChaosTest|SlotCircuitCacheTest|ServiceStatsTest|sched_smoke')
  if [[ "${NIGHTLY:-0}" == "1" ]]; then
    echo "=== [sched] nightly scheduler oracle shards (>=500 graphs/device) ==="
    (cd build-asan && ctest --output-on-failure -j "$JOBS" -C nightly -L sched)
  fi
  echo "=== [sched] bench_sched smoke + gate ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build -j "$JOBS" --target bench_sched
  local out
  out=$(mktemp -d)
  (cd "$out" && JPG_BENCH_SMOKE=1 "$OLDPWD/build/bench/bench_sched")
  python3 tools/bench_gates.py sched "$out"
}

for cfg in "${CONFIGS[@]}"; do
  case "$cfg" in
    release)  run_one release  build       -DCMAKE_BUILD_TYPE=Release ;;
    asan)     run_one asan     build-asan  -DCMAKE_BUILD_TYPE=Release -DJPG_SANITIZE=address ;;
    tsan)     run_one tsan     build-tsan  -DCMAKE_BUILD_TYPE=Release -DJPG_SANITIZE=thread ;;
    telemoff) run_one telemoff build-off   -DCMAKE_BUILD_TYPE=Release -DJPG_TELEMETRY=OFF ;;
    bench)    run_bench_smoke ;;
    service)  run_service_checks ;;
    reloc)    run_reloc_checks ;;
    sched)    run_sched_checks ;;
    *) echo "unknown config '$cfg' (release|asan|tsan|telemoff|bench|service|reloc|sched)" >&2; exit 2 ;;
  esac
done
echo "=== all checks passed: ${CONFIGS[*]} ==="
