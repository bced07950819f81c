// MULTI-TENANT RECONFIGURATION SERVICE — thousands of concurrent swap
// requests replayed against a ReconfigService fleet with open-loop Poisson
// arrivals. Two phases per device:
//
//   capacity   back-to-back load (no think time) to measure the sustained
//              swap rate the fleet can absorb, which calibrates...
//   poisson    ...an open-loop arrival process at ~0.8x capacity: queue-wait
//              is part of every latency sample, and admission control is
//              armed (rejections are counted, and any accepted-beyond-depth
//              request would be an admission violation).
//
// Emits BENCH_service.json with p50/p99 swap latency, sustained swaps/sec,
// rejection counts, quota-eviction counts and two gate fields the `service`
// CI configuration asserts on: admission_violations (queue_peak beyond the
// configured depth — must be 0) and quota_violations (a tenant's resident
// peak beyond its quota — must be 0).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "device/device.h"
#include "service/load_harness.h"
#include "service/reconfig_service.h"

namespace jpg {
namespace {

struct RunConfig {
  std::size_t boards;
  std::size_t tenants;
  std::size_t slots;
  std::size_t variants;
  std::size_t requests;
  std::size_t queue_depth;
  std::size_t tenant_quota;
};

struct RunResult {
  PoissonLoadResult load;
  ServiceStats stats;
  std::uint64_t quota_violations = 0;
  std::uint64_t quota_evictions = 0;
  std::uint64_t admission_violations = 0;
};

RunResult run_service_load(const Device& dev, const LoadFixture& fx,
                           const RunConfig& rc, double rate_hz,
                           std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.queue_depth = rc.queue_depth;
  cfg.tenant_quota = rc.tenant_quota;
  ReconfigService svc(dev, fx.base, rc.boards, cfg);
  PoissonLoadOptions opt;
  opt.requests = rc.requests;
  opt.tenants = rc.tenants;
  opt.rate_hz = rate_hz;
  opt.seed = seed;
  RunResult out;
  out.load = run_poisson_load(svc, fx, opt);
  svc.shutdown();
  out.stats = svc.stats();
  // Gate math: the bounded queue must never have held more than its depth,
  // and no tenant's resident set may ever have exceeded its quota.
  out.admission_violations =
      out.stats.queue_peak > rc.queue_depth
          ? out.stats.queue_peak - rc.queue_depth
          : 0;
  for (const auto& [name, ts] : out.stats.tenants) {
    if (rc.tenant_quota != 0 && ts.resident_peak > rc.tenant_quota) {
      out.quota_violations += ts.resident_peak - rc.tenant_quota;
    }
    out.quota_evictions += ts.quota_evictions;
  }
  return out;
}

void bench_device(const char* part, benchutil::JsonReport& report,
                  benchutil::Table& t) {
  using benchutil::fmt;
  const bool smoke = benchutil::smoke_mode();
  RunConfig rc;
  rc.boards = smoke ? 2 : 3;
  rc.tenants = smoke ? 4 : 6;
  rc.slots = 2;
  rc.variants = smoke ? 4 : 6;
  rc.requests = smoke ? 300 : 2000;
  rc.queue_depth = 64;
  rc.tenant_quota = 3;

  const Device& dev = Device::get(part);
  const LoadFixture fx = make_load_fixture(dev, 17, rc.slots, rc.variants);

  // Phase 1: capacity. Back-to-back submission saturates the fleet; the
  // completion rate is the sustained capacity of boards + pool + verify.
  const RunResult cap = run_service_load(
      dev, fx, rc, /*rate_hz=*/0, /*seed=*/21);
  const double capacity = cap.load.swaps_per_sec();

  // Phase 2: open-loop Poisson arrivals at ~0.8x measured capacity — busy
  // but stable, so latency percentiles mean something.
  const double rate = 0.8 * capacity;
  const RunResult poisson = run_service_load(dev, fx, rc, rate, /*seed=*/22);

  const double p50 =
      static_cast<double>(percentile_ns(poisson.load.latencies_ns, 50));
  const double p99 =
      static_cast<double>(percentile_ns(poisson.load.latencies_ns, 99));

  report.set(part, "host_cpus", static_cast<double>(benchutil::host_cpus()));
  report.set(part, "requests", static_cast<double>(rc.requests));
  report.set(part, "boards", static_cast<double>(rc.boards));
  report.set(part, "tenants", static_cast<double>(rc.tenants));
  report.set(part, "slots", static_cast<double>(rc.slots));
  report.set(part, "variants", static_cast<double>(rc.variants));
  report.set(part, "queue_depth", static_cast<double>(rc.queue_depth));
  report.set(part, "tenant_quota", static_cast<double>(rc.tenant_quota));
  report.set(part, "capacity_swaps_per_sec", capacity);
  report.set(part, "arrival_rate_hz", rate);
  report.set(part, "offered_rate_hz", poisson.load.offered_rate_hz);
  report.set(part, "completed", static_cast<double>(poisson.load.completed));
  report.set(part, "rejected", static_cast<double>(poisson.load.rejected));
  report.set(part, "failed", static_cast<double>(poisson.load.failed));
  report.set(part, "resident_hits",
             static_cast<double>(poisson.load.resident_hits));
  report.set(part, "p50_swap_ns", p50);
  report.set(part, "p99_swap_ns", p99);
  report.set(part, "swaps_per_sec", poisson.load.swaps_per_sec());
  report.set(part, "queue_peak",
             static_cast<double>(poisson.stats.queue_peak));
  report.set(part, "admission_violations",
             static_cast<double>(poisson.admission_violations));
  report.set(part, "quota_violations",
             static_cast<double>(poisson.quota_violations));
  report.set(part, "quota_evictions",
             static_cast<double>(poisson.quota_evictions));

  t.row({part, "capacity", fmt(capacity, 0), "-", "-",
         std::to_string(cap.load.rejected)});
  t.row({part, "poisson 0.8x", fmt(poisson.load.swaps_per_sec(), 0),
         fmt(p50 / 1e6, 2), fmt(p99 / 1e6, 2),
         std::to_string(poisson.load.rejected)});
}

void bench_service() {
  const std::vector<const char*> parts =
      benchutil::smoke_mode() ? std::vector<const char*>{"XCV50"}
                              : std::vector<const char*>{"XCV50", "XCV300"};
  benchutil::JsonReport report;
  benchutil::Table t(
      {"device", "phase", "swaps/s", "p50 ms", "p99 ms", "rejected"});
  for (const char* part : parts) bench_device(part, report, t);
  t.print("RECONFIG SERVICE: multi-tenant swap throughput and latency");
  std::printf(
      "open-loop Poisson arrivals at 0.8x the measured back-to-back "
      "capacity;\nlatency includes queue wait, and rejections are immediate "
      "(bounded admission queue).\n");
  benchutil::add_telemetry_section(report);
  report.write_file("BENCH_service.json");
}

}  // namespace
}  // namespace jpg

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  jpg::bench_service();
  return 0;
}
