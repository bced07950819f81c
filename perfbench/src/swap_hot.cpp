// swap_hot: resident verified swaps on XCV300 through a ReconfigService with
// 3 boards and 6 tenants over make_load_fixture(2 slots x 6 variants).
// Tenant quotas cover all 12 keys and a warm-up pass makes every key
// resident before timing, so generation is taken out of the swap: replay,
// send, readback and the full-plane sweep in hwif dominate.
//
// Two phases share the measured time:
//   open loop    one generator thread sends Poisson arrivals at the fixed
//                rate kRateHz on an absolute schedule; each swap is timed
//                from its *due* time to its completion (the service's
//                on_complete hook), so a stalled generator or a backlog
//                shows in the latency instead of hiding it, and the
//                generator's own lateness is reported;
//   closed loop  one client per board keeps exactly one request in flight
//                on that board; completions per second is the capacity.
#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "device/device.h"
#include "service/load_harness.h"
#include "service/reconfig_service.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace jpg;

constexpr const char* kPart = "XCV300";
constexpr std::size_t kBoards = 3;
constexpr std::size_t kTenants = 6;
constexpr std::size_t kSlots = 2;
constexpr std::size_t kVariants = 6;
/// Open-loop arrival rate (swaps/s): about a fifth of the closed-loop
/// capacity this workload measured on a 4-vCPU x86-64 VM (1100-1300/s).
/// Nearer half capacity, host noise turned into queueing and the latency
/// stopped repeating between runs. A constant, never re-derived per run,
/// so every run offers the same load.
constexpr double kRateHz = 250.0;
/// Share of --seconds spent in the open-loop phase; the rest is closed loop.
constexpr double kOpenShare = 0.6;
/// Closed-loop swaps per board per second of that phase. The phase runs a
/// fixed number of swaps sized from this nominal rate (about the measured
/// capacity per board) instead of a fixed time: peak RSS grows with swaps
/// served, in steps, so fixed work keeps it comparable between runs.
constexpr double kClosedRatePerBoard = 400.0;
/// Closed-loop completions per CPU-per-swap sample.
constexpr std::size_t kCpuBlock = 100;

/// Completion times written by the service's on_complete hook, indexed by
/// request cookie (1-based; cookie 0 is not recorded). Each slot is written
/// once by a pool worker before the request's future becomes ready, and
/// read only after that future was waited on.
class CompletionLog {
 public:
  explicit CompletionLog(std::size_t capacity) : done_ns_(capacity, 0) {}
  void record(const ServiceResponse& r) {
    if (r.cookie != 0 && r.cookie <= done_ns_.size()) {
      done_ns_[r.cookie - 1] = now_ns();
    }
  }
  [[nodiscard]] std::uint64_t done(std::uint64_t cookie) const {
    return done_ns_[cookie - 1];
  }

 private:
  std::vector<std::uint64_t> done_ns_;
};

struct Setup {
  explicit Setup(LoadFixture f) : fx(std::move(f)) {}
  LoadFixture fx;
  std::unique_ptr<CompletionLog> log;
  std::unique_ptr<ReconfigService> svc;
};

std::string tenant_name(std::size_t t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed, std::size_t log_cap,
                                  Report& rep) {
  const Device& dev = Device::get(kPart);
  auto s =
      std::make_unique<Setup>(make_load_fixture(dev, seed, kSlots, kVariants));
  s->log = std::make_unique<CompletionLog>(log_cap);
  ServiceConfig cfg;
  cfg.queue_depth = 4096;
  cfg.tenant_quota = kSlots * kVariants;
  CompletionLog* log = s->log.get();
  cfg.on_complete = [log](const ServiceResponse& r) { log->record(r); };
  s->svc = std::make_unique<ReconfigService>(dev, s->fx.base, kBoards, cfg);

  // Warm-up: every tenant pins every key, then every board swaps every key
  // once, so timed swaps are all resident hits on warm boards.
  std::vector<std::future<ServiceResponse>> fs;
  for (std::size_t t = 0; t < kTenants; ++t) {
    for (std::size_t sl = 0; sl < kSlots; ++sl) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        fs.push_back(s->svc->submit(
            s->fx.request(sl, v, tenant_name(t), RequestKind::Generate)));
      }
    }
  }
  for (auto& f : fs) rep.gate(f.get().ok(), "warm-up generate failed");
  fs.clear();
  for (std::size_t b = 0; b < kBoards; ++b) {
    for (std::size_t sl = 0; sl < kSlots; ++sl) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        ServiceRequest req = s->fx.request(sl, v, tenant_name(v % kTenants));
        req.board = static_cast<int>(b);
        fs.push_back(s->svc->submit(std::move(req)));
      }
    }
  }
  for (auto& f : fs) rep.gate(f.get().ok(), "warm-up swap failed");
  return s;
}

struct Arrival {
  std::uint64_t due_ns = 0;  ///< offset from the phase start
  std::size_t slot = 0;
  std::size_t variant = 0;
  std::size_t tenant = 0;
};

/// The whole open-loop schedule, drawn from the seed before timing starts.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double seconds,
                                      std::size_t cap) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    const double u = std::max(rng.unit(), 1e-12);
    t += -std::log(u) / kRateHz;
    if (t >= seconds || out.size() == cap) break;
    Arrival a;
    a.due_ns = static_cast<std::uint64_t>(t * 1e9);
    a.slot = rng.uniform(kSlots);
    a.variant = rng.uniform(kVariants);
    a.tenant = rng.uniform(kTenants);
    out.push_back(a);
  }
  return out;
}

struct Sample {
  bool traced = false;
  double latency_ms = 0;  ///< due -> completion
  double late_ms = 0;     ///< due -> submit
  ServiceResponse resp;
};

}  // namespace

Report run_swap_hot(const Options& opt, Tracer& tracer) {
  Report rep;
  const double open_s = opt.seconds * kOpenShare;
  const double closed_s = opt.seconds - open_s;
  // Room for twice the expected arrivals; the schedule is cut there.
  const std::size_t cap = opt.max_ops != 0
                              ? opt.max_ops
                              : static_cast<std::size_t>(2 * kRateHz * open_s) +
                                    64;

  const std::uint64_t setup_wall = now_ns();
  const std::uint64_t setup_cpu = process_cpu_ns();
  const std::unique_ptr<Setup> s = make_setup(opt.seed, cap, rep);
  rep.end_setup(setup_wall, setup_cpu);
  if (opt.setup_only) return rep;
  ReconfigService& svc = *s->svc;
  const CompletionLog& log = *s->log;

  // ---- open loop ------------------------------------------------------------
  const std::vector<Arrival> arrivals = poisson_schedule(
      opt.seed, opt.max_ops != 0 ? 1e9 : open_s, cap);
  std::vector<std::uint64_t> submit_ns(arrivals.size());
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(arrivals.size());
  const std::uint64_t t_open = now_ns();
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const std::uint64_t due = t_open + arrivals[k].due_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    ServiceRequest req = s->fx.request(arrivals[k].slot, arrivals[k].variant,
                                       tenant_name(arrivals[k].tenant));
    req.cookie = k + 1;
    submit_ns[k] = now_ns();
    futures.push_back(svc.submit(std::move(req)));
  }
  std::vector<Sample> samples(arrivals.size());
  Digest digest;
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    Sample& x = samples[k];
    x.resp = futures[k].get();
    const std::uint64_t due = t_open + arrivals[k].due_ns;
    x.traced = opt.trace && k % 2 == 0;
    x.latency_ms = ns_to_ms(log.done(k + 1) - due);
    x.late_ms = ns_to_ms(submit_ns[k] - due);
    ++rep.attempted;
    if (!x.resp.ok()) {
      ++rep.failed;
      rep.gate(false, "swap " + std::to_string(k) + ": " +
                          std::string(service_error_name(x.resp.error)) +
                          " " + x.resp.message);
    }
    digest.add_value(arrivals[k].slot);
    digest.add_value(arrivals[k].variant);
  }

  // ---- closed loop: one request in flight per board -------------------------
  // Each completion is stamped with the wall clock and the process CPU clock.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> closed_done(
      kBoards);
  std::vector<std::size_t> closed_failed(kBoards, 0);
  const std::size_t per_board =
      opt.max_ops != 0
          ? opt.max_ops / kBoards + 1
          : static_cast<std::size_t>(kClosedRatePerBoard * closed_s) + 1;
  const std::uint64_t cpu_closed = process_cpu_ns();
  const std::uint64_t t_closed = now_ns();
  const std::string client_error = run_threads(kBoards, [&](std::size_t b) {
    Rng rng(opt.seed * 31 + b + 1);
    for (std::size_t n = 0; n < per_board; ++n) {
      ServiceRequest req =
          s->fx.request(rng.uniform(kSlots), rng.uniform(kVariants),
                        tenant_name(rng.uniform(kTenants)));
      req.board = static_cast<int>(b);
      if (svc.submit(std::move(req)).get().ok()) {
        closed_done[b].emplace_back(now_ns(), process_cpu_ns());
      } else {
        ++closed_failed[b];
      }
    }
  });
  rep.gate(client_error.empty(), "closed-loop client failed: " + client_error);
  const std::uint64_t t_closed_end = now_ns();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> closed_events = {
      {t_closed, cpu_closed}};
  for (std::size_t b = 0; b < kBoards; ++b) {
    closed_events.insert(closed_events.end(), closed_done[b].begin(),
                         closed_done[b].end());
    rep.attempted += closed_done[b].size() + closed_failed[b];
    rep.failed += closed_failed[b];
    rep.gate(closed_failed[b] == 0, "closed-loop swap failed on board " +
                                        std::to_string(b));
  }

  // ---- gates ----------------------------------------------------------------
  for (std::size_t b = 0; b < kBoards; ++b) {
    const AttestReport a = svc.attest(b);
    rep.gate(a.ok(), "board " + std::to_string(b) + " attest: " + a.summary());
  }
  svc.shutdown(true);
  const ServiceStats st = svc.stats();
  rep.gate(st.accounted() == st.submitted,
           "service accounted " + std::to_string(st.accounted()) + " of " +
               std::to_string(st.submitted) + " submitted");
  rep.digest = digest.hex();

  // ---- metrics --------------------------------------------------------------
  std::vector<double> lat, lat_traced, lat_plain, late, qwait, acquire, commit,
      dl, attempts, words, rb_words;
  double sent_sum = 0, rb_sum = 0;
  std::size_t hits = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const Sample& x = samples[k];
    const ServiceResponse& r = x.resp;
    const std::uint64_t dl_ns = r.report.telemetry.duration_ns;
    lat.push_back(x.latency_ms);
    (x.traced ? lat_traced : lat_plain).push_back(x.latency_ms);
    late.push_back(x.late_ms);
    qwait.push_back(ns_to_ms(r.queue_wait_ns));
    acquire.push_back(ns_to_ms(r.service_ns - std::min(r.service_ns, dl_ns)));
    const std::uint64_t exec_end = submit_ns[k] + r.queue_wait_ns + r.service_ns;
    const std::uint64_t done = log.done(k + 1);
    commit.push_back(ns_to_ms(done - std::min(done, exec_end)));
    dl.push_back(ns_to_ms(dl_ns));
    attempts.push_back(r.report.attempts);
    const double w = static_cast<double>(r.report.telemetry.counter("words_sent"));
    const double rb =
        static_cast<double>(r.report.telemetry.counter("readback_words"));
    words.push_back(w);
    rb_words.push_back(rb);
    sent_sum += w;
    rb_sum += rb;
    if (r.resident_hit) ++hits;

    if (x.traced) {
      const std::uint64_t due = t_open + arrivals[k].due_ns;
      const std::uint64_t req = k + 1;
      const std::uint64_t root = tracer.add("swap", 0, req, due, done);
      tracer.add("bench.late", root, req, due, submit_ns[k]);
      const std::uint64_t dispatch = submit_ns[k] + r.queue_wait_ns;
      tracer.add("service.queue", root, req, submit_ns[k], dispatch);
      const std::uint64_t exec =
          tracer.add("service.execute", root, req, dispatch, exec_end);
      tracer.add("hwif.download", exec, req, exec_end - std::min(exec_end, dl_ns),
                 exec_end);
      tracer.add("service.commit", root, req, exec_end, done);
    }
  }

  // CPU per swap over blocks of consecutive closed-loop completions (the
  // first event is the phase start); the median block.
  std::sort(closed_events.begin(), closed_events.end());
  const std::size_t swaps_closed = closed_events.size() - 1;
  const std::size_t block =
      std::clamp<std::size_t>(swaps_closed / 4, 1, kCpuBlock);
  std::vector<double> block_cpu;
  for (std::size_t i = block; i < closed_events.size(); i += block) {
    const std::uint64_t c0 = closed_events[i - block].second;
    const std::uint64_t c1 = closed_events[i].second;
    block_cpu.push_back(ns_to_ms(c1 - std::min(c0, c1)) /
                        static_cast<double>(block));
  }
  rep.cpu_ms_per_op = median(block_cpu);
  const double open_elapsed =
      arrivals.empty() ? 0 : ns_to_ms(arrivals.back().due_ns) / 1e3;
  rep.add_named("swaps", static_cast<double>(samples.size()), "count");
  rep.add_named("offered_rate_hz",
                open_elapsed > 0 ? static_cast<double>(arrivals.size()) /
                                       open_elapsed
                                 : 0,
                "1/s");
  rep.add_named("swap_p50_ms", quantile(lat, 0.5), "ms");
  rep.add_named("swap_p90_ms", quantile(lat, 0.9), "ms");
  rep.add_named("swap_p99_ms", quantile(lat, 0.99), "ms");
  rep.add_named("capacity_swaps_per_s",
                static_cast<double>(swaps_closed) /
                    (static_cast<double>(t_closed_end - t_closed) / 1e9),
                "1/s");

  if (opt.trace) {
    rep.add_layer("service.queue_wait_p50_ms", quantile(qwait, 0.5), "ms");
    rep.add_layer("service.queue_wait_p99_ms", quantile(qwait, 0.99), "ms");
    rep.add_layer("service.acquire_ms", quantile(acquire, 0.5), "ms");
    rep.add_layer("service.commit_ms", quantile(commit, 0.5), "ms");
    rep.add_layer("service.resident_hit_rate",
                  samples.empty() ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(samples.size()),
                  "ratio");
    rep.add_layer("hwif.attempts_per_swap", mean(attempts), "count");
    rep.add_layer("hwif.download_p50_ms", quantile(dl, 0.5), "ms");
    rep.add_layer("hwif.download_p99_ms", quantile(dl, 0.99), "ms");
    rep.add_layer("hwif.words_sent_per_swap", mean(words), "words");
    rep.add_layer("hwif.readback_words_per_swap", mean(rb_words), "words");
    rep.add_layer("hwif.readback_per_sent",
                  sent_sum == 0 ? 0.0 : rb_sum / sent_sum, "ratio");
    rep.add_layer("bench.late_p99_ms", quantile(late, 0.99), "ms");
    rep.add_layer("trace.overhead", median(lat_traced) - median(lat_plain),
                  "ms");
  }
  return rep;
}

}  // namespace perfbench
