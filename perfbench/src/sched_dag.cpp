// sched_dag: seeded random task graphs through the AcceleratorScheduler over
// SchedFixture("XCV300"). Closed loop: kOutstanding apps are in flight at
// all times, each finished app replaced by the next one. This is the only
// workload that runs the scheduler's placement ladder and core relocation
// (rung 2 serves with a null module_config), with lease churn across many
// variant labels and arrivals driven by dependencies.
//
// Graph k depends only on (seed, k), so the node traces of a seed are fixed;
// every trace is checked against reference_traces once timing has ended.
#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/accel_scheduler.h"
#include "sched/sched_fixture.h"
#include "sched/task_graph.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace jpg;
using namespace jpg::sched;

constexpr const char* kPart = "XCV300";
/// Apps in flight; no more than the 4 CPUs of the reference host.
constexpr std::size_t kOutstanding = 2;
constexpr std::size_t kSchedWorkers = 2;
/// Apps one scheduler instance serves before it is replaced; see Session.
constexpr std::size_t kSessionApps = 100;

/// What the chained service on_complete hook saw for one request.
struct ServiceSample {
  std::uint64_t done_ns = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t service_ns = 0;
  std::uint64_t download_ns = 0;
};

/// Filled from pool workers by the hook; read after the apps resolved.
class ServiceLog {
 public:
  void record(const ServiceResponse& r) {
    const ServiceSample s{now_ns(), r.queue_wait_ns, r.service_ns,
                          r.report.telemetry.duration_ns};
    const std::lock_guard<std::mutex> guard(mu_);
    by_cookie_[r.cookie] = s;  // a retried node keeps its last attempt
    all_.push_back(s);
  }
  [[nodiscard]] const ServiceSample* find(std::uint64_t cookie) const {
    const auto it = by_cookie_.find(cookie);
    return it == by_cookie_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::vector<ServiceSample>& all() const { return all_; }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, ServiceSample> by_cookie_;
  std::vector<ServiceSample> all_;
};

/// One scheduler instance and the hook log of its service. A scheduler
/// serves kSessionApps apps and is then replaced (untimed): it keeps every
/// app it has seen and its service keeps one tenant per app, so one
/// instance's latency grows with its history, and a run that used a single
/// instance would measure how many apps the host got through before rather
/// than the current cost of an app.
struct Session {
  std::unique_ptr<ServiceLog> log;
  std::unique_ptr<AcceleratorScheduler> sched;
};

Session make_session(const SchedFixture& fx, bool hook) {
  Session s;
  s.log = std::make_unique<ServiceLog>();
  SchedConfig cfg;
  cfg.workers = kSchedWorkers;
  if (hook) {
    ServiceLog* log = s.log.get();
    cfg.service.on_complete = [log](const ServiceResponse& r) {
      log->record(r);
    };
  }
  s.sched = std::make_unique<AcceleratorScheduler>(fx, cfg);
  return s;
}

TaskGraph graph_for(const SchedFixture& fx, std::uint64_t seed,
                    std::size_t k) {
  TaskGraphOptions topt;
  topt.num_impls = fx.impls_per_kernel();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + k + 1);
  return random_task_graph(rng, fx.kernels(), topt, "app" + std::to_string(k));
}

struct AppRun {
  std::size_t index = 0;
  std::size_t session = 0;
  TaskGraph graph;
  std::uint64_t app_id = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t done_ns = 0;
  AppReport report;
};

}  // namespace

Report run_sched_dag(const Options& opt, Tracer& tracer) {
  Report rep;
  const std::uint64_t setup_wall = now_ns();
  const std::uint64_t setup_cpu = process_cpu_ns();
  const auto fixture = std::make_unique<SchedFixture>(kPart);
  Session session = make_session(*fixture, opt.trace);
  rep.end_setup(setup_wall, setup_cpu);
  if (opt.setup_only) return rep;
  const SchedFixture& fx = *fixture;

  std::vector<AppRun> runs;
  std::vector<std::unique_ptr<ServiceLog>> logs;
  std::vector<double> session_cpu;  ///< process CPU ms per node, per session
  double measured_s = 0;            ///< wall time over every session
  SchedStats st;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  std::uint64_t budget_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::size_t total_apps =
      opt.max_ops != 0 ? opt.max_ops : static_cast<std::size_t>(-1);
  std::size_t first = 0;
  while (first < total_apps && (opt.max_ops != 0 || budget_ns > 0)) {
    if (!session.sched) session = make_session(fx, opt.trace);
    AcceleratorScheduler& sched = *session.sched;
    const std::size_t limit = std::min(total_apps, first + kSessionApps);
    std::mutex runs_mu;
    std::atomic<std::size_t> next{first};
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + budget_ns;
    const std::string lane_error = run_threads(kOutstanding, [&](std::size_t) {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= limit || (opt.max_ops == 0 && now_ns() >= deadline)) break;
        AppRun run;
        run.index = k;
        run.session = logs.size();
        run.graph = graph_for(fx, opt.seed, k);
        run.submit_ns = now_ns();
        const AppTicket ticket = sched.submit(run.graph);
        run.report = ticket.report.get();
        run.done_ns = now_ns();
        run.app_id = ticket.id;
        const std::lock_guard<std::mutex> guard(runs_mu);
        runs.push_back(std::move(run));
      }
    });
    rep.gate(lane_error.empty(), "app submission failed: " + lane_error);
    const double cpu_ms = ns_to_ms(process_cpu_ns() - cpu0);
    std::uint64_t t1 = t0;
    double session_nodes = 0;
    for (std::size_t i = runs.size(); i-- > 0 && runs[i].session == logs.size();) {
      t1 = std::max(t1, runs[i].done_ns);
      session_nodes += static_cast<double>(runs[i].report.nodes.size());
    }
    if (session_nodes > 0) session_cpu.push_back(cpu_ms / session_nodes);
    measured_s += static_cast<double>(t1 - t0) / 1e9;
    budget_ns -= std::min(budget_ns, t1 - t0);
    first = limit;

    sched.shutdown(true);
    const SchedStats ss = sched.stats();
    st.nodes_completed += ss.nodes_completed;
    st.placements_reuse += ss.placements_reuse;
    st.placements_relocated += ss.placements_relocated;
    st.placements_cold += ss.placements_cold;
    st.swap_retries += ss.swap_retries;
    st.dep_violations += ss.dep_violations;
    const PbitCacheStats cs = sched.service().cache_stats();
    cache_lookups += cs.lookups;
    cache_hits += cs.hits;
    session.sched.reset();
    logs.push_back(std::move(session.log));
  }
  std::sort(runs.begin(), runs.end(),
            [](const AppRun& a, const AppRun& b) { return a.index < b.index; });

  // ---- gates: every app completes with the sequential reference traces -----
  std::vector<std::vector<std::vector<bool>>> refs(runs.size());
  std::atomic<std::size_t> cursor{0};
  const std::string ref_error = run_threads(kOutstanding, [&](std::size_t) {
    for (std::size_t i; (i = cursor.fetch_add(1)) < runs.size();) {
      refs[i] = reference_traces(fx, runs[i].graph, SchedConfig{}.sim_cycles);
    }
  });
  rep.gate(ref_error.empty(), "reference traces failed: " + ref_error);
  Digest digest;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const AppRun& r = runs[i];
    ++rep.attempted;
    bool ok = r.report.completed && r.report.nodes.size() == refs[i].size();
    for (std::size_t n = 0; ok && n < refs[i].size(); ++n) {
      ok = r.report.nodes[n].ok && r.report.nodes[n].trace == refs[i][n];
      for (const bool bit : r.report.nodes[n].trace) digest.add_value(bit);
    }
    nodes += r.report.nodes.size();
    if (!ok) ++rep.failed;
    rep.gate(ok, "app " + std::to_string(r.index) +
                     " did not reproduce its reference traces");
  }
  rep.gate(st.dep_violations == 0, "scheduler reported dependency violations");
  rep.digest = digest.hex();

  // ---- metrics --------------------------------------------------------------
  std::vector<double> app_ms, app_traced, app_plain, qwait, svc_ms;
  for (const AppRun& r : runs) {
    const double ms = ns_to_ms(r.done_ns - r.submit_ns);
    const bool traced = opt.trace && r.index % 2 == 0;
    app_ms.push_back(ms);
    (traced ? app_traced : app_plain).push_back(ms);
    for (const NodeResult& n : r.report.nodes) {
      qwait.push_back(ns_to_ms(n.queue_wait_ns));
      svc_ms.push_back(ns_to_ms(n.service_ns));
    }
    if (!traced) continue;
    // Node spans are rebuilt from NodeResult durations, anchored at the
    // service completion the hook observed for the node's last attempt.
    const std::uint64_t req = r.index + 1;
    const std::uint64_t root = tracer.add("app", 0, req, r.submit_ns, r.done_ns);
    for (std::size_t n = 0; n < r.report.nodes.size(); ++n) {
      const NodeResult& nr = r.report.nodes[n];
      const ServiceSample* ss = logs[r.session]->find((r.app_id << 32) | n);
      if (ss == nullptr) continue;
      const std::uint64_t exec0 = ss->done_ns - ss->service_ns;
      const std::uint64_t wait0 = exec0 - std::min(exec0, nr.queue_wait_ns);
      const std::uint64_t node =
          tracer.add("sched.node", root, req, wait0, ss->done_ns);
      const std::uint64_t wait =
          tracer.add("sched.queue", node, req, wait0, exec0);
      tracer.add("service.queue", wait, req, exec0 - ss->queue_wait_ns, exec0);
      const std::uint64_t exec =
          tracer.add("service.execute", node, req, exec0, ss->done_ns);
      tracer.add("hwif.download", exec, req, ss->done_ns - ss->download_ns,
                 ss->done_ns);
    }
  }
  // Every session starts from an empty scheduler and serves the same number
  // of apps, so sessions are alike; the median session.
  rep.cpu_ms_per_op = median(session_cpu);
  rep.add_named("apps", static_cast<double>(runs.size()), "count");
  rep.add_named("nodes", static_cast<double>(nodes), "count");
  rep.add_named("app_p50_ms", quantile(app_ms, 0.5), "ms");
  rep.add_named("app_p90_ms", quantile(app_ms, 0.9), "ms");
  rep.add_named("nodes_per_s",
                measured_s > 0 ? static_cast<double>(nodes) / measured_s : 0,
                "1/s");

  if (opt.trace) {
    const double done = static_cast<double>(std::max<std::uint64_t>(
        st.nodes_completed, 1));
    rep.add_layer("sched.queue_wait_p50_ms", quantile(qwait, 0.5), "ms");
    rep.add_layer("sched.queue_wait_p90_ms", quantile(qwait, 0.9), "ms");
    rep.add_layer("sched.swap_retries", static_cast<double>(st.swap_retries),
                  "count");
    rep.add_layer("sched.service_p50_ms", quantile(svc_ms, 0.5), "ms");
    rep.add_layer("sched.reuse_rate",
                  static_cast<double>(st.placements_reuse) / done, "ratio");
    rep.add_layer("sched.relocated_rate",
                  static_cast<double>(st.placements_relocated) / done, "ratio");
    rep.add_layer("sched.cold_rate",
                  static_cast<double>(st.placements_cold) / done, "ratio");
    std::vector<double> svc_q, dl;
    for (const auto& log : logs) {
      for (const ServiceSample& x : log->all()) {
        svc_q.push_back(ns_to_ms(x.queue_wait_ns));
        dl.push_back(ns_to_ms(x.download_ns));
      }
    }
    rep.add_layer("service.queue_wait_p50_ms", quantile(svc_q, 0.5), "ms");
    rep.add_layer("hwif.download_p50_ms", quantile(dl, 0.5), "ms");
    rep.add_layer("core.cache_hit_rate",
                  cache_lookups == 0
                      ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(cache_lookups),
                  "ratio");
    rep.add_layer("trace.overhead", median(app_traced) - median(app_plain),
                  "ms");
  }
  return rep;
}

}  // namespace perfbench
