#include "testing/sched_oracle.h"

#include <atomic>
#include <sstream>
#include <thread>

#include "support/error.h"

namespace jpg::testing {

namespace {

std::string trace_str(const std::vector<bool>& t) {
  std::string s;
  s.reserve(t.size());
  for (const bool b : t) s.push_back(b ? '1' : '0');
  return s;
}

/// One scheduled run of every graph; checks the per-app properties against
/// `refs`. Returns true when the chain survives, else fills `res`.
bool run_workload(const sched::SchedFixture& fixture,
                  const std::vector<sched::TaskGraph>& graphs,
                  const std::vector<std::vector<std::vector<bool>>>& refs,
                  const SchedOracleOptions& opt, bool faults,
                  const std::string& tier, SchedOracleResult& res) {
  sched::SchedConfig cfg;
  cfg.num_boards = opt.num_boards;
  cfg.sim_cycles = opt.sim_cycles;
  cfg.locality = opt.locality;
  cfg.allow_relocation = opt.allow_relocation;
  if (faults) {
    cfg.service.inject_faults = true;
    cfg.service.fault_profile.word_flip = 0.0005;
    cfg.service.fault_profile.truncate = 0.02;
    cfg.service.fault_profile.readback_flip = 0.0005;
    cfg.service.fault_profile.fault_budget = 16;
    cfg.service.fault_seed = opt.fault_seed;
    // Faulted downloads burn extra attempts; give the ladder headroom.
    cfg.max_retries = 4;
  }

  sched::AcceleratorScheduler scheduler(fixture, cfg);

  std::atomic<bool> defrag_stop{false};
  std::thread defragger;
  if (opt.defrag_mid_run && !faults) {
    defragger = std::thread([&] {
      while (!defrag_stop.load(std::memory_order_relaxed)) {
        for (std::size_t b = 0; b < opt.num_boards; ++b) {
          (void)scheduler.defragment(b);
        }
        std::this_thread::yield();
      }
    });
  }

  std::vector<sched::AppTicket> tickets;
  tickets.reserve(graphs.size());
  for (const sched::TaskGraph& g : graphs) {
    tickets.push_back(scheduler.submit(g));
  }
  std::vector<sched::AppReport> reports;
  reports.reserve(tickets.size());
  for (const sched::AppTicket& t : tickets) {
    reports.push_back(t.report.get());
  }
  if (defragger.joinable()) {
    defrag_stop.store(true, std::memory_order_relaxed);
    defragger.join();
  }
  scheduler.shutdown(true);
  res.sched_stats = scheduler.stats();

  const auto fail = [&](const std::string& property, std::string detail) {
    res.status = OracleStatus::Fail;
    res.property = tier + property;
    res.detail = std::move(detail);
    return false;
  };

  for (std::size_t a = 0; a < reports.size(); ++a) {
    const sched::AppReport& rep = reports[a];
    const std::string app_sfx = "/" + graphs[a].app;
    ++res.properties_checked;
    if (!rep.completed) {
      std::string why;
      for (const sched::NodeResult& nr : rep.nodes) {
        if (!nr.ok && !nr.error.empty()) {
          why = "node " + std::to_string(nr.node) + ": " + nr.error;
          break;
        }
      }
      return fail("app_completed" + app_sfx, why.empty() ? "not completed" : why);
    }
    ++res.properties_checked;
    for (const sched::NodeResult& nr : rep.nodes) {
      for (const std::size_t p : graphs[a].nodes[nr.node].preds) {
        const sched::NodeResult& pr = rep.nodes[p];
        if (!(pr.end_event < nr.start_event)) {
          std::ostringstream os;
          os << "node " << nr.node << " started at event " << nr.start_event
             << " but pred " << p << " ended at " << pr.end_event;
          return fail("executed_respects_deps" + app_sfx, os.str());
        }
      }
    }
    ++res.properties_checked;
    for (const sched::NodeResult& nr : rep.nodes) {
      const std::vector<bool>& want = refs[a][nr.node];
      if (nr.trace != want) {
        std::ostringstream os;
        os << "node " << nr.node << " (" << nr.kernel << " as " << nr.variant
           << ", " << sched::placement_name(nr.placement) << " at board "
           << nr.board << " slot " << nr.slot << ") traced "
           << trace_str(nr.trace) << ", reference " << trace_str(want);
        return fail("trace_equivalence" + app_sfx, os.str());
      }
    }
  }

  ++res.properties_checked;
  if (res.sched_stats.dep_violations != 0) {
    return fail("executed_respects_deps",
                std::to_string(res.sched_stats.dep_violations) +
                    " dependency violations counted at dispatch");
  }

  ++res.properties_checked;
  const ServiceStats svc = scheduler.service().stats();
  if (svc.submitted != svc.accounted()) {
    std::ostringstream os;
    os << "submitted " << svc.submitted << " != accounted " << svc.accounted()
       << " (completed " << svc.completed << ", failed " << svc.failed << ")";
    return fail("admission_clean", os.str());
  }

  ++res.properties_checked;
  const PbitCacheStats cache = scheduler.service().cache_stats();
  if (cache.pinned != svc.resident_entries) {
    std::ostringstream os;
    os << "pinned cache entries " << cache.pinned << " != live residents "
       << svc.resident_entries;
    return fail("no_leaked_leases", os.str());
  }
  return true;
}

}  // namespace

SchedOracleResult run_sched_oracle(const sched::SchedFixture& fixture,
                                   const std::vector<sched::TaskGraph>& graphs,
                                   const SchedOracleOptions& opt) {
  SchedOracleResult res;
  try {
    std::vector<std::vector<std::vector<bool>>> refs;
    refs.reserve(graphs.size());
    ++res.properties_checked;
    for (const sched::TaskGraph& g : graphs) {
      refs.push_back(sched::reference_traces(fixture, g, opt.sim_cycles));
    }

    if (!run_workload(fixture, graphs, refs, opt, /*faults=*/false, "", res)) {
      return res;
    }
    if (opt.fault_tier &&
        !run_workload(fixture, graphs, refs, opt, /*faults=*/true,
                      "fault_convergence:", res)) {
      return res;
    }
  } catch (const std::exception& e) {
    res.status = OracleStatus::Fail;
    if (res.property.empty()) res.property = "sequential_reference";
    res.detail = e.what();
  }
  return res;
}

}  // namespace jpg::testing
