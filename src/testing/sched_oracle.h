// Scheduler oracle: proves the accelerator scheduler's headline invariants
// over random task graphs, in the PR 5 property-chain style (oracle.h).
//
// Property chain (each name is what a failure reports, in check order):
//   sequential_reference      the no-scheduler reference execution succeeds
//   app_completed/<a>         every app's report resolves completed
//   executed_respects_deps/<a> per node: every predecessor's end_event
//                             precedes the node's start_event, and the
//                             scheduler's own dep_violations counter is zero
//   trace_equivalence/<a>     per-node sim output == the sequential
//                             reference — locality, relocation, retries and
//                             defrag never change results
//   admission_clean           at quiescence the service conservation
//                             invariant holds: submitted == accounted()
//   no_leaked_leases          pinned cache entries == live registry entries
//                             (a lease outside the registry is a leak)
//   fault_convergence         (fault tier) the same workload through
//                             budget-bounded FaultyBoard links still
//                             completes with reference-equal traces
//
// Options select the tiers; defrag_mid_run interleaves defragmentation
// passes with the running graphs (satellite: plan_defrag x scheduler).
#pragma once

#include <string>
#include <vector>

#include "sched/accel_scheduler.h"
#include "sched/task_graph.h"
#include "testing/oracle.h"

namespace jpg::testing {

struct SchedOracleOptions {
  int sim_cycles = 24;
  std::size_t num_boards = 1;
  bool locality = true;
  bool allow_relocation = true;
  /// Re-run the workload with fault-injected board links (bounded budget)
  /// and require convergence to the same traces.
  bool fault_tier = false;
  std::uint64_t fault_seed = 7;
  /// Run defragmentation passes concurrently with the graphs and require
  /// trace neutrality (resident reuse must not regress correctness).
  bool defrag_mid_run = false;
};

struct SchedOracleResult {
  OracleStatus status = OracleStatus::Pass;
  std::string property;  ///< first failing property ("" on Pass)
  std::string detail;
  std::size_t properties_checked = 0;
  sched::SchedStats sched_stats;  ///< post-run scheduler counters

  [[nodiscard]] bool ok() const { return status == OracleStatus::Pass; }
};

/// Runs `graphs` as concurrent apps on one scheduler over `fixture` and
/// checks the property chain. Deterministic in (fixture, graphs, options)
/// up to scheduling order — which is exactly what the properties quantify
/// over. Never throws; internal errors become Fail verdicts.
[[nodiscard]] SchedOracleResult run_sched_oracle(
    const sched::SchedFixture& fixture,
    const std::vector<sched::TaskGraph>& graphs,
    const SchedOracleOptions& opt = {});

}  // namespace jpg::testing
