// The three workloads of the repository benchmark, all on XCV300. Each runs
// in its own process (perfbench/run.py starts one per workload); see
// perfbench/README.md for why each was chosen and what it measures.
#pragma once

#include "common.h"

namespace perfbench {

/// Paper Figure 2 phase-2 loop over the Figure 4 module pool, closed loop,
/// one caller: module flow -> XDL/UCF text -> JPG pbit -> verified download.
[[nodiscard]] Report run_tool_flow(const Options& opt, Tracer& tracer);

/// Resident verified swaps through a 3-board ReconfigService: open-loop
/// Poisson arrivals at a fixed rate, then one request in flight per board.
[[nodiscard]] Report run_swap_hot(const Options& opt, Tracer& tracer);

/// Random task graphs through the AcceleratorScheduler, a fixed number of
/// apps outstanding, each finished app replaced by the next.
[[nodiscard]] Report run_sched_dag(const Options& opt, Tracer& tracer);

}  // namespace perfbench
