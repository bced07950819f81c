// jpg_perfbench: runs one benchmark workload and prints its result as one
// JSON line on stdout (perfbench/run.py turns it into the benchmark's
// output). Exits non-zero, printing no result, when a correctness gate
// fails.
//
//   jpg_perfbench --workload tool_flow|swap_hot|sched_dag --seed N
//                 --seconds S --trace 0|1 [--max-ops N] [--setup-only 0|1]
//                 [--out-dir DIR]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "support/telemetry/telemetry.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "jpg_perfbench: %s\nusage: jpg_perfbench --workload "
               "tool_flow|swap_hot|sched_dag --seed N --seconds S --trace 0|1 "
               "[--max-ops N] [--setup-only 0|1] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v != "0";
    } else if (a == "--max-ops") {
      o.max_ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--setup-only") {
      o.setup_only = v != "0";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

void print_metrics(const char* key, const std::vector<Metric>& ms) {
  std::printf("\"%s\":{", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "jpg_perfbench: refusing to report from a non-optimized build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  perfbench::Tracer tracer;
  Report rep;
  try {
    if (opt.workload == "tool_flow") {
      rep = perfbench::run_tool_flow(opt, tracer);
    } else if (opt.workload == "swap_hot") {
      rep = perfbench::run_swap_hot(opt, tracer);
    } else if (opt.workload == "sched_dag") {
      rep = perfbench::run_sched_dag(opt, tracer);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jpg_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.setup_only) rep.attempted = 1;  // the set-up itself
  if (rep.attempted == 0) rep.gate(false, "no operation was attempted");
  if (!rep.gate_failures.empty()) {
    std::fprintf(stderr, "jpg_perfbench: %zu correctness gate(s) failed on %s:\n",
                 rep.gate_failures.size(), opt.workload.c_str());
    for (std::size_t i = 0; i < rep.gate_failures.size() && i < 20; ++i) {
      std::fprintf(stderr, "  %s\n", rep.gate_failures[i].c_str());
    }
    return 1;
  }

  const double rss = perfbench::peak_rss_mb();
  const double error_rate = static_cast<double>(rep.failed) /
                            static_cast<double>(rep.attempted);
  rep.named.insert(rep.named.begin(),
                   {{"setup_s", rep.setup_s, "s"},
                    {"setup_wall_s", rep.setup_wall_s, "s"},
                    {"peak_rss_mb", rss, "MB"},
                    {"error_rate", error_rate, "ratio"}});
  const std::vector<Metric> end_to_end = {
      {"setup_s", rep.setup_s, "s"},
      {"setup_rss_mb", rep.setup_rss_mb, "MB"},
      {"cpu_ms_per_op", rep.cpu_ms_per_op, "ms"},
  };

  std::string trace_file;
  if (opt.trace) {
    rep.add_layer("trace.coverage", tracer.coverage(), "ratio");
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    trace_file = opt.out_dir + "/trace_" + opt.workload + "_" +
                 std::to_string(opt.seed) + ".jsonl";
    if (!tracer.write_jsonl(trace_file)) {
      std::fprintf(stderr, "jpg_perfbench: cannot write %s\n",
                   trace_file.c_str());
      return 1;
    }
    std::fprintf(stderr, "self time by span (ms, summed):\n");
    for (const auto& [name, ms] : tracer.self_ms_by_name()) {
      std::fprintf(stderr, "  %-28s %12.3f\n", name.c_str(), ms);
    }
  }

  std::printf("{\"correct\":true,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"digest\":\"%s\",\"trace_file\":\"%s\",\"meta\":{"
              "\"host_cpus\":%u,\"build_type\":\"%s\",\"telemetry\":%d,"
              "\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"seconds\":%.17g},",
              rep.attempted, rep.failed, rep.digest.c_str(),
              trace_file.c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, JPG_TELEMETRY_ENABLED,
              opt.workload.c_str(), opt.seed, opt.seconds);
  print_metrics("named", rep.named);
  std::printf(",");
  print_metrics("end_to_end", end_to_end);
  std::printf(",");
  print_metrics("per_layer", rep.per_layer);
  std::printf("}\n");
  return 0;
}
