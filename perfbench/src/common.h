// Shared pieces of the repository benchmark: options, the report each
// workload hands back, small statistics helpers and the in-memory span
// recorder used by traced runs.
//
// Every number is measured from outside the library: by timing calls into a
// layer's public functions and by reading the structs those functions
// return. Nothing here reads the JPG_COUNT registry, which OFF builds
// compile out.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (process-local epoch).
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed so far by every thread of this process, in ns.
[[nodiscard]] std::uint64_t process_cpu_ns();

[[nodiscard]] inline double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Caps the measured operations (0 = run for `seconds`). The self-test
  /// uses it so two runs of one seed do identical work.
  std::size_t max_ops = 0;
  /// Only set up, then report setup_s (perfbench/run.py repeats set-up in
  /// fresh processes, so process-wide caches are cold every time).
  bool setup_only = false;
  /// Where traced runs write their span file (created on demand).
  std::string out_dir = ".perfbench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produces. `named` holds the workload's own
/// end-to-end metrics (build_p50_ms, swap_p99_ms, ...); the generic fields
/// below are what BENCHMARK.json compares across commits.
///
/// Those are CPU times, not wall times: on a shared VM the hypervisor gives
/// this guest's vCPUs to other guests for stretches of a run ("steal"), which
/// wall time counts and the guest's CPU clocks do not. The wall-clock
/// latencies and rates are still measured, and printed under `named`.
struct Report {
  std::vector<Metric> named;
  std::vector<Metric> per_layer;
  double setup_s = 0;       ///< process CPU seconds spent in set-up
  double setup_wall_s = 0;  ///< the same set-up on the wall clock
  double setup_rss_mb = 0;  ///< peak resident set once set-up is done
  /// Process CPU time (all threads) per build, swap or node: a median over
  /// groups of operations, so a burst of contention moves few groups.
  double cpu_ms_per_op = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, rejected or incorrect operations
  std::vector<std::string> gate_failures;
  std::string digest;  ///< determinism digest of the outputs (hex)

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  /// Records the set-up that began at (`wall0`, `cpu0`) and ends now.
  void end_setup(std::uint64_t wall0, std::uint64_t cpu0);
  void add_named(std::string name, double v, std::string unit) {
    named.push_back({std::move(name), v, std::move(unit)});
  }
  void add_layer(std::string name, double v, std::string unit) {
    per_layer.push_back({std::move(name), v, std::move(unit)});
  }
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);

/// Runs body(i) for i in [0, n) on n threads and joins them all. An
/// exception leaving a thread is caught there; the first one's message is
/// returned ("" when none), so the caller can fail a gate with it.
template <typename Body>
[[nodiscard]] std::string run_threads(std::size_t n, Body body) {
  std::mutex mu;
  std::string error;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> guard(mu);
        if (error.empty()) error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return error;
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over bytes; used for the determinism digests.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(v));
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// One completed span. Names are string literals. `request` is shared by
/// every span of one module build, swap or app.
struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root (one end-to-end operation)
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store, written out once when the run ends. Used from the
/// benchmark's main thread only; spans are recorded after the timed call
/// returns, from timestamps taken around it.
class Tracer {
 public:
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t request, std::uint64_t start_ns,
                    std::uint64_t end_ns);
  /// A span whose children are recorded before it ends; close() sets the end.
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t request, std::uint64_t start_ns) {
    return add(name, parent, request, start_ns, start_ns);
  }
  void close(std::uint64_t id, std::uint64_t end_ns);

  /// Durations (ms) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Self time per span name, summed (ms): duration minus the part of it
  /// that child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;
  /// Share of root-span time covered by the roots' child spans, i.e. the
  /// sum of layer self times over end-to-end time when children do not
  /// overlap (overlapping children, as in a parallel DAG, count once).
  [[nodiscard]] double coverage() const;
  /// Writes one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
