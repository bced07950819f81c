#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Report::end_setup(std::uint64_t wall0, std::uint64_t cpu0) {
  setup_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  setup_wall_s = static_cast<double>(now_ns() - wall0) / 1e9;
  setup_rss_mb = peak_rss_mb();
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::uint64_t Tracer::add(const char* name, std::uint64_t parent,
                          std::uint64_t request, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, request, start_ns,
                    std::max(start_ns, end_ns)});
  return id;
}

void Tracer::close(std::uint64_t id, std::uint64_t end_ns) {
  Span& s = spans_.at(id - 1);
  s.end_ns = std::max(s.start_ns, end_ns);
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ns_to_ms(s.end_ns - s.start_ns));
  }
  return out;
}

namespace {

/// Length of the union of `children` clipped to [lo, hi).
std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(children.begin(), children.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

std::unordered_map<std::uint64_t,
                   std::vector<std::pair<std::uint64_t, std::uint64_t>>>
children_by_parent(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      out;
  for (const Span& s : spans) {
    if (s.parent != 0) out[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  return out;
}

}  // namespace

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const auto kids = children_by_parent(spans_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    std::uint64_t self = s.end_ns - s.start_ns;
    const auto it = kids.find(s.id);
    if (it != kids.end()) self -= covered_ns(it->second, s.start_ns, s.end_ns);
    out[s.name] += ns_to_ms(self);
  }
  return out;
}

double Tracer::coverage() const {
  const auto kids = children_by_parent(spans_);
  std::uint64_t root_ns = 0;
  std::uint64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent != 0) continue;
    root_ns += s.end_ns - s.start_ns;
    const auto it = kids.find(s.id);
    if (it != kids.end()) covered += covered_ns(it->second, s.start_ns, s.end_ns);
  }
  return root_ns == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(root_ns);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 ",\"start_ns\":%" PRIu64
                 ",\"end_ns\":%" PRIu64 "}\n",
                 s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
