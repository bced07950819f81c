// ABLATION — design choices inside the partial bitstream generator
// (DESIGN.md §5a), quantified:
//
//   * all-frames (state-independent, the default) vs diff-against-base
//     (smaller but only valid from the exact base state);
//   * FAR-run coalescing (contiguous frames share one FAR+FDRI block) vs
//     one block per frame;
//   * CRC on/off (integrity vs the handful of words it costs);
//   * the fast path itself: seed-style per-bit compose vs word-blit
//     composition, cold and through the pbit cache. Results land in
//     BENCH_partial_gen.json.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "bitstream/bitgen.h"
#include "core/jpg.h"
#include "scenarios.h"
#include "support/rng.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_writer.h"

namespace jpg {
namespace {

struct Env {
  const Device* dev;
  Bitstream base_bit;
  ConfigMemory base_mem;
  ConfigMemory module_mem;
  Region region;

  Env() : dev(&Device::get("XCV50")), base_mem(*dev), module_mem(*dev) {
    const auto slots = scenarios::fig1_slots(*dev);
    region = slots[0].region;
    auto base = scenarios::build_base(*dev, slots);
    const BaseFlowResult flow = run_base_flow(*dev, base.top, base.specs, {});
    CBits cb(base_mem);
    flow.design->apply(cb);
    base_bit = generate_full_bitstream(base_mem);
    const ModuleFlowResult mod = run_module_flow(
        *dev, scenarios::variant(slots[0], "match1").netlist,
        flow.interface_of("u_match"));
    CBits mcb(module_mem);
    mod.design->apply(mcb);
  }
};

Env& env() {
  static Env e;
  return e;
}

void BM_GenerateAllFrames(benchmark::State& state) {
  Env& e = env();
  const PartialBitstreamGenerator gen(e.base_mem);
  PartialGenOptions opts;
  opts.diff_only = false;
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = gen.generate(e.module_mem, e.region, opts).bitstream.size_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_GenerateAllFrames)->Unit(benchmark::kMicrosecond);

void BM_GenerateDiffOnly(benchmark::State& state) {
  Env& e = env();
  const PartialBitstreamGenerator gen(e.base_mem);
  PartialGenOptions opts;
  opts.diff_only = true;
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = gen.generate(e.module_mem, e.region, opts).bitstream.size_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_GenerateDiffOnly)->Unit(benchmark::kMicrosecond);

void print_ablation() {
  using benchutil::fmt;
  Env& e = env();
  const PartialBitstreamGenerator gen(e.base_mem);

  benchutil::Table t({"variant", "frames", "FAR blocks", "bytes",
                      "vs default", "composes from any state?"});
  PartialGenOptions all;
  all.diff_only = false;
  const PartialGenResult r_all = gen.generate(e.module_mem, e.region, all);
  const double base_bytes = static_cast<double>(r_all.bitstream.size_bytes());
  t.row({"all region frames (default)", std::to_string(r_all.frames.size()),
         std::to_string(r_all.far_blocks),
         std::to_string(r_all.bitstream.size_bytes()), "1.00x", "yes"});

  PartialGenOptions diff;
  diff.diff_only = true;
  const PartialGenResult r_diff = gen.generate(e.module_mem, e.region, diff);
  t.row({"diff against base", std::to_string(r_diff.frames.size()),
         std::to_string(r_diff.far_blocks),
         std::to_string(r_diff.bitstream.size_bytes()),
         fmt(r_diff.bitstream.size_bytes() / base_bytes, 2) + "x",
         "no (base state only)"});

  PartialGenOptions nocrc;
  nocrc.diff_only = false;
  nocrc.include_crc = false;
  const PartialGenResult r_nocrc = gen.generate(e.module_mem, e.region, nocrc);
  t.row({"no CRC", std::to_string(r_nocrc.frames.size()),
         std::to_string(r_nocrc.far_blocks),
         std::to_string(r_nocrc.bitstream.size_bytes()),
         fmt(r_nocrc.bitstream.size_bytes() / base_bytes, 3) + "x",
         "yes (unprotected)"});

  // FAR-run coalescing: count what one-block-per-frame would cost instead.
  const std::size_t per_frame_blocks = r_diff.frames.size();
  const std::size_t fw = e.dev->frames().frame_words();
  // Each extra block costs a FAR write (2 words) + FDRI header (1) + one
  // pad frame (fw words).
  const std::size_t coalesced_overhead = r_diff.far_blocks * (3 + fw);
  const std::size_t naive_overhead = per_frame_blocks * (3 + fw);
  t.row({"diff without FAR coalescing", std::to_string(r_diff.frames.size()),
         std::to_string(per_frame_blocks),
         std::to_string(r_diff.bitstream.size_bytes() + 4 *
                        (naive_overhead - coalesced_overhead)),
         "-", "no"});
  t.print("ABLATION: partial generator design choices (XCV50, matcher swap)");
  std::printf("the diff form trades ~%.0f%% of the size for losing "
              "state-independence;\nFAR coalescing saves one pad frame + "
              "headers per merged run (%zu words each here).\n",
              100.0 * (1.0 - r_diff.bitstream.size_bytes() / base_bytes),
              3 + fw);
}

// --- fast-path ablation: word blits + cache + batch vs the seed pipeline ---

ConfigMemory noise_plane(const Device& dev, std::uint64_t seed) {
  ConfigMemory mem(dev);
  Rng rng(seed);
  const std::size_t fw = dev.frames().frame_words();
  for (std::size_t f = 0; f < mem.num_frames(); ++f) {
    for (std::size_t w = 0; w < fw; ++w) {
      mem.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }
  return mem;
}

/// Replica of the seed generate(): full-device copy of the base, per-bit
/// row-window merge, then generate_frames over the full plane. Kept here
/// (not in the library) so the ablation keeps an honest baseline after the
/// hot path moved to word blits.
PartialGenResult seed_generate(const PartialBitstreamGenerator& gen,
                               const ConfigMemory& base,
                               const ConfigMemory& module_config,
                               const Region& region,
                               const PartialGenOptions& opts) {
  const Device& dev = base.device();
  const FrameMap& fm = dev.frames();
  ConfigMemory composed = base;
  for (const int major : region.clb_majors(dev)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      BitSpan frame = composed.frame(idx);
      const ConstBitSpan mod = module_config.frame(idx);
      for (int r = region.r0; r <= region.r1; ++r) {
        const std::size_t base_bit = fm.row_bit_base(r);
        for (int b = 0; b < FrameMap::kBitsPerRow; ++b) {
          frame.set(base_bit + static_cast<std::size_t>(b),
                    mod.get(base_bit + static_cast<std::size_t>(b)));
        }
      }
    }
  }
  std::vector<std::size_t> frames;
  for (const int major : region.clb_majors(dev)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      if (!opts.diff_only ||
          composed.frame(idx).differs_from(base.frame(idx))) {
        frames.push_back(idx);
      }
    }
  }
  return gen.generate_frames(composed, frames, opts);
}

template <typename F>
double ns_per_call(F&& f, int min_iters = benchutil::smoke_mode() ? 2 : 8,
                   double min_seconds = benchutil::smoke_mode() ? 0.02 : 0.2) {
  f();  // warm up allocators and caches
  int iters = 0;
  benchutil::Stopwatch sw;
  do {
    f();
    ++iters;
  } while (iters < min_iters || sw.seconds() < min_seconds);
  return sw.seconds() * 1e9 / iters;
}

void bench_fastpath(benchutil::JsonReport& report) {
  using benchutil::fmt;
  benchutil::Table t({"device", "path", "ns/frame", "bytes", "vs seed"});
  const std::vector<const char*> parts =
      benchutil::smoke_mode()
          ? std::vector<const char*>{"XCV50"}
          : std::vector<const char*>{"XCV50", "XCV300", "XCV800", "XCV1000"};
  for (const char* part : parts) {
    const Device& dev = Device::get(part);
    const ConfigMemory base = noise_plane(dev, 1);
    // A module pool cycling through one region — the Figure-1 serving
    // workload (4 pre-built variants of a ~4-column full-height slot).
    std::vector<ConfigMemory> pool;
    for (std::uint64_t s = 2; s <= 5; ++s) pool.push_back(noise_plane(dev, s));
    const int c0 = dev.cols() / 2 - 2;
    const Region region{0, c0, dev.rows() - 1, c0 + 3};
    const PartialGenOptions opts;  // all-frames, CRC: the shipping default

    const PartialBitstreamGenerator uncached(base, /*cache_capacity=*/0);
    std::size_t n = 0;
    std::size_t bytes = 0, nframes = 1;
    const double seed_ns = ns_per_call([&] {
      const auto r = seed_generate(uncached, base, pool[n++ % pool.size()],
                                   region, opts);
      bytes = r.bitstream.size_bytes();
      nframes = r.frames.size();
      benchmark::DoNotOptimize(bytes);
    });
    const double cold_ns = ns_per_call([&] {
      benchmark::DoNotOptimize(
          uncached.generate(pool[n++ % pool.size()], region, opts)
              .bitstream.size_bytes());
    });
    const PartialBitstreamGenerator cached(base);
    for (const ConfigMemory& m : pool) {
      (void)cached.generate(m, region, opts);  // populate the cache
    }
    const double warm_ns = ns_per_call([&] {
      benchmark::DoNotOptimize(
          cached.generate(pool[n++ % pool.size()], region, opts)
              .bitstream.size_bytes());
    });
    const PbitCacheStats stats = cached.cache_stats();

    const double fn = static_cast<double>(nframes);
    t.row({part, "seed full-copy compose", fmt(seed_ns / fn, 0),
           std::to_string(bytes), "1.00x"});
    t.row({part, "word blits, cold", fmt(cold_ns / fn, 0),
           std::to_string(bytes), fmt(seed_ns / cold_ns, 2) + "x"});
    t.row({part, "word blits, warm pbit cache", fmt(warm_ns / fn, 0),
           std::to_string(bytes), fmt(seed_ns / warm_ns, 2) + "x"});

    report.set(part, "frames_per_pbit", fn);
    report.set(part, "bytes_per_pbit", static_cast<double>(bytes));
    report.set(part, "seed_ns_per_frame", seed_ns / fn);
    report.set(part, "cold_ns_per_frame", cold_ns / fn);
    report.set(part, "warm_ns_per_frame", warm_ns / fn);
    report.set(part, "speedup_cold", seed_ns / cold_ns);
    report.set(part, "speedup_warm", seed_ns / warm_ns);
    report.set(part, "cache_hit_rate", stats.hit_rate());

    report.set(part, "host_cpus",
               static_cast<double>(benchutil::host_cpus()));
  }
  t.print("ABLATION: fast path (word-blit compose, pbit cache)");
}

}  // namespace
}  // namespace jpg

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (!jpg::benchutil::smoke_mode()) {
    ::benchmark::RunSpecifiedBenchmarks();
    jpg::print_ablation();
  }
  jpg::benchutil::JsonReport report;
  jpg::bench_fastpath(report);
  jpg::benchutil::add_telemetry_section(report);
  report.write_file("BENCH_partial_gen.json");
  return 0;
}
