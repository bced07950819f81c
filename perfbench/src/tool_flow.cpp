// tool_flow: the paper's Figure 2 phase-2 loop over the Figure 4 module pool
// (3 slots with 3 + 3 + 4 variants) on XCV300. Closed loop, one caller.
//
// Set-up flows the base design once, loads it onto a SimBoard and builds a
// Jpg from its complete bitstream. Each build then takes one (slot, variant)
// and a fresh flow seed, both drawn from the workload seed, and runs
//   run_module_flow -> write_xdl + write_ucf -> generate_partial_from_text
//   -> download_verified -> verify_via_readback.
// After each build the slot's columns are rewritten with base content
// (outside the timed build), so every build starts from the board state the
// tool assumes: the base design.
//
// Traced builds call the public steps the facade is made of (parse_xdl,
// parse_ucf, bind_xdl_module, generator().generate, render_floorplan)
// instead of the facade, timing each.
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/bitgen.h"
#include "cbits/cbits.h"
#include "core/floorplan_view.h"
#include "core/jpg.h"
#include "hwif/sim_board.h"
#include "pnr/flow.h"
#include "scenarios.h"
#include "support/error.h"
#include "support/rng.h"
#include "ucf/ucf_parser.h"
#include "workloads.h"
#include "xdl/xdl_parser.h"
#include "xdl/xdl_writer.h"

namespace perfbench {
namespace {

using namespace jpg;

constexpr const char* kPart = "XCV300";
constexpr std::uint64_t kBaseFlowSeed = 4;

struct Setup {
  const Device* dev = nullptr;
  std::vector<scenarios::SlotDef> slots;
  BaseFlowResult base;
  Bitstream base_bit;
  std::unique_ptr<SimBoard> board;
  std::unique_ptr<Jpg> tool;
  std::vector<UcfData> ucf;          ///< per slot: its AREA_GROUP
  std::vector<Bitstream> restore;    ///< per slot: base content of its columns
};

std::unique_ptr<Setup> make_setup() {
  auto s = std::make_unique<Setup>();
  s->dev = &Device::get(kPart);
  s->slots = scenarios::fig4_slots(*s->dev);
  const scenarios::ScenarioBase top = scenarios::build_base(*s->dev, s->slots);
  FlowOptions fopt;
  fopt.seed = kBaseFlowSeed;
  s->base = run_base_flow(*s->dev, top.top, top.specs, fopt);
  ConfigMemory mem(*s->dev);
  CBits cb(mem);
  s->base.design->apply(cb);
  s->base_bit = generate_full_bitstream(mem);
  s->board = std::make_unique<SimBoard>(*s->dev);
  s->board->send_config(s->base_bit.words);
  s->tool = std::make_unique<Jpg>(s->base_bit);
  s->tool->connect(s->board.get());
  // A separate generator, so the tool's pbit cache only ever sees builds.
  const PartialBitstreamGenerator gen(s->tool->base_config());
  for (const scenarios::SlotDef& slot : s->slots) {
    UcfData u;
    u.area_group_ranges["AG_" + slot.partition] = slot.region;
    s->ucf.push_back(std::move(u));
    s->restore.push_back(
        gen.generate(s->tool->base_config(), slot.region).bitstream);
  }
  return s;
}

struct Job {
  std::size_t slot = 0;
  std::size_t variant = 0;
  std::uint64_t flow_seed = 1;
};

/// Builds in rounds: each round visits all ten (slot, variant) pairs in a
/// seeded order, each with a fresh flow seed, so every build has new content.
class JobStream {
 public:
  JobStream(const std::vector<scenarios::SlotDef>& slots, std::uint64_t seed)
      : rng_(seed) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      for (std::size_t v = 0; v < slots[s].variants.size(); ++v) {
        pairs_.push_back({s, v, 0});
      }
    }
  }
  Job next() {
    if (pos_ == pairs_.size()) pos_ = 0;
    if (pos_ == 0) {
      for (std::size_t i = pairs_.size(); i > 1; --i) {
        std::swap(pairs_[i - 1], pairs_[rng_.uniform(i)]);
      }
    }
    Job j = pairs_[pos_++];
    j.flow_seed = 1 + rng_.uniform(1ull << 30);
    return j;
  }

 private:
  Rng rng_;
  std::vector<Job> pairs_;
  std::size_t pos_ = 0;
};

struct Build {
  std::size_t slot = 0;
  std::size_t variant = 0;
  bool traced = false;
  double total_ms = 0;
  double cpu_ms = 0;  ///< process CPU time spent during the build
  double gen_ms = 0;  ///< XDL+UCF text -> pbit (facade or its steps)
  double xdl_write_ms = 0;
  double verified_ms = 0;
  FlowTimings pnr;
  RouteStats route;
  double download_ms = 0;  ///< the downloader's own wall time
  std::uint64_t words_sent = 0;
  std::uint64_t readback_words = 0;
  int attempts = 0;
  std::size_t pbit_bytes = 0;
  std::size_t cbits_calls = 0;
  std::size_t frames = 0;
};

/// Runs the facade's steps one by one, recording a span around each.
Jpg::PartialResult generate_by_steps(Jpg& tool, const std::string& xdl_text,
                                     const std::string& ucf_text,
                                     Tracer& tr, std::uint64_t parent,
                                     std::uint64_t req, Build& b) {
  std::uint64_t t = now_ns();
  const XdlDesign xdl = parse_xdl(xdl_text, "module.xdl");
  std::uint64_t t2 = now_ns();
  tr.add("xdl.parse", parent, req, t, t2);
  t = t2;
  const UcfData ucf = parse_ucf(ucf_text, tool.device(), "module.ucf");
  t2 = now_ns();
  tr.add("ucf.parse", parent, req, t, t2);
  t = t2;
  ConfigMemory scratch(tool.device());
  const XdlBindResult bound = bind_xdl_module(xdl, ucf, scratch);
  t2 = now_ns();
  tr.add("core.bind", parent, req, t, t2);
  t = t2;
  PartialGenResult pg = tool.generator().generate(scratch, bound.region);
  t2 = now_ns();
  tr.add("core.pgen", parent, req, t, t2);
  t = t2;
  Jpg::PartialResult res;
  res.partial = std::move(pg.bitstream);
  res.frames = std::move(pg.frames);
  res.far_blocks = pg.far_blocks;
  res.cbits_calls = bound.cbits_calls;
  res.region = bound.region;
  res.floorplan = render_floorplan(tool.device(), {{xdl.name, bound.region}},
                                   bound.region);
  tr.add("core.floorplan", parent, req, t, now_ns());
  b.cbits_calls = bound.cbits_calls;
  return res;
}

double per_build(const std::vector<Build>& builds, auto field) {
  std::vector<double> v;
  for (const Build& b : builds) v.push_back(static_cast<double>(field(b)));
  return median(v);
}

}  // namespace

Report run_tool_flow(const Options& opt, Tracer& tracer) {
  Report rep;
  const std::uint64_t setup_wall = now_ns();
  const std::uint64_t setup_cpu = process_cpu_ns();
  const std::unique_ptr<Setup> s = make_setup();
  rep.end_setup(setup_wall, setup_cpu);
  if (opt.setup_only) return rep;
  const Device& dev = *s->dev;

  JobStream jobs(s->slots, opt.seed);
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  std::vector<Build> builds;
  Digest digest;
  Bitstream first_pbit;
  Job first_job;

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    if (opt.max_ops != 0 ? i >= opt.max_ops : (i > 0 && now_ns() >= deadline)) {
      break;
    }
    const Job job = jobs.next();
    const scenarios::SlotDef& slot = s->slots[job.slot];
    Jpg& tool = *s->tool;
    Build b;
    b.slot = job.slot;
    b.variant = job.variant;
    b.traced = opt.trace && i % 2 == 0;
    ++rep.attempted;
    const std::uint64_t req = i + 1;
    try {
      FlowOptions fopt;
      fopt.seed = job.flow_seed;
      const std::uint64_t cpu0 = process_cpu_ns();
      const std::uint64_t t0 = now_ns();
      const std::uint64_t root =
          b.traced ? tracer.open("build", 0, req, t0) : 0;
      const ModuleFlowResult mod =
          run_module_flow(dev, slot.variants[job.variant].netlist,
                          s->base.interface_of(slot.partition), fopt);
      const std::uint64_t t1 = now_ns();
      const std::string xdl_text = write_xdl(*mod.design);
      const std::uint64_t t2 = now_ns();
      const std::string ucf_text = write_ucf(s->ucf[job.slot], dev);
      const std::uint64_t t3 = now_ns();

      std::uint64_t gen_span = 0;
      Jpg::PartialResult res;
      if (b.traced) {
        gen_span = tracer.open("core.generate", root, req, t3);
        res = generate_by_steps(tool, xdl_text, ucf_text, tracer, gen_span,
                                req, b);
      } else {
        res = tool.generate_partial_from_text(xdl_text, ucf_text);
        b.cbits_calls = res.cbits_calls;
      }
      const std::uint64_t t4 = now_ns();
      const DownloadReport dl = tool.download_verified(res);
      const std::uint64_t t5 = now_ns();
      const std::size_t mismatches = tool.verify_via_readback(res);
      const std::uint64_t t6 = now_ns();
      b.cpu_ms = ns_to_ms(process_cpu_ns() - cpu0);

      b.total_ms = ns_to_ms(t6 - t0);
      b.gen_ms = ns_to_ms(t4 - t3);
      b.xdl_write_ms = ns_to_ms(t2 - t1);
      b.verified_ms = ns_to_ms(t5 - t4);
      b.pnr = mod.timings;
      b.route = mod.route_stats;
      b.download_ms = ns_to_ms(dl.telemetry.duration_ns);
      b.words_sent = dl.telemetry.counter("words_sent");
      b.readback_words = dl.telemetry.counter("readback_words");
      b.attempts = dl.attempts;
      b.pbit_bytes = res.partial.size_bytes();
      b.frames = res.frames.size();

      const bool ok = dl.ok() && mismatches == 0;
      rep.gate(dl.ok(), "build " + std::to_string(i) + ": download " +
                            std::string(download_status_name(dl.status)));
      rep.gate(mismatches == 0, "build " + std::to_string(i) + ": " +
                                    std::to_string(mismatches) +
                                    " readback mismatches");
      if (!ok) ++rep.failed;
      digest.add(res.partial.words.data(), res.partial.words.size() * 4);
      if (i == 0) {
        first_pbit = res.partial;
        first_job = job;
      }

      if (b.traced) {
        tracer.close(root, t6);
        tracer.close(gen_span, t4);
        const std::uint64_t flow =
            tracer.add("pnr.module_flow", root, req, t0, t1);
        // FlowTimings gives durations only; lay the stages end to end.
        std::uint64_t t = t0;
        for (const auto& [name, secs] :
             {std::pair<const char*, double>{"pnr.pack", b.pnr.pack_s},
              {"pnr.place", b.pnr.place_s},
              {"pnr.route", b.pnr.route_s}}) {
          const std::uint64_t d = static_cast<std::uint64_t>(secs * 1e9);
          tracer.add(name, flow, req, t, t + d);
          t += d;
        }
        tracer.add("xdl.write", root, req, t1, t2);
        tracer.add("ucf.write", root, req, t2, t3);
        const std::uint64_t v =
            tracer.add("hwif.download_verified", root, req, t4, t5);
        tracer.add("hwif.download", v, req, t5 - dl.telemetry.duration_ns,
                   t5);
        tracer.add("hwif.readback_check", root, req, t5, t6);
      }
    } catch (const JpgError& e) {
      ++rep.failed;
      rep.gate(false, "build " + std::to_string(i) + " threw: " + e.what());
    }
    builds.push_back(b);
    // Harness work, not timed: put the slot back to the base design, and
    // start the next build with a fresh tool, as a one-shot invocation of
    // JPG would. Small Figure 4 modules often place identically under
    // different seeds, so a tool kept across builds would serve most pbits
    // from its cache instead of generating them.
    s->board->send_config(s->restore[job.slot].words);
    const PbitCacheStats cs = tool.generator().cache_stats();
    cache_lookups += cs.lookups;
    cache_hits += cs.hits;
    s->tool = std::make_unique<Jpg>(s->base_bit);
    s->tool->connect(s->board.get());
  }

  // Determinism: a fresh tool replays the first build byte for byte.
  {
    const scenarios::SlotDef& slot = s->slots[first_job.slot];
    FlowOptions fopt;
    fopt.seed = first_job.flow_seed;
    const ModuleFlowResult mod =
        run_module_flow(dev, slot.variants[first_job.variant].netlist,
                        s->base.interface_of(slot.partition), fopt);
    Jpg fresh(s->base_bit);
    const Jpg::PartialResult again = fresh.generate_partial_from_text(
        write_xdl(*mod.design), write_ucf(s->ucf[first_job.slot], dev));
    rep.gate(again.partial == first_pbit,
             "replaying the first build gave a different pbit");
  }
  rep.digest = digest.hex();

  std::vector<double> total, total_traced, total_plain, gen_plain, bytes;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> cpu_by_pair;
  double total_sum_ms = 0;
  for (const Build& b : builds) {
    total.push_back(b.total_ms);
    total_sum_ms += b.total_ms;
    cpu_by_pair[{b.slot, b.variant}].push_back(b.cpu_ms);
    (b.traced ? total_traced : total_plain).push_back(b.total_ms);
    if (!b.traced) gen_plain.push_back(b.gen_ms);
    bytes.push_back(static_cast<double>(b.pbit_bytes));
  }
  // The (slot, variant) pairs differ several-fold in cost, so take each
  // pair's median build and average over the pairs: neither the pair a run
  // ended on nor a burst of contention moves it.
  std::vector<double> pair_cpu;
  for (const auto& [pair, cpu] : cpu_by_pair) pair_cpu.push_back(median(cpu));
  rep.cpu_ms_per_op = mean(pair_cpu);
  rep.add_named("builds", static_cast<double>(builds.size()), "count");
  rep.add_named("build_p50_ms", quantile(total, 0.5), "ms");
  rep.add_named("build_p90_ms", quantile(total, 0.9), "ms");
  rep.add_named("build_p99_ms", quantile(total, 0.99), "ms");
  // One caller, closed loop: builds per second of build time (the harness
  // work between builds is not the system's).
  rep.add_named("builds_per_s",
                total_sum_ms > 0 ? static_cast<double>(builds.size()) /
                                       (total_sum_ms / 1e3)
                                 : 0,
                "1/s");
  rep.add_named("pbit_gen_p50_ms", quantile(gen_plain, 0.5), "ms");
  rep.add_named("pbit_bytes", mean(bytes), "B");

  if (opt.trace) {
    rep.add_layer("pnr.pack_ms", per_build(builds, [](const Build& b) {
      return b.pnr.pack_s * 1e3;
    }), "ms");
    rep.add_layer("pnr.place_ms", per_build(builds, [](const Build& b) {
      return b.pnr.place_s * 1e3;
    }), "ms");
    rep.add_layer("pnr.route_ms", per_build(builds, [](const Build& b) {
      return b.pnr.route_s * 1e3;
    }), "ms");
    rep.add_layer("pnr.route_iterations", per_build(builds, [](const Build& b) {
      return b.route.iterations;
    }), "count");
    rep.add_layer("pnr.nets_rerouted", per_build(builds, [](const Build& b) {
      return b.route.nets_rerouted;
    }), "count");
    rep.add_layer("xdl.write_ms", per_build(builds, [](const Build& b) {
      return b.xdl_write_ms;
    }), "ms");
    rep.add_layer("xdl.parse_ms", median(tracer.durations_ms("xdl.parse")), "ms");
    rep.add_layer("ucf.parse_ms", median(tracer.durations_ms("ucf.parse")), "ms");
    rep.add_layer("core.bind_ms", median(tracer.durations_ms("core.bind")), "ms");
    rep.add_layer("core.pgen_ms", median(tracer.durations_ms("core.pgen")), "ms");
    rep.add_layer("core.pbit_gen_p50_ms", quantile(gen_plain, 0.5), "ms");
    rep.add_layer("core.pbit_bytes", mean(bytes), "B");
    rep.add_layer("core.cbits_calls", per_build(builds, [](const Build& b) {
      return b.cbits_calls;
    }), "count");
    rep.add_layer("core.frames_written", per_build(builds, [](const Build& b) {
      return b.frames;
    }), "count");
    rep.add_layer("core.cache_hit_rate",
                cache_lookups == 0 ? 0.0
                                   : static_cast<double>(cache_hits) /
                                         static_cast<double>(cache_lookups),
                "ratio");
    rep.add_layer("hwif.verified_ms", per_build(builds, [](const Build& b) {
      return b.verified_ms;
    }), "ms");
    rep.add_layer("hwif.download_p50_ms", per_build(builds, [](const Build& b) {
      return b.download_ms;
    }), "ms");
    double sent = 0, rb = 0;
    for (const Build& b : builds) {
      sent += static_cast<double>(b.words_sent);
      rb += static_cast<double>(b.readback_words);
    }
    rep.add_layer("hwif.readback_per_sent", sent == 0 ? 0.0 : rb / sent,
                "ratio");
    rep.add_layer("hwif.attempts_per_swap", per_build(builds, [](const Build& b) {
      return b.attempts;
    }), "count");
    rep.add_layer("trace.overhead",
                median(total_traced) - median(total_plain), "ms");
  }
  return rep;
}

}  // namespace perfbench
