// Golden-digest regression corpus: full and partial bitstreams for the
// example flow on {XCV50, XCV300} × seeds are regenerated from scratch and
// their FNV-1a digests compared against tests/golden/digests.txt. Any
// change to packing, placement, routing, CBits translation or bitstream
// framing that alters a single emitted word shows up as a digest mismatch.
//
// Re-blessing after an *intentional* output change is one command:
//
//   cd build && ctest -C rebless -R golden_rebless
//
// which reruns this suite with JPG_GOLDEN_REBLESS=1 and rewrites
// digests.txt in the source tree (review the diff like any other change).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bitstream/bitgen.h"
#include "cbits/cbits.h"
#include "core/jpg.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_writer.h"

#ifndef JPG_GOLDEN_DIR
#error "JPG_GOLDEN_DIR must point at tests/golden"
#endif

namespace jpg {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : words) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenCase {
  std::string part;
  std::uint64_t seed;
  Region region(const Device& dev) const {
    // A 4-column CLB region clear of the clock column, full height (the
    // frame-span rule); further right on the larger part.
    const int c0 = part == "XCV50" ? 6 : 10;
    return Region{0, c0, dev.rows() - 1, c0 + 3};
  }
};

// gtest would otherwise print the case as raw bytes, a heap pointer
// included, and the discovered ctest names would change with every build.
void PrintTo(const GoldenCase& gc, std::ostream* os) {
  *os << gc.part << " seed " << gc.seed;
}

const std::vector<GoldenCase>& cases() {
  static const std::vector<GoldenCase> kCases = {
      {"XCV50", 11}, {"XCV50", 23}, {"XCV300", 11}, {"XCV300", 23}};
  return kCases;
}

/// Runs the full two-phase example flow for one case and returns its named
/// digests: the complete base bitstream and a partial for each of two
/// module variants (different logic, same interface).
std::map<std::string, std::uint64_t> compute_case(const GoldenCase& gc) {
  const Device& dev = Device::get(gc.part);
  const Region region = gc.region(dev);
  const std::string tag = gc.part + "/s" + std::to_string(gc.seed);

  Netlist top("golden_base");
  const auto merged = top.merge_module(netlib::make_nrz_encoder(), "u1");
  PartitionSpec spec;
  spec.name = "u1";
  spec.region = region;
  for (const auto& [port, net] : merged.inputs) {
    top.add_ibuf("ib_" + port, port, net);
    spec.input_ports.emplace_back(port, net);
  }
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
    spec.output_ports.emplace_back(port, net);
  }
  FlowOptions opt;
  opt.seed = gc.seed;
  const BaseFlowResult base = run_base_flow(dev, top, {spec}, opt);

  ConfigMemory mem(dev);
  CBits cb(mem);
  base.design->apply(cb);
  const Bitstream full = generate_full_bitstream(mem);

  std::map<std::string, std::uint64_t> digests;
  digests[tag + "/full"] = fnv1a(full.words);

  // Delay-register variant: same {d -> nrz} interface, different logic.
  Netlist delay("var_delay");
  {
    const NetId d = delay.add_net("d");
    const NetId q1 = delay.add_net("q1");
    const NetId q2 = delay.add_net("q2");
    delay.add_ibuf("ib_d", "d", d);
    delay.add_dff("ff1", d, q1);
    delay.add_dff("ff2", q1, q2);
    delay.add_obuf("ob_nrz", "nrz", q2);
  }
  Jpg tool(full);
  std::vector<Netlist> variants;
  variants.push_back(netlib::make_nrz_encoder());
  variants.push_back(std::move(delay));
  int vi = 0;
  for (const Netlist& mod : variants) {
    const ModuleFlowResult impl =
        run_module_flow(dev, mod, base.interface_of("u1"), opt);
    UcfData ucf;
    ucf.area_group_ranges["AG_u1"] = region;
    const auto res = tool.generate_partial_from_text(write_xdl(*impl.design),
                                                     write_ucf(ucf, dev));
    digests[tag + "/partial" + std::to_string(vi++)] =
        fnv1a(res.partial.words);
  }
  return digests;
}

std::string digests_path() {
  return std::string(JPG_GOLDEN_DIR) + "/digests.txt";
}

std::map<std::string, std::uint64_t> load_recorded() {
  std::map<std::string, std::uint64_t> rec;
  std::ifstream in(digests_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name, hex;
    if (is >> name >> hex) {
      rec[name] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return rec;
}

class GoldenCorpus : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCorpus, DigestsMatchRecorded) {
  const auto recorded = load_recorded();
  ASSERT_FALSE(recorded.empty())
      << digests_path() << " missing or empty; run: ctest -C rebless -R "
      << "golden_rebless";
  for (const auto& [name, digest] : compute_case(GetParam())) {
    const auto it = recorded.find(name);
    ASSERT_NE(it, recorded.end()) << "no recorded digest for " << name;
    EXPECT_EQ(hex16(digest), hex16(it->second))
        << name << " diverged from the golden corpus; if intentional, "
        << "re-bless with: ctest -C rebless -R golden_rebless";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parts, GoldenCorpus, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.part + "s" + std::to_string(info.param.seed);
    });

TEST(GoldenCorpusNegative, FrameByteFlipIsDetected) {
  // The corpus must actually bite: perturbing one frame byte of a
  // regenerated stream has to break the digest comparison.
  const GoldenCase gc = cases().front();
  const auto recorded = load_recorded();
  const std::string name = gc.part + "/s" + std::to_string(gc.seed) + "/full";
  const auto it = recorded.find(name);
  if (it == recorded.end()) GTEST_SKIP() << "corpus not blessed yet";

  const Device& dev = Device::get(gc.part);
  Netlist top("golden_base");
  const auto merged = top.merge_module(netlib::make_nrz_encoder(), "u1");
  PartitionSpec spec;
  spec.name = "u1";
  spec.region = gc.region(dev);
  for (const auto& [port, net] : merged.inputs) {
    top.add_ibuf("ib_" + port, port, net);
    spec.input_ports.emplace_back(port, net);
  }
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
    spec.output_ports.emplace_back(port, net);
  }
  FlowOptions opt;
  opt.seed = gc.seed;
  const BaseFlowResult base = run_base_flow(dev, top, {spec}, opt);
  ConfigMemory mem(dev);
  CBits cb(mem);
  base.design->apply(cb);
  Bitstream full = generate_full_bitstream(mem);
  ASSERT_EQ(hex16(fnv1a(full.words)), hex16(it->second));

  // Flip one byte in the middle of the stream — FDRI frame payload
  // territory — and the digest must diverge.
  full.words[full.words.size() / 2] ^= 0x00010000u;
  EXPECT_NE(hex16(fnv1a(full.words)), hex16(it->second));
}

// Rebless entry point: rewrites digests.txt from the current tree when
// JPG_GOLDEN_REBLESS=1 (the golden_rebless ctest wires the variable up).
TEST(GoldenRebless, RewriteDigests) {
  if (std::getenv("JPG_GOLDEN_REBLESS") == nullptr) {
    GTEST_SKIP() << "set JPG_GOLDEN_REBLESS=1 (or run: ctest -C rebless -R "
                 << "golden_rebless) to re-bless the corpus";
  }
  std::map<std::string, std::uint64_t> all;
  for (const GoldenCase& gc : cases()) {
    for (const auto& [name, digest] : compute_case(gc)) {
      all[name] = digest;
    }
  }
  std::ofstream out(digests_path());
  ASSERT_TRUE(out) << "cannot write " << digests_path();
  out << "# FNV-1a digests of regenerated bitstreams; re-bless with:\n"
      << "#   ctest -C rebless -R golden_rebless\n";
  for (const auto& [name, digest] : all) {
    out << name << " " << hex16(digest) << "\n";
  }
  std::printf("re-blessed %zu digests into %s\n", all.size(),
              digests_path().c_str());
}

}  // namespace
}  // namespace jpg
