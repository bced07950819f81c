// Integration tests of the P&R flow: pack/place/route designs, program the
// configuration plane via CBits, decode it back with the extractor, and
// check cycle-exact equivalence against the golden netlist simulation.
#include <gtest/gtest.h>

#include "netlib/generators.h"
#include "pnr/flow.h"
#include "pnr/timing.h"
#include "sim/bitstream_sim.h"
#include "sim/netlist_sim.h"

namespace jpg {
namespace {

/// Maps a design's port names to pad numbers from its placement.
std::map<std::string, int> pad_map(const PlacedDesign& d) {
  std::map<std::string, int> m;
  for (std::size_t i = 0; i < d.iob_cells.size(); ++i) {
    m[d.netlist().cell(d.iob_cells[i]).port] = d.device().pad_number(d.iob_sites[i]);
  }
  return m;
}

/// Drives both simulators with the same stimulus and compares all outputs
/// for `cycles` cycles. `inputs` supplies per-cycle values by port name.
void expect_equivalent(
    const Netlist& golden_nl, const PlacedDesign& placed, BitstreamSim& hw,
    int cycles,
    const std::function<std::map<std::string, bool>(int)>& stimulus) {
  NetlistSim golden(golden_nl);
  const auto pads = pad_map(placed);
  for (int cyc = 0; cyc < cycles; ++cyc) {
    for (const auto& [port, value] : stimulus(cyc)) {
      golden.set_input(port, value);
      hw.set_pad(pads.at(port), value);
    }
    for (const std::string& port : golden_nl.output_ports()) {
      EXPECT_EQ(hw.get_pad(pads.at(port)), golden.get_output(port))
          << "port " << port << " cycle " << cyc;
    }
    golden.step();
    hw.step();
  }
}

struct FlowCase {
  const char* part;
  const char* generator;
  int param;
};

// gtest would otherwise print the case as raw bytes, pointers included, and
// the discovered ctest names would change with every build.
void PrintTo(const FlowCase& fc, std::ostream* os) {
  *os << fc.part << " " << fc.generator << "(" << fc.param << ")";
}

class FullFlow : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FullFlow, ImplementExtractSimulate) {
  const FlowCase fc = GetParam();
  const Device& dev = Device::get(fc.part);
  Netlist nl("flow_test");
  for (const auto& g : netlib::registry()) {
    if (g.name == fc.generator) nl = g.make(fc.param);
  }
  ASSERT_GT(nl.num_cells(), 0u);

  FlowOptions opt;
  opt.seed = 42;
  const BaseFlowResult res = run_base_flow(dev, nl, {}, opt);
  ASSERT_TRUE(res.design != nullptr);
  EXPECT_GT(res.design->total_pips(), 0u);

  ConfigMemory mem(dev);
  CBits cb(mem);
  res.design->apply(cb);

  BitstreamSim hw(mem);
  // Structure: used logic elements match packed logic elements.
  std::size_t expected_les = 0;
  for (const PackedSlice& ps : res.design->slices) {
    if (!ps.le[0].empty()) ++expected_les;
    if (!ps.le[1].empty()) ++expected_les;
  }
  EXPECT_EQ(hw.circuit().used_les, expected_les);

  // Behaviour: random-but-reproducible stimulus on every input port.
  Rng rng(777);
  const auto in_ports = nl.input_ports();
  expect_equivalent(nl, *res.design, hw, 64, [&](int) {
    std::map<std::string, bool> st;
    for (const auto& p : in_ports) st[p] = rng.chance(0.5);
    return st;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Designs, FullFlow,
    ::testing::Values(FlowCase{"XCV50", "counter", 8},
                      FlowCase{"XCV50", "lfsr", 8},
                      FlowCase{"XCV50", "adder", 6},
                      FlowCase{"XCV50", "parity", 8},
                      FlowCase{"XCV50", "alu", 4},
                      FlowCase{"XCV100", "counter", 16},
                      FlowCase{"XCV50", "shreg", 10},
                      FlowCase{"XCV50", "gray", 6}),
    [](const ::testing::TestParamInfo<FlowCase>& info) {
      return std::string(info.param.part) + "_" + info.param.generator + "_" +
             std::to_string(info.param.param);
    });

TEST(Packer, PairsLutsWithFfs) {
  const Device& dev = Device::get("XCV50");
  PlacedDesign d(dev, netlib::make_counter(8));
  const PackStats st = pack_design(d);
  EXPECT_EQ(st.ffs, 8u);
  EXPECT_GT(st.paired, 0u);
  EXPECT_LE(st.slices, (st.luts + st.ffs + 1) / 2 + 1);
  // Every LUT/FF cell is mapped.
  for (CellId id = 0; id < d.netlist().num_cells(); ++id) {
    const CellKind k = d.netlist().cell(id).kind;
    if (k == CellKind::Lut4 || k == CellKind::Dff) {
      EXPECT_TRUE(d.cell_place.count(id)) << d.netlist().cell(id).name;
    }
  }
}

TEST(Packer, FoldsConstants) {
  const Device& dev = Device::get("XCV50");
  Netlist nl("cf");
  const NetId one = nl.add_net("one");
  nl.add_const("vcc", true, one);
  const NetId a = nl.add_net("a");
  nl.add_ibuf("ib", "a", a);
  const NetId y = nl.add_net("y");
  // y = a AND 1 == a.
  nl.add_lut("and", netlib::lut_and2(), {a, one, kNullNet, kNullNet}, y);
  nl.add_obuf("ob", "y", y);
  PlacedDesign d(dev, std::move(nl));
  const PackStats st = pack_design(d);
  EXPECT_EQ(st.folded_const_inputs, 1u);
  const CellId lut = *d.netlist().find_cell("and");
  // Folded mask must behave as a buffer of A1.
  EXPECT_EQ(d.netlist().cell(lut).lut_init & 0x3, 0x2);
  EXPECT_EQ(d.netlist().cell(lut).in[1], kNullNet);
}

TEST(Packer, RejectsOversizedDesign) {
  const Device& dev = Device::get("XCV50");  // 768 slices
  Netlist nl("big");
  // 2000 independent FF chains -> ~1000 slices, too many.
  NetId prev = nl.add_net("n0");
  nl.add_ibuf("ib", "si", prev);
  for (int i = 0; i < 2000; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_dff("ff" + std::to_string(i), prev, q);
    prev = q;
  }
  nl.add_obuf("ob", "so", prev);
  PlacedDesign d(dev, std::move(nl));
  EXPECT_THROW(pack_design(d), DeviceError);
}

TEST(Placer, RespectsAreaGroups) {
  const Device& dev = Device::get("XCV50");
  Netlist top("grouped");
  const auto merged = top.merge_module(netlib::make_counter(8), "u1");
  // Tie outputs so DRC is clean.
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
  }
  PlacedDesign d(dev, std::move(top));
  pack_design(d);
  PlacementConstraints cons;
  const Region reg{0, 4, dev.rows() - 1, 7};
  cons.area_groups["u1"] = reg;
  place_design(d, cons, {});
  for (std::size_t i = 0; i < d.slices.size(); ++i) {
    const SliceSite s = d.slice_sites[i];
    if (d.slices[i].partition == "u1") {
      EXPECT_TRUE(reg.contains({s.r, s.c})) << "slice " << i;
    } else {
      EXPECT_FALSE(reg.contains({s.r, s.c})) << "slice " << i;
    }
  }
}

TEST(Placer, RespectsLocConstraints) {
  const Device& dev = Device::get("XCV50");
  PlacedDesign d(dev, netlib::make_nrz_encoder());
  pack_design(d);
  PlacementConstraints cons;
  // The paper's example: u1/nrz at CLB R3C23 slice 0.
  cons.loc_slices["enc"] = SliceSite{2, 22, 0};
  cons.loc_pads["d"] = 3;
  place_design(d, cons, {});
  EXPECT_EQ(d.site_of(*d.netlist().find_cell("enc")), (SliceSite{2, 22, 0}));
  const CellId ib = *d.netlist().find_cell("ib_d");
  EXPECT_EQ(d.device().pad_number(*d.iob_site_of(ib)), 3);
}

TEST(Placer, NoTwoSlicesShareASite) {
  const Device& dev = Device::get("XCV50");
  PlacedDesign d(dev, netlib::make_lfsr(16));
  pack_design(d);
  place_design(d, {}, {});
  std::set<std::tuple<int, int, int>> sites;
  for (const SliceSite s : d.slice_sites) {
    EXPECT_TRUE(sites.insert({s.r, s.c, s.slice}).second);
  }
}

TEST(Placer, DeterministicForSeed) {
  const Device& dev = Device::get("XCV50");
  auto run = [&](std::uint64_t seed) {
    PlacedDesign d(dev, netlib::make_counter(10));
    pack_design(d);
    PlacerOptions opt;
    opt.seed = seed;
    place_design(d, {}, opt);
    return d.slice_sites;
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(Router, ProducesLegalSingleDriverRouting) {
  const Device& dev = Device::get("XCV50");
  const BaseFlowResult res = run_base_flow(dev, netlib::make_counter(12), {});
  // No two nets may program the same mux (single-driver rule at the
  // config level).
  std::set<std::tuple<int, int, int>> muxes;  // (r, c, dest_local)
  for (const RoutedNet& rn : res.design->routes) {
    for (const RoutedPip& p : rn.pips) {
      EXPECT_TRUE(muxes.insert({p.tile.r, p.tile.c, p.dest_local}).second)
          << "mux " << local_wire_name(p.dest_local) << " at "
          << dev.tile_name(p.tile) << " driven twice";
    }
  }
}

TEST(Router, RestrictRegionKeepsPipsInside) {
  const Device& dev = Device::get("XCV50");
  // Build a base design with one partitioned module.
  Netlist top("regioned");
  const auto merged = top.merge_module(netlib::make_counter(6), "u1");
  std::vector<std::pair<std::string, NetId>> outs;
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
    outs.emplace_back(port, net);
  }
  PartitionSpec spec;
  spec.name = "u1";
  spec.region = Region{0, 6, dev.rows() - 1, 9};
  spec.output_ports = outs;
  const BaseFlowResult res = run_base_flow(dev, top, {spec});

  // Interface bindings recorded for every port.
  const PartitionInterface& iface = res.interface_of("u1");
  EXPECT_EQ(iface.bindings.size(), outs.size());

  // Partition the pips: every pip inside the region must belong to a
  // module-side net; no static pip may appear in region tiles.
  const Netlist& nl = res.design->netlist();
  for (const RoutedNet& rn : res.design->routes) {
    if (rn.net == kNullNet) continue;
    const Net& n = nl.net(rn.net);
    const bool module_driven =
        n.driver != kNullCell && nl.cell(n.driver).partition == "u1";
    for (const RoutedPip& p : rn.pips) {
      if (!module_driven) {
        EXPECT_FALSE(spec.region.contains(p.tile))
            << "static net '" << n.name << "' pips inside the region at "
            << dev.tile_name(p.tile);
      }
    }
  }
}

TEST(Router, CrossRegionNetProgramsNoRegionTile) {
  // A static net forced across a full-height excluded region must ride a
  // long line without programming any mux inside the region — the long
  // driver's config bits live in the driving tile's column, so the tile
  // gate matters even though the long node itself is legal.
  const Device& dev = Device::get("XCV50");
  const Region region{0, 8, dev.rows() - 1, 15};
  const RoutingGraph& g = RoutingGraph::get(dev);
  const RoutingFabric& fab = dev.fabric();

  NetToRoute net;
  net.id = 0;
  // Source: a slice pin east of the region; sink: an IMUX west of it.
  net.source = fab.tile_wire_node(5, 20, pin_local(0, SlicePin::X));
  net.sinks = {fab.tile_wire_node(5, 2, imux_local(0, ImuxPin::F1))};
  RouteConstraints rc;
  rc.exclude_regions.push_back(region);
  const auto routed = route_nets(g, {net}, rc);
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_GT(routed[0].pips.size(), 0u);
  for (const RoutedPip& p : routed[0].pips) {
    EXPECT_FALSE(region.contains(p.tile))
        << "pip at " << dev.tile_name(p.tile) << " programs a region tile";
  }
}

TEST(Timing, ReportsPlausibleCriticalPath) {
  const Device& dev = Device::get("XCV50");
  const BaseFlowResult adder = run_base_flow(dev, netlib::make_adder(8), {});
  const TimingReport t8 = estimate_timing(*adder.design);
  EXPECT_GT(t8.critical_path, 0.0);
  EXPECT_GE(t8.logic_levels, 7);  // 8-bit ripple carry chain
  const BaseFlowResult small = run_base_flow(dev, netlib::make_adder(2), {});
  const TimingReport t2 = estimate_timing(*small.design);
  EXPECT_LT(t2.critical_path, t8.critical_path);
}

}  // namespace
}  // namespace jpg
