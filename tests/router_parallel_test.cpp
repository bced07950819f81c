// Determinism tests for the speculative router: the routed output must be
// byte-identical for every RouterOptions::num_threads, because each
// PathFinder round routes its wave against a frozen occupancy/history
// snapshot and merges — with conflict detection and retry — in net order
// (DESIGN.md §5c). The RouterWorkspace tests check that the device-sized
// state a graph lends to its route calls comes back clean: a reused
// workspace must route exactly like a freshly constructed graph.
#include <gtest/gtest.h>

#include <thread>

#include "netlib/generators.h"
#include "pnr/flow.h"

namespace jpg {
namespace {

constexpr int kThreadCounts[] = {2, 4, 8};

std::vector<RoutedNet> flow_routes(const Device& dev, const Netlist& nl,
                                   std::uint64_t seed, int threads) {
  FlowOptions opt;
  opt.seed = seed;
  opt.router.num_threads = threads;
  BaseFlowResult res = run_base_flow(dev, nl, {}, opt);
  return std::move(res.design->routes);
}

TEST(RouterParallel, FullFlowByteIdenticalAcrossThreadCounts) {
  struct Case {
    const char* part;
    const char* gen;
    int param;
  };
  for (const Case& c : {Case{"XCV50", "counter", 12}, Case{"XCV50", "lfsr", 8},
                        Case{"XCV100", "adder", 8}}) {
    const Device& dev = Device::get(c.part);
    Netlist nl("par_test");
    for (const auto& g : netlib::registry()) {
      if (g.name == c.gen) nl = g.make(c.param);
    }
    ASSERT_GT(nl.num_cells(), 0u);
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const auto baseline = flow_routes(dev, nl, seed, 1);
      ASSERT_FALSE(baseline.empty());
      for (const int threads : kThreadCounts) {
        EXPECT_EQ(flow_routes(dev, nl, seed, threads), baseline)
            << c.gen << "/" << c.param << " on " << c.part << " seed " << seed
            << " threads " << threads;
      }
    }
  }
}

/// Spatially spread nets: slice output at (r, c) to an F1 input mux a few
/// columns east. Disjoint bounding boxes mean round 1 usually lands every
/// net conflict-free.
std::vector<NetToRoute> spread_nets(const Device& dev) {
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  for (int r = 0; r < dev.rows(); r += 2) {
    for (int c = 0; c + 3 < dev.cols(); c += 5) {
      NetToRoute n;
      n.id = static_cast<NetId>(nets.size());
      n.source = fab.tile_wire_node(r, c, pin_local(0, SlicePin::X));
      n.sinks = {fab.tile_wire_node(r, c + 3, imux_local(0, ImuxPin::F1))};
      nets.push_back(std::move(n));
    }
  }
  return nets;
}

/// Congested nets: sources spread over the west half all targeting input
/// muxes of one narrow column band. On XCV50 the speculative retries
/// resolve them in one iteration; with max_spec_rounds = 1 they take
/// several, building up PathFinder history.
std::vector<NetToRoute> congested_nets(const Device& dev) {
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  const int sink_col = dev.cols() - 3;
  for (int r = 2; r + 2 < dev.rows(); ++r) {
    NetToRoute n;
    n.id = static_cast<NetId>(nets.size());
    n.source = fab.tile_wire_node(r, (r * 3) % (dev.cols() / 2),
                                  pin_local(r % 2, SlicePin::X));
    n.sinks = {
        fab.tile_wire_node(r, sink_col, imux_local(0, ImuxPin::F1)),
        fab.tile_wire_node((r + 5) % dev.rows(), sink_col,
                           imux_local(1, ImuxPin::G2))};
    nets.push_back(std::move(n));
  }
  return nets;
}

TEST(RouterParallel, RouteNetsByteIdenticalAcrossThreadCounts) {
  const Device& dev = Device::get("XCV50");
  const RoutingGraph& g = RoutingGraph::get(dev);
  using NetMaker = std::vector<NetToRoute> (*)(const Device&);
  for (const NetMaker maker : {NetMaker{&spread_nets}, NetMaker{&congested_nets}}) {
    const std::vector<NetToRoute> nets = maker(dev);
    ASSERT_GT(nets.size(), 8u);
    RouterOptions opt;
    opt.num_threads = 1;
    RouteStats base_stats;
    const auto baseline = route_nets(g, nets, {}, opt, &base_stats);
    EXPECT_GT(base_stats.spec_rounds, 0u);
    for (const int threads : kThreadCounts) {
      opt.num_threads = threads;
      RouteStats stats;
      EXPECT_EQ(route_nets(g, nets, {}, opt, &stats), baseline)
          << "threads " << threads;
      // Round structure is a pure function of the work list and the
      // net-order merge, not of the thread count.
      EXPECT_EQ(stats.spec_rounds, base_stats.spec_rounds);
      EXPECT_EQ(stats.spec_retries, base_stats.spec_retries);
      EXPECT_EQ(stats.iterations, base_stats.iterations);
    }
  }
}

/// FNV-1a digest of a routed result, so large-device comparisons don't
/// hold several full route vectors alive at once.
std::uint64_t route_digest(const std::vector<RoutedNet>& routes) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const RoutedNet& rn : routes) {
    mix(static_cast<std::uint64_t>(rn.net));
    for (const RoutedPip& p : rn.pips) {
      mix((static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.tile.r)) << 48) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.tile.c)) << 32) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.dest_local)) << 16) ^
          p.sel);
    }
    for (const IobRoute& p : rn.iob_pips) {
      mix((static_cast<std::uint64_t>(p.site.side == Side::Left ? 1 : 2) << 40) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.site.row)) << 20) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.site.k)) << 4) ^
          p.omux_sel);
    }
  }
  return h;
}

TEST(RouterParallel, SpeculativeDigestsIdenticalAcrossThreadCountsOnXCV800) {
  // XCV800-class work list: hundreds of speculative searches per round,
  // with the congested band forcing real conflict retries. The digest must
  // be bit-identical for threads {1, 2, 4, 8} and the round/retry counts
  // must match, proving the speculative scheduler never lets thread
  // scheduling leak into the merge.
  const Device& dev = Device::get("XCV800");
  const RoutingGraph& g = RoutingGraph::get(dev);
  using NetMaker = std::vector<NetToRoute> (*)(const Device&);
  for (const NetMaker maker : {NetMaker{&spread_nets}, NetMaker{&congested_nets}}) {
    const std::vector<NetToRoute> nets = maker(dev);
    ASSERT_GT(nets.size(), 50u);
    RouterOptions opt;
    opt.num_threads = 1;
    RouteStats base_stats;
    const std::uint64_t baseline =
        route_digest(route_nets(g, nets, {}, opt, &base_stats));
    for (const int threads : kThreadCounts) {
      opt.num_threads = threads;
      RouteStats stats;
      EXPECT_EQ(route_digest(route_nets(g, nets, {}, opt, &stats)), baseline)
          << "threads " << threads;
      EXPECT_EQ(stats.spec_rounds, base_stats.spec_rounds);
      EXPECT_EQ(stats.spec_retries, base_stats.spec_retries);
    }
  }
}

/// Static nets crossing the device west-bound at column 20 -> 2.
std::vector<NetToRoute> crossing_nets(const Device& dev) {
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  for (int r = 1; r + 1 < dev.rows(); r += 2) {
    NetToRoute n;
    n.id = static_cast<NetId>(nets.size());
    n.source = fab.tile_wire_node(r, 20, pin_local(0, SlicePin::X));
    n.sinks = {fab.tile_wire_node(r, 2, imux_local(0, ImuxPin::F1))};
    nets.push_back(std::move(n));
  }
  return nets;
}

TEST(RouterParallel, RegionConstrainedByteIdenticalAcrossThreadCounts) {
  const Device& dev = Device::get("XCV50");
  const RoutingGraph& g = RoutingGraph::get(dev);
  const Region region{0, 8, dev.rows() - 1, 15};

  // Static nets detouring around an excluded region exercise the region
  // permission path under the snapshot discipline.
  const std::vector<NetToRoute> nets = crossing_nets(dev);
  RouteConstraints rc;
  rc.exclude_regions.push_back(region);

  RouterOptions opt;
  opt.num_threads = 1;
  const auto baseline = route_nets(g, nets, rc, opt);
  for (const RoutedNet& rn : baseline) {
    for (const RoutedPip& p : rn.pips) {
      ASSERT_FALSE(region.contains(p.tile));
    }
  }
  for (const int threads : kThreadCounts) {
    opt.num_threads = threads;
    EXPECT_EQ(route_nets(g, nets, rc, opt), baseline) << "threads " << threads;
  }
}

/// Module nets inside `region`: each source drives one sink on its own row
/// at the far edge and one on the next row, so every route stays inside.
std::vector<NetToRoute> module_nets(const Device& dev, const Region& region) {
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  for (int r = region.r0; r < region.r1; ++r) {
    NetToRoute n;
    n.id = static_cast<NetId>(100 + nets.size());
    n.source = fab.tile_wire_node(r, region.c0 + r % 2,
                                  pin_local(r % 2, SlicePin::X));
    n.sinks = {
        fab.tile_wire_node(r, region.c1, imux_local(0, ImuxPin::F1)),
        fab.tile_wire_node(r + 1, region.c1 - 1, imux_local(1, ImuxPin::G2))};
    nets.push_back(std::move(n));
  }
  return nets;
}

/// A sink input mux outside `region`: unreachable for a net restricted to
/// the region.
std::size_t sink_outside(const Device& dev, const Region& region) {
  return dev.fabric().tile_wire_node(region.r1 + 3, region.c1 + 6,
                                     imux_local(0, ImuxPin::F1));
}

struct RouteCall {
  std::vector<NetToRoute> nets;
  RouteConstraints constraints;
};

/// Routes `call` on a graph of its own, whose workspace pool starts empty.
std::vector<RoutedNet> route_fresh(const Device& dev, const RouteCall& call,
                                   const RouterOptions& opt) {
  const RoutingGraph fresh(dev);
  return route_nets(fresh, call.nets, call.constraints, opt);
}

TEST(RouterWorkspace, DirtySequenceMatchesFreshGraph) {
  // Every constraint kind, congestion history and both permission
  // defaults run through the shared graph's workspace in turn; each call
  // must route exactly as it would on a graph that never routed before.
  const Device& dev = Device::get("XCV50");
  const RoutingGraph& shared = RoutingGraph::get(dev);
  const RoutingFabric& fab = dev.fabric();
  const Region full{0, 8, dev.rows() - 1, 15};
  const Region small{2, 3, 9, 8};

  std::vector<RouteCall> calls;
  {
    RouteCall c{crossing_nets(dev), {}};
    c.constraints.exclude_regions.push_back(full);
    for (int r = 0; r < dev.rows(); ++r) {
      c.constraints.extra_allowed.push_back(
          fab.tile_wire_node(r, 11, pin_local(0, SlicePin::X)));
    }
    calls.push_back(std::move(c));
  }
  calls.push_back(RouteCall{congested_nets(dev), {}});
  {
    RouteCall c{module_nets(dev, small), {}};
    c.constraints.restrict_region = small;
    c.constraints.blocked = {fab.tile_wire_node(4, 5, imux_local(0, ImuxPin::F1)),
                             fab.tile_wire_node(6, 6, imux_local(1, ImuxPin::G2))};
    calls.push_back(std::move(c));
  }
  {
    RouteCall c{module_nets(dev, full), {}};
    c.constraints.restrict_region = full;
    c.constraints.extra_allowed = {fab.longv_node(17, 0)};
    calls.push_back(std::move(c));
  }
  // Unconstrained crossing nets would see any deny left by the calls above.
  calls.push_back(RouteCall{crossing_nets(dev), {}});
  {
    RouteCall c{module_nets(dev, small), {}};
    c.constraints.restrict_region = small;
    calls.push_back(std::move(c));
  }

  // One speculative round turns the congested call's conflicts into
  // overuse, so it negotiates over several iterations and leaves history.
  RouterOptions opt;
  opt.num_threads = 1;
  for (const int spec_rounds : {3, 1, 3}) {
    opt.max_spec_rounds = spec_rounds;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto routed =
          route_nets(shared, calls[i].nets, calls[i].constraints, opt);
      ASSERT_FALSE(routed.empty());
      EXPECT_EQ(routed, route_fresh(dev, calls[i], opt))
          << "call " << i << " max_spec_rounds " << spec_rounds;
    }
  }
}

TEST(RouterWorkspace, CallAfterThrowMatchesFreshGraph) {
  const Device& dev = Device::get("XCV50");
  const RoutingGraph& shared = RoutingGraph::get(dev);
  const Region region{2, 3, 9, 8};

  const RouteCall congested{congested_nets(dev), {}};
  RouteCall module{module_nets(dev, region), {}};
  module.constraints.restrict_region = region;
  RouteCall unreachable = module;
  unreachable.nets.back().sinks.push_back(sink_outside(dev, region));

  RouterOptions opt;
  opt.num_threads = 1;
  opt.max_spec_rounds = 1;  // several iterations on the congested nets
  const auto fresh_congested = route_fresh(dev, congested, opt);
  const auto fresh_module = route_fresh(dev, module, opt);

  // Congestion limit: the first iteration leaves overuse and history.
  RouterOptions one_iteration = opt;
  one_iteration.max_iterations = 1;
  EXPECT_THROW((void)route_nets(shared, congested.nets, {}, one_iteration),
               DeviceError);
  EXPECT_EQ(route_nets(shared, congested.nets, {}, opt), fresh_congested);

  // Unreachable sink: earlier nets of the wave were already searched.
  EXPECT_THROW((void)route_nets(shared, unreachable.nets,
                                unreachable.constraints, opt),
               DeviceError);
  EXPECT_EQ(route_nets(shared, module.nets, module.constraints, opt),
            fresh_module);
  EXPECT_EQ(route_nets(shared, congested.nets, {}, opt), fresh_congested);
}

TEST(RouterWorkspace, ConcurrentRoutesMatchSequential) {
  // Three callers route on one graph at once — two modules and a
  // congested wave on a pool of its own — so each must lease its own
  // workspace and reproduce its sequential result.
  const Device& dev = Device::get("XCV50");
  const RoutingGraph graph(dev);
  const Region west{0, 1, 9, 6};
  const Region east{4, 14, dev.rows() - 1, 20};

  struct Job {
    RouteCall call;
    RouterOptions opt;
    std::vector<RoutedNet> expected;
    int mismatches = 0;
  };
  std::vector<Job> jobs(3);
  jobs[0].call = RouteCall{module_nets(dev, west), {}};
  jobs[0].call.constraints.restrict_region = west;
  jobs[0].opt.num_threads = 1;
  jobs[1].call = RouteCall{congested_nets(dev), {}};
  jobs[1].opt.num_threads = 2;
  jobs[1].opt.max_spec_rounds = 1;
  jobs[2].call = RouteCall{module_nets(dev, east), {}};
  jobs[2].call.constraints.restrict_region = east;
  for (Job& job : jobs) {
    job.expected =
        route_nets(graph, job.call.nets, job.call.constraints, job.opt);
    ASSERT_FALSE(job.expected.empty());
  }

  auto repeat = [&graph](Job& job) {
    for (int i = 0; i < 20; ++i) {
      try {
        if (route_nets(graph, job.call.nets, job.call.constraints, job.opt) !=
            job.expected) {
          ++job.mismatches;
        }
      } catch (const std::exception&) {
        ++job.mismatches;
      }
    }
  };
  std::thread first(repeat, std::ref(jobs[0]));
  std::thread second(repeat, std::ref(jobs[1]));
  repeat(jobs[2]);
  first.join();
  second.join();
  for (const Job& job : jobs) EXPECT_EQ(job.mismatches, 0);
}

#if JPG_TELEMETRY_ENABLED
std::uint64_t workspaces_allocated() {
  return telemetry::MetricsRegistry::global().snapshot().counter(
      "pnr.route.workspaces");
}

TEST(RouterWorkspace, SequentialModuleRoutesAllocateOneWorkspace) {
  const Device& dev = Device::get("XCV50");
  const RoutingGraph graph(dev);
  const Region region{2, 3, 9, 8};
  RouteConstraints rc;
  rc.restrict_region = region;
  const std::vector<NetToRoute> nets = module_nets(dev, region);
  RouterOptions opt;
  opt.num_threads = 1;

  const std::uint64_t before = workspaces_allocated();
  for (int i = 0; i < 50; ++i) (void)route_nets(graph, nets, rc, opt);
  EXPECT_EQ(workspaces_allocated() - before, 1u);

  // A call that throws drops its workspace, so the next one allocates.
  std::vector<NetToRoute> unreachable = nets;
  unreachable.back().sinks.push_back(sink_outside(dev, region));
  EXPECT_THROW((void)route_nets(graph, unreachable, rc, opt), DeviceError);
  (void)route_nets(graph, nets, rc, opt);
  EXPECT_EQ(workspaces_allocated() - before, 2u);
}
#endif  // JPG_TELEMETRY_ENABLED

}  // namespace
}  // namespace jpg
