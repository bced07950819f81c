// Router: PathFinder negotiated-congestion routing over the device fabric —
// the PAR routing step of the Foundation flow.
//
// Each PathFinder iteration routes its whole rip-up wave *speculatively*:
// every net that needs (re)routing searches concurrently against a frozen
// occupancy/history snapshot, then claims are merged in net order at a
// barrier. A net whose path lands on a node some earlier-merged net of the
// same iteration already claimed is discarded and retried in the next
// round against the updated snapshot (bounded by
// RouterOptions::max_spec_rounds; leftovers are accepted as overuse for
// the normal PathFinder negotiation to resolve). Because every search
// depends only on the snapshot and the merge order is the net order, the
// result is byte-identical for any RouterOptions::num_threads — and unlike
// the earlier conflict-free bbox batches (whose mean width was a handful
// of nets), the first round of every iteration exposes the entire wave as
// parallel work (see DESIGN.md §5c).
//
// The router understands the partial-reconfiguration resource discipline
// (DESIGN.md, pnr/flow.h): a *module* net may be restricted to its region's
// tiles (plus the region's vertical long lines when the region is full
// height, never horizontal longs), while *static* nets exclude region tiles
// and region-column vertical longs. The two passes therefore consume
// provably disjoint configuration bits, which is what makes JPG's frame
// rewriting non-disruptive.
//
// A route call costs O(nodes it touches), not O(device): the device-sized
// arrays (permissions, occupancy, history, claim marks and the per-worker
// A* scratch) live in a RouteWorkspace leased from the graph and handed
// back clean, so the next call starts without zeroing them (DESIGN.md §5c).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "pnr/placed_design.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

/// Device-sized router state, one per concurrent route_nets caller of a
/// graph (defined in router.cpp).
struct RouteWorkspace;

/// Forward routing graph (CSR), built once per device and cached.
class RoutingGraph {
 public:
  struct Edge {
    std::uint32_t to = 0;
    std::int16_t r = 0;           ///< pip tile row / IOB row
    std::int16_t c = 0;           ///< pip tile col / IOB pad index
    std::int16_t dest_local = 0;  ///< >=0: tile mux; -1/-2: left/right pad-in
    std::uint16_t sel = 0;        ///< mux encoding programming this edge
  };
  static constexpr std::int16_t kPadInLeft = -1;
  static constexpr std::int16_t kPadInRight = -2;

  explicit RoutingGraph(const Device& device);
  ~RoutingGraph();

  [[nodiscard]] const Device& device() const { return *device_; }
  [[nodiscard]] std::size_t num_nodes() const { return offsets_.size() - 1; }
  [[nodiscard]] std::span<const Edge> out_edges(std::size_t node) const {
    return {edges_.data() + offsets_[node],
            edges_.data() + offsets_[node + 1]};
  }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// Flattened per-node metadata for the router's hot loop: tile row/col
  /// (-1 for longs, pads and GCLK — nodes without a single tile position)
  /// and the PathFinder base cost by node type. Precomputed once per device
  /// so A* never calls RoutingFabric::node_info while relaxing edges.
  [[nodiscard]] std::int16_t node_r(std::size_t node) const {
    return node_r_[node];
  }
  [[nodiscard]] std::int16_t node_c(std::size_t node) const {
    return node_c_[node];
  }
  [[nodiscard]] double base_cost(std::size_t node) const {
    return base_cost_[node];
  }

  /// Process-wide cache (graphs are immutable and expensive).
  static const RoutingGraph& get(const Device& device);

 private:
  friend class WorkspaceLease;  // router.cpp

  const Device* device_;
  std::vector<std::size_t> offsets_;
  std::vector<Edge> edges_;
  std::vector<std::int16_t> node_r_;
  std::vector<std::int16_t> node_c_;
  std::vector<float> base_cost_;
  /// Clean workspaces between route_nets calls: the graph's only mutable
  /// state. A call leases one (allocating when the list is empty) and
  /// returns it clean; a call that throws drops it.
  mutable std::mutex workspace_mutex_;
  mutable std::vector<std::unique_ptr<RouteWorkspace>> free_workspaces_;
};

struct NetToRoute {
  NetId id = kNullNet;
  std::size_t source = 0;
  std::vector<std::size_t> sinks;
};

struct RouteConstraints {
  /// Nets may only use wires of tiles inside this region (module pass);
  /// region-column vertical longs are allowed when the region is full
  /// height; horizontal longs never.
  std::optional<Region> restrict_region;
  /// Nets must avoid wires of tiles inside these regions and the vertical
  /// longs of their columns (static pass).
  std::vector<Region> exclude_regions;
  /// Nodes usable despite the region rules (locked boundary crossings).
  std::vector<std::size_t> extra_allowed;
  /// Nodes that must not be used (crossing wires reserved for other nets).
  std::vector<std::size_t> blocked;
};

struct RouterOptions {
  int max_iterations = 60;
  /// Threads for the per-iteration net fan-out, all on ThreadPool::global():
  /// 0 uses the caller plus every worker, 1 routes in the caller's thread,
  /// N > 1 uses at most N threads, caller included. The routed output is
  /// byte-identical for every value — all speculative searches of a round
  /// run against the same frozen snapshot and merge at a deterministic
  /// net-order barrier, so the thread count only changes wall-clock, never
  /// the result.
  int num_threads = 0;
  /// Speculative conflict-retry rounds per iteration. Round 1 routes the
  /// whole rip-up wave; each later round reroutes only the nets whose
  /// claims collided with an earlier-merged net of the same iteration.
  /// When the rounds are exhausted, remaining collisions merge as overuse
  /// and the outer negotiation (pres_fac/history) resolves them — so any
  /// value >= 1 is correct; more rounds trade extra searches for fewer
  /// iterations. Must be >= 1.
  int max_spec_rounds = 3;
  /// Bench-only reference: the seed's unbatched sequential algorithm
  /// (linear tree-membership scans, per-relax node_info lookups, a fresh
  /// heap per sink search, online occupancy updates). Kept so
  /// bench_cl_pnr_time can measure the batched router's speedup against an
  /// in-tree baseline; its results may differ from the batched router.
  bool reference_impl = false;
};

struct RouteStats {
  int iterations = 0;
  std::size_t nodes_used = 0;
  std::size_t total_pips = 0;
  std::size_t spec_rounds = 0;    ///< speculative route+merge rounds executed
  std::size_t spec_retries = 0;   ///< speculative routes discarded on conflict
  std::size_t nets_rerouted = 0;  ///< (re)route invocations over all iterations
  /// Wall time plus this pass's own counters (iterations, rounds, retries,
  /// rerouted nets; A* heap pops when compiled with JPG_TELEMETRY).
  telemetry::StageSnapshot telemetry;
};

/// Routes all nets; throws DeviceError when a sink is unreachable or
/// congestion cannot be resolved within max_iterations. Safe to call
/// concurrently on one graph: each call leases its own workspace.
[[nodiscard]] std::vector<RoutedNet> route_nets(
    const RoutingGraph& graph, const std::vector<NetToRoute>& nets,
    const RouteConstraints& constraints = {},
    const RouterOptions& options = {}, RouteStats* stats = nullptr);

}  // namespace jpg
