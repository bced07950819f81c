// PlacedDesign: the physical implementation of a netlist — packed slices,
// site assignments, routed nets — i.e. this repository's ".ncd". It is what
// the XDL writer serialises, what bitgen programs into configuration memory
// (via CBits), and what the JPG tool consumes for partial designs.
//
// Two flavours share the struct:
//  * base designs: every Ibuf/Obuf is placed on an IOB site;
//  * module (partial) designs: `region` is set and Ibuf/Obuf cells are
//    *interface ports* bound to boundary-crossing wires instead of pads
//    (see pnr/flow.h for the crossing discipline).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbits/cbits.h"
#include "device/device.h"
#include "device/region.h"
#include "netlist/netlist.h"

namespace jpg {

/// One logic element: an optional LUT with an optional FF on its output.
struct LogicElement {
  CellId lut = kNullCell;
  CellId ff = kNullCell;

  [[nodiscard]] bool empty() const {
    return lut == kNullCell && ff == kNullCell;
  }
};

/// A packed slice: up to two logic elements (0 = F/X, 1 = G/Y).
struct PackedSlice {
  std::string name;
  std::string partition;
  LogicElement le[2];
};

/// One programmed PIP: tile + dest wire + mux encoding. `dest_local` may be
/// a long-driver alias.
struct RoutedPip {
  TileCoord tile;
  int dest_local = 0;
  std::uint32_t sel = 0;

  bool operator==(const RoutedPip&) const = default;
};

/// One programmed IOB pad-input mux.
struct IobRoute {
  IobSite site;
  std::uint32_t omux_sel = 0;

  bool operator==(const IobRoute&) const = default;
};

struct RoutedNet {
  NetId net = kNullNet;
  std::vector<RoutedPip> pips;
  std::vector<IobRoute> iob_pips;

  bool operator==(const RoutedNet&) const = default;
};

/// Where a cell's logic landed.
struct CellPlace {
  std::size_t slice_index = 0;
  int le = 0;  ///< 0 = F/X, 1 = G/Y
};

/// An interface port of a module design, bound to a boundary-crossing wire.
struct PlacedPort {
  CellId cell = kNullCell;  ///< the Ibuf/Obuf cell acting as the port
  bool is_input = false;    ///< true: static -> module (crosses left edge)
  int row = 0;              ///< crossing single: tile row
  int k = 0;                ///< crossing single: E-single index (0..7)
};

class PlacedDesign {
 public:
  PlacedDesign(const Device& device, Netlist netlist)
      : device_(&device), netlist_(std::move(netlist)) {}

  [[nodiscard]] const Device& device() const { return *device_; }
  [[nodiscard]] const Netlist& netlist() const { return netlist_; }

  /// Mutable access for the packer (constant folding rewrites LUT masks).
  [[nodiscard]] Netlist& netlist_mut() { return netlist_; }

  // --- Packing ---------------------------------------------------------------
  std::vector<PackedSlice> slices;
  std::unordered_map<CellId, CellPlace> cell_place;  ///< luts & ffs

  // --- Placement --------------------------------------------------------------
  std::vector<SliceSite> slice_sites;  ///< parallel to `slices`
  std::vector<CellId> iob_cells;       ///< placed Ibuf/Obuf cells (base designs)
  std::vector<IobSite> iob_sites;      ///< parallel to `iob_cells`

  /// Module designs: the reconfigurable region and interface ports.
  std::optional<Region> region;
  std::vector<PlacedPort> ports;

  // --- Routing ---------------------------------------------------------------
  std::vector<RoutedNet> routes;
  /// CLK input-mux programmings (one per slice containing a FF).
  std::vector<RoutedPip> clock_pips;

  // --- Derived queries ---------------------------------------------------------
  /// The fabric node driven by `net`'s driver cell, given the placement.
  /// For module designs, interface input ports yield the crossing wire node.
  [[nodiscard]] std::size_t driver_node(NetId net) const;

  /// Fabric sink nodes of `net`, one per routable sink pin (the paired-FF
  /// internal connection is skipped). Output ports yield crossing nodes;
  /// placed Obufs yield pad-in nodes.
  [[nodiscard]] std::vector<std::size_t> sink_nodes(NetId net) const;

  /// Fabric node of one sink pin of `net`; nullopt for the paired-FF
  /// internal connection (no fabric hop needed).
  [[nodiscard]] std::optional<std::size_t> sink_node_for(
      NetId net, const NetSink& sink) const;

  /// Programs the whole design into configuration memory: slice fields,
  /// LUTs, routing pips, IOB settings. The canonical "make CBits calls".
  /// Returns the number of CBits calls issued (the paper's tool workload).
  std::size_t apply(CBits& cb) const;

  /// Site of the slice holding `cell` (LUT/FF cells only).
  [[nodiscard]] SliceSite site_of(CellId cell) const;

  /// IOB site of a placed pad cell; nullopt for module interface ports.
  [[nodiscard]] std::optional<IobSite> iob_site_of(CellId cell) const;

  /// Crossing node of an interface port (module designs).
  [[nodiscard]] std::size_t port_crossing_node(const PlacedPort& p) const;

  /// Total programmed PIP count (routing volume metric for benches).
  [[nodiscard]] std::size_t total_pips() const;

 private:
  const Device* device_;
  Netlist netlist_;
};

}  // namespace jpg
