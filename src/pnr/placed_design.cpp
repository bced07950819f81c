#include "pnr/placed_design.h"

#include <sstream>

#include "support/error.h"

namespace jpg {

namespace {

/// True when `ff` is the paired FF fed internally by `lut` (no fabric hop).
bool is_internal_ff_connection(const LogicElement& le, const Netlist& nl,
                               NetId net, CellId sink_cell) {
  if (le.lut == kNullCell || le.ff != sink_cell) return false;
  return nl.cell(le.lut).out == net;
}

}  // namespace

SliceSite PlacedDesign::site_of(CellId cell) const {
  const auto it = cell_place.find(cell);
  JPG_REQUIRE(it != cell_place.end(),
              "cell '" + netlist_.cell(cell).name + "' is not packed");
  JPG_REQUIRE(it->second.slice_index < slice_sites.size(),
              "cell's slice is not placed");
  return slice_sites[it->second.slice_index];
}

std::optional<IobSite> PlacedDesign::iob_site_of(CellId cell) const {
  for (std::size_t i = 0; i < iob_cells.size(); ++i) {
    if (iob_cells[i] == cell) return iob_sites[i];
  }
  return std::nullopt;
}

std::size_t PlacedDesign::port_crossing_node(const PlacedPort& p) const {
  JPG_REQUIRE(region.has_value(), "ports only exist on module designs");
  const RoutingFabric& fab = device_->fabric();
  // Inputs cross the left boundary: the static side drives the east-bound
  // single of the column just outside the region. Outputs cross the right
  // boundary: the module drives the east-bound single of the region's last
  // column (read by the static side one tile further east).
  const int col = p.is_input ? region->c0 - 1 : region->c1;
  JPG_REQUIRE(col >= 0 && col < device_->cols(), "crossing column out of range");
  return fab.tile_wire_node(p.row, col, single_local(Dir::E, p.k));
}

std::size_t PlacedDesign::driver_node(NetId net) const {
  const Net& n = netlist_.net(net);
  JPG_REQUIRE(n.driver != kNullCell, "net '" + n.name + "' has no driver");
  const Cell& c = netlist_.cell(n.driver);
  const RoutingFabric& fab = device_->fabric();
  switch (c.kind) {
    case CellKind::Lut4: {
      const CellPlace cp = cell_place.at(n.driver);
      const SliceSite s = slice_sites[cp.slice_index];
      const SlicePin pin = cp.le == 0 ? SlicePin::X : SlicePin::Y;
      return fab.tile_wire_node(s.r, s.c, pin_local(s.slice, pin));
    }
    case CellKind::Dff: {
      const CellPlace cp = cell_place.at(n.driver);
      const SliceSite s = slice_sites[cp.slice_index];
      const SlicePin pin = cp.le == 0 ? SlicePin::XQ : SlicePin::YQ;
      return fab.tile_wire_node(s.r, s.c, pin_local(s.slice, pin));
    }
    case CellKind::Ibuf: {
      if (const auto site = iob_site_of(n.driver)) {
        return fab.pad_out_node(site->side, site->row, site->k);
      }
      for (const PlacedPort& p : ports) {
        if (p.cell == n.driver) return port_crossing_node(p);
      }
      throw DeviceError("IBUF '" + c.name + "' is neither placed nor bound");
    }
    case CellKind::Gnd:
    case CellKind::Vcc:
      throw DeviceError("constant net '" + n.name +
                        "' must be folded before routing");
    case CellKind::Obuf:
      JPG_ASSERT(false);
      return 0;
  }
  JPG_ASSERT(false);
  return 0;
}

std::optional<std::size_t> PlacedDesign::sink_node_for(
    NetId net, const NetSink& sink) const {
  const RoutingFabric& fab = device_->fabric();
  const Cell& c = netlist_.cell(sink.cell);
  switch (c.kind) {
    case CellKind::Lut4: {
      const CellPlace cp = cell_place.at(sink.cell);
      const SliceSite s = slice_sites[cp.slice_index];
      const int base = cp.le == 0 ? static_cast<int>(ImuxPin::F1)
                                  : static_cast<int>(ImuxPin::G1);
      return fab.tile_wire_node(
          s.r, s.c, imux_local(s.slice, static_cast<ImuxPin>(base + sink.pin)));
    }
    case CellKind::Dff: {
      const CellPlace cp = cell_place.at(sink.cell);
      const PackedSlice& ps = slices[cp.slice_index];
      if (is_internal_ff_connection(ps.le[cp.le], netlist_, net, sink.cell)) {
        return std::nullopt;  // LUT -> paired FF: internal, no fabric hop
      }
      const SliceSite s = slice_sites[cp.slice_index];
      const ImuxPin pin = cp.le == 0 ? ImuxPin::BX : ImuxPin::BY;
      return fab.tile_wire_node(s.r, s.c, imux_local(s.slice, pin));
    }
    case CellKind::Obuf: {
      if (const auto site = iob_site_of(sink.cell)) {
        return fab.pad_in_node(site->side, site->row, site->k);
      }
      for (const PlacedPort& p : ports) {
        if (p.cell == sink.cell) return port_crossing_node(p);
      }
      throw DeviceError("OBUF '" + c.name + "' is neither placed nor bound");
    }
    default:
      throw DeviceError("cell '" + c.name + "' cannot sink a net");
  }
}

std::vector<std::size_t> PlacedDesign::sink_nodes(NetId net) const {
  const Net& n = netlist_.net(net);
  std::vector<std::size_t> out;
  for (const NetSink& sink : n.sinks) {
    if (const auto node = sink_node_for(net, sink)) {
      out.push_back(*node);
    }
  }
  return out;
}

std::size_t PlacedDesign::apply(CBits& cb) const {
  JPG_REQUIRE(slice_sites.size() == slices.size(), "design is not placed");
  std::size_t calls = 0;
  // Slice logic.
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const PackedSlice& ps = slices[i];
    const SliceSite s = slice_sites[i];
    for (int le = 0; le < 2; ++le) {
      const LogicElement& e = ps.le[le];
      if (e.empty()) continue;
      if (e.lut != kNullCell) {
        const Cell& lut = netlist_.cell(e.lut);
        ++calls, cb.set_lut(s, le == 0 ? LutSel::F : LutSel::G, lut.lut_init);
        // Comb output used iff some sink is not the paired FF.
        bool fabric_fanout = false;
        if (lut.out != kNullNet) {
          for (const NetSink& sink : netlist_.net(lut.out).sinks) {
            if (!is_internal_ff_connection(e, netlist_, lut.out, sink.cell)) {
              fabric_fanout = true;
              break;
            }
          }
        }
        ++calls, cb.set_field(s, le == 0 ? SliceField::XUsed : SliceField::YUsed,
                     fabric_fanout);
      }
      if (e.ff != kNullCell) {
        const Cell& ff = netlist_.cell(e.ff);
        ++calls, cb.set_field(s, le == 0 ? SliceField::FfxUsed : SliceField::FfyUsed,
                     true);
        const bool paired =
            e.lut != kNullCell && netlist_.cell(e.lut).out == ff.in[0];
        ++calls, cb.set_field(s, le == 0 ? SliceField::DxMux : SliceField::DyMux,
                     !paired);
        ++calls, cb.set_field(s, le == 0 ? SliceField::InitX : SliceField::InitY,
                     ff.ff_init);
      }
    }
  }
  // Routing.
  for (const RoutedPip& pip : clock_pips) {
    ++calls, cb.set_mux(pip.tile, pip.dest_local, pip.sel);
  }
  for (const RoutedNet& rn : routes) {
    for (const RoutedPip& pip : rn.pips) {
      ++calls, cb.set_mux(pip.tile, pip.dest_local, pip.sel);
    }
    for (const IobRoute& ir : rn.iob_pips) {
      ++calls, cb.set_iob_omux(ir.site, ir.omux_sel);
    }
  }
  // Pads.
  for (std::size_t i = 0; i < iob_cells.size(); ++i) {
    const Cell& c = netlist_.cell(iob_cells[i]);
    if (c.kind == CellKind::Ibuf) {
      ++calls, cb.set_iob_flag(iob_sites[i], IobField::IsInput, true);
    } else {
      ++calls, cb.set_iob_flag(iob_sites[i], IobField::IsOutput, true);
    }
  }
  return calls;
}

std::size_t PlacedDesign::total_pips() const {
  std::size_t n = clock_pips.size();
  for (const RoutedNet& rn : routes) {
    n += rn.pips.size() + rn.iob_pips.size();
  }
  return n;
}

}  // namespace jpg
