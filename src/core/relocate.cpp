#include "core/relocate.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "bitstream/frame_table.h"
#include "cbits/cbits.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

namespace {

/// Offset of the tile where a single driven in direction `d` is readable.
constexpr TileCoord single_reader_offset(Dir d) {
  switch (d) {
    case Dir::E: return {0, 1};
    case Dir::N: return {-1, 0};
    case Dir::W: return {0, -1};
    case Dir::S: return {1, 0};
  }
  return {0, 0};
}

/// Unit step of direction `d` (a hex spans kHexSpan of these).
constexpr TileCoord dir_step(Dir d) { return single_reader_offset(d); }

std::string crossing_detail(const TileCoord& t, const std::string& what) {
  std::ostringstream os;
  os << "tile (" << t.r << "," << t.c << "): " << what;
  return os.str();
}

}  // namespace

bool RelocCompat::drives_long_lines() const {
  return std::any_of(crossings.begin(), crossings.end(),
                     [](const RelocCrossing& x) { return x.drives_long; });
}

PbitRelocator::PbitRelocator(const PartialBitstreamGenerator& gen)
    : gen_(&gen), device_(&gen.base().device()) {}

RelocCompat PbitRelocator::check_shape(const Region& src,
                                       const Region& dst) const {
  RelocCompat compat;
  if (!src.in_bounds(*device_)) {
    compat.shape_detail = "source region " + src.to_string() +
                          " is out of bounds for the device";
    return compat;
  }
  if (!dst.in_bounds(*device_)) {
    compat.shape_detail = "target region " + dst.to_string() +
                          " is out of bounds for the device";
    return compat;
  }
  if (src.width() != dst.width() || src.height() != dst.height()) {
    std::ostringstream os;
    os << "shape mismatch: source " << src.to_string() << " is "
       << src.width() << "x" << src.height() << ", target " << dst.to_string()
       << " is " << dst.width() << "x" << dst.height();
    compat.shape_detail = os.str();
    return compat;
  }
  compat.shape_ok = true;
  return compat;
}

RelocCompat PbitRelocator::check(const ConfigMemory& plane, const Region& src,
                                 const Region& dst) const {
  RelocCompat compat = check_shape(src, dst);
  if (!compat.shape_ok) return compat;

  const CBits cb(plane);
  const auto& muxes = device_->fabric().tile_muxes();
  std::size_t checked = 0;
  for (int r = src.r0; r <= src.r1; ++r) {
    for (int c = src.c0; c <= src.c1; ++c) {
      const TileCoord t{r, c};
      for (const MuxDef& def : muxes) {
        const std::uint32_t sel = cb.get_mux(t, def.dest_local);
        ++checked;
        if (sel == 0) continue;

        // Long-driver aliases: the mux output is a row/column-global wire.
        if (def.dest_local >= kLongDriverBase) {
          compat.crossings.push_back(
              {t, def.dest_local, /*drives_long=*/true,
               crossing_detail(t, "drives shared long line " +
                                      local_wire_name(def.dest_local))});
          continue;
        }

        // Where does the selected source come from?
        if (sel > def.sources.size()) {
          compat.crossings.push_back(
              {t, def.dest_local, /*drives_long=*/false,
               crossing_detail(t, "invalid mux encoding " +
                                      std::to_string(sel) + " on " +
                                      local_wire_name(def.dest_local))});
        } else {
          const SourceRef& source = def.sources[sel - 1];
          switch (source.kind) {
            case SourceRef::Kind::Gclk:
              break;  // the global clock is position-independent
            case SourceRef::Kind::LongH:
            case SourceRef::Kind::LongV:
              compat.crossings.push_back(
                  {t, def.dest_local, /*drives_long=*/false,
                   crossing_detail(t, local_wire_name(def.dest_local) +
                                          " reads shared long line " +
                                          source_ref_name(source))});
              break;
            case SourceRef::Kind::TileWire: {
              const TileCoord from{t.r + source.dr, t.c + source.dc};
              if (!src.contains(from)) {
                compat.crossings.push_back(
                    {t, def.dest_local, /*drives_long=*/false,
                     crossing_detail(t, local_wire_name(def.dest_local) +
                                            " reads " +
                                            source_ref_name(source) +
                                            " sourced outside the region")});
              }
              break;
            }
          }
        }

        // Outgoing span: a driven single is readable one tile away, a
        // driven hex at its +3 and +6 taps; if a tap lands outside the
        // region the signal leaks past the boundary.
        if (def.dest_local >= kSingleBase && def.dest_local < kHexBase) {
          const Dir d =
              static_cast<Dir>((def.dest_local - kSingleBase) / kSinglesPerDir);
          const TileCoord off = single_reader_offset(d);
          const TileCoord reader{t.r + off.r, t.c + off.c};
          if (!src.contains(reader)) {
            compat.crossings.push_back(
                {t, def.dest_local, /*drives_long=*/false,
                 crossing_detail(t, "driven single " +
                                        local_wire_name(def.dest_local) +
                                        " is readable outside the region")});
          }
        } else if (def.dest_local >= kHexBase && def.dest_local < kImuxBase) {
          const Dir d =
              static_cast<Dir>((def.dest_local - kHexBase) / kHexesPerDir);
          const TileCoord step = dir_step(d);
          const TileCoord mid{t.r + step.r * kHexTap, t.c + step.c * kHexTap};
          const TileCoord end{t.r + step.r * kHexSpan, t.c + step.c * kHexSpan};
          if (!src.contains(mid) || !src.contains(end)) {
            compat.crossings.push_back(
                {t, def.dest_local, /*drives_long=*/false,
                 crossing_detail(t, "driven hex " +
                                        local_wire_name(def.dest_local) +
                                        " has a tap outside the region")});
          }
        }
      }
    }
  }
  JPG_COUNT("reloc.muxes_checked", checked);
  return compat;
}

ConfigMemory PbitRelocator::decode(const Bitstream& pbit,
                                   const Region& src) const {
  JPG_REQUIRE(src.in_bounds(*device_), "source region out of bounds");
  const FrameMap& fm = device_->frames();

  // Validate the pbit (it throws BitstreamError where the port would); its
  // frame table names every frame it writes.
  const FrameTable table = validate_stream(*device_, pbit.words);

  // Coverage: every frame the pbit writes must belong to the source
  // region's columns (a subset is fine: diff_only pbits skip unchanged
  // frames). Anything else means `src` mislabels where the pbit lives, and
  // translating from there would relocate the wrong bits.
  std::set<std::size_t> allowed;
  for (const int major : src.clb_majors(*device_)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      allowed.insert(fm.frame_index(major, minor));
    }
  }
  for (const std::size_t frame : table.touched) {
    if (!allowed.contains(frame)) {
      JPG_COUNT("reloc.rejected", 1);
      throw RelocError(RelocError::Kind::CoverageMismatch,
                       "pbit writes frame " + fm.describe_frame(frame) +
                           " outside source region " + src.to_string());
    }
  }

  // Apply the pbit onto a copy of the base: the result is the plane the
  // device would hold after the download, with the module's content at src.
  ConfigMemory plane = gen_->base();
  apply_frame_table(table, pbit.words, plane);
  return plane;
}

void PbitRelocator::validate(const ConfigMemory& plane, const Region& src,
                             const Region& dst,
                             const RelocOptions& opts) const {
  const RelocCompat shape = check_shape(src, dst);
  if (!shape.shape_ok) {
    JPG_COUNT("reloc.rejected", 1);
    const bool oob = !src.in_bounds(*device_) || !dst.in_bounds(*device_);
    throw RelocError(oob ? RelocError::Kind::OutOfBounds
                         : RelocError::Kind::ShapeMismatch,
                     shape.shape_detail);
  }
  if (!opts.require_containment) return;
  const RelocCompat compat = check(plane, src, dst);
  if (!compat.contained()) {
    JPG_COUNT("reloc.rejected", 1);
    std::ostringstream os;
    os << compat.crossings.size() << " routing crossing(s) escape "
       << src.to_string();
    const std::size_t show = std::min<std::size_t>(compat.crossings.size(), 3);
    for (std::size_t i = 0; i < show; ++i) {
      os << "; " << compat.crossings[i].detail;
    }
    throw RelocError(RelocError::Kind::FootprintEscape, os.str());
  }
}

ConfigMemory PbitRelocator::translate(const ConfigMemory& plane,
                                      const Region& src, const Region& dst,
                                      const RelocOptions& opts) const {
  JPG_SPAN("reloc.translate");
  validate(plane, src, dst, opts);

  const FrameMap& fm = device_->frames();
  ConfigMemory module(*device_);
  const std::size_t src_base = fm.row_bit_base(src.r0);
  const std::size_t dst_base = fm.row_bit_base(dst.r0);
  const std::size_t window_bits =
      static_cast<std::size_t>(src.height()) * FrameMap::kBitsPerRow;
  for (int i = 0; i < src.width(); ++i) {
    const int smajor = fm.major_of_clb_col(src.c0 + i);
    const int dmajor = fm.major_of_clb_col(dst.c0 + i);
    for (int minor = 0; minor < fm.frames_in_major(smajor); ++minor) {
      const std::size_t sidx = fm.frame_index(smajor, minor);
      const std::size_t didx = fm.frame_index(dmajor, minor);
      module.frame(didx).copy_range(plane.frame(sidx), src_base, dst_base,
                                    window_bits);
    }
  }
  return module;
}

PartialGenResult PbitRelocator::relocate(const Bitstream& pbit,
                                         const Region& src, const Region& dst,
                                         const RelocOptions& opts) const {
  JPG_SPAN("reloc.relocate");
  const ConfigMemory module = translate(decode(pbit, src), src, dst, opts);
  PartialGenResult res = gen_->generate(module, dst, opts.gen);
  JPG_COUNT("reloc.relocations", 1);
  return res;
}

PbitLease PbitRelocator::relocate_leased(const Bitstream& pbit,
                                         const Region& src, const Region& dst,
                                         const RelocOptions& opts) const {
  JPG_SPAN("reloc.relocate");
  const ConfigMemory module = translate(decode(pbit, src), src, dst, opts);
  PbitLease lease = gen_->generate_leased(module, dst, opts.gen);
  JPG_COUNT("reloc.relocations", 1);
  return lease;
}

// --- Defragmentation planning -------------------------------------------------

std::vector<DefragMove> plan_defrag(
    const Device& device, std::vector<DefragSlot> slots,
    const std::function<bool(int)>& usable_col) {
  const int cols = device.cols();

  // A column shared by two slots cannot be scrubbed after a move without
  // collateral damage, so only slots with exclusive columns are movable.
  std::vector<int> owners(cols, 0);
  for (const DefragSlot& s : slots) {
    JPG_REQUIRE(s.region.in_bounds(device), "defrag slot out of bounds");
    for (int c = s.region.c0; c <= s.region.c1; ++c) ++owners[c];
  }

  // `reserved` tracks columns occupied at each point of the planned
  // execution: all current slots to start; a move releases its source
  // columns and claims its target's. Later slots' current columns stay
  // reserved while earlier moves are planned, so executing the plan in
  // order never writes over a slot that has not moved yet.
  std::vector<char> reserved(cols, 0);
  for (const DefragSlot& s : slots) {
    for (int c = s.region.c0; c <= s.region.c1; ++c) reserved[c] = 1;
  }

  std::sort(slots.begin(), slots.end(),
            [](const DefragSlot& a, const DefragSlot& b) {
              return a.region.c0 < b.region.c0;
            });

  std::vector<DefragMove> moves;
  for (const DefragSlot& s : slots) {
    const int w = s.region.width();
    bool exclusive = true;
    for (int c = s.region.c0; c <= s.region.c1; ++c) {
      if (owners[c] != 1) exclusive = false;
    }
    if (!exclusive) continue;

    for (int c = s.region.c0; c <= s.region.c1; ++c) reserved[c] = 0;
    int best = -1;
    // Strictly leftward and disjoint from the current columns, so the
    // scrub of the old slot never touches the new one.
    for (int c0 = 0; c0 + w - 1 < s.region.c0; ++c0) {
      bool ok = true;
      for (int c = c0; c < c0 + w; ++c) {
        if (!usable_col(c) || reserved[c]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        best = c0;
        break;
      }
    }
    if (best >= 0) {
      const Region to{s.region.r0, best, s.region.r1, best + w - 1};
      moves.push_back({s.region, to, s.key});
      for (int c = to.c0; c <= to.c1; ++c) reserved[c] = 1;
    } else {
      for (int c = s.region.c0; c <= s.region.c1; ++c) reserved[c] = 1;
    }
  }
  return moves;
}

}  // namespace jpg
