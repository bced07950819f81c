// PbitRelocator: compile-once-place-anywhere for partial bitstreams.
//
// A partial bitstream generated for region A can be retargeted at any
// geometry-compatible region B by rewriting its frame addresses — the
// PARBIT capability, promoted here from baseline to first-class. Because a
// pbit's frames also carry the *base* design's bits in A's out-of-region
// rows, naive FAR rewriting would transplant A's surroundings onto B; the
// relocator instead decodes the pbit onto the base plane, lifts exactly the
// region-window bits into a translated module plane positioned at B, and
// re-emits through the same PartialBitstreamGenerator that produced the
// original — so a relocated pbit is byte-for-byte what generate-at-B would
// have produced (the relocation oracle in src/testing proves this per
// design), and relocated results share the generator's pbit cache.
//
// Soundness gate: before rewriting, a compatibility checker validates the
// region shape (same dimensions, in bounds) and the module's routing
// footprint. A mux inside the region that reads a wire sourced outside it,
// a driven single/hex whose span exits the region, or any long-line use
// (long lines are row/column-global, so driving one from a new position can
// contend with the base design) is a *crossing*; crossings escape the
// region and make blind relocation functionally unsound. Incompatibilities
// are rejected with the typed RelocError (shared with the PARBIT baseline's
// column mode) — never silently mis-relocated. GCLK references are allowed:
// the global clock is position-independent.
//
// DefragPlanner: pure planning of region moves that compact applied slots
// toward low column indices, leaving free space contiguous. The service
// executes a plan as verified swap sequences (relocate + verified download
// + old-slot scrub), each move covered by the §5d two-state invariant.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/partial_gen.h"
#include "device/region.h"
#include "support/error.h"

namespace jpg {

/// One routing escape found by the compatibility checker.
struct RelocCrossing {
  TileCoord tile;       ///< region tile whose mux escapes
  int dest_local = 0;   ///< destination wire of the escaping mux
  bool drives_long = false;  ///< the mux drives a shared long line
  std::string detail;   ///< human-readable "what escapes where"
};

/// Verdict of the compatibility checker.
struct RelocCompat {
  bool shape_ok = false;  ///< dimensions match and the target fits
  std::string shape_detail;
  std::vector<RelocCrossing> crossings;  ///< routing-footprint escapes

  [[nodiscard]] bool contained() const { return crossings.empty(); }
  [[nodiscard]] bool ok() const { return shape_ok && contained(); }
  /// True when any crossing drives a long line (the escapes that can
  /// contend with the base design's own routing, not merely dangle).
  [[nodiscard]] bool drives_long_lines() const;
};

struct RelocOptions {
  /// Reject relocation when the module's routing footprint escapes the
  /// region (RelocError::Kind::FootprintEscape). Forcing past this is only
  /// sound when the caller knows nothing outside the target reads the
  /// escaping wires (the relocation oracle uses it against free columns).
  bool require_containment = true;
  /// Options for the re-emitted pbit (defaults match generate()).
  PartialGenOptions gen;
};

class PbitRelocator {
 public:
  /// The generator supplies the base plane *and* emits the retargeted
  /// stream (sharing its pbit cache). It must outlive the relocator.
  explicit PbitRelocator(const PartialBitstreamGenerator& gen);

  /// Geometric compatibility of src -> dst on this device (no throw).
  [[nodiscard]] RelocCompat check_shape(const Region& src,
                                        const Region& dst) const;

  /// Full check: shape plus the routing-footprint containment of `plane`'s
  /// content at `src` (read-only CBits decode of every region mux).
  [[nodiscard]] RelocCompat check(const ConfigMemory& plane, const Region& src,
                                  const Region& dst) const;

  /// Validates `pbit` (validate_stream) and applies its frame table to a
  /// copy of the base, returning the resulting plane (content positioned
  /// at `src`). Throws BitstreamError on a malformed pbit and RelocError
  /// (CoverageMismatch) if the pbit writes any frame outside src's columns.
  [[nodiscard]] ConfigMemory decode(const Bitstream& pbit,
                                    const Region& src) const;

  /// Lifts the src window of `plane` into a fresh module plane positioned
  /// at `dst` (frame-level word blits, rows shifted by dst.r0 - src.r0).
  /// Validates shape + containment per `opts` first; throws RelocError.
  [[nodiscard]] ConfigMemory translate(const ConfigMemory& plane,
                                       const Region& src, const Region& dst,
                                       const RelocOptions& opts = {}) const;

  /// The full path: decode + translate + re-emit at `dst`. The result is
  /// byte-identical to generating at dst from the translated module plane.
  [[nodiscard]] PartialGenResult relocate(const Bitstream& pbit,
                                          const Region& src, const Region& dst,
                                          const RelocOptions& opts = {}) const;

  /// Leased form of relocate() for the zero-copy streaming datapath.
  [[nodiscard]] PbitLease relocate_leased(const Bitstream& pbit,
                                          const Region& src, const Region& dst,
                                          const RelocOptions& opts = {}) const;

  [[nodiscard]] const PartialBitstreamGenerator& generator() const {
    return *gen_;
  }

 private:
  /// Throws RelocError unless shape (always) and containment (per opts)
  /// hold for `plane`'s content at src.
  void validate(const ConfigMemory& plane, const Region& src,
                const Region& dst, const RelocOptions& opts) const;

  const PartialBitstreamGenerator* gen_;
  const Device* device_;
};

// --- Defragmentation planning -------------------------------------------------

/// One applied slot the planner may move.
struct DefragSlot {
  Region region;
  std::string key;  ///< caller's identity for the slot (e.g. variant label)
};

/// One planned move (regions are always shape-compatible by construction).
struct DefragMove {
  Region from;
  Region to;
  std::string key;
};

/// Plans moves that compact `slots` toward the lowest usable columns.
/// `usable_col(c)` must return true for columns that may receive content
/// (typically: no base-design logic configured there). Only slots whose
/// columns are exclusively their own are moved (a shared column cannot be
/// scrubbed without collateral), targets never overlap any slot's current
/// or planned columns, and every move is strictly leftward — so executing
/// the plan in order is safe with full-column writes. Pure function.
[[nodiscard]] std::vector<DefragMove> plan_defrag(
    const Device& device, std::vector<DefragSlot> slots,
    const std::function<bool(int)>& usable_col);

}  // namespace jpg
