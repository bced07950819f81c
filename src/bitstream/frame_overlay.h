// FrameOverlay: a sparse copy-on-write view over a borrowed ConfigMemory.
//
// The partial generator's hot path only ever touches the frames owned by a
// region's majors, yet composing by deep-copying the whole ConfigMemory made
// every call pay full-device cost (2548 frames on an XCV300 for a 4-column
// update). A FrameOverlay materialises exactly the frames that change —
// {frame index → BitVector} over the borrowed base plane — and every read
// falls through to the base for untouched frames. The base must outlive the
// overlay and must not be mutated while the overlay is alive.
#pragma once

#include <unordered_map>
#include <vector>

#include "bitstream/config_memory.h"

namespace jpg {

class FrameOverlay {
 public:
  explicit FrameOverlay(const ConfigMemory& base) : base_(&base) {}

  [[nodiscard]] const ConfigMemory& base() const { return *base_; }
  [[nodiscard]] const Device& device() const { return base_->device(); }
  [[nodiscard]] std::size_t num_frames() const { return base_->num_frames(); }

  /// Read-through: the materialised frame if present, else the base frame.
  [[nodiscard]] const BitVector& frame(std::size_t idx) const {
    const auto it = frames_.find(idx);
    return it != frames_.end() ? it->second : base_->frame(idx);
  }

  /// Materialises a private copy of frame `idx` (from the base) on first use.
  [[nodiscard]] BitVector& mutable_frame(std::size_t idx) {
    const auto it = frames_.find(idx);
    if (it != frames_.end()) return it->second;
    return frames_.emplace(idx, base_->frame(idx)).first->second;
  }

  [[nodiscard]] std::size_t overlay_count() const { return frames_.size(); }

 private:
  const ConfigMemory* base_;
  std::unordered_map<std::size_t, BitVector> frames_;
};

}  // namespace jpg
