// ConfigMemory: the device's configuration SRAM plane, frame by frame.
//
// This is the object every tool in the repo ultimately manipulates: bitgen
// serialises it, the configuration port writes into it, CBits pokes resource
// bits in it, JPG diffs two of them, and the bitstream-level simulator
// decodes one back into a circuit.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "device/device.h"
#include "support/bitvec.h"

namespace jpg {

class ConfigMemory {
 public:
  explicit ConfigMemory(const Device& device);

  [[nodiscard]] const Device& device() const { return *device_; }

  [[nodiscard]] std::size_t num_frames() const { return frames_.size(); }
  [[nodiscard]] const BitVector& frame(std::size_t idx) const;
  [[nodiscard]] BitVector& frame(std::size_t idx);

  // --- Resource-bit access ----------------------------------------------------
  [[nodiscard]] bool get_bit(const FrameBit& fb) const;
  void set_bit(const FrameBit& fb, bool v);

  // --- Frame-level operations ---------------------------------------------------
  /// Indices of frames whose content differs from `other` (same device).
  [[nodiscard]] std::vector<std::size_t> diff_frames(
      const ConfigMemory& other) const;

  void copy_frame_from(const ConfigMemory& other, std::size_t idx);

  /// Writes frame `idx` from `frame_words()` packed 32-bit words.
  void write_frame_words(std::size_t idx, const std::uint32_t* words);

  /// Reads frame `idx` into `frame_words()` packed 32-bit words.
  void read_frame_words(std::size_t idx, std::uint32_t* words) const;

  void clear();

  bool operator==(const ConfigMemory& other) const {
    return frames_ == other.frames_;
  }
  bool operator!=(const ConfigMemory& other) const { return !(*this == other); }

  ConfigMemory(const ConfigMemory&) = default;
  /// Moves the frames, not their words: no plane is copied.
  ConfigMemory(ConfigMemory&&) noexcept = default;
  /// Both assignments require `other` to target the same device.
  ConfigMemory& operator=(const ConfigMemory& other);
  ConfigMemory& operator=(ConfigMemory&& other);

 private:
  const Device* device_;
  std::vector<BitVector> frames_;
};

static_assert(std::is_nothrow_move_constructible_v<ConfigMemory>);

}  // namespace jpg
