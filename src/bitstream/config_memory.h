// ConfigMemory: the device's configuration SRAM plane.
//
// This is the object every tool in the repo ultimately manipulates: bitgen
// serialises it, the configuration port writes into it, CBits pokes resource
// bits in it, JPG diffs two of them, and the bitstream-level simulator
// decodes one back into a circuit.
//
// Layout: one word array, frame i at word i * frame_words() in linear frame
// order (FrameMap's index, the FAR auto-increment order). A run of
// consecutive frames is one range of words: a plane copies with one memcpy,
// an FDRI run commits with one block copy (write_frames) and reads back with
// one (frame_run), and frame(i) is a BitSpan into the array. The bits past
// frame_bits() in each frame's last word stay zero, so plane and frame
// compares are plain word compares.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "device/device.h"
#include "support/bitvec.h"

namespace jpg {

class ConfigMemory {
 public:
  explicit ConfigMemory(const Device& device);

  [[nodiscard]] const Device& device() const { return *device_; }

  [[nodiscard]] std::size_t num_frames() const {
    return words_.size() / frame_words_;
  }
  /// Words per frame: the stride of the word array.
  [[nodiscard]] std::size_t frame_words() const { return frame_words_; }
  [[nodiscard]] ConstBitSpan frame(std::size_t idx) const {
    return {std::span(words_).subspan(word_of(idx), frame_words_),
            frame_bits_};
  }
  [[nodiscard]] BitSpan frame(std::size_t idx) {
    return {std::span(words_).subspan(word_of(idx), frame_words_),
            frame_bits_};
  }

  /// The words of the `count` frames from `first`, in one contiguous span.
  [[nodiscard]] std::span<const std::uint32_t> frame_run(
      std::size_t first, std::size_t count) const;

  /// Writes whole frames from `first` on, frame_words() packed words each,
  /// with one block copy; bits past the end of each frame are cleared.
  void write_frames(std::size_t first, std::span<const std::uint32_t> words);

  // --- Resource-bit access ----------------------------------------------------
  [[nodiscard]] bool get_bit(const FrameBit& fb) const;
  void set_bit(const FrameBit& fb, bool v);

  /// Indices of frames whose content differs from `other` (same device).
  [[nodiscard]] std::vector<std::size_t> diff_frames(
      const ConfigMemory& other) const;

  bool operator==(const ConfigMemory& other) const {
    return words_ == other.words_;
  }

  ConfigMemory(const ConfigMemory&) = default;
  /// Moves the word array: no plane is copied.
  ConfigMemory(ConfigMemory&&) noexcept = default;
  /// Both assignments require `other` to target the same device.
  ConfigMemory& operator=(const ConfigMemory& other);
  ConfigMemory& operator=(ConfigMemory&& other);

 private:
  /// The first word of frame `idx`; throws when there is no such frame.
  [[nodiscard]] std::size_t word_of(std::size_t idx) const {
    JPG_REQUIRE(idx < words_.size() && idx * frame_words_ < words_.size(),
                "frame index out of range");
    return idx * frame_words_;
  }
  [[nodiscard]] std::size_t frame_of(const FrameBit& fb) const;

  const Device* device_;
  std::size_t frame_bits_;
  std::size_t frame_words_;
  std::vector<std::uint32_t> words_;
};

static_assert(std::is_nothrow_move_constructible_v<ConfigMemory>);

}  // namespace jpg
