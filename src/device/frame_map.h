// Configuration frame geometry: the heart of Virtex-style partial
// reconfiguration.
//
// Virtex configuration memory is organised as vertical *frames*: a frame is
// one bit-column spanning the full height of the device, and frames are
// grouped into *majors*, one major per physical column. The crucial
// consequence (which JPG exploits and which this module preserves exactly) is
// that the atom of (re)configuration is a full-height frame: a rectangular
// region maps onto the set of majors covering its columns, and writing to a
// region rewrites every row of those columns.
//
// Column order, majors left to right:
//   major 0                  left IOB column   (kIobFrames frames)
//   majors 1 .. C/2          CLB columns 0..C/2-1
//   major C/2+1              clock column      (kClockFrames frames)
//   majors C/2+2 .. C+1      CLB columns C/2..C-1
//   major C+2                right IOB column  (kIobFrames frames)
//
// Within a frame, bits are addressed LSB-first. Rows get 18-bit windows:
// window r+1 belongs to CLB row r; windows 0 and R+1 are top/bottom padding
// (as in the real part, where they serve the top/bottom IOBs we do not
// model). Frame length is padded to a whole number of 32-bit words.
//
// Block RAM contents live in a second address space, *block type 1* — just
// as on the real part, where BRAM content frames are addressed separately
// from the CLB plane. Each device has two BRAM columns (one per edge) of
// kBramFrames frames each; their linear frame indices follow the type-0
// frames. Rewriting BRAM contents through type-1 partial bitstreams —
// without touching any logic — was one of the era's flagship partial-
// reconfiguration use cases.
//
// The frame address register (FAR) packs an address as
//   [27:24] block type   (0 = CLB/IOB/clock, 1 = BRAM content)
//   [23:12] major
//   [11:0]  minor (frame within major)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "device/device_spec.h"

namespace jpg {

enum class ColumnKind { Clb, Iob, Clock };

struct FrameAddress {
  std::uint32_t block_type = 0;
  std::uint32_t major = 0;
  std::uint32_t minor = 0;

  bool operator==(const FrameAddress&) const = default;
};

class FrameMap {
 public:
  static constexpr int kBitsPerRow = 18;
  static constexpr int kClbFrames = 48;
  static constexpr int kIobFrames = 54;
  static constexpr int kClockFrames = 8;
  static constexpr int kBramMajors = 2;   ///< one BRAM column per edge
  static constexpr int kBramFrames = 64;  ///< frames per BRAM column

  explicit FrameMap(const DeviceSpec& spec);

  // --- Column (major) geometry -------------------------------------------
  [[nodiscard]] int num_majors() const { return num_majors_; }
  [[nodiscard]] ColumnKind column_kind(int major) const;
  [[nodiscard]] int frames_in_major(int major) const;

  [[nodiscard]] int left_iob_major() const { return 0; }
  [[nodiscard]] int clock_major() const { return spec_->clb_cols / 2 + 1; }
  [[nodiscard]] int right_iob_major() const { return num_majors_ - 1; }

  /// Major index of CLB column `col` (0-based).
  [[nodiscard]] int major_of_clb_col(int col) const;
  /// Inverse of major_of_clb_col; requires column_kind(major) == Clb.
  [[nodiscard]] int clb_col_of_major(int major) const;

  // --- Frame indexing ------------------------------------------------------
  /// Total frames across all block types (the configuration plane size).
  [[nodiscard]] std::size_t num_frames() const {
    return num_frames_ + static_cast<std::size_t>(kBramMajors) * kBramFrames;
  }
  /// Frames of block type 0 only (CLB/IOB/clock columns).
  [[nodiscard]] std::size_t num_type0_frames() const { return num_frames_; }
  /// Frame length in bits (before word padding).
  [[nodiscard]] std::size_t frame_bits() const { return frame_bits_; }
  /// Frame length in 32-bit words (the FDRI transfer unit).
  [[nodiscard]] std::size_t frame_words() const { return (frame_bits_ + 31) / 32; }

  /// Linear index of a type-0 frame (major, minor) in configuration order.
  [[nodiscard]] std::size_t frame_index(int major, int minor) const;
  /// Linear index of a BRAM-content frame (block type 1).
  [[nodiscard]] std::size_t bram_frame_index(int bram_major, int minor) const;
  /// Linear index for any block type.
  [[nodiscard]] std::size_t frame_index_of(const FrameAddress& a) const;
  [[nodiscard]] FrameAddress address_of_index(std::size_t frame) const;

  /// Linear frame index following `frame` in configuration order, or
  /// num_frames() at the end (FAR auto-increment order).
  [[nodiscard]] std::size_t next_frame(std::size_t frame) const {
    return frame + 1;
  }

  // --- FAR encoding --------------------------------------------------------
  [[nodiscard]] std::uint32_t encode_far(const FrameAddress& a) const;
  [[nodiscard]] FrameAddress decode_far(std::uint32_t far) const;
  [[nodiscard]] bool far_valid(std::uint32_t far) const;

  // --- In-frame bit geometry ----------------------------------------------
  /// First bit of CLB row `row`'s 18-bit window inside a frame.
  [[nodiscard]] std::size_t row_bit_base(int row) const {
    return static_cast<std::size_t>(kBitsPerRow) * (row + 1);
  }

  /// True for a CLB capture minor (16 or 17), whose FF capture bits
  /// readback reports as live state rather than configuration.
  [[nodiscard]] bool is_capture_frame(std::size_t frame) const {
    return capture_frame_[frame] != 0;
  }
  /// One frame of words with the FF capture bits cleared, the rest set: the
  /// readback mask of every capture frame.
  [[nodiscard]] std::span<const std::uint32_t> capture_mask() const {
    return capture_mask_;
  }

  [[nodiscard]] const DeviceSpec& spec() const { return *spec_; }

  /// Human-readable "maj/min" string for diagnostics.
  [[nodiscard]] std::string describe_frame(std::size_t frame) const;

 private:
  const DeviceSpec* spec_;
  int num_majors_ = 0;
  std::size_t num_frames_ = 0;
  std::size_t frame_bits_ = 0;
  std::vector<std::size_t> major_base_;  // frame index of minor 0 per major
  std::vector<char> capture_frame_;      // per frame: is_capture_frame
  std::vector<std::uint32_t> capture_mask_;
};

}  // namespace jpg
