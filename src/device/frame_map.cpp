#include "device/frame_map.h"

#include <sstream>

#include "support/error.h"

namespace jpg {

FrameMap::FrameMap(const DeviceSpec& spec) : spec_(&spec) {
  JPG_REQUIRE(spec.clb_cols % 2 == 0, "CLB column count must be even");
  num_majors_ = spec.clb_cols + 3;  // 2 IOB columns + clock column
  frame_bits_ = static_cast<std::size_t>(kBitsPerRow) * (spec.clb_rows + 2);
  major_base_.resize(num_majors_ + 1, 0);
  std::size_t base = 0;
  for (int m = 0; m < num_majors_; ++m) {
    major_base_[m] = base;
    base += static_cast<std::size_t>(frames_in_major(m));
  }
  major_base_[num_majors_] = base;
  num_frames_ = base;
  capture_frame_.assign(num_frames(), 0);
  for (int m = 0; m < num_majors_; ++m) {
    if (column_kind(m) != ColumnKind::Clb) continue;
    for (const int minor : {16, 17}) capture_frame_[major_base_[m] + minor] = 1;
  }
  // Frame bits pack LSB-first (bit i lives in word i>>5 at position i&31),
  // so the two capture bits of each row window clear with plain word masks.
  capture_mask_.assign(frame_words(), ~0u);
  for (int r = 0; r < spec.clb_rows; ++r) {
    for (std::size_t b = row_bit_base(r); b < row_bit_base(r) + 2; ++b) {
      capture_mask_[b >> 5] &= ~(1u << (b & 31));
    }
  }
}

std::size_t FrameMap::bram_frame_index(int bram_major, int minor) const {
  JPG_REQUIRE(bram_major >= 0 && bram_major < kBramMajors,
              "BRAM major out of range");
  JPG_REQUIRE(minor >= 0 && minor < kBramFrames, "BRAM minor out of range");
  return num_frames_ +
         static_cast<std::size_t>(bram_major) * kBramFrames +
         static_cast<std::size_t>(minor);
}

std::size_t FrameMap::frame_index_of(const FrameAddress& a) const {
  if (a.block_type == 1) {
    return bram_frame_index(static_cast<int>(a.major),
                            static_cast<int>(a.minor));
  }
  JPG_REQUIRE(a.block_type == 0, "unknown block type");
  return frame_index(static_cast<int>(a.major), static_cast<int>(a.minor));
}

ColumnKind FrameMap::column_kind(int major) const {
  JPG_REQUIRE(major >= 0 && major < num_majors_, "major out of range");
  if (major == left_iob_major() || major == right_iob_major()) {
    return ColumnKind::Iob;
  }
  if (major == clock_major()) return ColumnKind::Clock;
  return ColumnKind::Clb;
}

int FrameMap::frames_in_major(int major) const {
  switch (column_kind(major)) {
    case ColumnKind::Clb: return kClbFrames;
    case ColumnKind::Iob: return kIobFrames;
    case ColumnKind::Clock: return kClockFrames;
  }
  JPG_ASSERT(false);
  return 0;
}

int FrameMap::major_of_clb_col(int col) const {
  JPG_REQUIRE(col >= 0 && col < spec_->clb_cols, "CLB column out of range");
  const int half = spec_->clb_cols / 2;
  // Columns left of centre sit before the clock column.
  return col < half ? col + 1 : col + 2;
}

int FrameMap::clb_col_of_major(int major) const {
  JPG_REQUIRE(column_kind(major) == ColumnKind::Clb,
              "major is not a CLB column");
  const int half = spec_->clb_cols / 2;
  return major <= half ? major - 1 : major - 2;
}

std::size_t FrameMap::frame_index(int major, int minor) const {
  JPG_REQUIRE(major >= 0 && major < num_majors_, "major out of range");
  JPG_REQUIRE(minor >= 0 && minor < frames_in_major(major),
              "minor out of range");
  return major_base_[major] + static_cast<std::size_t>(minor);
}

FrameAddress FrameMap::address_of_index(std::size_t frame) const {
  JPG_REQUIRE(frame < num_frames(), "frame index out of range");
  if (frame >= num_frames_) {
    const std::size_t i = frame - num_frames_;
    FrameAddress a;
    a.block_type = 1;
    a.major = static_cast<std::uint32_t>(i / kBramFrames);
    a.minor = static_cast<std::uint32_t>(i % kBramFrames);
    return a;
  }
  // Binary search over the (small) major base table.
  int lo = 0, hi = num_majors_ - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (major_base_[mid] <= frame) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  FrameAddress a;
  a.block_type = 0;
  a.major = static_cast<std::uint32_t>(lo);
  a.minor = static_cast<std::uint32_t>(frame - major_base_[lo]);
  return a;
}

std::uint32_t FrameMap::encode_far(const FrameAddress& a) const {
  if (a.block_type == 1) {
    JPG_REQUIRE(a.major < kBramMajors, "BRAM FAR major out of range");
    JPG_REQUIRE(a.minor < kBramFrames, "BRAM FAR minor out of range");
    return (a.block_type << 24) | (a.major << 12) | a.minor;
  }
  JPG_REQUIRE(a.block_type == 0, "unknown block type");
  JPG_REQUIRE(a.major < static_cast<std::uint32_t>(num_majors_),
              "FAR major out of range");
  JPG_REQUIRE(a.minor < static_cast<std::uint32_t>(
                            frames_in_major(static_cast<int>(a.major))),
              "FAR minor out of range");
  return (a.block_type << 24) | (a.major << 12) | a.minor;
}

FrameAddress FrameMap::decode_far(std::uint32_t far) const {
  FrameAddress a;
  a.block_type = (far >> 24) & 0xFu;
  a.major = (far >> 12) & 0xFFFu;
  a.minor = far & 0xFFFu;
  return a;
}

bool FrameMap::far_valid(std::uint32_t far) const {
  const FrameAddress a = decode_far(far);
  if (a.block_type == 1) {
    return a.major < kBramMajors && a.minor < kBramFrames;
  }
  if (a.block_type != 0) return false;
  if (a.major >= static_cast<std::uint32_t>(num_majors_)) return false;
  return a.minor <
         static_cast<std::uint32_t>(frames_in_major(static_cast<int>(a.major)));
}

std::string FrameMap::describe_frame(std::size_t frame) const {
  const FrameAddress a = address_of_index(frame);
  std::ostringstream os;
  if (a.block_type == 1) {
    os << "frame " << frame << " (BRAM " << (a.major == 0 ? "left" : "right")
       << ", minor " << a.minor << ")";
    return os.str();
  }
  os << "frame " << frame << " (major " << a.major << " ";
  switch (column_kind(static_cast<int>(a.major))) {
    case ColumnKind::Clb:
      os << "CLB col " << clb_col_of_major(static_cast<int>(a.major));
      break;
    case ColumnKind::Iob:
      os << (static_cast<int>(a.major) == left_iob_major() ? "left IOB"
                                                           : "right IOB");
      break;
    case ColumnKind::Clock:
      os << "clock";
      break;
  }
  os << ", minor " << a.minor << ")";
  return os.str();
}

}  // namespace jpg
