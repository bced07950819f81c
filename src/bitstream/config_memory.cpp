#include "bitstream/config_memory.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace jpg {

ConfigMemory::ConfigMemory(const Device& device) : device_(&device) {
  const FrameMap& fm = device.frames();
  frames_.assign(fm.num_frames(), BitVector(fm.frame_bits()));
}

namespace {

void require_same_device(const Device& a, const Device& b) {
  JPG_REQUIRE(&a == &b || a.spec().name == b.spec().name,
              "assigning ConfigMemory across different devices");
}

}  // namespace

ConfigMemory& ConfigMemory::operator=(const ConfigMemory& other) {
  require_same_device(other.device(), *device_);
  frames_ = other.frames_;
  return *this;
}

ConfigMemory& ConfigMemory::operator=(ConfigMemory&& other) {
  require_same_device(other.device(), *device_);
  frames_ = std::move(other.frames_);
  return *this;
}

const BitVector& ConfigMemory::frame(std::size_t idx) const {
  JPG_REQUIRE(idx < frames_.size(), "frame index out of range");
  return frames_[idx];
}

BitVector& ConfigMemory::frame(std::size_t idx) {
  JPG_REQUIRE(idx < frames_.size(), "frame index out of range");
  return frames_[idx];
}

bool ConfigMemory::get_bit(const FrameBit& fb) const {
  const std::size_t idx = device_->frames().frame_index_of(
      {static_cast<std::uint32_t>(fb.block_type),
       static_cast<std::uint32_t>(fb.major),
       static_cast<std::uint32_t>(fb.minor)});
  return frames_[idx].get(fb.bit);
}

void ConfigMemory::set_bit(const FrameBit& fb, bool v) {
  const std::size_t idx = device_->frames().frame_index_of(
      {static_cast<std::uint32_t>(fb.block_type),
       static_cast<std::uint32_t>(fb.major),
       static_cast<std::uint32_t>(fb.minor)});
  frames_[idx].set(fb.bit, v);
}

std::vector<std::size_t> ConfigMemory::diff_frames(
    const ConfigMemory& other) const {
  JPG_REQUIRE(frames_.size() == other.frames_.size(),
              "diffing ConfigMemory of different devices");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].differs_from(other.frames_[i])) {
      out.push_back(i);
    }
  }
  return out;
}

void ConfigMemory::copy_frame_from(const ConfigMemory& other, std::size_t idx) {
  JPG_REQUIRE(idx < frames_.size() && idx < other.frames_.size(),
              "frame index out of range");
  frames_[idx] = other.frames_[idx];
}

void ConfigMemory::write_frame_words(std::size_t idx,
                                     const std::uint32_t* words) {
  frame(idx).set_words(words);
}

void ConfigMemory::read_frame_words(std::size_t idx,
                                    std::uint32_t* words) const {
  const std::vector<std::uint32_t>& src = frame(idx).words();
  std::copy(src.begin(), src.end(), words);
}

void ConfigMemory::clear() {
  for (BitVector& f : frames_) f.clear();
}

}  // namespace jpg
