#include "bitstream/config_memory.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace jpg {

ConfigMemory::ConfigMemory(const Device& device)
    : device_(&device),
      frame_bits_(device.frames().frame_bits()),
      frame_words_(device.frames().frame_words()),
      words_(device.frames().num_frames() * frame_words_, 0u) {}

namespace {

void require_same_device(const Device& a, const Device& b) {
  JPG_REQUIRE(&a == &b || a.spec().name == b.spec().name,
              "assigning ConfigMemory across different devices");
}

}  // namespace

ConfigMemory& ConfigMemory::operator=(const ConfigMemory& other) {
  require_same_device(other.device(), *device_);
  words_ = other.words_;
  return *this;
}

ConfigMemory& ConfigMemory::operator=(ConfigMemory&& other) {
  require_same_device(other.device(), *device_);
  words_ = std::move(other.words_);
  return *this;
}

std::span<const std::uint32_t> ConfigMemory::frame_run(
    std::size_t first, std::size_t count) const {
  JPG_REQUIRE(first <= num_frames() && count <= num_frames() - first,
              "frame run out of range");
  return std::span(words_).subspan(first * frame_words_, count * frame_words_);
}

void ConfigMemory::write_frames(std::size_t first,
                                std::span<const std::uint32_t> words) {
  const std::size_t count = words.size() / frame_words_;
  JPG_REQUIRE(words.size() == count * frame_words_,
              "frame write of a partial frame");
  JPG_REQUIRE(first <= num_frames() && count <= num_frames() - first,
              "frame run out of range");
  std::uint32_t* dst = words_.data() + first * frame_words_;
  std::copy(words.begin(), words.end(), dst);
  if (const unsigned tail = frame_bits_ % 32; tail != 0) {
    for (std::size_t i = 1; i <= count; ++i) {
      dst[i * frame_words_ - 1] &= (1u << tail) - 1u;
    }
  }
}

std::size_t ConfigMemory::frame_of(const FrameBit& fb) const {
  return device_->frames().frame_index_of(
      {static_cast<std::uint32_t>(fb.block_type),
       static_cast<std::uint32_t>(fb.major),
       static_cast<std::uint32_t>(fb.minor)});
}

bool ConfigMemory::get_bit(const FrameBit& fb) const {
  return frame(frame_of(fb)).get(fb.bit);
}

void ConfigMemory::set_bit(const FrameBit& fb, bool v) {
  frame(frame_of(fb)).set(fb.bit, v);
}

std::vector<std::size_t> ConfigMemory::diff_frames(
    const ConfigMemory& other) const {
  JPG_REQUIRE(words_.size() == other.words_.size(),
              "diffing ConfigMemory of different devices");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < num_frames(); ++i) {
    if (frame(i).differs_from(other.frame(i))) out.push_back(i);
  }
  return out;
}

}  // namespace jpg
