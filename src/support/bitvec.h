// Fixed-size bit vectors with word-level access: bit spans over words owned
// elsewhere, and the owning BitVector.
//
// Configuration frames and LUT truth tables are bit-addressed but shipped as
// 32-bit words (bit i lives in word i >> 5 at position i & 31). The span
// kernels below are the one implementation of both views plus the bulk
// operations the partial bitstream generator needs (compare, copy ranges,
// population count): a ConfigMemory frame is a BitSpan into the plane's one
// word array, and BitVector runs the same kernels over its own words. Bits
// past size() in the last word stay zero — every writer masks them — so
// word-level compares are exact.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/error.h"

namespace jpg {

/// A read-only view of `size()` bits.
class ConstBitSpan {
 public:
  ConstBitSpan() = default;
  ConstBitSpan(std::span<const std::uint32_t> words, std::size_t nbits)
      : words_(words), nbits_(nbits) {
    JPG_ASSERT(words.size() == (nbits + 31) / 32);
  }

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }
  [[nodiscard]] std::span<const std::uint32_t> words() const noexcept {
    return words_;
  }

  [[nodiscard]] bool get(std::size_t i) const {
    JPG_ASSERT_MSG(i < nbits_, "bit index out of range");
    return (words_[i >> 5] >> (i & 31)) & 1u;
  }

  [[nodiscard]] std::uint32_t word(std::size_t w) const {
    JPG_ASSERT(w < words_.size());
    return words_[w];
  }

  /// Reads a field of up to 32 bits starting at bit `pos` (LSB-first).
  [[nodiscard]] std::uint32_t get_field(std::size_t pos, unsigned width) const;

  /// True iff any bit in [pos, pos+nbits) differs from `other` (sizes must
  /// match). The word-level form of `differs_from` for a sub-range.
  [[nodiscard]] bool diff_in_range(ConstBitSpan other, std::size_t pos,
                                   std::size_t nbits) const;

  /// True iff any bit differs from `other` (sizes must match).
  [[nodiscard]] bool differs_from(ConstBitSpan other) const;

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

 private:
  std::span<const std::uint32_t> words_;
  std::size_t nbits_ = 0;
};

/// A writable view. A const BitSpan is read-only.
class BitSpan : public ConstBitSpan {
 public:
  BitSpan() = default;
  BitSpan(std::span<std::uint32_t> words, std::size_t nbits)
      : ConstBitSpan(words, nbits) {}

  using ConstBitSpan::words;
  [[nodiscard]] std::span<std::uint32_t> words() noexcept {
    return {data(), num_words()};
  }

  void set(std::size_t i, bool v) {
    JPG_ASSERT_MSG(i < size(), "bit index out of range");
    const std::uint32_t mask = 1u << (i & 31);
    data()[i >> 5] = v ? data()[i >> 5] | mask : data()[i >> 5] & ~mask;
  }

  void set_word(std::size_t w, std::uint32_t value) {
    JPG_ASSERT(w < num_words());
    data()[w] = value;
    mask_tail();
  }

  /// Overwrites every word from `src` (num_words() packed words).
  void set_words(std::span<const std::uint32_t> src);

  /// Writes a field of up to 32 bits starting at bit `pos` (LSB-first).
  void set_field(std::size_t pos, unsigned width, std::uint32_t value);

  // --- Bulk range operations (masked 32-bit word blits) ---------------------
  /// Copies bits [pos, pos+nbits) of `src` into the same positions of *this.
  /// Bits outside the range are untouched.
  void copy_range(ConstBitSpan src, std::size_t pos, std::size_t nbits);

  /// Copies bits [src_pos, src_pos+nbits) of `src` into
  /// [dst_pos, dst_pos+nbits) of *this (the relocating form PARBIT needs).
  /// Self-copy is only allowed when the ranges coincide.
  void copy_range(ConstBitSpan src, std::size_t src_pos, std::size_t dst_pos,
                  std::size_t nbits);

 private:
  /// Built from writable words, so writing through them is sound.
  [[nodiscard]] std::uint32_t* data() {
    return const_cast<std::uint32_t*>(ConstBitSpan::words().data());
  }

  void mask_tail() {
    if (const unsigned tail = size() & 31; tail != 0) {
      data()[num_words() - 1] &= (1u << tail) - 1u;
    }
  }
};

/// Owns its words: a BitSpan over its own vector, so its operations are the
/// span kernels. A copy copies the words; a move hands the vector over.
class BitVector : public BitSpan {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits)
      : BitVector(std::vector<std::uint32_t>((nbits + 31) / 32, 0u), nbits) {}
  /// A copy of the bits `bits` views.
  explicit BitVector(ConstBitSpan bits)
      : BitVector({bits.words().begin(), bits.words().end()}, bits.size()) {}
  BitVector(const BitVector& other) : BitVector(ConstBitSpan(other)) {}
  BitVector(BitVector&& other) noexcept { swap(other); }
  BitVector& operator=(BitVector other) noexcept {
    swap(other);
    return *this;
  }

  bool operator==(const BitVector& other) const {
    return size() == other.size() && !differs_from(other);
  }

  void swap(BitVector& other) noexcept {
    std::swap(static_cast<BitSpan&>(*this), static_cast<BitSpan&>(other));
    storage_.swap(other.storage_);
  }

 private:
  // The span is taken before the vector moves in: a move keeps its buffer.
  BitVector(std::vector<std::uint32_t> words, std::size_t nbits)
      : BitSpan(words, nbits), storage_(std::move(words)) {}

  std::vector<std::uint32_t> storage_;
};

}  // namespace jpg
