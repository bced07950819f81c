// A fixed-size bit vector with word-level access.
//
// Configuration frames and LUT truth tables are bit-addressed but shipped as
// 32-bit words; BitVector supports both views plus the bulk operations the
// partial bitstream generator needs (compare, copy ranges, population count).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/error.h"

namespace jpg {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits) { resize(nbits); }

  void resize(std::size_t nbits) {
    nbits_ = nbits;
    words_.assign((nbits + 31) / 32, 0u);
  }

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nbits_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const {
    JPG_ASSERT_MSG(i < nbits_, "BitVector::get out of range");
    return (words_[i >> 5] >> (i & 31)) & 1u;
  }

  void set(std::size_t i, bool v) {
    JPG_ASSERT_MSG(i < nbits_, "BitVector::set out of range");
    const std::uint32_t mask = 1u << (i & 31);
    if (v) {
      words_[i >> 5] |= mask;
    } else {
      words_[i >> 5] &= ~mask;
    }
  }

  /// Reads a field of up to 32 bits starting at bit `pos` (LSB-first).
  [[nodiscard]] std::uint32_t get_field(std::size_t pos, unsigned width) const;

  // --- Bulk range operations (masked 32-bit word blits) ---------------------
  /// Copies bits [pos, pos+nbits) of `src` into the same positions of *this.
  /// Bits outside the range are untouched.
  void copy_range(const BitVector& src, std::size_t pos, std::size_t nbits);

  /// Copies bits [src_pos, src_pos+nbits) of `src` into
  /// [dst_pos, dst_pos+nbits) of *this (the relocating form PARBIT needs).
  /// Self-copy is only allowed when the ranges coincide.
  void copy_range(const BitVector& src, std::size_t src_pos,
                  std::size_t dst_pos, std::size_t nbits);

  /// True iff any bit in [pos, pos+nbits) differs from `other` (sizes must
  /// match). The word-level form of `differs_from` for a sub-range.
  [[nodiscard]] bool diff_in_range(const BitVector& other, std::size_t pos,
                                   std::size_t nbits) const;

  /// Writes a field of up to 32 bits starting at bit `pos` (LSB-first).
  void set_field(std::size_t pos, unsigned width, std::uint32_t value);

  [[nodiscard]] std::uint32_t word(std::size_t w) const {
    JPG_ASSERT(w < words_.size());
    return words_[w];
  }

  void set_word(std::size_t w, std::uint32_t value) {
    JPG_ASSERT(w < words_.size());
    words_[w] = value;
    mask_tail();
  }

  /// Overwrites every word from `src` (num_words() packed words).
  void set_words(const std::uint32_t* src) {
    std::copy_n(src, words_.size(), words_.begin());
    mask_tail();
  }

  void clear() { words_.assign(words_.size(), 0u); }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// True iff any bit differs from `other` (sizes must match).
  [[nodiscard]] bool differs_from(const BitVector& other) const;

  bool operator==(const BitVector& other) const {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  [[nodiscard]] const std::vector<std::uint32_t>& words() const noexcept {
    return words_;
  }

 private:
  // Bits past nbits_ in the last word must stay zero so word-level compares
  // are exact.
  void mask_tail() {
    const unsigned tail = nbits_ & 31;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (1u << tail) - 1u;
    }
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint32_t> words_;
};

}  // namespace jpg
