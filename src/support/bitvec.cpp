#include "support/bitvec.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace jpg {

namespace {

/// Mask of word bits [lo, hi] inclusive, 0 <= lo <= hi <= 31.
constexpr std::uint32_t bit_span_mask(unsigned lo, unsigned hi) {
  const std::uint32_t upto_hi =
      hi == 31 ? 0xFFFFFFFFu : (1u << (hi + 1)) - 1u;
  return upto_hi & ~((1u << lo) - 1u);
}

// The whole-word middles of the range kernels are std::copy_n and
// std::equal over words, which compile to memmove and memcmp: wide
// vectorized loops in libc on every target we build for.
}  // namespace

void BitSpan::set_words(std::span<const std::uint32_t> src) {
  JPG_ASSERT(src.size() == num_words());
  std::copy_n(src.data(), num_words(), data());
  mask_tail();
}

std::uint32_t ConstBitSpan::get_field(std::size_t pos, unsigned width) const {
  JPG_ASSERT_MSG(width >= 1 && width <= 32, "field width out of range");
  JPG_ASSERT_MSG(pos + width <= nbits_, "field read out of range");
  std::uint32_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    v |= static_cast<std::uint32_t>(get(pos + i)) << i;
  }
  return v;
}

void BitSpan::set_field(std::size_t pos, unsigned width,
                        std::uint32_t value) {
  JPG_ASSERT_MSG(width >= 1 && width <= 32, "field width out of range");
  JPG_ASSERT_MSG(pos + width <= size(), "field write out of range");
  JPG_ASSERT_MSG(width == 32 || (value >> width) == 0,
                 "field value wider than field");
  for (unsigned i = 0; i < width; ++i) {
    set(pos + i, (value >> i) & 1u);
  }
}

void BitSpan::copy_range(ConstBitSpan src, std::size_t pos,
                         std::size_t nbits) {
  JPG_ASSERT_MSG(pos + nbits <= size() && pos + nbits <= src.size(),
                 "copy_range out of range");
  if (nbits == 0) return;
  std::uint32_t* d = data();
  const std::uint32_t* s = src.words().data();
  const std::size_t first = pos >> 5;
  const std::size_t last = (pos + nbits - 1) >> 5;
  const unsigned head = pos & 31;
  const unsigned tail = (pos + nbits - 1) & 31;
  if (first == last) {
    const std::uint32_t m = bit_span_mask(head, tail);
    d[first] = (d[first] & ~m) | (s[first] & m);
    return;
  }
  const std::uint32_t mf = bit_span_mask(head, 31);
  d[first] = (d[first] & ~mf) | (s[first] & mf);
  std::copy_n(s + first + 1, last - first - 1, d + first + 1);
  const std::uint32_t ml = bit_span_mask(0, tail);
  d[last] = (d[last] & ~ml) | (s[last] & ml);
}

void BitSpan::copy_range(ConstBitSpan src, std::size_t src_pos,
                         std::size_t dst_pos, std::size_t nbits) {
  std::uint32_t* d = data();
  const std::uint32_t* s = src.words().data();
  if (src_pos == dst_pos) {
    if (s != d) copy_range(src, src_pos, nbits);
    return;
  }
  JPG_ASSERT_MSG(s != d, "relocating self-copy is unsupported");
  JPG_ASSERT_MSG(src_pos + nbits <= src.size() && dst_pos + nbits <= size(),
                 "copy_range out of range");
  if (nbits == 0) return;
  if (((src_pos ^ dst_pos) & 31) == 0) {
    // Co-aligned relocation (the common PARBIT case: frame-granular moves):
    // masked head/tail words with a straight word copy between them, same
    // shape as the in-place copy_range but with a source/dest word offset.
    const unsigned head = dst_pos & 31;
    const unsigned tail = (dst_pos + nbits - 1) & 31;
    const std::size_t df = dst_pos >> 5;
    const std::size_t dl = (dst_pos + nbits - 1) >> 5;
    const std::size_t sf = src_pos >> 5;
    if (df == dl) {
      const std::uint32_t m = bit_span_mask(head, tail);
      d[df] = (d[df] & ~m) | (s[sf] & m);
      return;
    }
    const std::uint32_t mf = bit_span_mask(head, 31);
    d[df] = (d[df] & ~mf) | (s[sf] & mf);
    std::copy_n(s + sf + 1, dl - df - 1, d + df + 1);
    const std::uint32_t ml = bit_span_mask(0, tail);
    d[dl] = (d[dl] & ~ml) | (s[sf + (dl - df)] & ml);
    return;
  }
  // Misaligned fallback: walk destination word by word; each chunk gathers
  // up to 32 source bits with a funnel shift across the source word boundary.
  std::size_t sp = src_pos, dp = dst_pos, remaining = nbits;
  while (remaining > 0) {
    const unsigned doff = dp & 31;
    const unsigned chunk =
        static_cast<unsigned>(std::min<std::size_t>(32 - doff, remaining));
    const std::size_t sw = sp >> 5;
    const unsigned soff = sp & 31;
    std::uint32_t bits = s[sw] >> soff;
    if (soff != 0 && sw + 1 < src.num_words()) {
      bits |= s[sw + 1] << (32 - soff);
    }
    const std::uint32_t m =
        (chunk == 32 ? 0xFFFFFFFFu : (1u << chunk) - 1u) << doff;
    d[dp >> 5] = (d[dp >> 5] & ~m) | ((bits << doff) & m);
    sp += chunk;
    dp += chunk;
    remaining -= chunk;
  }
}

bool ConstBitSpan::diff_in_range(ConstBitSpan other, std::size_t pos,
                                 std::size_t nbits) const {
  JPG_ASSERT_MSG(nbits_ == other.size(),
                 "comparing bit spans of unequal size");
  JPG_ASSERT_MSG(pos + nbits <= nbits_, "diff_in_range out of range");
  if (nbits == 0) return false;
  const std::uint32_t* o = other.words().data();
  const std::size_t first = pos >> 5;
  const std::size_t last = (pos + nbits - 1) >> 5;
  const unsigned head = pos & 31;
  const unsigned tail = (pos + nbits - 1) & 31;
  if (first == last) {
    return ((words_[first] ^ o[first]) & bit_span_mask(head, tail)) != 0;
  }
  if ((words_[first] ^ o[first]) & bit_span_mask(head, 31)) return true;
  if (!std::equal(o + first + 1, o + last, words_.data() + first + 1)) {
    return true;
  }
  return ((words_[last] ^ o[last]) & bit_span_mask(0, tail)) != 0;
}

bool ConstBitSpan::differs_from(ConstBitSpan other) const {
  JPG_ASSERT_MSG(nbits_ == other.size(),
                 "comparing bit spans of unequal size");
  return !std::ranges::equal(words_, other.words());
}

std::size_t ConstBitSpan::popcount() const noexcept {
  // 64 bits at a time, then the odd word.
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= words_.size(); i += 2) {
    std::uint64_t pair;
    std::memcpy(&pair, words_.data() + i, sizeof(pair));
    total += static_cast<std::size_t>(std::popcount(pair));
  }
  if (i < words_.size()) {
    total += static_cast<std::size_t>(std::popcount(words_[i]));
  }
  return total;
}

}  // namespace jpg
