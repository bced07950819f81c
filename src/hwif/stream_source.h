// StreamSource: the scatter-gather view of a configuration stream.
//
// The download paths historically materialised whole streams in one owning
// buffer before the first word reached Xhwif::send_config; back-to-back swap
// latency was therefore bounded by copying, not by the configuration link.
// A StreamSource instead describes the stream as an ordered list of borrowed
// word segments — header packets, a cache-resident pbit payload, a CRC/tail
// epilogue — and a BurstCursor walks those segments in bounded bursts. Every
// burst is a subspan of one segment (bursts never cross a segment boundary),
// so the whole datapath moves zero bytes: the device sees the exact words
// the cache owns. This is the ICAP shape: bitstreams resident in memory,
// streamed to the port in bounded bursts.
//
// Header-only on purpose: the bitstream-layer fuzzer drives the segmented
// path differentially against the word-by-word loader without linking the
// hwif library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.h"

namespace jpg {

/// Words per burst (the upper bound on words per send_config call) when the
/// caller does not say otherwise. ~2 KiB of wire traffic: large enough to
/// amortise per-call overhead, small enough that the port state a stream
/// carries across bursts (FAR tracking, a packet split over two bursts) is
/// exercised at a realistic granularity.
/// Bursts are *bounded*, not fixed: a burst never crosses a segment
/// boundary, so segment tails are shorter and stay zero-copy.
inline constexpr std::size_t kDefaultBurstWords = 512;

/// An ordered list of borrowed word segments forming one configuration
/// stream. Segments may be empty (a diff that contributed nothing); the
/// cursor skips them. The caller guarantees every segment outlives the
/// download — the pbit cache's pin/lease API exists exactly to provide that
/// guarantee for cache-resident payloads.
class StreamSource {
 public:
  StreamSource() = default;

  /// Appends one borrowed segment (may be empty).
  void add(std::span<const std::uint32_t> segment) {
    segments_.push_back(segment);
    total_words_ += segment.size();
  }

  /// Convenience: a single-segment source over one contiguous buffer.
  [[nodiscard]] static StreamSource of(std::span<const std::uint32_t> words) {
    StreamSource s;
    s.add(words);
    return s;
  }

  [[nodiscard]] const std::vector<std::span<const std::uint32_t>>& segments()
      const {
    return segments_;
  }
  [[nodiscard]] std::size_t total_words() const { return total_words_; }
  [[nodiscard]] bool empty() const { return total_words_ == 0; }

 private:
  std::vector<std::span<const std::uint32_t>> segments_;
  std::size_t total_words_ = 0;
};

/// Walks a StreamSource in bounded bursts. Each next() yields a non-empty
/// subspan of the current segment of at most `max_words` words; an empty
/// span means the source is exhausted. No word is ever copied or reordered:
/// concatenating the yielded bursts reproduces the concatenated segments
/// exactly.
class BurstCursor {
 public:
  explicit BurstCursor(const StreamSource& source) : source_(&source) {}

  [[nodiscard]] std::span<const std::uint32_t> next(std::size_t max_words) {
    JPG_REQUIRE(max_words > 0, "burst size must be positive");
    const auto& segs = source_->segments();
    // Skip exhausted and zero-length segments.
    while (segment_ < segs.size() && offset_ >= segs[segment_].size()) {
      ++segment_;
      offset_ = 0;
    }
    if (segment_ >= segs.size()) return {};
    const std::span<const std::uint32_t> seg = segs[segment_];
    const std::size_t n = std::min(max_words, seg.size() - offset_);
    const std::span<const std::uint32_t> burst = seg.subspan(offset_, n);
    offset_ += n;
    return burst;
  }

  [[nodiscard]] bool done() const {
    const auto& segs = source_->segments();
    std::size_t s = segment_;
    std::size_t o = offset_;
    while (s < segs.size() && o >= segs[s].size()) {
      ++s;
      o = 0;
    }
    return s >= segs.size();
  }

  void rewind() {
    segment_ = 0;
    offset_ = 0;
  }

 private:
  const StreamSource* source_;
  std::size_t segment_ = 0;
  std::size_t offset_ = 0;
};

}  // namespace jpg
