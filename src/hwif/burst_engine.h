// The burst engine: drives a configuration stream onto an XHWIF board in
// bounded word bursts through Xhwif::send_config. This is the
// fire-and-forget streaming path, and the one a caller streaming a resident
// pbit lease unverified calls directly (the verified equivalent is
// VerifiedDownloader::download_validated, which sends the same bursts and
// then reads the board back); both record the same cfg.burst_words
// histogram, so the burst-size distribution of any run is observable.
//
// Every burst is a subspan of the caller's words, so the datapath moves
// zero bytes: the board sees the exact words a pinned cache entry owns.
// This is the ICAP shape: bitstreams resident in memory, streamed to the
// port in bounded bursts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hwif/xhwif.h"

namespace jpg {

/// Words per burst (the upper bound on words per send_config call) when the
/// caller does not say otherwise. ~2 KiB of wire traffic: large enough to
/// amortise per-call overhead, small enough that the port state a stream
/// carries across bursts (FAR tracking, a packet split over two bursts) is
/// exercised at a realistic granularity. Only the last burst is shorter.
inline constexpr std::size_t kDefaultBurstWords = 512;

struct BurstStats {
  std::size_t bursts = 0;
  std::size_t words = 0;
};

/// Streams `words` to `board` in bursts of at most `burst_words` words.
/// Zero-copy: every send_config call receives a subspan of `words`. Errors
/// from the board propagate to the caller with the stream position lost —
/// callers that need recovery use the verified download instead.
BurstStats stream_to_board(Xhwif& board, std::span<const std::uint32_t> words,
                           std::size_t burst_words = kDefaultBurstWords);

}  // namespace jpg
