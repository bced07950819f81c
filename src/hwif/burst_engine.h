// The burst engine: drives a StreamSource onto an XHWIF board in bounded
// word bursts through Xhwif::send_config. This is the fire-and-forget
// streaming path, and the one a caller streaming a resident pbit lease
// unverified calls directly (the verified equivalent is VerifiedDownloader::
// download_stream, which validates the whole source tool-side and then sends
// it with the same burst bound); both record the same cfg.burst_words
// histogram, so the burst-size distribution of any run is observable.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hwif/stream_source.h"
#include "hwif/xhwif.h"

namespace jpg {

struct BurstStats {
  std::size_t bursts = 0;
  std::size_t words = 0;
};

/// Streams `source` to `board` in bursts of at most `burst_words` words.
/// Zero-copy: every send_config call receives a subspan of one of the
/// source's segments. Errors from the board propagate to the caller with
/// the stream position lost — callers that need recovery use the verified
/// streaming download instead.
BurstStats stream_to_board(Xhwif& board, const StreamSource& source,
                           std::size_t burst_words = kDefaultBurstWords);

}  // namespace jpg
