#include "hwif/burst_engine.h"

#include <algorithm>

#include "support/error.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

BurstStats stream_to_board(Xhwif& board, std::span<const std::uint32_t> words,
                           std::size_t burst_words) {
  JPG_REQUIRE(burst_words > 0, "burst size must be positive");
  BurstStats stats;
  for (std::size_t off = 0; off < words.size(); off += burst_words) {
    const auto burst =
        words.subspan(off, std::min(burst_words, words.size() - off));
    JPG_HIST("cfg.burst_words", burst.size());
    board.send_config(burst);
    ++stats.bursts;
    stats.words += burst.size();
  }
  JPG_COUNT("cfg.words_streamed", stats.words);
  return stats;
}

}  // namespace jpg
