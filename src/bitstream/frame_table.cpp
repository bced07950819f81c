#include "bitstream/frame_table.h"

#include "bitstream/config_port.h"
#include "support/error.h"

namespace jpg {

void apply_frame_table(const FrameTable& table,
                       std::span<const std::uint32_t> words,
                       ConfigMemory& plane) {
  const FrameMap& fm = plane.device().frames();
  const std::size_t fw = fm.frame_words();
  for (const FrameRun& run : table.runs) {
    JPG_REQUIRE(run.word_offset + run.frame_count * fw <= words.size(),
                "frame table run reaches past the end of its stream");
    std::size_t frame = run.first_frame;
    for (std::size_t i = 0; i < run.frame_count; ++i) {
      plane.write_frame_words(frame, words.data() + run.word_offset + i * fw);
      frame = fm.next_frame(frame);
    }
  }
}

FrameTable replay_frame_table(ConfigPort& port,
                              std::span<const std::uint32_t> words) {
  port.reset();
  port.reset_stats();
  port.load(words);
  port.finish();
  return port.frame_table();
}

}  // namespace jpg
