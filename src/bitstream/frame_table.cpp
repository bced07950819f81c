#include "bitstream/frame_table.h"

#include "bitstream/config_port.h"
#include "support/error.h"

namespace jpg {

TargetPlane::TargetPlane(const ConfigMemory& base, const FrameTable& table,
                         std::span<const std::uint32_t> words)
    : base_(&base) {
  if (table.runs.empty()) return;
  const FrameMap& fm = base.device().frames();
  const std::size_t fw = fm.frame_words();
  const std::size_t tail_bits = fm.frame_bits() % 32;
  const std::uint32_t tail_mask = tail_bits == 0 ? ~0u : (1u << tail_bits) - 1;
  frame_words_ = fw;
  written_.assign(base.num_frames(), nullptr);
  for (const FrameRun& run : table.runs) {
    JPG_REQUIRE(run.word_offset + run.frame_count * fw <= words.size(),
                "frame table run reaches past the end of its stream");
    std::size_t frame = run.first_frame;
    for (std::size_t i = 0; i < run.frame_count; ++i) {
      JPG_REQUIRE(frame < written_.size(),
                  "frame table run reaches past the end of the plane");
      const std::uint32_t* src = words.data() + run.word_offset + i * fw;
      if ((src[fw - 1] & ~tail_mask) != 0) {
        trimmed_.emplace_back(src, src + fw);
        trimmed_.back().back() &= tail_mask;
        src = trimmed_.back().data();
      }
      written_[frame] = src;
      frame = fm.next_frame(frame);
    }
  }
}

void apply_frame_table(const FrameTable& table,
                       std::span<const std::uint32_t> words,
                       ConfigMemory& plane) {
  const TargetPlane target(plane, table, words);
  for (const std::size_t frame : table.touched) {
    plane.write_frame_words(frame, target.frame_words(frame).data());
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
