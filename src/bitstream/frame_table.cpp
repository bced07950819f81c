#include "bitstream/frame_table.h"

#include <algorithm>
#include <iterator>

#include "bitstream/config_port.h"
#include "support/error.h"

namespace jpg {

namespace {

/// The words `run` writes in `words`. Throws when the run reaches past the
/// end of `words` or of `plane`.
std::span<const std::uint32_t> run_words(const FrameRun& run,
                                         std::span<const std::uint32_t> words,
                                         const ConfigMemory& plane) {
  const std::size_t n = run.frame_count * plane.frame_words();
  JPG_REQUIRE(run.word_offset + n <= words.size(),
              "frame table run reaches past the end of its stream");
  JPG_REQUIRE(run.first_frame + run.frame_count <= plane.num_frames(),
              "frame table run reaches past the end of the plane");
  return words.subspan(run.word_offset, n);
}

}  // namespace

TargetPlane::TargetPlane(const ConfigMemory& base, const FrameTable& table,
                         std::span<const std::uint32_t> words)
    : base_(&base) {
  const std::size_t fw = base.frame_words();
  const std::size_t tail_bits = base.device().frames().frame_bits() % 32;
  const std::uint32_t keep = tail_bits == 0 ? ~0u : (1u << tail_bits) - 1;
  // Newest run first, each laid only over the frames no later run writes.
  for (auto run = table.runs.rbegin(); run != table.runs.rend(); ++run) {
    std::span<const std::uint32_t> src = run_words(*run, words, base);
    bool spill = false;
    for (std::size_t i = fw; keep != ~0u && i <= src.size(); i += fw) {
      spill |= (src[i - 1] & ~keep) != 0;
    }
    if (spill) {
      std::vector<std::uint32_t>& copy =
          trimmed_.emplace_back(src.begin(), src.end());
      for (std::size_t i = fw; i <= copy.size(); i += fw) copy[i - 1] &= keep;
      src = copy;
    }
    const std::size_t end = run->first_frame + run->frame_count;
    for (std::size_t f = run->first_frame; f < end;) {
      const auto next = segment_after(f);
      if (next != segments_.begin() && f < std::prev(next)->end()) {
        f = std::prev(next)->end();
        continue;
      }
      const std::size_t stop =
          next == segments_.end() ? end : std::min(end, next->first);
      segments_.insert(next, {f, stop - f,
                              src.data() + (f - run->first_frame) * fw});
      f = stop;
    }
  }
}

std::vector<TargetPlane::Segment>::const_iterator TargetPlane::segment_after(
    std::size_t idx) const {
  return std::upper_bound(
      segments_.begin(), segments_.end(), idx,
      [](std::size_t f, const Segment& g) { return f < g.first; });
}

std::span<const std::uint32_t> TargetPlane::frame_words(
    std::size_t idx) const {
  const auto it = segment_after(idx);
  if (it == segments_.begin() || idx >= std::prev(it)->end()) {
    return base_->frame(idx).words();
  }
  const std::size_t fw = base_->frame_words();
  return {std::prev(it)->words + (idx - std::prev(it)->first) * fw, fw};
}

void apply_frame_table(const FrameTable& table,
                       std::span<const std::uint32_t> words,
                       ConfigMemory& plane) {
  for (const FrameRun& run : table.runs) (void)run_words(run, words, plane);
  for (const FrameRun& run : table.runs) {
    plane.write_frames(run.first_frame, run_words(run, words, plane));
  }
}

FrameTable validate_stream(const Device& device,
                           std::span<const std::uint32_t> words) {
  ConfigPort port(device);
  port.load(words);
  port.finish();
  return port.frame_table();
}

}  // namespace jpg
