// FrameTable: what one replay of a configuration stream wrote, frame by frame.
//
// ConfigPort parses a stream packet by packet, checks its CRC and commits
// FDRI payloads frame by frame. For a stream whose words never change (a
// pinned, cache-resident pbit) that work gives the same answer every time:
// a replay from power-on reset commits frames that depend only on the
// device and the words, never on the plane it writes into. A FrameTable
// keeps that answer: one entry per committed FDRI run — its first frame,
// the offset of its payload in the stream, its frame count — plus the
// sorted set of frames touched. Applying the table writes the same frames
// with block copies, no packet parse and no CRC (the ReconOS pr_frame_t
// shape). validate_stream is how the tool side gets one: it checks the
// whole stream on a plane-less port, so every tool-side plane built from a
// stream is apply_frame_table of a validated table.
//
// TargetPlane is the same answer read without writing anything: the plane
// a stream validated into a table leaves on top of a base plane, as a view.
// The verified downloader compares readback against it and builds repair
// streams from it, so the intended plane of a download is never copied.
//
// Part of the bitstream layer so the stream fuzzer can check table-apply
// against replay without linking the hardware interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/config_memory.h"

namespace jpg {

/// One committed FDRI run: `frame_count` consecutive frames starting at
/// `first_frame`, whose words start at `word_offset` in the stream.
struct FrameRun {
  std::size_t first_frame = 0;
  std::size_t word_offset = 0;
  std::size_t frame_count = 0;

  bool operator==(const FrameRun&) const = default;
};

struct FrameTable {
  std::vector<FrameRun> runs;        ///< in commit order
  std::vector<std::size_t> touched;  ///< every frame the runs write, sorted
  bool started = false;  ///< the replay processed a START command

  bool operator==(const FrameTable&) const = default;
};

/// Read-only view of `base` with the frame writes of `table` on top: a
/// frame the table writes reads the stream's own words at the last run
/// that writes it, every other frame reads `base`. Like the port, the view
/// drops stream bits past the end of a frame. Its index is sized to the
/// table, not the device: the runs' frame ranges with later writes cut out
/// of earlier ones, found by binary search. `base` and `words` must outlive
/// the view and stay unchanged while it is read.
class TargetPlane {
 public:
  /// `base` itself: no stream written.
  explicit TargetPlane(const ConfigMemory& base) : base_(&base) {}

  /// Throws JpgError when a run of `table` reaches past the end of `words`
  /// or of the plane: the table was not recorded from this stream.
  TargetPlane(const ConfigMemory& base, const FrameTable& table,
              std::span<const std::uint32_t> words);

  // A copy would point into the source's trimmed_ runs.
  TargetPlane(const TargetPlane&) = delete;
  TargetPlane& operator=(const TargetPlane&) = delete;

  [[nodiscard]] const Device& device() const { return base_->device(); }
  [[nodiscard]] std::size_t num_frames() const { return base_->num_frames(); }

  /// The `frame_words()` words frame `idx` holds in the view.
  [[nodiscard]] std::span<const std::uint32_t> frame_words(
      std::size_t idx) const;

 private:
  /// `count` frames from `first`, read from consecutive frames at `words`.
  struct Segment {
    std::size_t first;
    std::size_t count;
    const std::uint32_t* words;
    [[nodiscard]] std::size_t end() const { return first + count; }
  };

  /// The first segment that starts after frame `idx`.
  [[nodiscard]] std::vector<Segment>::const_iterator segment_after(
      std::size_t idx) const;

  const ConfigMemory* base_;
  /// Sorted and disjoint: every written frame at its last write.
  std::vector<Segment> segments_;
  /// Copies of the runs whose frames carry bits past the frame's end, with
  /// those bits cleared (none for a stream a writer emitted).
  std::vector<std::vector<std::uint32_t>> trimmed_;
};

/// Writes the runs of `table` into `plane` in commit order, one block copy
/// each, taking their words from `words`, the stream the table was recorded
/// from (so the last write wins). A plane equal to the replay port's plane
/// before the replay ends equal to it after. Throws as TargetPlane does,
/// before writing anything.
void apply_frame_table(const FrameTable& table,
                       std::span<const std::uint32_t> words,
                       ConfigMemory& plane);

/// Validates one complete stream for `device`: replays `words` from
/// power-on reset through a fresh plane-less ConfigPort, then runs its
/// end-of-stream check, and returns the replay's frame table. Throws
/// BitstreamError exactly where ConfigPort::load does, or at the end when
/// the stream ends inside a packet (ConfigPort::finish). Keeps no state, so
/// any number of threads may call it at once.
[[nodiscard]] FrameTable validate_stream(const Device& device,
                                         std::span<const std::uint32_t> words);

}  // namespace jpg
