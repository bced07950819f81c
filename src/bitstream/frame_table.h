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
// shape).
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

class ConfigPort;

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

  bool operator==(const FrameTable&) const = default;
};

/// Writes the runs of `table` into `plane` in commit order, taking frame
/// words from `words`, the stream the table was recorded from. A plane
/// equal to the replay port's plane before the replay ends equal to it
/// after.
void apply_frame_table(const FrameTable& table,
                       std::span<const std::uint32_t> words,
                       ConfigMemory& plane);

/// Replays `words` through `port` from power-on reset (reset() and
/// reset_stats() first) and returns the replay's frame table. Throws
/// BitstreamError exactly where ConfigPort::load does, or at the end when
/// the stream ends inside a packet (ConfigPort::finish).
[[nodiscard]] FrameTable replay_frame_table(
    ConfigPort& port, std::span<const std::uint32_t> words);

}  // namespace jpg
