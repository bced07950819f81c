// BitstreamWriter: emits configuration word streams with correct packet
// framing and CRC bookkeeping. Both the full-bitstream generator (bitgen)
// and JPG's partial generator are built on it.
#pragma once

#include <cstdint>
#include <span>

#include "bitstream/config_memory.h"
#include "bitstream/crc16.h"
#include "bitstream/frame_table.h"
#include "bitstream/packet.h"
#include "device/device.h"

namespace jpg {

class BitstreamWriter {
 public:
  explicit BitstreamWriter(const Device& device) : device_(&device) {}

  /// Emits the leading dummy word and the sync word.
  void begin();

  /// Type 1 write of a single register value.
  void write_reg(ConfigReg reg, std::uint32_t value);

  void write_cmd(Command cmd) {
    write_reg(ConfigReg::CMD, static_cast<std::uint32_t>(cmd));
  }

  /// FDRI write. Small payloads use a Type 1 packet; large ones a Type 1
  /// zero-count header followed by a Type 2 packet, as on the real part.
  void write_fdri(std::span<const std::uint32_t> words);

  /// Writes the running CRC to the CRC register (the port verifies it).
  void write_crc();

  /// Emits the trailing DESYNC command and returns the stream.
  [[nodiscard]] Bitstream finish();

  /// Emits one FDRI packet: frames [first, first+count) of `mem` as one
  /// block, followed by one pad frame (the config pipeline flush frame).
  /// `mem` is a plane or a TargetPlane view (the verified downloader's
  /// repair streams: a stream's frames straight from its words); each of
  /// its stretches goes out with one insert, and the payload's CRC is one
  /// update_run over the emitted words.
  void write_frames(const TargetPlane& mem, std::size_t first,
                    std::size_t count);

  /// Grows the output capacity to hold `words` more words. Callers that
  /// know the frame payload ahead (the partial generator does) reserve once
  /// instead of reallocating across write_frames calls.
  void reserve(std::size_t words) {
    out_.words.reserve(out_.words.size() + words);
  }

  [[nodiscard]] std::size_t size_words() const { return out_.words.size(); }
  [[nodiscard]] std::size_t size_bytes() const { return out_.size_bytes(); }

  [[nodiscard]] const Bitstream& stream() const { return out_; }

 private:
  /// Type 1 FDRI header for `payload` words, or a zero-count Type 1 and a
  /// Type 2 header when it does not fit 11 bits.
  void write_fdri_header(std::size_t payload);

  void emit(std::uint32_t word) { out_.words.push_back(word); }

  const Device* device_;
  Bitstream out_;
  Crc16 crc_;
};

}  // namespace jpg
