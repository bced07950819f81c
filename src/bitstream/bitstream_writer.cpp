#include "bitstream/bitstream_writer.h"

#include "support/error.h"

namespace jpg {

void BitstreamWriter::begin() {
  emit(kDummyWord);
  emit(kSyncWord);
  crc_.reset();
}

void BitstreamWriter::write_reg(ConfigReg reg, std::uint32_t value) {
  emit(encode_type1(PacketOp::Write, reg, 1));
  emit(value);
  if (reg == ConfigReg::CRC) {
    // A CRC check resets the accumulator (match is verified by the port).
    crc_.reset();
    return;
  }
  crc_.update(static_cast<std::uint32_t>(reg), value);
  if (reg == ConfigReg::CMD &&
      static_cast<Command>(value) == Command::RCRC) {
    crc_.reset();
  }
}

void BitstreamWriter::write_fdri_header(std::size_t payload) {
  if (payload < (1u << 11)) {
    emit(encode_type1(PacketOp::Write, ConfigReg::FDRI,
                      static_cast<std::uint32_t>(payload)));
  } else {
    emit(encode_type1(PacketOp::Write, ConfigReg::FDRI, 0));
    emit(encode_type2(PacketOp::Write, static_cast<std::uint32_t>(payload)));
  }
}

void BitstreamWriter::write_fdri(std::span<const std::uint32_t> words) {
  write_fdri_header(words.size());
  out_.words.insert(out_.words.end(), words.begin(), words.end());
  crc_.update_run(static_cast<std::uint32_t>(ConfigReg::FDRI), words);
}

template <typename FrameBlock>
void BitstreamWriter::write_frames_impl(std::size_t num_frames,
                                        const FrameBlock& block,
                                        std::size_t first, std::size_t count) {
  JPG_REQUIRE(first + count <= num_frames, "frame range out of bounds");
  JPG_REQUIRE(count > 0, "empty frame range");
  const std::size_t fw = device_->frames().frame_words();
  const std::size_t payload = (count + 1) * fw;  // +1: pipeline-flush pad
  reserve(2 + payload);
  write_fdri_header(payload);
  const std::size_t before = out_.words.size();
  for (std::size_t f = first; f < first + count;) {
    const std::span<const std::uint32_t> words = block(f, first + count - f);
    JPG_ASSERT(!words.empty() && words.size() % fw == 0);
    out_.words.insert(out_.words.end(), words.begin(), words.end());
    f += words.size() / fw;
  }
  // Pipeline-flush pad frame (discarded by the port).
  out_.words.resize(before + payload, 0u);
  crc_.update_run(static_cast<std::uint32_t>(ConfigReg::FDRI),
                  std::span(out_.words).subspan(before));
}

void BitstreamWriter::write_frames(const ConfigMemory& mem, std::size_t first,
                                   std::size_t count) {
  write_frames_impl(
      mem.num_frames(),
      [&mem](std::size_t f, std::size_t n) { return mem.frame_run(f, n); },
      first, count);
}

void BitstreamWriter::write_frames(const TargetPlane& mem, std::size_t first,
                                   std::size_t count) {
  write_frames_impl(
      mem.num_frames(),
      [&mem](std::size_t f, std::size_t) { return mem.frame_words(f); },
      first, count);
}

void BitstreamWriter::write_crc() {
  const std::uint32_t value = crc_.value();
  emit(encode_type1(PacketOp::Write, ConfigReg::CRC, 1));
  emit(value);
  crc_.reset();
}

Bitstream BitstreamWriter::finish() {
  write_cmd(Command::DESYNC);
  emit(kDummyWord);
  return std::move(out_);
}

}  // namespace jpg
