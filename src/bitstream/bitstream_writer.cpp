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

void BitstreamWriter::write_fdri(std::span<const std::uint32_t> words) {
  if (words.size() < (1u << 11)) {
    emit(encode_type1(PacketOp::Write, ConfigReg::FDRI,
                      static_cast<std::uint32_t>(words.size())));
  } else {
    emit(encode_type1(PacketOp::Write, ConfigReg::FDRI, 0));
    emit(encode_type2(PacketOp::Write, static_cast<std::uint32_t>(words.size())));
  }
  for (const std::uint32_t w : words) {
    emit(w);
    crc_.update(static_cast<std::uint32_t>(ConfigReg::FDRI), w);
  }
}

template <typename FrameWords>
void BitstreamWriter::write_frames_impl(std::size_t num_frames,
                                        const FrameWords& frame,
                                        std::size_t first, std::size_t count) {
  JPG_REQUIRE(first + count <= num_frames, "frame range out of bounds");
  JPG_REQUIRE(count > 0, "empty frame range");
  const std::size_t fw = device_->frames().frame_words();
  const std::size_t payload = (count + 1) * fw;  // +1: pipeline-flush pad
  const std::size_t header = payload < (1u << 11) ? 1 : 2;
  reserve(header + payload);
  if (header == 1) {
    emit(encode_type1(PacketOp::Write, ConfigReg::FDRI,
                      static_cast<std::uint32_t>(payload)));
  } else {
    emit(encode_type1(PacketOp::Write, ConfigReg::FDRI, 0));
    emit(encode_type2(PacketOp::Write, static_cast<std::uint32_t>(payload)));
  }
  const std::size_t before = out_.words.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const std::uint32_t> words = frame(first + i);
    JPG_ASSERT(words.size() == fw);
    for (const std::uint32_t w : words) {
      emit(w);
      crc_.update(static_cast<std::uint32_t>(ConfigReg::FDRI), w);
    }
  }
  // Pipeline-flush pad frame (discarded by the port).
  for (std::size_t w = 0; w < fw; ++w) {
    emit(0u);
    crc_.update(static_cast<std::uint32_t>(ConfigReg::FDRI), 0u);
  }
  JPG_ASSERT_MSG(out_.words.size() - before == payload,
                 "FDRI payload size does not match prediction");
}

void BitstreamWriter::write_frames(const ConfigMemory& mem, std::size_t first,
                                   std::size_t count) {
  write_frames(TargetPlane(mem), first, count);
}

void BitstreamWriter::write_frames(const FrameOverlay& mem, std::size_t first,
                                   std::size_t count) {
  write_frames_impl(
      mem.num_frames(),
      [&mem](std::size_t f) -> std::span<const std::uint32_t> {
        return mem.frame(f).words();
      },
      first, count);
}

void BitstreamWriter::write_frames(const TargetPlane& mem, std::size_t first,
                                   std::size_t count) {
  write_frames_impl(
      mem.num_frames(), [&mem](std::size_t f) { return mem.frame_words(f); },
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
