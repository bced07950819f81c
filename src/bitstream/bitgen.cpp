#include "bitstream/bitgen.h"

#include "bitstream/bitstream_reader.h"
#include "bitstream/frame_table.h"
#include "support/error.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

Bitstream generate_full_bitstream(const ConfigMemory& mem,
                                  const BitgenOptions& opts) {
  JPG_SPAN("bitgen.full");
  JPG_COUNT("bitgen.full_streams", 1);
  const Device& dev = mem.device();
  const FrameMap& fm = dev.frames();

  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR,
              static_cast<std::uint32_t>(fm.frame_words() - 1));
  w.write_reg(ConfigReg::COR, 0);
  w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
  w.write_reg(ConfigReg::MASK, 0xFFFFFFFFu);
  w.write_reg(ConfigReg::CTL, 0);
  w.write_reg(ConfigReg::FAR, fm.encode_far({0, 0, 0}));
  w.write_cmd(Command::WCFG);
  w.write_frames(mem, 0, fm.num_frames());
  if (opts.include_crc) w.write_crc();
  w.write_cmd(Command::LFRM);
  w.write_cmd(Command::START);
  if (opts.include_crc) w.write_crc();
  return w.finish();
}

const Device& device_for_bitstream(const Bitstream& bs) {
  const BitstreamReader reader(bs);
  const auto idcode = reader.idcode();
  if (!idcode) {
    throw BitstreamError("bitstream carries no IDCODE write");
  }
  return Device::get(DeviceSpec::by_idcode(*idcode).name);
}

ConfigMemory plane_from_full_bitstream(const Bitstream& bs) {
  const Device& device = device_for_bitstream(bs);
  const FrameTable table = validate_stream(device, bs.words);
  if (!table.started) {
    throw BitstreamError(
        "bitstream does not start the device; is it a partial bitstream?");
  }
  ConfigMemory plane(device);
  apply_frame_table(table, bs.words, plane);
  return plane;
}

}  // namespace jpg
