// bitgen: full (complete-device) bitstream generation — the stand-in for the
// BitGen step of the Xilinx Foundation flow (Figure 2 of the paper).
#pragma once

#include "bitstream/bitstream_writer.h"
#include "bitstream/config_memory.h"
#include "bitstream/packet.h"

namespace jpg {

struct BitgenOptions {
  /// Emit the intermediate and final CRC checks (DriveDone-style options the
  /// real tool exposes are out of scope; CRC is the one JPG must respect).
  bool include_crc = true;
};

/// Serialises the entire configuration memory as a complete bitstream:
/// header, device checks, one maximal FDRI write, startup.
[[nodiscard]] Bitstream generate_full_bitstream(const ConfigMemory& mem,
                                                const BitgenOptions& opts = {});

/// Identifies the device a bitstream targets via its IDCODE write.
[[nodiscard]] const Device& device_for_bitstream(const Bitstream& bs);

/// The plane a complete bitstream configures: the device picked by IDCODE,
/// the whole stream validated (validate_stream), then its frame table
/// applied to a blank plane. Throws BitstreamError on a malformed stream
/// or one that never starts the device (a partial bitstream, say).
[[nodiscard]] ConfigMemory plane_from_full_bitstream(const Bitstream& bs);

}  // namespace jpg
