// rom_parameterize: live BRAM content updates — the era's flagship partial
// reconfiguration use case beyond logic swaps (JBits-style runtime
// parameterisation of lookup tables).
//
// A running device carries a counter (logic plane) and a coefficient table
// in block RAM. The host swaps the table through a block-type-1 partial
// bitstream: zero logic frames written, zero circuit disruption, verified
// through readback.
//
// Build & run:  ./build/examples/rom_parameterize
#include <cstdio>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "cbits/cbits.h"
#include "core/partial_gen.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"

using namespace jpg;

int main() {
  const Device& dev = Device::get("XCV100");
  std::printf("device %s: %d BRAM blocks per column, %d bits each\n",
              dev.spec().name.c_str(),
              dev.config_map().bram_blocks_per_column(),
              SliceConfigMap::kBramBitsPerBlock);

  // Base design: an 8-bit counter in the logic plane plus a sine-ish
  // coefficient table in BRAM block 0 (left column).
  const BaseFlowResult flow = run_base_flow(dev, netlib::make_counter(8), {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  flow.design->apply(cb);
  std::vector<std::uint16_t> table_a(256);
  for (int i = 0; i < 256; ++i) {
    table_a[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>((i * i) & 0xFFFF);  // "profile A"
  }
  cb.bram_fill(Side::Left, 0, table_a);
  const Bitstream base_bit = generate_full_bitstream(mem);
  std::printf("base bitstream: %zu words (logic + BRAM contents)\n",
              base_bit.words.size());

  SimBoard board(dev);
  board.send_config(base_bit.words);
  board.step_clock(100);

  int q0_pad = 0;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    if (flow.design->netlist().cell(flow.design->iob_cells[i]).port == "q0") {
      q0_pad = dev.pad_number(flow.design->iob_sites[i]);
    }
  }

  // Host-side: build "profile B" and generate the BRAM update.
  ConfigMemory updated = mem;
  {
    CBits ucb(updated);
    std::vector<std::uint16_t> table_b(256);
    for (int i = 0; i < 256; ++i) {
      table_b[static_cast<std::size_t>(i)] =
          static_cast<std::uint16_t>((255 - i) * 7);  // "profile B"
    }
    ucb.bram_fill(Side::Left, 0, table_b);
  }
  const PartialBitstreamGenerator gen(mem);
  PartialGenOptions diff;
  diff.diff_only = true;
  const PartialGenResult update = gen.generate_bram_update(updated, Side::Left, diff);
  std::printf("BRAM update: %zu frames, %zu words (%.1f%% of a full reload)\n",
              update.frames.size(), update.bitstream.words.size(),
              100.0 * static_cast<double>(update.bitstream.words.size()) /
                  static_cast<double>(base_bit.words.size()));

  // Swap it in while the counter runs.
  const std::uint64_t cycles_before = board.cycles();
  const bool q0_before = board.get_pin(q0_pad);
  board.send_config(update.bitstream.words);
  std::printf("counter state across the swap: cycle %llu, q0=%d -> cycle "
              "%llu, q0=%d (%s)\n",
              static_cast<unsigned long long>(cycles_before), q0_before,
              static_cast<unsigned long long>(board.cycles()),
              board.get_pin(q0_pad),
              q0_before == board.get_pin(q0_pad) ? "undisturbed"
                                                 : "DISTURBED!");

  // Verify the new contents through readback.
  ConfigMemory check(dev);
  {
    const std::size_t first = dev.frames().bram_frame_index(0, 0);
    check.write_frames(first, board.readback(first, FrameMap::kBramFrames));
  }
  CBits ccb(check);
  int correct = 0;
  for (int i = 0; i < 256; ++i) {
    if (ccb.bram_read(Side::Left, 0, i) ==
        static_cast<std::uint16_t>((255 - i) * 7)) {
      ++correct;
    }
  }
  std::printf("readback verification: %d/256 table entries match profile B\n",
              correct);
  std::printf("the lookup table was re-parameterised on a live device with "
              "no logic frames written.\n");
  return correct == 256 ? 0 : 1;
}
