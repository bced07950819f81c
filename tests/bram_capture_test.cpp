// Tests for the two configuration-architecture extensions: block-type-1
// BRAM content frames (partial memory updates without touching logic) and
// the CAPTURE/readback mechanism for observing live flip-flop state.
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "core/partial_gen.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "support/rng.h"

namespace jpg {
namespace {

// --- BRAM frame addressing ------------------------------------------------------

TEST(BramFrames, FarType1Roundtrip) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  for (std::uint32_t major = 0; major < FrameMap::kBramMajors; ++major) {
    for (std::uint32_t minor = 0; minor < FrameMap::kBramFrames; minor += 7) {
      const FrameAddress a{1, major, minor};
      const std::uint32_t far = fm.encode_far(a);
      EXPECT_TRUE(fm.far_valid(far));
      EXPECT_EQ(fm.decode_far(far), a);
      const std::size_t idx = fm.frame_index_of(a);
      EXPECT_GE(idx, fm.num_type0_frames());
      EXPECT_LT(idx, fm.num_frames());
      EXPECT_EQ(fm.address_of_index(idx), a);
    }
  }
  // Invalid type-1 FARs.
  EXPECT_FALSE(fm.far_valid((1u << 24) | (2u << 12)));
  EXPECT_FALSE(fm.far_valid((1u << 24) | 64u));
  EXPECT_FALSE(fm.far_valid(2u << 24));
  EXPECT_NE(fm.describe_frame(fm.bram_frame_index(0, 5)).find("BRAM"),
            std::string::npos);
}

TEST(BramFrames, BitMapInjectiveWithinColumn) {
  const Device& dev = Device::get("XCV50");
  const SliceConfigMap& cm = dev.config_map();
  ASSERT_EQ(cm.bram_blocks_per_column(), dev.rows() / 4);
  std::set<std::tuple<int, int, unsigned>> used;
  for (int block = 0; block < cm.bram_blocks_per_column(); ++block) {
    for (int i = 0; i < SliceConfigMap::kBramBitsPerBlock; i += 13) {
      const FrameBit fb = cm.bram_bit(Side::Left, block, i);
      EXPECT_EQ(fb.block_type, 1);
      EXPECT_EQ(fb.major, 0);
      EXPECT_LT(fb.minor, FrameMap::kBramFrames);
      EXPECT_TRUE(used.insert({fb.major, fb.minor, fb.bit}).second)
          << "block " << block << " bit " << i;
    }
  }
  // The right column is a distinct major.
  EXPECT_EQ(cm.bram_bit(Side::Right, 0, 0).major, 1);
}

TEST(Bram, WordReadWriteRoundtrip) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  CBits cb(mem);
  Rng rng(55);
  std::map<int, std::uint16_t> written;
  for (int trial = 0; trial < 100; ++trial) {
    const int block = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(
            dev.config_map().bram_blocks_per_column())));
    const int addr = static_cast<int>(rng.uniform(256));
    const auto value = static_cast<std::uint16_t>(rng.next());
    cb.bram_write(Side::Left, block, addr, value);
    written[block * 256 + addr] = value;
  }
  for (const auto& [key, value] : written) {
    EXPECT_EQ(cb.bram_read(Side::Left, key / 256, key % 256), value);
  }
  // The right column stayed untouched.
  for (int addr = 0; addr < 256; addr += 17) {
    EXPECT_EQ(cb.bram_read(Side::Right, 0, addr), 0);
  }
}

TEST(Bram, FillAndBoundsChecks) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  CBits cb(mem);
  std::vector<std::uint16_t> rom(256);
  for (std::size_t i = 0; i < rom.size(); ++i) {
    rom[i] = static_cast<std::uint16_t>(i * 3 + 1);
  }
  cb.bram_fill(Side::Right, 2, rom);
  for (int addr = 0; addr < 256; ++addr) {
    EXPECT_EQ(cb.bram_read(Side::Right, 2, addr), rom[static_cast<std::size_t>(addr)]);
  }
  EXPECT_THROW(cb.bram_write(Side::Left, 0, 256, 0), JpgError);
  EXPECT_THROW(cb.bram_write(Side::Left, 99, 0, 0), JpgError);
  EXPECT_THROW(cb.bram_fill(Side::Left, 0, std::vector<std::uint16_t>(3)),
               JpgError);
}

TEST(Bram, ContentSurvivesFullBitstreamRoundtrip) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  CBits cb(mem);
  cb.bram_write(Side::Left, 1, 42, 0xBEEF);
  cb.bram_write(Side::Right, 3, 200, 0x1234);
  const Bitstream bs = generate_full_bitstream(mem);
  ConfigMemory loaded(dev);
  ConfigPort port(loaded);
  port.load(bs);
  CBits lb(loaded);
  EXPECT_EQ(lb.bram_read(Side::Left, 1, 42), 0xBEEF);
  EXPECT_EQ(lb.bram_read(Side::Right, 3, 200), 0x1234);
  EXPECT_EQ(loaded, mem);
}

TEST(Bram, PartialUpdateTouchesOnlyBramFrames) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory base(dev);
  {
    CBits cb(base);
    cb.set_lut({3, 3, 0}, LutSel::F, 0xAAAA);  // some logic in the base
    cb.bram_write(Side::Left, 0, 0, 0x1111);
  }
  ConfigMemory updated = base;
  {
    CBits cb(updated);
    cb.bram_write(Side::Left, 0, 0, 0x2222);
    cb.bram_write(Side::Left, 2, 100, 0x3333);
  }
  const PartialBitstreamGenerator gen(base);
  PartialGenOptions opts;
  opts.diff_only = true;
  const PartialGenResult pr = gen.generate_bram_update(updated, Side::Left, opts);
  EXPECT_GE(pr.frames.size(), 2u);
  for (const std::size_t f : pr.frames) {
    EXPECT_EQ(dev.frames().address_of_index(f).block_type, 1u)
        << dev.frames().describe_frame(f);
  }
  // Loading the update transforms base into updated exactly.
  ConfigMemory mem = base;
  ConfigPort port(mem);
  port.load(pr.bitstream);
  EXPECT_EQ(mem, updated);
  // All-frames mode ships the whole column.
  PartialGenOptions all;
  all.diff_only = false;
  EXPECT_EQ(gen.generate_bram_update(updated, Side::Left, all).frames.size(),
            static_cast<std::size_t>(FrameMap::kBramFrames));
}

TEST(Bram, LiveMemoryUpdateLeavesLogicRunning) {
  // The era's flagship use case: swap a ROM's contents on a running device.
  const Device& dev = Device::get("XCV50");
  const BaseFlowResult flow = run_base_flow(dev, netlib::make_counter(4), {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  flow.design->apply(cb);
  std::vector<std::uint16_t> rom(256, 0x0F0F);
  cb.bram_fill(Side::Left, 0, rom);
  const Bitstream base_bit = generate_full_bitstream(mem);

  int q0 = 0;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    if (flow.design->netlist().cell(flow.design->iob_cells[i]).port == "q0") {
      q0 = dev.pad_number(flow.design->iob_sites[i]);
    }
  }

  SimBoard board(dev);
  board.send_config(base_bit.words);
  board.step_clock(5);
  EXPECT_TRUE(board.get_pin(q0));  // counter at 5

  // Build and download the BRAM update.
  ConfigMemory updated = mem;
  {
    CBits ucb(updated);
    std::vector<std::uint16_t> rom2(256, 0xF0F0);
    ucb.bram_fill(Side::Left, 0, rom2);
  }
  const PartialBitstreamGenerator gen(mem);
  const PartialGenResult pr = gen.generate_bram_update(updated, Side::Left);
  board.send_config(pr.bitstream.words);

  // Logic untouched: the counter continues from 5 (BRAM frames are not CLB
  // columns, so SimBoard carries all FF state).
  board.step_clock(1);
  EXPECT_FALSE(board.get_pin(q0));  // 6 is even
  board.step_clock(1);
  EXPECT_TRUE(board.get_pin(q0));   // 7
  // And the new contents are visible through readback.
  const auto words =
      board.readback(dev.frames().bram_frame_index(0, 0), 1);
  ConfigMemory check(dev);
  check.write_frames(dev.frames().bram_frame_index(0, 0), words);
  CBits ccb(check);
  EXPECT_EQ(ccb.bram_read(Side::Left, 0, 0), 0xF0F0);
}

// --- State capture ---------------------------------------------------------------

TEST(Capture, CaptureBitsAreInjectiveAndFree) {
  const Device& dev = Device::get("XCV50");
  const SliceConfigMap& cm = dev.config_map();
  std::set<std::tuple<int, int, unsigned>> used;
  // Capture bits of a tile must not collide with each other nor with any
  // logic/routing bit of the same tile.
  const TileCoord t{4, 9};
  for (int s = 0; s < 2; ++s) {
    for (int le = 0; le < 2; ++le) {
      const FrameBit fb = cm.capture_bit(t.r, t.c, s, le);
      EXPECT_TRUE(used.insert({fb.major, fb.minor, fb.bit}).second);
    }
    for (int i = 0; i < 16; ++i) {
      const FrameBit fb = cm.lut_bit(t.r, t.c, s, LutSel::F, i);
      EXPECT_TRUE(used.insert({fb.major, fb.minor, fb.bit}).second);
    }
    for (int f = 0; f < kNumSliceFields; ++f) {
      const FrameBit fb = cm.field_bit(t.r, t.c, s, static_cast<SliceField>(f));
      EXPECT_TRUE(used.insert({fb.major, fb.minor, fb.bit}).second);
    }
  }
  for (int i = 0; i < SliceConfigMap::kRoutingBitsPerTile; ++i) {
    const FrameBit fb = cm.routing_bit(t.r, t.c, i);
    EXPECT_TRUE(used.insert({fb.major, fb.minor, fb.bit}).second) << i;
  }
}

TEST(Capture, ReadsLiveCounterState) {
  const Device& dev = Device::get("XCV50");
  const BaseFlowResult flow = run_base_flow(dev, netlib::make_counter(6), {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream bit = generate_full_bitstream(mem);

  SimBoard board(dev);
  board.send_config(bit.words);
  board.step_clock(45);
  board.capture_state();

  // Decode the captured state: find each counter FF's site and assemble
  // the value from the capture bits via readback.
  int value = 0;
  for (int b = 0; b < 6; ++b) {
    const CellId ff =
        *flow.design->netlist().find_cell("ff" + std::to_string(b));
    const CellPlace cp = flow.design->cell_place.at(ff);
    const SliceSite site = flow.design->slice_sites[cp.slice_index];
    const FrameBit fb =
        dev.config_map().capture_bit(site.r, site.c, site.slice, cp.le);
    const std::size_t frame = dev.frames().frame_index(fb.major, fb.minor);
    const auto words = board.readback(frame, 1);
    BitVector bv(dev.frames().frame_bits());
    for (std::size_t w = 0; w < words.size(); ++w) bv.set_word(w, words[w]);
    if (bv.get(fb.bit)) value |= 1 << b;
  }
  EXPECT_EQ(value, 45);

  // Capture again later: the plane reflects the newer state.
  board.step_clock(1);
  board.capture_state();
  CBits ccb(board.config());
  const CellId ff0 = *flow.design->netlist().find_cell("ff0");
  const CellPlace cp0 = flow.design->cell_place.at(ff0);
  const SliceSite s0 = flow.design->slice_sites[cp0.slice_index];
  EXPECT_EQ(ccb.get_captured_ff(s0, cp0.le), (46 & 1) != 0);
}

TEST(Capture, DoesNotDisturbTheCircuit) {
  const Device& dev = Device::get("XCV50");
  const BaseFlowResult flow = run_base_flow(dev, netlib::make_lfsr(8), {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  flow.design->apply(cb);
  SimBoard board(dev);
  board.send_config(generate_full_bitstream(mem).words);
  board.step_clock(10);
  const int rebuilds = board.rebuilds();
  board.capture_state();
  board.step_clock(10);
  EXPECT_EQ(board.rebuilds(), rebuilds);  // capture is not a config session
  EXPECT_EQ(board.cycles(), 20u);
}

}  // namespace
}  // namespace jpg
