// Tests for the XHWIF board interface and the SimBoard implementation:
// configuration sessions, rebuild bookkeeping, pin persistence across
// reconfigurations, readback, and behaviour before configuration.
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"

namespace jpg {
namespace {

class SimBoardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    const BaseFlowResult flow =
        run_base_flow(*dev_, netlib::make_counter(4), {});
    plane_ = std::make_unique<ConfigMemory>(*dev_);
    CBits cb(*plane_);
    flow.design->apply(cb);
    bit_ = generate_full_bitstream(*plane_);
    for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
      pads_[flow.design->netlist().cell(flow.design->iob_cells[i]).port] =
          dev_->pad_number(flow.design->iob_sites[i]);
    }
  }

  /// A partial rewriting the frame runs `{first, count}` with the design's
  /// content.
  Bitstream rewrite_frames(
      const std::vector<std::pair<std::size_t, std::size_t>>& runs) const {
    const FrameMap& fm = dev_->frames();
    BitstreamWriter w(*dev_);
    w.begin();
    w.write_cmd(Command::RCRC);
    w.write_reg(ConfigReg::FLR,
                static_cast<std::uint32_t>(fm.frame_words() - 1));
    w.write_reg(ConfigReg::IDCODE, dev_->spec().idcode);
    w.write_cmd(Command::WCFG);
    for (const auto& [first, count] : runs) {
      w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(first)));
      w.write_frames(*plane_, first, count);
    }
    w.write_crc();
    w.write_cmd(Command::LFRM);
    return w.finish();
  }

  /// A partial rewriting every frame of the CLB columns `majors`.
  Bitstream rewrite_columns(const std::vector<int>& majors) const {
    const FrameMap& fm = dev_->frames();
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (const int major : majors) {
      runs.emplace_back(fm.frame_index(major, 0),
                        static_cast<std::size_t>(fm.frames_in_major(major)));
    }
    return rewrite_frames(runs);
  }

  int counter_value(SimBoard& board) const {
    int v = 0;
    for (int b = 0; b < 4; ++b) {
      if (board.get_pin(pads_.at("q" + std::to_string(b)))) v |= 1 << b;
    }
    return v;
  }

  const Device* dev_ = nullptr;
  std::unique_ptr<ConfigMemory> plane_;
  Bitstream bit_;
  std::map<std::string, int> pads_;
};

TEST_F(SimBoardTest, UnconfiguredBoardIsEmptyButAlive) {
  SimBoard board(*dev_);
  EXPECT_FALSE(board.configured());
  EXPECT_EQ(board.board_name(), "simboard-XCV50");
  // Clocking an empty device is legal and does nothing.
  board.step_clock(3);
  EXPECT_EQ(board.cycles(), 3u);
  // Driving a pin that exists on no circuit is remembered, not an error.
  board.set_pin(1, true);
}

TEST_F(SimBoardTest, ConfiguresAndCounts) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  EXPECT_TRUE(board.configured());
  EXPECT_EQ(board.config_words(), bit_.words.size());
  for (int cyc = 0; cyc < 20; ++cyc) {
    int v = 0;
    for (int b = 0; b < 4; ++b) {
      if (board.get_pin(pads_.at("q" + std::to_string(b)))) v |= 1 << b;
    }
    EXPECT_EQ(v, cyc & 0xF);
    board.step_clock(1);
  }
}

TEST_F(SimBoardTest, RebuildOnlyOnConfigChange) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(5);
  const int r1 = board.rebuilds();
  board.step_clock(5);
  board.get_pin(pads_.at("q0"));
  EXPECT_EQ(board.rebuilds(), r1);  // no config change, no rebuild
  board.send_config(bit_.words);    // full reload
  board.step_clock(1);
  EXPECT_GT(board.rebuilds(), r1);
}

// The board folds its port's committed-frame log into a set of stale CLB
// columns after every send and clears it, so the log stays within one
// stream however many swaps the board sees. The folded set still drives
// the rebuild: a swap elsewhere carries the counter's FF state across it,
// and rewriting the counter's own columns restarts it at INIT.
TEST_F(SimBoardTest, FrameLogStaysBoundedAcrossSwaps) {
  const FrameMap& fm = dev_->frames();
  std::vector<int> used;
  int unused = -1;
  for (int c = 0; c < dev_->cols(); ++c) {
    const int major = fm.major_of_clb_col(c);
    bool empty = true;
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      empty = empty && plane_->frame(fm.frame_index(major, minor)).popcount() == 0;
    }
    if (!empty) {
      used.push_back(major);
    } else if (unused < 0) {
      unused = major;
    }
  }
  ASSERT_FALSE(used.empty());
  ASSERT_GE(unused, 0);
  const Bitstream away = rewrite_columns({unused});
  const Bitstream home = rewrite_columns(used);

  SimBoard board(*dev_);
  board.send_config(bit_.words);
  EXPECT_TRUE(board.committed_frames().empty());
  board.step_clock(1);
  const int rebuilds = board.rebuilds();
  for (int i = 1; i <= 40; ++i) {
    board.send_config(away.words);
    EXPECT_LE(board.committed_frames().size(),
              static_cast<std::size_t>(fm.frames_in_major(unused)));
    EXPECT_EQ(counter_value(board), i & 0xF);  // state carried
    EXPECT_EQ(board.rebuilds(), rebuilds + i);
    board.step_clock(1);
  }
  board.send_config(home.words);
  EXPECT_TRUE(board.committed_frames().empty());
  EXPECT_EQ(counter_value(board), 0);  // rewritten columns restart at INIT
}

// BRAM content frames belong to no CLB column, so writing them restarts no
// flip-flop — even though the right BRAM column's major number (1) is also
// the first CLB column's.
TEST_F(SimBoardTest, BramWritesKeepFlipFlopState) {
  const FrameMap& fm = dev_->frames();
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(5);
  ASSERT_EQ(counter_value(board), 5);
  board.send_config(
      rewrite_frames({{fm.bram_frame_index(1, 0), FrameMap::kBramFrames}})
          .words);
  EXPECT_EQ(counter_value(board), 5);
}

TEST_F(SimBoardTest, FullReloadResetsState) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(9);
  EXPECT_TRUE(board.get_pin(pads_.at("q0")));  // 9 is odd
  board.send_config(bit_.words);  // full reload rewrites every column
  EXPECT_FALSE(board.get_pin(pads_.at("q0")));  // counter back at 0
}

TEST_F(SimBoardTest, ReadbackReturnsFrames) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  const auto words = board.readback(0, 3);
  EXPECT_EQ(words.size(), 3 * dev_->frames().frame_words());
  // Readback of the whole device equals the loaded configuration.
  ConfigMemory expect(*dev_);
  ConfigPort port(expect);
  port.load(bit_);
  for (std::size_t f = 0; f < dev_->frames().num_frames(); f += 97) {
    const auto rb = board.readback(f, 1);
    EXPECT_TRUE(std::ranges::equal(rb, expect.frame(f).words()))
        << "frame " << f;
  }
}

TEST_F(SimBoardTest, BadConfigStreamThrowsAndBoardSurvives) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(4);
  // A corrupt stream fails...
  Bitstream bad = bit_;
  bad.words[30] ^= 0x10u;
  EXPECT_THROW(board.send_config(bad.words), BitstreamError);
  // ...after which a clean reload still works.
  board.send_config(bit_.words);
  board.step_clock(1);
  EXPECT_TRUE(board.get_pin(pads_.at("q0")));
}

TEST_F(SimBoardTest, PinStateSurvivesReload) {
  // Build a combinational design: parity of 3 inputs.
  const BaseFlowResult flow = run_base_flow(*dev_, netlib::make_parity(3), {});
  ConfigMemory mem(*dev_);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream parity_bit = generate_full_bitstream(mem);
  std::map<std::string, int> pads;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    pads[flow.design->netlist().cell(flow.design->iob_cells[i]).port] =
        dev_->pad_number(flow.design->iob_sites[i]);
  }

  SimBoard board(*dev_);
  board.send_config(parity_bit.words);
  board.set_pin(pads.at("x0"), true);
  board.set_pin(pads.at("x1"), true);
  board.set_pin(pads.at("x2"), true);
  EXPECT_TRUE(board.get_pin(pads.at("p")));  // parity of 111 = 1
  // Reload: externally driven pins are still asserted afterwards.
  board.send_config(parity_bit.words);
  EXPECT_TRUE(board.get_pin(pads.at("p")));
  board.set_pin(pads.at("x1"), false);
  EXPECT_FALSE(board.get_pin(pads.at("p")));
}

TEST_F(SimBoardTest, PinsReassertAcrossCircuitRebuilds) {
  // Regression: a pin driven before a reconfiguration must still be driven
  // after the simulator rebuilds its circuit — including across reloads
  // with *different* designs, where the rebuild replaces every IOB.
  const BaseFlowResult flow = run_base_flow(*dev_, netlib::make_parity(3), {});
  ConfigMemory mem(*dev_);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream parity_bit = generate_full_bitstream(mem);
  std::map<std::string, int> pads;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    pads[flow.design->netlist().cell(flow.design->iob_cells[i]).port] =
        dev_->pad_number(flow.design->iob_sites[i]);
  }

  SimBoard board(*dev_);
  board.send_config(parity_bit.words);
  board.set_pin(pads.at("x0"), true);
  board.set_pin(pads.at("x2"), true);
  EXPECT_FALSE(board.get_pin(pads.at("p")));  // parity of 101 = 0
  const int r1 = board.rebuilds();

  board.send_config(bit_.words);         // counter design: full rebuild
  board.step_clock(1);
  board.send_config(parity_bit.words);   // back to the parity design
  EXPECT_GT(board.rebuilds(), r1);
  // The externally driven pins survived both rebuilds.
  EXPECT_FALSE(board.get_pin(pads.at("p")));
  board.set_pin(pads.at("x1"), true);
  EXPECT_TRUE(board.get_pin(pads.at("p")));  // parity of 111 = 1
}

TEST_F(SimBoardTest, ConfigDoneTracksStartup) {
  SimBoard board(*dev_);
  EXPECT_FALSE(board.config_done());
  board.send_config(bit_.words);
  EXPECT_TRUE(board.config_done());
  // ABORT drops decode state but not the started configuration.
  board.abort_config();
  EXPECT_TRUE(board.config_done());
}

TEST_F(SimBoardTest, AbortConfigUnsticksTruncatedStream) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  // A stream cut mid-FDRI leaves the port waiting for payload words; the
  // board accepts it without protest (nothing is wrong *yet*).
  std::vector<std::uint32_t> cut(bit_.words.begin(),
                                 bit_.words.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         bit_.words.size() / 2));
  board.send_config(cut);
  // ABORT, then a clean reload configures the counter as usual.
  board.abort_config();
  board.send_config(bit_.words);
  EXPECT_TRUE(board.config_done());
  board.step_clock(1);
  EXPECT_TRUE(board.get_pin(pads_.at("q0")));
}

TEST(Xhwif, PolymorphicUse) {
  const Device& dev = Device::get("XCV50");
  SimBoard board(dev);
  Xhwif* iface = &board;
  EXPECT_EQ(iface->board_name(), "simboard-XCV50");
  ConfigMemory mem(dev);
  const Bitstream bs = generate_full_bitstream(mem);
  iface->send_config(bs.words);
  iface->step_clock(2);
  EXPECT_EQ(board.cycles(), 2u);
}

}  // namespace
}  // namespace jpg
