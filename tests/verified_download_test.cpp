// Tests for the verified-download subsystem: FaultyBoard fault injection,
// VerifiedDownloader convergence/rollback semantics, capture-bit masking,
// and the Jpg facade integration. The centrepiece is a 200-scenario seeded
// fault campaign asserting the two-state invariant: after every download
// the board holds either the verified update or the pre-update plane —
// never anything in between.
#include <gtest/gtest.h>

#include <bit>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "core/jpg.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/verified_downloader.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "support/rng.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_writer.h"

namespace jpg {
namespace {

class VerifiedDownloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    const FrameMap& fm = dev_->frames();
    const std::size_t fw = fm.frame_words();

    base_plane_ = std::make_unique<ConfigMemory>(*dev_);
    for (std::size_t f = 0; f < fm.num_frames(); f += 5) {
      for (std::size_t w = 0; w < fw; w += 2) {
        base_plane_->frame(f).set_word(
            w, 0x5A000000u ^ (static_cast<std::uint32_t>(f) << 8) ^
                   static_cast<std::uint32_t>(w));
      }
    }
    base_bit_ = generate_full_bitstream(*base_plane_);

    // The update rewrites 6 contiguous frames with a distinct pattern.
    first_ = fm.frame_index(3, 2);
    target_plane_ = std::make_unique<ConfigMemory>(*base_plane_);
    for (std::size_t f = 0; f < kUpdateFrames; ++f) {
      for (std::size_t w = 0; w < fw; ++w) {
        target_plane_->frame(first_ + f).set_word(
            w, 0x17000000u ^ (static_cast<std::uint32_t>(f) << 16) ^
                   static_cast<std::uint32_t>(w));
      }
    }
    BitstreamWriter w(*dev_);
    w.begin();
    w.write_cmd(Command::RCRC);
    w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
    w.write_reg(ConfigReg::IDCODE, dev_->spec().idcode);
    w.write_cmd(Command::WCFG);
    w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(first_)));
    w.write_frames(*target_plane_, first_, kUpdateFrames);
    w.write_crc();
    w.write_cmd(Command::LFRM);
    partial_ = w.finish();
  }

  /// Reads the whole plane back from `board` into a ConfigMemory.
  ConfigMemory board_plane(SimBoard& board) const {
    const FrameMap& fm = dev_->frames();
    ConfigMemory got(*dev_);
    got.write_frames(0, board.readback(0, fm.num_frames()));
    return got;
  }

  static constexpr std::size_t kUpdateFrames = 6;

  const Device* dev_ = nullptr;
  std::unique_ptr<ConfigMemory> base_plane_;
  std::unique_ptr<ConfigMemory> target_plane_;
  Bitstream base_bit_;
  Bitstream partial_;
  std::size_t first_ = 0;
};

TEST_F(VerifiedDownloadTest, CleanLinkSucceedsFirstAttempt) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep = dl.download_partial(partial_);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.status, DownloadStatus::Success);
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.frames_touched, kUpdateFrames);
  EXPECT_EQ(rep.frames_repaired, 0u);
  EXPECT_EQ(rep.faults_seen, 0u);
  EXPECT_EQ(board_plane(board), *target_plane_);
  // The mirror advanced to the verified plane.
  EXPECT_EQ(dl.mirror(), *target_plane_);
}

TEST_F(VerifiedDownloadTest, DownloadFullEstablishesMirror) {
  SimBoard board(*dev_);
  VerifiedDownloader dl(board, *dev_);
  EXPECT_FALSE(dl.has_mirror());
  const DownloadReport rep = dl.download_full(base_bit_);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  ASSERT_TRUE(dl.has_mirror());
  EXPECT_EQ(dl.mirror(), *base_plane_);
  EXPECT_TRUE(board.config_done());
  // A partial now works without assume_board_state.
  EXPECT_TRUE(dl.download_partial(partial_).ok());
  EXPECT_EQ(board_plane(board), *target_plane_);
}

TEST_F(VerifiedDownloadTest, PartialWithoutMirrorIsRefused) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  VerifiedDownloader dl(board, *dev_);
  EXPECT_THROW((void)dl.download_partial(partial_), JpgError);
}

TEST_F(VerifiedDownloadTest, MalformedStreamIsRejectedToolSideNothingSent) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  FaultyBoard faulty(board, FaultProfile{}, 1);
  VerifiedDownloader dl(faulty, *dev_, {});
  dl.assume_board_state(*base_plane_);
  Bitstream bad = partial_;
  bad.words[10] ^= 0x40u;  // CRC-covered register write corrupted
  const DownloadReport rep = dl.download_partial(bad);
  EXPECT_EQ(rep.status, DownloadStatus::Failed);
  EXPECT_NE(rep.error.find("tool-side"), std::string::npos) << rep.error;
  EXPECT_EQ(rep.attempts, 0);
  // Not a single word crossed the link; the board still holds the base.
  EXPECT_EQ(faulty.faults_injected(), 0u);
  EXPECT_EQ(board_plane(board), *base_plane_);
}

TEST_F(VerifiedDownloadTest, TruncatedSendsAreRetriedToSuccess) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  FaultProfile profile;
  profile.truncate = 1.0;
  profile.fault_budget = 2;  // two truncated sends, then a clean link
  FaultyBoard faulty(board, profile, 99);
  DownloadPolicy policy;
  policy.max_attempts = 4;
  VerifiedDownloader dl(faulty, *dev_, policy);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep = dl.download_partial(partial_);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.attempts, 1);
  EXPECT_EQ(faulty.counters().truncations, 2u);
  EXPECT_EQ(board_plane(board), *target_plane_);
}

TEST_F(VerifiedDownloadTest, FullDownloadRidesOutTruncation) {
  // Truncation can cut the stream after the last frame but before START:
  // every frame verifies yet DONE stays low. ensure_started must catch it.
  SimBoard board(*dev_);
  FaultProfile profile;
  profile.truncate = 1.0;
  profile.fault_budget = 3;
  FaultyBoard faulty(board, profile, 7);
  DownloadPolicy policy;
  policy.max_attempts = 6;
  VerifiedDownloader dl(faulty, *dev_, policy);
  const DownloadReport rep = dl.download_full(base_bit_);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_TRUE(board.config_done());
  EXPECT_EQ(board_plane(board), *base_plane_);
}

TEST_F(VerifiedDownloadTest, UnverifiableLinkReportsFailed) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  FaultProfile profile;
  profile.readback_failure = 1.0;  // unlimited: nothing can ever verify
  FaultyBoard faulty(board, profile, 3);
  DownloadPolicy policy;
  policy.max_attempts = 2;
  policy.rollback_max_attempts = 2;
  VerifiedDownloader dl(faulty, *dev_, policy);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep = dl.download_partial(partial_);
  EXPECT_EQ(rep.status, DownloadStatus::Failed);
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.error.empty());
  EXPECT_GT(rep.faults_seen, 0u);
  EXPECT_FALSE(rep.fault_log.empty());
}

TEST_F(VerifiedDownloadTest, ReportSummaryNamesTheOutcome) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep = dl.download_partial(partial_);
  EXPECT_NE(rep.summary().find("success"), std::string::npos);
  EXPECT_NE(rep.summary().find("frames touched"), std::string::npos);
  EXPECT_EQ(download_status_name(DownloadStatus::RolledBack), "rolled-back");
  EXPECT_EQ(download_status_name(DownloadStatus::Failed), "failed");
}

TEST_F(VerifiedDownloadTest, MaskCaptureWordsZeroesOnlyCaptureMinors) {
  const FrameMap& fm = dev_->frames();
  int clb_major = -1;
  for (int m = 0; m < 64 && clb_major < 0; ++m) {
    if (fm.column_kind(m) == ColumnKind::Clb) clb_major = m;
  }
  ASSERT_GE(clb_major, 0);
  const std::size_t fw = fm.frame_words();
  std::vector<std::uint32_t> words(fw, 0xFFFFFFFFu);

  const auto masked = [&](std::size_t frame, std::vector<std::uint32_t> w) {
    mask_capture_words_inplace(*dev_, frame, w);
    return w;
  };

  // A capture minor loses exactly the per-row capture bits: two per row...
  const std::size_t cap = fm.frame_index(clb_major, 16);
  const std::vector<std::uint32_t> cap_masked = masked(cap, words);
  std::size_t cleared = 0;
  for (const std::uint32_t w : cap_masked) {
    cleared += static_cast<std::size_t>(32 - std::popcount(w));
  }
  EXPECT_EQ(cleared, 2u * static_cast<std::size_t>(dev_->rows()));
  // ...and masking is idempotent.
  EXPECT_EQ(masked(cap, cap_masked), cap_masked);

  // A non-capture minor of the same column is untouched.
  const std::size_t cfg = fm.frame_index(clb_major, 2);
  EXPECT_EQ(masked(cfg, words), words);
}

// The campaign: 200 seeded scenarios across four fault families, each with
// a bounded fault budget sized so the downloader provably converges (every
// failed attempt consumes at least one unit of budget) or — when the
// attempt budget is deliberately squeezed below that — rolls back. The
// invariant under test: the final plane is byte-identical to exactly one
// of {update applied, pre-update base}; DownloadStatus::Failed never
// appears while faults are transient.
TEST_F(VerifiedDownloadTest, TwoHundredSeededFaultScenariosConvergeOrRollBack) {
  int successes = 0;
  int rollbacks = 0;
  for (int s = 0; s < 200; ++s) {
    Rng r(0xC0FFEEu + static_cast<std::uint64_t>(s));
    FaultProfile profile;
    switch (r.uniform(4)) {
      case 0:
        profile.word_flip = 0.02;
        break;
      case 1:
        profile.truncate = 0.8;
        break;
      case 2:
        profile.word_drop = 0.01;
        profile.word_dup = 0.01;
        break;
      default:
        profile.readback_failure = 0.4;
        profile.readback_flip = 0.0005;
        break;
    }
    if (r.uniform(3) == 0) profile.send_failure = 0.4;
    const int budget = static_cast<int>(r.uniform(5));  // 0..4 faults total
    profile.fault_budget = budget;

    DownloadPolicy policy;
    const bool squeezed = budget > 0 && r.uniform(2) == 0;
    if (squeezed) {
      // Not enough update attempts to outlast the budget: the remaining
      // budget is sized so the rollback still provably converges.
      policy.max_attempts = 1;
      policy.rollback_max_attempts = budget + 1;
    } else {
      policy.max_attempts = budget + 1;
      policy.rollback_max_attempts = budget + 1;
    }

    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    FaultyBoard faulty(board, profile, 1000u + static_cast<std::uint64_t>(s));
    VerifiedDownloader dl(faulty, *dev_, policy);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_partial(partial_);

    ASSERT_NE(rep.status, DownloadStatus::Failed)
        << "scenario " << s << ": " << rep.summary();
    const ConfigMemory& want =
        rep.ok() ? *target_plane_ : *base_plane_;
    ASSERT_EQ(board_plane(board), want)
        << "scenario " << s << " landed in a third state: " << rep.summary();
    rep.ok() ? ++successes : ++rollbacks;
  }
  // Both outcomes must actually be exercised by the campaign.
  EXPECT_GT(successes, 0);
  EXPECT_GT(rollbacks, 0);
}

// The same 200-scenario campaign through the streaming datapath: a
// scenario-seeded small burst bound, so streams span many bursts and
// faults land at burst granularity. The invariant is identical —
// streaming must not open a third state.
TEST_F(VerifiedDownloadTest, StreamingSweepTwoHundredScenariosConvergeOrRollBack) {
  int successes = 0;
  int rollbacks = 0;
  for (int s = 0; s < 200; ++s) {
    Rng r(0xC0FFEEu + static_cast<std::uint64_t>(s));
    FaultProfile profile;
    switch (r.uniform(4)) {
      case 0:
        profile.word_flip = 0.02;
        break;
      case 1:
        profile.truncate = 0.8;
        break;
      case 2:
        profile.word_drop = 0.01;
        profile.word_dup = 0.01;
        break;
      default:
        profile.readback_failure = 0.4;
        profile.readback_flip = 0.0005;
        break;
    }
    if (r.uniform(3) == 0) profile.send_failure = 0.4;
    const int budget = static_cast<int>(r.uniform(5));
    profile.fault_budget = budget;

    DownloadPolicy policy;
    const bool squeezed = budget > 0 && r.uniform(2) == 0;
    if (squeezed) {
      policy.max_attempts = 1;
      policy.rollback_max_attempts = budget + 1;
    } else {
      policy.max_attempts = budget + 1;
      policy.rollback_max_attempts = budget + 1;
    }

    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    FaultyBoard faulty(board, profile, 1000u + static_cast<std::uint64_t>(s));
    VerifiedDownloader dl(faulty, *dev_, policy);
    dl.assume_board_state(*base_plane_);

    const DownloadReport rep =
        dl.download_stream(partial_.words, 1 + r.uniform(48));

    ASSERT_NE(rep.status, DownloadStatus::Failed)
        << "scenario " << s << ": " << rep.summary();
    const ConfigMemory& want = rep.ok() ? *target_plane_ : *base_plane_;
    ASSERT_EQ(board_plane(board), want)
        << "scenario " << s << " landed in a third state: " << rep.summary();
    rep.ok() ? ++successes : ++rollbacks;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(rollbacks, 0);
}

TEST(FaultyBoardTest, DeterministicReplayAndBudget) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  const Bitstream bs = generate_full_bitstream(mem);

  FaultProfile profile;
  profile.word_flip = 0.01;
  profile.truncate = 0.3;
  profile.fault_budget = 3;

  auto run = [&](std::uint64_t seed) {
    SimBoard inner(dev);
    FaultyBoard board(inner, profile, seed);
    for (int i = 0; i < 4; ++i) {
      try {
        board.abort_config();
        board.send_config(bs.words);
      } catch (const JpgError&) {
      }
    }
    return board.fault_log();
  };
  EXPECT_EQ(run(42), run(42));       // same seed, same campaign
  EXPECT_NE(run(42), run(43));       // different seed, different faults
  EXPECT_LE(run(42).size(), 3u);     // budget caps total injections
}

TEST(FaultyBoardTest, CleanProfileIsTransparent) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  mem.frame(9).set(4, true);
  const Bitstream bs = generate_full_bitstream(mem);
  SimBoard inner(dev);
  FaultyBoard board(inner, FaultProfile{}, 5);
  board.send_config(bs.words);
  EXPECT_TRUE(board.config_done());
  EXPECT_EQ(board.faults_injected(), 0u);
  EXPECT_TRUE(std::ranges::equal(board.readback(9, 1), mem.frame(9).words()));
  EXPECT_NE(board.board_name().find("faulty"), std::string::npos);
}

// Jpg facade integration: a real module partial over a faulty link, end to
// end — generate, download_verified, then verify_via_readback agrees.
TEST(JpgDownloadVerified, ModuleUpdateOverFlakyLink) {
  const Device& dev = Device::get("XCV50");
  const Region region{0, 6, dev.rows() - 1, 9};
  Netlist top("dl_base");
  const auto merged = top.merge_module(netlib::make_nrz_encoder(), "u1");
  PartitionSpec spec;
  spec.name = "u1";
  spec.region = region;
  for (const auto& [port, net] : merged.inputs) {
    top.add_ibuf("ib_" + port, port, net);
    spec.input_ports.emplace_back(port, net);
  }
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
    spec.output_ports.emplace_back(port, net);
  }
  const BaseFlowResult base = run_base_flow(dev, top, {spec});
  ConfigMemory mem(dev);
  CBits cb(mem);
  base.design->apply(cb);
  const Bitstream base_bit = generate_full_bitstream(mem);

  const ModuleFlowResult mod = run_module_flow(dev, netlib::make_nrz_encoder(),
                                               base.interface_of("u1"));
  UcfData ucf;
  ucf.area_group_ranges["AG_u1"] = region;

  Jpg tool(base_bit);
  const auto update = tool.generate_partial_from_text(write_xdl(*mod.design),
                                                      write_ucf(ucf, dev));

  SimBoard board(dev);
  board.send_config(base_bit.words);
  FaultProfile profile;
  profile.word_flip = 0.01;
  profile.fault_budget = 2;
  FaultyBoard faulty(board, profile, 11);
  tool.connect(&faulty);

  DownloadPolicy policy;
  policy.max_attempts = 4;
  const DownloadReport rep = tool.download_verified(update, policy);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  // The budget is spent; the plain readback check agrees with the report.
  EXPECT_EQ(tool.verify_via_readback(update), 0u);
}

}  // namespace
}  // namespace jpg
