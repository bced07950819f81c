// Tests for the verified-download subsystem: FaultyBoard fault injection,
// VerifiedDownloader convergence/rollback semantics, capture-bit masking,
// and the Jpg facade integration. The centrepiece is a 200-scenario seeded
// fault campaign asserting the two-state invariant: after every download
// the board holds either the verified update or the pre-update plane —
// never anything in between.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <numeric>
#include <tuple>
#include <utility>

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

// ---------------------------------------------------------------------------
// The stretch compare (one std::equal per memory-contiguous stretch of the
// intended plane, per-frame only inside a stretch that differs) must report
// exactly what a frame-at-a-time compare reports. The reference here is
// built without the downloader: the intended plane is apply_frame_table
// onto a plane copy, capture minors come from their frame addresses and
// capture bits from the row windows.

/// Forwards to a SimBoard, records each stream the downloader sends (one
/// per ABORT) and runs `before_readback` once, before the first readback:
/// a stray write that lands after the send, where only readback sees it.
class RecordingBoard final : public Xhwif {
 public:
  explicit RecordingBoard(SimBoard& inner) : inner_(&inner) {}

  [[nodiscard]] std::string board_name() const override { return "recording"; }
  void send_config(std::span<const std::uint32_t> words) override {
    ASSERT_FALSE(streams.empty());
    streams.back().insert(streams.back().end(), words.begin(), words.end());
    inner_->send_config(words);
  }
  void abort_config() override {
    streams.emplace_back();
    inner_->abort_config();
  }
  [[nodiscard]] bool config_done() override { return inner_->config_done(); }
  [[nodiscard]] std::vector<std::uint32_t> readback(
      std::size_t first, std::size_t nframes) override {
    std::vector<std::uint32_t> out;
    readback_into(first, nframes, out);
    return out;
  }
  void readback_into(std::size_t first, std::size_t nframes,
                     std::vector<std::uint32_t>& out) override {
    if (before_readback) std::exchange(before_readback, nullptr)();
    inner_->readback_into(first, nframes, out);
  }
  void capture_state() override { inner_->capture_state(); }
  void step_clock(int cycles) override { inner_->step_clock(cycles); }
  void set_pin(int pad, bool value) override { inner_->set_pin(pad, value); }
  [[nodiscard]] bool get_pin(int pad) override { return inner_->get_pin(pad); }

  std::vector<std::vector<std::uint32_t>> streams;
  std::function<void()> before_readback;

 private:
  SimBoard* inner_;
};

/// One AttestFinding per frame of `frames` whose `got` words differ from
/// `want` outside the capture bits: the frame-at-a-time comparator.
std::vector<AttestFinding> per_frame_findings(
    const ConfigMemory& got, const ConfigMemory& want,
    const std::vector<std::size_t>& frames) {
  const FrameMap& fm = want.device().frames();
  std::vector<std::uint32_t> capture_mask(fm.frame_words(), ~0u);
  for (int r = 0; r < want.device().rows(); ++r) {
    for (std::size_t b = fm.row_bit_base(r); b < fm.row_bit_base(r) + 2; ++b) {
      capture_mask[b >> 5] &= ~(1u << (b & 31));
    }
  }
  std::vector<AttestFinding> out;
  for (const std::size_t f : frames) {
    const FrameAddress a = fm.address_of_index(f);
    const bool capture =
        a.block_type == 0 && (a.minor == 16 || a.minor == 17) &&
        fm.column_kind(static_cast<int>(a.major)) == ColumnKind::Clb;
    const std::span<const std::uint32_t> g = got.frame(f).words();
    const std::span<const std::uint32_t> w = want.frame(f).words();
    for (std::size_t k = 0; k < g.size(); ++k) {
      const std::uint32_t m = capture ? capture_mask[k] : ~0u;
      if (((g[k] ^ w[k]) & m) != 0) {
        out.push_back({f, fm.describe_frame(f), k, w[k] & m, g[k] & m});
        break;
      }
    }
  }
  return out;
}

std::vector<std::size_t> frames_of(const std::vector<AttestFinding>& found) {
  std::vector<std::size_t> out;
  for (const AttestFinding& x : found) out.push_back(x.frame);
  return out;
}

TEST(StretchCompareTest, VerifySweepAndAttestMatchAPerFrameReference) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t nf = fm.num_frames();
  const std::size_t fw = fm.frame_words();
  const std::size_t tail_bits = fm.frame_bits() % 32;
  ASSERT_NE(tail_bits, 0u);
  const std::uint32_t keep = (1u << tail_bits) - 1;
  std::vector<std::size_t> capture_frames;
  for (int m = 0; m < fm.num_majors(); ++m) {
    if (fm.column_kind(m) != ColumnKind::Clb) continue;
    capture_frames.push_back(fm.frame_index(m, 16));
    capture_frames.push_back(fm.frame_index(m, 17));
  }
  const auto random_plane = [&](Rng& rng) {
    std::vector<std::uint32_t> words(nf * fw);
    for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next());
    ConfigMemory plane(dev);
    plane.write_frames(0, words);
    return plane;
  };

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const ConfigMemory base = random_plane(rng);

    // Up to five runs; a later run often lands inside an earlier one, so
    // the view cuts it into stretches.
    BitstreamWriter w(dev);  // no CRC packet, so the words can be edited
    w.begin();
    w.write_cmd(Command::WCFG);
    std::size_t prev_first = 0, prev_count = 0;
    for (std::size_t k = 0, n = 1 + rng.uniform(5); k < n; ++k) {
      std::size_t first = rng.uniform(nf);
      if (prev_count > 0 && rng.chance(0.5)) {
        first = prev_first + rng.uniform(prev_count);
      }
      const std::size_t count = 1 + rng.uniform(std::min<std::size_t>(
                                        60, nf - first));
      w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(first)));
      w.write_frames(random_plane(rng), first, count);
      prev_first = first;
      prev_count = count;
    }
    w.write_cmd(Command::LFRM);
    Bitstream bs = w.finish();
    const FrameTable table = validate_stream(dev, bs.words);
    // Spill bits past the frame end in some runs: the view reads those
    // runs from trimmed copies.
    for (const FrameRun& run : table.runs) {
      if (!rng.chance(0.5)) continue;
      for (std::size_t k = 0; k < run.frame_count; ++k) {
        if (rng.chance(0.4)) {
          bs.words[run.word_offset + (k + 1) * fw - 1] |=
              ~keep & static_cast<std::uint32_t>(rng.next() | (1u << 31));
        }
      }
    }
    ASSERT_EQ(validate_stream(dev, bs.words), table);
    ConfigMemory intended = base;
    apply_frame_table(table, bs.words, intended);

    // Frames at the stretch ends and on either side of every seam.
    std::vector<std::size_t> edges;
    for (const FrameRun& run : table.runs) {
      const std::size_t last = run.first_frame + run.frame_count - 1;
      for (const std::size_t f : {run.first_frame, last}) {
        for (std::size_t g = f == 0 ? 0 : f - 1; g <= f + 1 && g < nf; ++g) {
          edges.push_back(g);
        }
      }
    }
    std::vector<bool> touched(nf, false);
    for (const std::size_t f : table.touched) touched[f] = true;

    SimBoard sim(dev);
    sim.send_config(generate_full_bitstream(base).words);
    // Corrupts `n` frames for which `pick(f)` holds, drawn from the stretch
    // edges, the capture minors (capture bits only) and the whole plane.
    const auto corrupt = [&](int n, const std::function<bool(std::size_t)>& pick) {
      for (int i = 0, tries = 0; i < n && tries < 200; ++tries) {
        const std::uint64_t kind = rng.uniform(3);
        const std::vector<std::size_t>& from =
            kind == 0 ? edges : kind == 1 ? capture_frames : table.touched;
        const std::size_t f =
            rng.chance(0.3) ? rng.uniform(nf) : from[rng.uniform(from.size())];
        if (!pick(f)) continue;
        ++i;
        if (kind == 1) {
          const std::size_t b =
              fm.row_bit_base(static_cast<int>(rng.uniform(dev.rows()))) +
              rng.uniform(2);
          sim.corrupt_frame_word(f, b >> 5, 1u << (b & 31));
          continue;
        }
        const std::size_t word = rng.uniform(fw);
        std::uint32_t mask = static_cast<std::uint32_t>(rng.next());
        if (word == fw - 1) mask &= keep;
        sim.corrupt_frame_word(f, word, mask == 0 ? 1u : mask);
      }
    };
    std::vector<std::size_t> all(nf);
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<std::size_t> untouched;
    for (std::size_t f = 0; f < nf; ++f) {
      if (!touched[f]) untouched.push_back(f);
    }

    // Verify, then sweep: strays outside the stream's frames are on the
    // board before the send, strays inside land after it. Each repair
    // stream rewrites exactly the frames its pass found.
    corrupt(static_cast<int>(rng.uniform(4)),
            [&](std::size_t f) { return !touched[f]; });
    RecordingBoard board(sim);
    std::vector<std::size_t> want_verify, want_sweep;
    board.before_readback = [&] {
      corrupt(static_cast<int>(rng.uniform(4)),
              [&](std::size_t f) { return touched[f]; });
      want_verify =
          frames_of(per_frame_findings(sim.config(), intended, table.touched));
      want_sweep =
          frames_of(per_frame_findings(sim.config(), intended, untouched));
    };
    VerifiedDownloader dl(board, dev);
    dl.assume_board_state(base);
    const DownloadReport rep = dl.download_validated(bs.words, table);
    ASSERT_TRUE(rep.ok()) << rep.summary();
    std::vector<std::vector<std::size_t>> want_repairs;
    for (const auto* list : {&want_verify, &want_sweep}) {
      if (!list->empty()) want_repairs.push_back(*list);
    }
    ASSERT_EQ(board.streams.size(), 1 + want_repairs.size());
    EXPECT_EQ(board.streams[0], bs.words);
    for (std::size_t i = 0; i < want_repairs.size(); ++i) {
      EXPECT_EQ(validate_stream(dev, board.streams[i + 1]).touched,
                want_repairs[i])
          << "repair stream " << i;
    }
    EXPECT_EQ(rep.frames_repaired, want_verify.size() + want_sweep.size());

    // Verify over ranges that cut through stretches, and attest over the
    // whole plane, against fresh strays on the converged board.
    corrupt(1 + static_cast<int>(rng.uniform(8)),
            [](std::size_t) { return true; });
    const TargetPlane view(base, table, bs.words);
    for (int i = 0; i < 6; ++i) {
      const std::size_t a = rng.uniform(nf);
      const std::size_t b = a + 1 + rng.uniform(nf - a);
      const std::vector<std::size_t> range(all.begin() + a, all.begin() + b);
      EXPECT_EQ(dl.mismatched_frames(view, range),
                frames_of(per_frame_findings(sim.config(), intended, range)))
          << "frames [" << a << ", " << b << ")";
    }
    EXPECT_EQ(dl.mismatched_frames(view, all),
              frames_of(per_frame_findings(sim.config(), intended, all)));
    const std::vector<AttestFinding> want =
        per_frame_findings(sim.config(), intended, all);
    const AttestReport audit = dl.attest(intended);
    ASSERT_EQ(audit.findings.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const AttestFinding& g = audit.findings[i];
      EXPECT_EQ(std::tie(g.frame, g.address, g.word, g.expected, g.got),
                std::tie(want[i].frame, want[i].address, want[i].word,
                         want[i].expected, want[i].got));
    }
  }
}

}  // namespace
}  // namespace jpg
