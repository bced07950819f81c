// Tests for readback attestation: reconstructing the expected configuration
// plane from base + applied pbits, frame-exact detection of Trojan-style
// stray words (inside and outside applied regions, and planted after a
// verified download), capture-bit masking during the audit, and the
// 200-scenario fault sweep asserting clean boards attest green.
#include <gtest/gtest.h>

#include <memory>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "cbits/cbits.h"
#include "core/partial_gen.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/verified_downloader.h"
#include "support/rng.h"

namespace jpg {
namespace {

class AttestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    base_plane_ = std::make_unique<ConfigMemory>(*dev_);
    {
      CBits cb(*base_plane_);
      for (int r = 0; r < dev_->rows(); ++r) {
        cb.set_lut(SliceSite{r, 0, 0}, LutSel::F, 0x8001);
      }
    }
    base_bit_ = generate_full_bitstream(*base_plane_);

    // One module pbit applied at a two-column region.
    region_ = Region{2, 6, 11, 7};
    gen_ = std::make_unique<PartialBitstreamGenerator>(*base_plane_);
    ConfigMemory mod(*dev_);
    {
      CBits cb(mod);
      for (int r = region_.r0; r <= region_.r1; ++r) {
        cb.set_lut(SliceSite{r, region_.c0, 0}, LutSel::F,
                   static_cast<std::uint16_t>(0xCAFE ^ r));
      }
    }
    pbit_ = gen_->generate(mod, region_).bitstream;
    expected_ = std::make_unique<ConfigMemory>(
        reconstruct_expected_plane(*base_plane_, std::span(&pbit_, 1)));
  }

  /// A board brought up with base + the applied pbit.
  SimBoard configured_board() const {
    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    board.send_config(pbit_.words);
    return board;
  }

  /// A frame the applied pbit writes / one no pbit ever touched.
  std::size_t frame_in_region() const {
    const FrameMap& fm = dev_->frames();
    return fm.frame_index(fm.major_of_clb_col(region_.c0), 5);
  }
  std::size_t frame_outside_regions() const {
    const FrameMap& fm = dev_->frames();
    return fm.frame_index(fm.major_of_clb_col(20), 0);
  }

  const Device* dev_ = nullptr;
  std::unique_ptr<ConfigMemory> base_plane_;
  std::unique_ptr<PartialBitstreamGenerator> gen_;
  std::unique_ptr<ConfigMemory> expected_;
  Bitstream base_bit_;
  Bitstream pbit_;
  Region region_;
};

TEST_F(AttestTest, CleanBoardAttestsGreen) {
  SimBoard board = configured_board();
  VerifiedDownloader dl(board, *dev_);
  const AttestReport rep = dl.attest(*expected_);
  EXPECT_TRUE(rep.attested) << rep.summary();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.frames_audited, dev_->frames().num_frames());
  EXPECT_EQ(rep.frames_unreadable, 0u);
  EXPECT_TRUE(rep.findings.empty());
  EXPECT_NE(rep.summary().find("clean"), std::string::npos);
}

TEST_F(AttestTest, ReconstructionReplaysAppliedPbitsInOrder) {
  // The reconstructed plane is exactly base |> pbit, not base alone.
  ConfigMemory replay(*base_plane_);
  {
    ConfigPort port(replay);
    port.load(pbit_);
  }
  EXPECT_EQ(*expected_, replay);
  const ConfigMemory base_only =
      reconstruct_expected_plane(*base_plane_, {});
  EXPECT_EQ(base_only, *base_plane_);
  EXPECT_FALSE(base_only == *expected_);
}

TEST_F(AttestTest, StrayInsideAppliedRegionIsFrameExact) {
  SimBoard board = configured_board();
  const std::size_t frame = frame_in_region();
  board.corrupt_frame_word(frame, 7, 0x10u);

  VerifiedDownloader dl(board, *dev_);
  const AttestReport rep = dl.attest(*expected_);
  EXPECT_FALSE(rep.attested);
  ASSERT_EQ(rep.findings.size(), 1u);
  const AttestFinding& f = rep.findings[0];
  EXPECT_EQ(f.frame, frame);
  EXPECT_EQ(f.word, 7u);
  EXPECT_EQ(f.expected ^ f.got, 0x10u);
  // The finding names the frame address, not just the linear index.
  EXPECT_EQ(f.address, dev_->frames().describe_frame(frame));
  EXPECT_NE(rep.summary().find("FAILED"), std::string::npos);
}

TEST_F(AttestTest, StrayOutsideEveryAppliedRegionIsAlsoFlagged) {
  // A Trojan-style payload far away from any slot the tool ever wrote —
  // exactly what download-level verification cannot see.
  SimBoard board = configured_board();
  const std::size_t frame = frame_outside_regions();
  board.corrupt_frame_word(frame, 2, 0x80000000u);

  VerifiedDownloader dl(board, *dev_);
  const AttestReport rep = dl.attest(*expected_);
  EXPECT_FALSE(rep.attested);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].frame, frame);
  EXPECT_EQ(rep.findings[0].expected ^ rep.findings[0].got, 0x80000000u);
}

TEST_F(AttestTest, OneFindingPerFrameAcrossMultipleStrays) {
  SimBoard board = configured_board();
  const std::size_t f1 = frame_in_region();
  const std::size_t f2 = frame_outside_regions();
  board.corrupt_frame_word(f1, 1, 0x1u);
  board.corrupt_frame_word(f1, 5, 0x2u);  // second hit in the same frame
  board.corrupt_frame_word(f2, 0, 0x4u);

  VerifiedDownloader dl(board, *dev_);
  const AttestReport rep = dl.attest(*expected_);
  EXPECT_FALSE(rep.attested);
  ASSERT_EQ(rep.findings.size(), 2u);  // one per mismatching frame
  EXPECT_EQ(rep.findings[0].frame, std::min(f1, f2));
  EXPECT_EQ(rep.findings[1].frame, std::max(f1, f2));
}

TEST_F(AttestTest, PostDownloadMutationIsCaughtAgainstTheMirror) {
  SimBoard board(*dev_);
  VerifiedDownloader dl(board, *dev_);
  ASSERT_TRUE(dl.download_full(base_bit_).ok());
  ASSERT_TRUE(dl.download_partial(pbit_).ok());
  // Immediately after the verified download the device attests clean
  // against the downloader's own mirror...
  EXPECT_TRUE(dl.attest().attested);
  // ...then the configuration mutates behind the tool's back (SEU, Trojan,
  // rogue DMA — anything that bypasses the download path).
  const std::size_t frame = frame_in_region();
  board.corrupt_frame_word(frame, 3, 0x00010000u);
  const AttestReport rep = dl.attest();
  EXPECT_FALSE(rep.attested);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].frame, frame);
}

TEST_F(AttestTest, CaptureBitsAreMaskedDuringTheAudit) {
  // Locate the exact bit a captured FF occupies by diffing a probe plane.
  ConfigMemory probe(*expected_);
  {
    CBits cb(probe);
    cb.set_captured_ff(SliceSite{region_.r0, region_.c0, 0}, 0, true);
  }
  const FrameMap& fm = dev_->frames();
  const std::size_t fw = fm.frame_words();
  std::size_t cap_frame = 0, cap_word = 0;
  std::uint32_t cap_mask = 0;
  for (std::size_t f = 0; f < fm.num_frames() && cap_mask == 0; ++f) {
    const std::span<const std::uint32_t> was = expected_->frame(f).words();
    const std::span<const std::uint32_t> now = probe.frame(f).words();
    for (std::size_t w = 0; w < fw; ++w) {
      if (was[w] != now[w]) {
        cap_frame = f;
        cap_word = w;
        cap_mask = was[w] ^ now[w];
        break;
      }
    }
  }
  ASSERT_NE(cap_mask, 0u) << "captured FF did not change any plane bit";

  // A live board's capture bits drift with the running design; the audit
  // must not flag them...
  SimBoard board = configured_board();
  board.corrupt_frame_word(cap_frame, cap_word, cap_mask);
  VerifiedDownloader dl(board, *dev_);
  EXPECT_TRUE(dl.attest(*expected_).attested);

  // ...while a configuration bit of the same frame still counts: one
  // finding, at that frame and word. Row 0's two capture bits lead its
  // window, so the bit after them is configuration.
  const std::size_t bit = fm.row_bit_base(0) + 2;
  board.corrupt_frame_word(cap_frame, bit >> 5, 1u << (bit & 31));
  const AttestReport rep = dl.attest(*expected_);
  EXPECT_FALSE(rep.attested);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].frame, cap_frame);
  EXPECT_EQ(rep.findings[0].word, bit >> 5);
}

TEST_F(AttestTest, UnreadableFramesBlockAttestation) {
  SimBoard board = configured_board();
  FaultProfile profile;
  profile.readback_failure = 1.0;  // unlimited budget: every readback fails
  FaultyBoard faulty(board, profile, 3);
  VerifiedDownloader dl(faulty, *dev_);
  const AttestReport rep = dl.attest(*expected_);
  EXPECT_FALSE(rep.attested);
  EXPECT_GT(rep.frames_unreadable, 0u);
  EXPECT_NE(rep.summary().find("unreadable"), std::string::npos);
}

// The satellite's headline sweep: 200 seeded fault scenarios drive the
// verified downloader over a faulty link; whenever the download reports
// Success, the board — audited over a clean link — must attest green
// against base + update, and after a rollback against the base alone. The
// attestation layer must never flag a board the downloader left in a
// verified state (no false positives), across every fault class.
TEST_F(AttestTest, TwoHundredScenarioFaultSweepAttestsClean) {
  const ConfigMemory base_only =
      reconstruct_expected_plane(*base_plane_, {});
  int successes = 0;
  int rollbacks = 0;
  for (int s = 0; s < 200; ++s) {
    Rng r(0xA77E57u + static_cast<std::uint64_t>(s));
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
    if (budget > 0 && r.uniform(2) == 0) {
      policy.max_attempts = 1;
      policy.rollback_max_attempts = budget + 1;
    } else {
      policy.max_attempts = budget + 1;
      policy.rollback_max_attempts = budget + 1;
    }

    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    FaultyBoard faulty(board, profile, 7000u + static_cast<std::uint64_t>(s));
    VerifiedDownloader dl(faulty, *dev_, policy);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_partial(pbit_);
    ASSERT_NE(rep.status, DownloadStatus::Failed)
        << "scenario " << s << ": " << rep.summary();

    VerifiedDownloader auditor(board, *dev_);
    const AttestReport audit =
        auditor.attest(rep.ok() ? *expected_ : base_only);
    EXPECT_TRUE(audit.attested)
        << "scenario " << s << " (" << (rep.ok() ? "success" : "rollback")
        << "): " << audit.summary();
    rep.ok() ? ++successes : ++rollbacks;
  }
  // The campaign must exercise both verified end states.
  EXPECT_GT(successes, 0);
  EXPECT_GT(rollbacks, 0);
}

}  // namespace
}  // namespace jpg
