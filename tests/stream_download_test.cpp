// Burst-boundary torture tests for the streaming configuration datapath:
// burst-cut invariants of one span (every burst a bounded subspan, in
// order), byte-identical planes across burst sizes, ABORT with
// the port mid-burst, word flips landing exactly on burst seams, tool-side
// rejection of a stream malformed anywhere (or cut off inside a packet)
// with no board traffic at all, the board receiving exactly the stream's
// bursts, frame-table downloads matching the whole-stream replay (clean and
// faulty links), and the fdri-buffer reuse contract (cfg.buffer_reallocs
// stays 0 after warm-up).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "bitstream/frame_table.h"
#include "core/jpg.h"
#include "core/relocate.h"
#include "hwif/burst_engine.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/verified_downloader.h"
#include "service/load_harness.h"
#include "support/rng.h"
#include "support/telemetry/telemetry.h"

namespace jpg {
namespace {

/// Records every send_config burst and counts ABORTs, forwarding both to
/// `inner` when there is one (a null inner is a sink that reads back
/// nothing).
class RecordingBoard final : public Xhwif {
 public:
  explicit RecordingBoard(Xhwif* inner = nullptr) : inner_(inner) {}
  [[nodiscard]] std::string board_name() const override {
    return inner_ != nullptr ? "recording(" + inner_->board_name() + ")"
                             : "recording";
  }
  void send_config(std::span<const std::uint32_t> words) override {
    sends_.emplace_back(words.begin(), words.end());
    send_data_.push_back(words.data());
    if (inner_ != nullptr) inner_->send_config(words);
  }
  void abort_config() override {
    ++aborts_;
    if (inner_ != nullptr) inner_->abort_config();
  }
  [[nodiscard]] bool config_done() override {
    return inner_ != nullptr && inner_->config_done();
  }
  [[nodiscard]] std::vector<std::uint32_t> readback(
      std::size_t first, std::size_t nframes) override {
    return inner_ != nullptr ? inner_->readback(first, nframes)
                             : std::vector<std::uint32_t>{};
  }
  void capture_state() override {
    if (inner_ != nullptr) inner_->capture_state();
  }
  void step_clock(int cycles) override {
    if (inner_ != nullptr) inner_->step_clock(cycles);
  }
  void set_pin(int pad, bool value) override {
    if (inner_ != nullptr) inner_->set_pin(pad, value);
  }
  [[nodiscard]] bool get_pin(int pad) override {
    return inner_ != nullptr && inner_->get_pin(pad);
  }
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& sends() const {
    return sends_;
  }
  /// Where each burst's words lay when it was sent (compared, never read).
  [[nodiscard]] const std::vector<const std::uint32_t*>& send_data() const {
    return send_data_;
  }
  [[nodiscard]] int aborts() const { return aborts_; }

 private:
  Xhwif* inner_;
  std::vector<std::vector<std::uint32_t>> sends_;
  std::vector<const std::uint32_t*> send_data_;
  int aborts_ = 0;
};

/// `words` cut into bursts of at most `burst` words, copied.
std::vector<std::vector<std::uint32_t>> bursts_of(
    std::span<const std::uint32_t> words, std::size_t burst) {
  std::vector<std::vector<std::uint32_t>> out;
  for (std::size_t off = 0; off < words.size(); off += burst) {
    const auto b = words.subspan(off, std::min(burst, words.size() - off));
    out.emplace_back(b.begin(), b.end());
  }
  return out;
}

// The burst engine's tallies: every word goes out once, in
// ceil(words / bound) bursts, and an empty stream sends nothing.
TEST(StreamSourceTest, TracksSegmentsAndTotal) {
  const std::vector<std::uint32_t> words{1, 2, 3, 4, 5};
  for (const std::size_t burst : {1u, 2u, 5u, 64u}) {
    RecordingBoard sink;
    const BurstStats stats = stream_to_board(sink, words, burst);
    EXPECT_EQ(stats.words, words.size()) << "burst=" << burst;
    EXPECT_EQ(stats.bursts, (words.size() + burst - 1) / burst)
        << "burst=" << burst;
    EXPECT_EQ(sink.sends().size(), stats.bursts) << "burst=" << burst;
  }
  RecordingBoard sink;
  const BurstStats none = stream_to_board(sink, {}, 16);
  EXPECT_EQ(none.words, 0u);
  EXPECT_EQ(none.bursts, 0u);
  EXPECT_TRUE(sink.sends().empty());
}

// Every burst is a subspan of the caller's one span, at most the bound
// long, starting where the previous one ended; only the last is short.
// Concatenated, the bursts are the stream.
TEST(BurstCursorTest, BurstsNeverCrossSegmentBoundaries) {
  std::vector<std::uint32_t> words(13);
  std::iota(words.begin(), words.end(), 100);
  for (const std::size_t burst_words : {1u, 2u, 3u, 4u, 5u, 7u, 13u, 64u}) {
    RecordingBoard sink;
    (void)stream_to_board(sink, words, burst_words);
    const std::uint32_t* next = words.data();
    std::vector<std::uint32_t> cat;
    for (std::size_t i = 0; i < sink.sends().size(); ++i) {
      const std::vector<std::uint32_t>& burst = sink.sends()[i];
      // Zero-copy: the burst points into the caller's words, in order.
      EXPECT_EQ(sink.send_data()[i], next) << "burst_words=" << burst_words;
      next += burst.size();
      if (i + 1 < sink.sends().size()) {
        EXPECT_EQ(burst.size(), burst_words);
      } else {
        EXPECT_GE(burst.size(), 1u);
        EXPECT_LE(burst.size(), burst_words);
      }
      cat.insert(cat.end(), burst.begin(), burst.end());
    }
    EXPECT_EQ(next, words.data() + words.size());
    EXPECT_EQ(cat, words);
    EXPECT_EQ(sink.sends(), bursts_of(words, burst_words));
  }
}

TEST(BurstCursorTest, RejectsZeroBurstAndExhaustsEmptySource) {
  const std::vector<std::uint32_t> words{1, 2, 3};
  RecordingBoard sink;
  EXPECT_THROW((void)stream_to_board(sink, words, 0), JpgError);
  EXPECT_TRUE(sink.sends().empty());
  EXPECT_EQ(stream_to_board(sink, {}, 16).bursts, 0u);
  EXPECT_TRUE(sink.sends().empty());
}

class StreamDownloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    const FrameMap& fm = dev_->frames();
    const std::size_t fw = fm.frame_words();

    base_plane_ = std::make_unique<ConfigMemory>(*dev_);
    for (std::size_t f = 0; f < fm.num_frames(); f += 3) {
      for (std::size_t w = 0; w < fw; w += 2) {
        base_plane_->frame(f).set_word(
            w, 0x3C000000u ^ (static_cast<std::uint32_t>(f) << 8) ^
                   static_cast<std::uint32_t>(w));
      }
    }
    base_bit_ = generate_full_bitstream(*base_plane_);

    first_ = fm.frame_index(4, 1);
    target_plane_ = std::make_unique<ConfigMemory>(*base_plane_);
    for (std::size_t f = 0; f < kUpdateFrames; ++f) {
      for (std::size_t w = 0; w < fw; ++w) {
        target_plane_->frame(first_ + f).set_word(
            w, 0x2B000000u ^ (static_cast<std::uint32_t>(f) << 16) ^
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

  ConfigMemory board_plane(SimBoard& board) const {
    const FrameMap& fm = dev_->frames();
    ConfigMemory got(*dev_);
    got.write_frames(0, board.readback(0, fm.num_frames()));
    return got;
  }

  /// A partial rewriting `count` frames from `first` with a pattern keyed
  /// by `salt` (distinct salts give distinct frame contents).
  Bitstream make_partial(std::size_t first, std::size_t count,
                         std::uint32_t salt) const {
    const std::size_t fw = dev_->frames().frame_words();
    ConfigMemory plane(*base_plane_);
    for (std::size_t f = 0; f < count; ++f) {
      for (std::size_t w = 0; w < fw; ++w) {
        plane.frame(first + f).set_word(
            w, (salt << 20) ^ (static_cast<std::uint32_t>(f) << 12) ^
                   static_cast<std::uint32_t>(w));
      }
    }
    BitstreamWriter w(*dev_);
    w.begin();
    w.write_cmd(Command::RCRC);
    w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
    w.write_reg(ConfigReg::IDCODE, dev_->spec().idcode);
    w.write_cmd(Command::WCFG);
    w.write_reg(ConfigReg::FAR,
                dev_->frames().encode_far(dev_->frames().address_of_index(first)));
    w.write_frames(plane, first, count);
    w.write_crc();
    w.write_cmd(Command::LFRM);
    return w.finish();
  }

  static constexpr std::size_t kUpdateFrames = 4;

  const Device* dev_ = nullptr;
  std::unique_ptr<ConfigMemory> base_plane_;
  std::unique_ptr<ConfigMemory> target_plane_;
  Bitstream base_bit_;
  Bitstream partial_;
  std::size_t first_ = 0;
};

TEST_F(StreamDownloadTest, RawBurstDownloadMatchesWholeSend) {
  // Reference: the classic whole-buffer send.
  SimBoard whole(*dev_);
  whole.send_config(base_bit_.words);
  whole.send_config(partial_.words);

  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{512},
        std::size_t{1u << 20}}) {
    SimBoard board(*dev_);
    const BurstStats base_stats = stream_to_board(board, base_bit_.words, burst);
    EXPECT_EQ(base_stats.words, base_bit_.words.size());
    const BurstStats stats = stream_to_board(board, partial_.words, burst);
    EXPECT_EQ(stats.words, partial_.words.size());
    EXPECT_EQ(stats.bursts, (partial_.words.size() + burst - 1) / burst);
    EXPECT_EQ(board_plane(board), board_plane(whole))
        << "burst=" << burst << " diverged from the whole-buffer send";
  }
}

TEST_F(StreamDownloadTest, VerifiedStreamSucceedsAcrossBurstSizes) {
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{512}}) {
    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    VerifiedDownloader dl(board, *dev_);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_stream(partial_.words, burst);
    EXPECT_TRUE(rep.ok()) << "burst=" << burst << ": " << rep.summary();
    EXPECT_EQ(rep.attempts, 1);
    EXPECT_EQ(rep.frames_touched, kUpdateFrames);
    EXPECT_EQ(rep.faults_seen, 0u);
    EXPECT_EQ(board_plane(board), *target_plane_);
    EXPECT_EQ(dl.mirror(), *target_plane_);
  }
}

TEST_F(StreamDownloadTest, EmptySourceVerifiesTheMirrorAndSucceeds) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep = dl.download_stream({});
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.attempts, 0);
  EXPECT_EQ(rep.frames_touched, 0u);
  EXPECT_EQ(board_plane(board), *base_plane_);
}

TEST_F(StreamDownloadTest, MalformedHeadIsRejectedNothingSent) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  const std::uint64_t words_before = board.config_words();
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  Bitstream bad = partial_;
  bad.words[10] ^= 0x40u;  // CRC-covered register write corrupted
  // Default burst (512) covers the whole stream: the head replay fails
  // before anything is sent.
  const DownloadReport rep = dl.download_stream(bad.words);
  EXPECT_EQ(rep.status, DownloadStatus::Rejected);
  EXPECT_EQ(rep.attempts, 0);
  EXPECT_NE(rep.error.find("nothing sent"), std::string::npos) << rep.error;
  EXPECT_EQ(board.config_words(), words_before);
  EXPECT_EQ(board_plane(board), *base_plane_);
}

TEST_F(StreamDownloadTest, MidStreamMalformationRollsBack) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  const std::uint64_t words_before = board.config_words();
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  Bitstream bad = partial_;
  // Corrupt the stream's tail (the CRC region): with an 8-word burst the
  // head bursts would validate on their own, but the whole stream is
  // checked before the first one goes out.
  bad.words[bad.words.size() - 4] ^= 1u;
  const DownloadReport rep = dl.download_stream(bad.words, 8);
  EXPECT_EQ(rep.status, DownloadStatus::Rejected) << rep.summary();
  EXPECT_NE(rep.error.find("nothing sent"), std::string::npos) << rep.error;
  EXPECT_EQ(rep.attempts, 0);
  EXPECT_EQ(board.config_words(), words_before);
  // Two-state invariant: the board never left the pre-update plane.
  EXPECT_EQ(board_plane(board), *base_plane_);
  EXPECT_EQ(dl.mirror(), *base_plane_);
}

// A stream cut off inside a packet is malformed even though every word it
// carries replays cleanly: the whole-stream check rejects it before any
// traffic, at every burst size.
TEST_F(StreamDownloadTest, TruncatedStreamIsRejectedNothingSent) {
  const std::span<const std::uint32_t> half =
      std::span<const std::uint32_t>(partial_.words)
          .first(partial_.words.size() / 2);
  {
    ConfigMemory scratch(*dev_);
    ConfigPort port(scratch);
    port.load(half);
    ASSERT_THROW(port.finish(), BitstreamError);  // the cut is mid-packet
  }
  for (const std::size_t burst : {std::size_t{8}, std::size_t{512}, half.size()}) {
    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    const std::uint64_t words_before = board.config_words();
    VerifiedDownloader dl(board, *dev_);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_stream(half, burst);
    EXPECT_EQ(rep.status, DownloadStatus::Rejected)
        << "burst=" << burst << ": " << rep.summary();
    EXPECT_NE(rep.error.find("nothing sent"), std::string::npos)
        << "burst=" << burst << ": " << rep.error;
    EXPECT_EQ(rep.attempts, 0) << "burst=" << burst;
    EXPECT_EQ(board.config_words(), words_before) << "burst=" << burst;
    EXPECT_EQ(dl.mirror(), *base_plane_) << "burst=" << burst;
  }
}

// The board receives a valid stream as exactly its bursts after one ABORT,
// and nothing at all of a stream malformed anywhere: not the bursts before
// the one a fresh port rejects, and nothing once the head itself is
// malformed.
TEST_F(StreamDownloadTest, BoardReceivesExactlyTheValidatedPrefix) {
  constexpr std::size_t kBurst = 8;
  {
    const auto want = bursts_of(partial_.words, kBurst);
    ASSERT_GT(want.size(), 1u);

    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    RecordingBoard rec(&board);
    VerifiedDownloader dl(rec, *dev_);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_stream(partial_.words, kBurst);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rec.aborts(), 1);
    EXPECT_EQ(rec.sends(), want);
  }
  // Replays the bursts through a fresh port over the base plane; returns
  // the bursts before the first rejected one.
  const auto validated_prefix = [&](std::span<const std::uint32_t> words,
                                    bool& rejected) {
    ConfigMemory plane(*base_plane_);
    ConfigPort port(plane);
    std::vector<std::vector<std::uint32_t>> prefix;
    rejected = false;
    for (const auto& burst : bursts_of(words, kBurst)) {
      try {
        port.load(burst);
      } catch (const JpgError&) {
        rejected = true;
        break;
      }
      prefix.push_back(burst);
    }
    return prefix;
  };

  {
    Bitstream bad = partial_;
    bad.words[bad.words.size() - 4] ^= 1u;  // the CRC word: tail-corrupted
    bool rejected = false;
    const auto want = validated_prefix(bad.words, rejected);
    ASSERT_TRUE(rejected);
    ASSERT_FALSE(want.empty());  // some bursts would validate on their own

    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    RecordingBoard rec(&board);
    VerifiedDownloader dl(rec, *dev_);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_stream(bad.words, kBurst);
    EXPECT_EQ(rep.status, DownloadStatus::Rejected) << rep.summary();
    EXPECT_NE(rep.error.find("nothing sent"), std::string::npos) << rep.error;
    EXPECT_TRUE(rec.sends().empty());
    EXPECT_EQ(rec.aborts(), 0);
    EXPECT_EQ(rep.telemetry.counter("words_sent"), 0u);
  }
  {
    Bitstream bad = partial_;
    bad.words[7] ^= 0x40u;  // the IDCODE value, inside burst 0
    bool rejected = false;
    ASSERT_TRUE(validated_prefix(bad.words, rejected).empty());
    ASSERT_TRUE(rejected);

    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    RecordingBoard rec(&board);
    VerifiedDownloader dl(rec, *dev_);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep = dl.download_stream(bad.words, kBurst);
    EXPECT_EQ(rep.status, DownloadStatus::Rejected) << rep.summary();
    EXPECT_NE(rep.error.find("nothing sent"), std::string::npos) << rep.error;
    EXPECT_TRUE(rec.sends().empty());
    EXPECT_EQ(rec.aborts(), 0);
    EXPECT_EQ(rep.telemetry.counter("words_sent"), 0u);
  }
}

TEST_F(StreamDownloadTest, AbortUnsticksAPortLeftMidBurst) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  // Strand the port mid-FDRI-payload: a prefix cut inside the frame data.
  board.send_config(
      std::span<const std::uint32_t>(partial_.words).first(40));
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep =
      dl.download_stream(partial_.words, 16);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(board_plane(board), *target_plane_);
}

/// Flips one bit of the first word of send_config call `nth` (0-based) —
/// a deterministic fault landing exactly on a burst seam.
class SeamFlipBoard final : public Xhwif {
 public:
  SeamFlipBoard(Xhwif& inner, int nth) : inner_(&inner), nth_(nth) {}
  [[nodiscard]] std::string board_name() const override {
    return "seamflip(" + inner_->board_name() + ")";
  }
  void send_config(std::span<const std::uint32_t> words) override {
    if (calls_++ == nth_ && !words.empty()) {
      std::vector<std::uint32_t> copy(words.begin(), words.end());
      copy[0] ^= 1u << 3;
      ++flips_;
      inner_->send_config(copy);
      return;
    }
    inner_->send_config(words);
  }
  void abort_config() override { inner_->abort_config(); }
  [[nodiscard]] bool config_done() override { return inner_->config_done(); }
  [[nodiscard]] std::vector<std::uint32_t> readback(
      std::size_t first, std::size_t nframes) override {
    return inner_->readback(first, nframes);
  }
  void capture_state() override { inner_->capture_state(); }
  void step_clock(int cycles) override { inner_->step_clock(cycles); }
  void set_pin(int pad, bool value) override { inner_->set_pin(pad, value); }
  [[nodiscard]] bool get_pin(int pad) override { return inner_->get_pin(pad); }
  [[nodiscard]] int flips() const { return flips_; }

 private:
  Xhwif* inner_;
  int nth_;
  int calls_ = 0;
  int flips_ = 0;
};

TEST_F(StreamDownloadTest, WordFlipOnBurstSeamIsRepaired) {
  // Flip the first word of the 4th burst of the update stream (call 0 is
  // the base download in this setup? no — the base goes over the SimBoard
  // directly, so call 3 is the 4th burst of the streamed update).
  for (const int nth : {0, 1, 3}) {
    SimBoard board(*dev_);
    board.send_config(base_bit_.words);
    SeamFlipBoard seam(board, nth);
    DownloadPolicy policy;
    policy.max_attempts = 3;
    VerifiedDownloader dl(seam, *dev_, policy);
    dl.assume_board_state(*base_plane_);
    const DownloadReport rep =
        dl.download_stream(partial_.words, 16);
    EXPECT_TRUE(rep.ok()) << "nth=" << nth << ": " << rep.summary();
    EXPECT_EQ(seam.flips(), 1) << "nth=" << nth;
    EXPECT_EQ(board_plane(board), *target_plane_) << "nth=" << nth;
  }
}

TEST_F(StreamDownloadTest, FaultyLinkStreamingConvergesWithRepairBudget) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  FaultProfile profile;
  profile.word_flip = 1.0;
  profile.fault_budget = 1;
  FaultyBoard faulty(board, profile, 77);
  DownloadPolicy policy;
  policy.max_attempts = 3;
  VerifiedDownloader dl(faulty, *dev_, policy);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep =
      dl.download_stream(partial_.words, 32);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(faulty.faults_injected(), 1u);
  EXPECT_EQ(board_plane(board), *target_plane_);
}

// The very first burst's send throws: the remaining bursts are not sent,
// but the whole stream was replayed before the send, so readback verifies
// against the complete intended plane and the repair lands it.
TEST_F(StreamDownloadTest, StreamedSendFaultIsRepaired) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  FaultProfile profile;
  profile.send_failure = 1.0;  // first send_config throws...
  profile.fault_budget = 1;    // ...then the link is clean (for the repair)
  FaultyBoard faulty(board, profile, 19);
  VerifiedDownloader dl(faulty, *dev_, DownloadPolicy{});
  dl.assume_board_state(*base_plane_);
  // Many bursts, all skipped after the fault.
  const DownloadReport rep =
      dl.download_stream(partial_.words, 16);
  // Nothing reached the board in the streamed phase; the repair stream
  // rewrites every touched frame over the now-clean link.
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GE(rep.faults_seen, 1u);
  // The replay covered the whole stream: every frame of the update was
  // touched.
  EXPECT_EQ(rep.frames_touched, kUpdateFrames);
  EXPECT_EQ(board_plane(board), *target_plane_);
}

TEST_F(StreamDownloadTest, JpgFacadeStreamsALeasedPbit) {
  Jpg tool(base_bit_);
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);

  // Build a module plane for a region and lease its cached pbit; the
  // streamed words are the cache's own (zero-copy).
  const Region region{0, 6, dev_->rows() - 1, 7};
  ConfigMemory module(*dev_);
  const FrameMap& fm = dev_->frames();
  for (const int major : region.clb_majors(*dev_)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      for (std::size_t w = 0; w < fm.frame_words(); ++w) {
        module.frame(idx).set_word(
            w, 0x0D000000u ^ static_cast<std::uint32_t>(idx * 31 + w));
      }
    }
  }
  const PbitLease lease = tool.generator().generate_leased(module, region);
  ASSERT_TRUE(lease.valid());
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(tool.base_config());
  const DownloadReport rep = dl.download_stream(lease.words());
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(tool.generator().cache_stats().pinned, 1u);

  // The fire-and-forget path lands the same plane.
  SimBoard board2(*dev_);
  board2.send_config(base_bit_.words);
  stream_to_board(board2, lease.words());
  EXPECT_EQ(board_plane(board), board_plane(board2));
}

/// Forwards to whichever link is selected: the bare board (a clean link)
/// or a FaultyBoard decorating it. Lets one downloader meet a different
/// fault profile on every download.
class LinkSwitch final : public Xhwif {
 public:
  explicit LinkSwitch(Xhwif& link) : link_(&link) {}
  void select(Xhwif& link) { link_ = &link; }
  [[nodiscard]] std::string board_name() const override {
    return "switch(" + link_->board_name() + ")";
  }
  void send_config(std::span<const std::uint32_t> words) override {
    link_->send_config(words);
  }
  void abort_config() override { link_->abort_config(); }
  [[nodiscard]] bool config_done() override { return link_->config_done(); }
  [[nodiscard]] std::vector<std::uint32_t> readback(
      std::size_t first, std::size_t nframes) override {
    return link_->readback(first, nframes);
  }
  void readback_into(std::size_t first, std::size_t nframes,
                     std::vector<std::uint32_t>& out) override {
    link_->readback_into(first, nframes, out);
  }
  void capture_state() override { link_->capture_state(); }
  void step_clock(int cycles) override { link_->step_clock(cycles); }
  void set_pin(int pad, bool value) override { link_->set_pin(pad, value); }
  [[nodiscard]] bool get_pin(int pad) override { return link_->get_pin(pad); }

 private:
  Xhwif* link_;
};

// A download writes the mirror only on Success, and only the frames its
// table names, so no exit may leave state behind that the next download
// reads. A seeded sequence mixes five cases (two tool-side rejects,
// success, rollback, failure); after each one, a clean download must
// behave exactly as on a fresh downloader seeded with the same mirror over
// an identical board. State left stale by the previous exit would show up
// here as a different intended plane: extra repairs, a different mirror
// or plane.
TEST_F(StreamDownloadTest, ShadowPlaneStaysCoherentAcrossEveryOutcome) {
  const FrameMap& fm = dev_->frames();
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  LinkSwitch link(board);
  DownloadPolicy policy;
  policy.max_attempts = 2;
  policy.rollback_max_attempts = 4;
  VerifiedDownloader dl(link, *dev_, policy);
  dl.assume_board_state(*base_plane_);

  enum Kind { kSuccess, kRolledBack, kHeadReject, kMidStream, kFailed };
  std::array<int, 5> seen{};
  Rng rng(0x5AD0u);
  std::uint32_t salt = 1;
  // Overlapping frame ranges, so a stale frame from one step is visible to
  // the next.
  const auto random_partial = [&] {
    const std::size_t first = fm.frame_index(3 + static_cast<int>(rng.uniform(2)),
                                             static_cast<int>(rng.uniform(8)));
    return make_partial(first, 2 + rng.uniform(5), salt++);
  };
  for (int step = 0; step < 40; ++step) {
    const Bitstream pbit = random_partial();
    Bitstream bad = pbit;
    bad.words[bad.words.size() - 4] ^= 1u;  // CRC word: frames replay first
    const auto kind = static_cast<Kind>(rng.uniform(5));
    FaultProfile profile;
    if (kind == kRolledBack) {
      profile.send_failure = 1.0;  // both update sends fail, rollback lands
      profile.fault_budget = 2;
    } else if (kind == kFailed) {
      profile.readback_failure = 1.0;  // nothing ever verifies
    }
    FaultyBoard faulty(board, profile, 7000u + static_cast<std::uint64_t>(step));
    link.select(faulty);
    DownloadReport rep;
    switch (kind) {
      case kHeadReject:
        rep = dl.download_stream(bad.words, bad.words.size());
        ASSERT_EQ(rep.status, DownloadStatus::Rejected) << rep.summary();
        ASSERT_NE(rep.error.find("nothing sent"), std::string::npos);
        break;
      case kMidStream:
        rep = dl.download_stream(bad.words, 8);
        ASSERT_EQ(rep.status, DownloadStatus::Rejected) << rep.summary();
        ASSERT_NE(rep.error.find("nothing sent"), std::string::npos);
        break;
      case kSuccess:
        ASSERT_TRUE(dl.download_partial(pbit).ok());
        break;
      case kRolledBack:
        rep = dl.download_partial(pbit);
        ASSERT_EQ(rep.status, DownloadStatus::RolledBack) << rep.summary();
        break;
      case kFailed:
        rep = dl.download_partial(pbit);
        ASSERT_EQ(rep.status, DownloadStatus::Failed) << rep.summary();
        break;
    }
    link.select(board);
    ++seen[kind];

    SimBoard twin(*dev_);
    twin.send_config(generate_full_bitstream(board_plane(board)).words);
    VerifiedDownloader fresh(twin, *dev_, policy);
    fresh.assume_board_state(dl.mirror());
    const Bitstream next = random_partial();
    const DownloadReport a = dl.download_partial(next);
    const DownloadReport b = fresh.download_partial(next);
    ASSERT_TRUE(a.ok()) << "step " << step << ": " << a.summary();
    ASSERT_EQ(a.summary(), b.summary()) << "step " << step;
    ASSERT_EQ(dl.mirror(), fresh.mirror()) << "step " << step;
    ASSERT_EQ(board_plane(board), board_plane(twin)) << "step " << step;
  }
  for (const int n : seen) EXPECT_GT(n, 0);
}

/// The pbits of the table-versus-replay tests on XCV300, each with the
/// frame table its publish-time replay records: the six
/// make_load_fixture(XCV300, 1, 2, 6) variants (variant v at slot v % 2),
/// one relocated, one diff-only and one without CRC.
struct TableCorpus {
  const Device* dev = nullptr;
  LoadFixture fx;
  Bitstream base_bit;
  std::vector<Bitstream> pbits;
  std::vector<FrameTable> tables;
};

TableCorpus make_table_corpus() {
  const Device& dev = Device::get("XCV300");
  TableCorpus c{&dev, make_load_fixture(dev, 1, 2, 6), {}, {}, {}};
  c.base_bit = generate_full_bitstream(c.fx.base);
  const PartialBitstreamGenerator gen(c.fx.base);
  for (std::size_t v = 0; v < c.fx.variants.size(); ++v) {
    c.pbits.push_back(
        gen.generate(c.fx.variants[v], c.fx.slots[v % 2]).bitstream);
  }
  RelocOptions reloc;
  reloc.require_containment = false;
  c.pbits.push_back(PbitRelocator(gen)
                        .relocate(c.pbits[0], c.fx.slots[0], c.fx.slots[1],
                                  reloc)
                        .bitstream);
  PartialGenOptions diff;
  diff.diff_only = true;
  c.pbits.push_back(gen.generate(c.fx.variants[1], c.fx.slots[0], diff).bitstream);
  PartialGenOptions nocrc;
  nocrc.include_crc = false;
  c.pbits.push_back(
      gen.generate(c.fx.variants[2], c.fx.slots[1], nocrc).bitstream);
  for (const Bitstream& pbit : c.pbits) {
    c.tables.push_back(validate_stream(dev, pbit.words));
  }
  return c;
}

/// One board on the fixture base, behind a FaultyBoard (a clean link for a
/// default profile), with its downloader.
struct TableLane {
  TableLane(const TableCorpus& c, const FaultProfile& profile,
            std::uint64_t seed)
      : board(*c.dev), link(board, profile, seed), dl(link, *c.dev) {
    board.send_config(c.base_bit.words);
    dl.assume_board_state(c.fx.base);
  }
  SimBoard board;
  FaultyBoard link;
  VerifiedDownloader dl;
};

/// Everything two reports say apart from wall time.
void expect_same_report(const DownloadReport& a, const DownloadReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.summary(), b.summary()) << what;
  EXPECT_EQ(a.fault_log, b.fault_log) << what;
  for (const char* c : {"words_sent", "readback_words", "repair_rounds",
                        "aborts"}) {
    EXPECT_EQ(a.telemetry.counter(c), b.telemetry.counter(c))
        << what << ": " << c;
  }
}

/// Downloads every corpus pbit on two lanes with the same link seed — from
/// its table on one, replayed whole on the other — and requires the
/// same report, mirror and board plane after each. An empty download then
/// checks the mirrors: it touches nothing, so its sweep reads every frame
/// back against the mirror, and a mirror frame the commit left wrong would
/// be "repaired" onto the board of one lane only. Returns the faults the
/// table lane's link injected.
std::size_t expect_table_matches_replay(const TableCorpus& c,
                                 const FaultProfile& profile,
                                 std::uint64_t seed, bool clean_link) {
  TableLane table(c, profile, seed);
  TableLane replay(c, profile, seed);
  const std::array<std::size_t, 3> bursts{kDefaultBurstWords, 97, 1u << 16};
  for (std::size_t i = 0; i < c.pbits.size(); ++i) {
    const std::string what =
        "seed " + std::to_string(seed) + " pbit " + std::to_string(i);
    const std::span<const std::uint32_t> words(c.pbits[i].words);
    const std::size_t burst = bursts[i % bursts.size()];
    const DownloadReport a = table.dl.download_validated(words, c.tables[i], burst);
    const DownloadReport b =
        replay.dl.download_stream(words, burst);
    expect_same_report(a, b, what);
    if (clean_link) {
      EXPECT_TRUE(a.ok()) << what << ": " << a.summary();
    }
    EXPECT_EQ(table.dl.mirror(), replay.dl.mirror()) << what;
    EXPECT_EQ(table.board.config(), replay.board.config()) << what;

    const DownloadReport sa = table.dl.download_stream({});
    const DownloadReport sb = replay.dl.download_stream({});
    expect_same_report(sa, sb, what + " (sweep)");
    if (clean_link) {
      EXPECT_EQ(sa.frames_repaired, 0u) << what << ": " << sa.summary();
    }
    EXPECT_EQ(table.board.config(), replay.board.config()) << what;
  }
  if (clean_link) {
    EXPECT_EQ(table.board.config(), table.dl.mirror());
  }
  EXPECT_EQ(table.link.faults_injected(), replay.link.faults_injected());
  return table.link.faults_injected();
}

TEST_F(StreamDownloadTest, FrameTableDownloadMatchesReplayOnACleanLink) {
  const TableCorpus c = make_table_corpus();
  EXPECT_EQ(
      expect_table_matches_replay(c, FaultProfile{}, 1, /*clean_link=*/true),
      0u);
}

TEST_F(StreamDownloadTest, FrameTableDownloadMatchesReplayUnderFaults) {
  const TableCorpus c = make_table_corpus();
  FaultProfile profile;
  profile.send_failure = 0.05;
  profile.word_flip = 0.0002;
  profile.truncate = 0.05;
  profile.readback_failure = 0.02;
  profile.readback_flip = 0.00002;
  profile.fault_budget = 8;
  std::size_t faults = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    faults += expect_table_matches_replay(c, profile, 9100 + seed,
                                          /*clean_link=*/false);
  }
  // A campaign that injected nothing would compare two clean runs.
  EXPECT_GT(faults, 0u);
}

// The board checks the CRC of an FDRI payload that Crc16::update_run folds
// kRunStep words per step: one bit flipped at each word position of a step
// (mid-payload, in a resident XCV300 pbit) must fail the board's CRC check.
TEST(BoardCrcTest, PayloadFlipAtEveryStepOffsetFailsTheBoardCrc) {
  const Device& dev = Device::get("XCV300");
  const LoadFixture fx = make_load_fixture(dev, 1, 2, 6);
  const Bitstream pbit = PartialBitstreamGenerator(fx.base)
                             .generate(fx.variants[0], fx.slots[0])
                             .bitstream;
  const FrameTable table = validate_stream(dev, pbit.words);
  ASSERT_FALSE(table.runs.empty());
  const FrameRun& run = table.runs.front();
  const std::size_t payload = run.frame_count * dev.frames().frame_words();
  ASSERT_GE(payload, 2 * Crc16::kRunStep);
  const std::size_t step_start =
      run.word_offset + payload / 2 / Crc16::kRunStep * Crc16::kRunStep;
  SimBoard board(dev);
  board.send_config(generate_full_bitstream(fx.base).words);
  for (std::size_t k = 0; k < Crc16::kRunStep; ++k) {
    Bitstream bad = pbit;
    bad.words[step_start + k] ^= 1u << (7 * k % 32);
    const std::uint64_t before =
        telemetry::MetricsRegistry::global().snapshot().counter(
            "port.crc_failures");
    board.abort_config();
    try {
      board.send_config(bad.words);
      ADD_FAILURE() << "word " << k << " of the step: no CRC failure";
    } catch (const BitstreamError& e) {
      EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
          << "word " << k << ": " << e.what();
    }
#if JPG_TELEMETRY_ENABLED
    EXPECT_EQ(telemetry::MetricsRegistry::global().snapshot().counter(
                  "port.crc_failures"),
              before + 1)
        << "word " << k;
#else
    (void)before;
#endif
  }
}

#if JPG_TELEMETRY_ENABLED
TEST_F(StreamDownloadTest, FdriBufferDoesNotReallocateAfterWarmup) {
  SimBoard board(*dev_);
  // Warm-up: the port's FDRI buffer is reserved for a full-plane payload
  // at construction, so even the first load must not regrow it.
  const std::uint64_t before = telemetry::MetricsRegistry::global()
                                   .snapshot()
                                   .counter("cfg.buffer_reallocs");
  board.send_config(base_bit_.words);
  for (int i = 0; i < 3; ++i) board.send_config(partial_.words);
  board.send_config(base_bit_.words);
  const std::uint64_t after = telemetry::MetricsRegistry::global()
                                  .snapshot()
                                  .counter("cfg.buffer_reallocs");
  EXPECT_EQ(after, before);
}
#endif  // JPG_TELEMETRY_ENABLED

}  // namespace
}  // namespace jpg
