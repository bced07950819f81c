// Burst-boundary torture tests for the streaming configuration datapath:
// StreamSource/BurstCursor chunking invariants, byte-identical planes across
// burst sizes and segment cuts (including zero-length segments), ABORT with
// the port mid-burst, word flips landing exactly on burst seams, mid-stream
// tool-side rejection with rollback, and the fdri-buffer reuse contract
// (cfg.buffer_reallocs stays 0 after warm-up).
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "core/jpg.h"
#include "hwif/burst_engine.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/stream_source.h"
#include "hwif/verified_downloader.h"
#include "support/rng.h"
#include "support/telemetry/telemetry.h"

namespace jpg {
namespace {

TEST(StreamSourceTest, TracksSegmentsAndTotal) {
  const std::vector<std::uint32_t> a{1, 2, 3};
  const std::vector<std::uint32_t> b{4, 5};
  StreamSource src;
  EXPECT_TRUE(src.empty());
  src.add(a);
  src.add({});  // zero-length segments are legal
  src.add(b);
  EXPECT_FALSE(src.empty());
  EXPECT_EQ(src.total_words(), 5u);
  EXPECT_EQ(src.segments().size(), 3u);
  EXPECT_EQ(StreamSource::of(a).total_words(), 3u);
}

TEST(BurstCursorTest, BurstsNeverCrossSegmentBoundaries) {
  std::vector<std::uint32_t> a(7);
  std::vector<std::uint32_t> b(5);
  std::vector<std::uint32_t> c(1);
  std::iota(a.begin(), a.end(), 100);
  std::iota(b.begin(), b.end(), 200);
  std::iota(c.begin(), c.end(), 300);
  StreamSource src;
  src.add({});
  src.add(a);
  src.add(b);
  src.add({});
  src.add(c);

  for (const std::size_t burst_words : {1u, 2u, 3u, 4u, 5u, 7u, 64u}) {
    BurstCursor cursor(src);
    std::vector<std::uint32_t> cat;
    EXPECT_FALSE(cursor.done());
    for (auto burst = cursor.next(burst_words); !burst.empty();
         burst = cursor.next(burst_words)) {
      EXPECT_LE(burst.size(), burst_words);
      // Zero-copy: the burst must point into one of the source buffers.
      const auto* p = burst.data();
      const bool in_a = p >= a.data() && p + burst.size() <= a.data() + a.size();
      const bool in_b = p >= b.data() && p + burst.size() <= b.data() + b.size();
      const bool in_c = p >= c.data() && p + burst.size() <= c.data() + c.size();
      EXPECT_TRUE(in_a || in_b || in_c);
      cat.insert(cat.end(), burst.begin(), burst.end());
    }
    EXPECT_TRUE(cursor.done());
    // Concatenating the bursts reproduces the concatenated segments.
    std::vector<std::uint32_t> want;
    want.insert(want.end(), a.begin(), a.end());
    want.insert(want.end(), b.begin(), b.end());
    want.insert(want.end(), c.begin(), c.end());
    EXPECT_EQ(cat, want);
    cursor.rewind();
    EXPECT_FALSE(cursor.done());
    EXPECT_EQ(cursor.next(3).size(), 3u);
  }
}

TEST(BurstCursorTest, RejectsZeroBurstAndExhaustsEmptySource) {
  const StreamSource empty;
  BurstCursor cursor(empty);
  EXPECT_TRUE(cursor.done());
  EXPECT_TRUE(cursor.next(16).empty());
  EXPECT_THROW((void)cursor.next(0), JpgError);
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
    const auto words = board.readback(0, fm.num_frames());
    ConfigMemory got(*dev_);
    for (std::size_t f = 0; f < fm.num_frames(); ++f) {
      got.write_frame_words(f, words.data() + f * fm.frame_words());
    }
    return got;
  }

  /// Splits `words` into segments cut at every position in `cuts` (plus a
  /// zero-length segment between each pair), exercising seam placement.
  static StreamSource cut_source(std::span<const std::uint32_t> words,
                                 std::span<const std::size_t> cuts) {
    StreamSource src;
    std::size_t off = 0;
    for (const std::size_t cut : cuts) {
      if (cut <= off || cut >= words.size()) continue;
      src.add(words.subspan(off, cut - off));
      src.add({});
      off = cut;
    }
    src.add(words.subspan(off));
    return src;
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

  // Cuts at and just inside burst edges for a burst bound of 16, plus an
  // odd segment in the middle of an FDRI payload.
  const std::vector<std::size_t> cuts{15, 16, 17, 33, 100, 101};
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{512},
        std::size_t{1u << 20}}) {
    SimBoard board(*dev_);
    const BurstStats base_stats =
        stream_to_board(board, StreamSource::of(base_bit_.words), burst);
    EXPECT_EQ(base_stats.words, base_bit_.words.size());
    const StreamSource src = cut_source(partial_.words, cuts);
    const BurstStats stats = stream_to_board(board, src, burst);
    EXPECT_EQ(stats.words, partial_.words.size());
    EXPECT_GE(stats.bursts, (partial_.words.size() + burst - 1) / burst);
    EXPECT_EQ(board_plane(board), board_plane(whole))
        << "burst=" << burst << " diverged from the whole-buffer send";
  }
}

TEST_F(StreamDownloadTest, VerifiedStreamSucceedsAcrossBurstSizesAndOverlap) {
  for (const bool overlap : {false, true}) {
    for (const std::size_t burst :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{512}}) {
      SimBoard board(*dev_);
      board.send_config(base_bit_.words);
      VerifiedDownloader dl(board, *dev_);
      dl.assume_board_state(*base_plane_);
      const std::vector<std::size_t> cuts{burst - 1, burst, burst + 1,
                                          3 * burst + 1};
      StreamOptions opts;
      opts.burst_words = burst;
      opts.overlap_verify = overlap;
      const DownloadReport rep =
          dl.download_stream(cut_source(partial_.words, cuts), opts);
      EXPECT_TRUE(rep.ok()) << "burst=" << burst << " overlap=" << overlap
                            << ": " << rep.summary();
      EXPECT_EQ(rep.attempts, 1);
      EXPECT_EQ(rep.frames_touched, kUpdateFrames);
      EXPECT_EQ(rep.faults_seen, 0u);
      EXPECT_EQ(board_plane(board), *target_plane_);
      EXPECT_EQ(dl.mirror(), *target_plane_);
    }
  }
}

TEST_F(StreamDownloadTest, EmptySourceVerifiesTheMirrorAndSucceeds) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  const DownloadReport rep = dl.download_stream(StreamSource{});
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
  const DownloadReport rep = dl.download_stream(StreamSource::of(bad.words));
  EXPECT_EQ(rep.status, DownloadStatus::Failed);
  EXPECT_EQ(rep.attempts, 0);
  EXPECT_NE(rep.error.find("nothing sent"), std::string::npos) << rep.error;
  EXPECT_EQ(board.config_words(), words_before);
  EXPECT_EQ(board_plane(board), *base_plane_);
}

TEST_F(StreamDownloadTest, MidStreamMalformationRollsBack) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  Bitstream bad = partial_;
  // Corrupt the stream's tail (the CRC region): with an 8-word burst the
  // head bursts validate and go out before the replay trips on it.
  bad.words[bad.words.size() - 4] ^= 1u;
  StreamOptions opts;
  opts.burst_words = 8;
  const DownloadReport rep = dl.download_stream(StreamSource::of(bad.words),
                                                opts);
  EXPECT_EQ(rep.status, DownloadStatus::RolledBack) << rep.summary();
  EXPECT_NE(rep.error.find("mid-stream"), std::string::npos) << rep.error;
  // Two-state invariant: the board is back on the pre-update plane.
  EXPECT_EQ(board_plane(board), *base_plane_);
  EXPECT_EQ(dl.mirror(), *base_plane_);
}

TEST_F(StreamDownloadTest, AbortUnsticksAPortLeftMidBurst) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  // Strand the port mid-FDRI-payload: a prefix cut inside the frame data.
  board.send_config(
      std::span<const std::uint32_t>(partial_.words).first(40));
  VerifiedDownloader dl(board, *dev_);
  dl.assume_board_state(*base_plane_);
  StreamOptions opts;
  opts.burst_words = 16;
  const DownloadReport rep =
      dl.download_stream(StreamSource::of(partial_.words), opts);
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
    StreamOptions opts;
    opts.burst_words = 16;
    const DownloadReport rep =
        dl.download_stream(StreamSource::of(partial_.words), opts);
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
  StreamOptions opts;
  opts.burst_words = 32;
  const DownloadReport rep =
      dl.download_stream(StreamSource::of(partial_.words), opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(faulty.faults_injected(), 1u);
  EXPECT_EQ(board_plane(board), *target_plane_);
}

// Regression: once a send fault latched `send_failed`, the loop kept
// crediting the (near-zero) window of every skipped send as hidden
// validation time, deflating cfg.stream_overlap_ns. After the fix only
// bursts that actually went out cleanly contribute overlap credit — with
// the very first send faulted, the whole stream must report exactly zero.
TEST_F(StreamDownloadTest, NoOverlapCreditAfterSendFault) {
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  FaultProfile profile;
  profile.send_failure = 1.0;  // first send_config throws...
  profile.fault_budget = 1;    // ...then the link is clean (for the repair)
  FaultyBoard faulty(board, profile, 19);
  VerifiedDownloader dl(faulty, *dev_, DownloadPolicy{});
  dl.assume_board_state(*base_plane_);
  StreamOptions opts;
  opts.burst_words = 16;  // many bursts, all skipped after the fault
  opts.overlap_verify = true;
  const DownloadReport rep =
      dl.download_stream(StreamSource::of(partial_.words), opts);
  // Nothing reached the board in the streamed phase; the repair stream
  // rewrites every touched frame over the now-clean link.
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GE(rep.faults_seen, 1u);
  EXPECT_EQ(rep.telemetry.counter("stream_overlap_ns"), 0u);
  EXPECT_EQ(board_plane(board), *target_plane_);
}

TEST_F(StreamDownloadTest, JpgFacadeStreamsALeasedPbit) {
  Jpg tool(base_bit_);
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  tool.connect(&board);

  // Build a module plane for a region and lease its cached pbit; the
  // streamed words are the cache's own (zero-copy), wrapped as one segment.
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
  const DownloadReport rep =
      tool.download_verified_stream(StreamSource::of(lease.words()));
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(tool.generator().cache_stats().pinned, 1u);

  // The fire-and-forget path lands the same plane.
  SimBoard board2(*dev_);
  board2.send_config(base_bit_.words);
  Jpg tool2(base_bit_);
  tool2.connect(&board2);
  tool2.download(StreamSource::of(lease.words()));
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

// The downloader replays into a persistent shadow plane and must leave it
// equal to the mirror after every outcome. A seeded sequence mixes all
// five exits; after each one, a clean download must behave exactly as on a
// fresh downloader seeded with the same mirror over an identical board. A
// shadow frame left stale by the previous exit would show up here as a
// different intended plane: extra repairs, a different mirror or plane.
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
    StreamOptions opts;
    DownloadReport rep;
    switch (kind) {
      case kHeadReject:
        opts.burst_words = bad.words.size();
        rep = dl.download_stream(StreamSource::of(bad.words), opts);
        ASSERT_EQ(rep.status, DownloadStatus::Failed) << rep.summary();
        ASSERT_NE(rep.error.find("nothing sent"), std::string::npos);
        break;
      case kMidStream:
        opts.burst_words = 8;
        rep = dl.download_stream(StreamSource::of(bad.words), opts);
        ASSERT_EQ(rep.status, DownloadStatus::RolledBack) << rep.summary();
        ASSERT_NE(rep.error.find("mid-stream"), std::string::npos);
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
