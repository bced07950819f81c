// Tests for the bitstream substrate: CRC, packet codec, the Bitstream
// container, bitgen -> ConfigPort roundtrips, fault injection, and the
// packet-level reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_reader.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "bitstream/crc16.h"
#include "bitstream/frame_table.h"
#include "support/rng.h"

namespace jpg {
namespace {

/// Replays one complete stream through `port` (over a plane) from power-on
/// reset, with the end-of-stream check, and returns its frame table.
FrameTable replay(ConfigPort& port, std::span<const std::uint32_t> words) {
  port.reset();
  port.reset_stats();
  port.load(words);
  port.finish();
  return port.frame_table();
}

TEST(Crc16, KnownBehaviour) {
  Crc16 crc;
  EXPECT_EQ(crc.value(), 0);
  crc.update(2, 0x12345678);
  const std::uint16_t once = crc.value();
  EXPECT_NE(once, 0);
  crc.reset();
  EXPECT_EQ(crc.value(), 0);
  crc.update(2, 0x12345678);
  EXPECT_EQ(crc.value(), once);  // deterministic
  // Address participates in the CRC.
  Crc16 other;
  other.update(3, 0x12345678);
  EXPECT_NE(other.value(), once);
}

TEST(Crc16, SensitiveToEveryBit) {
  for (int bit = 0; bit < 32; bit += 7) {
    Crc16 a, b;
    a.update(2, 0);
    b.update(2, 1u << bit);
    EXPECT_NE(a.value(), b.value()) << "bit " << bit;
  }
}

TEST(Packet, Type1Roundtrip) {
  const std::uint32_t w = encode_type1(PacketOp::Write, ConfigReg::FAR, 1);
  const auto h = decode_header(w, ConfigReg::CRC);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->type, 1);
  EXPECT_EQ(h->op, PacketOp::Write);
  EXPECT_EQ(h->reg, ConfigReg::FAR);
  EXPECT_EQ(h->word_count, 1u);
}

TEST(Packet, Type2InheritsRegister) {
  const std::uint32_t w = encode_type2(PacketOp::Write, 100000);
  const auto h = decode_header(w, ConfigReg::FDRI);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->type, 2);
  EXPECT_EQ(h->reg, ConfigReg::FDRI);
  EXPECT_EQ(h->word_count, 100000u);
}

TEST(Packet, RejectsGarbage) {
  EXPECT_FALSE(decode_header(0xE0000000u, ConfigReg::CRC).has_value());
  EXPECT_FALSE(decode_header(0x00000000u, ConfigReg::CRC).has_value());
  // Unknown register id.
  const std::uint32_t bad_reg = (1u << 29) | (2u << 27) | (20u << 13);
  EXPECT_FALSE(decode_header(bad_reg, ConfigReg::CRC).has_value());
}

TEST(Bitstream, ByteSerialisationRoundtrip) {
  Bitstream bs;
  bs.words = {kDummyWord, kSyncWord, 0x01020304u, 0xCAFEBABEu};
  const auto bytes = bs.to_bytes();
  ASSERT_EQ(bytes.size(), 16u);
  EXPECT_EQ(bytes[8], 0x01);
  EXPECT_EQ(bytes[11], 0x04);
  EXPECT_EQ(Bitstream::from_bytes(bytes), bs);
  EXPECT_THROW(Bitstream::from_bytes(std::vector<std::uint8_t>(5)),
               BitstreamError);
}

TEST(Bitstream, FileRoundtrip) {
  Bitstream bs;
  bs.words = {kSyncWord, 1, 2, 3};
  const std::string path = ::testing::TempDir() + "/jpg_bitstream_test.bit";
  bs.save(path);
  EXPECT_EQ(Bitstream::load(path), bs);
}

class ConfigRoundtrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ConfigRoundtrip, FullBitstreamLoadsExactly) {
  const Device& dev = Device::get(GetParam());
  ConfigMemory golden(dev);
  // Random but reproducible configuration plane.
  Rng rng(2002);
  for (std::size_t f = 0; f < golden.num_frames(); ++f) {
    for (std::size_t w = 0; w < dev.frames().frame_words(); ++w) {
      golden.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }

  const Bitstream bs = generate_full_bitstream(golden);
  ConfigMemory loaded(dev);
  ConfigPort port(loaded);
  port.load(bs);
  EXPECT_TRUE(port.started());
  EXPECT_EQ(loaded, golden);
  EXPECT_EQ(port.frames_committed(), dev.frames().num_frames());
  // The tool-side base loader builds the same plane from a validated table.
  EXPECT_EQ(plane_from_full_bitstream(bs), golden);
}

INSTANTIATE_TEST_SUITE_P(Parts, ConfigRoundtrip,
                         ::testing::Values("XCV50", "XCV100", "XCV300"));

TEST(ConfigPort, RejectsSingleBitCorruption) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  mem.frame(100).set(37, true);
  const Bitstream good = generate_full_bitstream(mem);

  // Flip one bit in the FDRI payload region and expect a CRC failure.
  Rng rng(7);
  int rejected = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Bitstream bad = good;
    // Skip the 12-word header region to stay inside frame data.
    const std::size_t idx =
        20 + rng.uniform(bad.words.size() - 40);
    bad.words[idx] ^= 1u << rng.uniform(32);
    ConfigMemory scratch(dev);
    ConfigPort port(scratch);
    try {
      port.load(bad);
    } catch (const BitstreamError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 8);
}

TEST(ConfigPort, RejectsWrongDevice) {
  const Device& v50 = Device::get("XCV50");
  const Device& v100 = Device::get("XCV100");
  ConfigMemory mem(v50);
  const Bitstream bs = generate_full_bitstream(mem);
  ConfigMemory other(v100);
  ConfigPort port(other);
  EXPECT_THROW(port.load(bs), BitstreamError);
}

TEST(ConfigPort, IgnoresPreSyncNoise) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  Bitstream bs = generate_full_bitstream(mem);
  // Prepend junk that is not the sync word.
  std::vector<std::uint32_t> noisy = {0x0, 0x12345678u, kDummyWord};
  noisy.insert(noisy.end(), bs.words.begin(), bs.words.end());
  bs.words = std::move(noisy);
  ConfigMemory loaded(dev);
  ConfigPort port(loaded);
  EXPECT_NO_THROW(port.load(bs));
  EXPECT_TRUE(port.started());
}

TEST(ConfigPort, FdriRequiresWcfgAndFar) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  ConfigPort port(mem);
  const std::size_t fw = dev.frames().frame_words();

  // No WCFG command: FDRI must be rejected.
  BitstreamWriter w1(dev);
  w1.begin();
  w1.write_cmd(Command::RCRC);
  w1.write_reg(ConfigReg::FAR, dev.frames().encode_far({0, 1, 0}));
  std::vector<std::uint32_t> two_frames(fw * 2, 0);
  w1.write_fdri(two_frames);
  EXPECT_THROW(port.load(w1.finish()), BitstreamError);

  // Misaligned payload (not a whole number of frames).
  port.reset();
  BitstreamWriter w2(dev);
  w2.begin();
  w2.write_cmd(Command::RCRC);
  w2.write_cmd(Command::WCFG);
  w2.write_reg(ConfigReg::FAR, dev.frames().encode_far({0, 1, 0}));
  std::vector<std::uint32_t> ragged(fw * 2 + 1, 0);
  w2.write_fdri(ragged);
  EXPECT_THROW(port.load(w2.finish()), BitstreamError);
}

TEST(ConfigPort, InvalidFarRejected) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  ConfigPort port(mem);
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FAR, 0x00FFFFFFu);
  EXPECT_THROW(port.load(w.finish()), BitstreamError);
}

TEST(ConfigPort, PartialWriteTouchesOnlyAddressedFrames) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  ConfigPort port(mem);

  // Write 3 frames at major 5.
  ConfigMemory payload(dev);
  const std::size_t base = dev.frames().frame_index(5, 10);
  for (std::size_t i = 0; i < 3; ++i) {
    payload.frame(base + i).set(42 + i, true);
  }
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, dev.frames().encode_far({0, 5, 10}));
  w.write_frames(payload, base, 3);
  w.write_crc();
  w.write_cmd(Command::LFRM);
  port.load(w.finish());

  EXPECT_EQ(port.frames_committed(), 3u);
  ASSERT_EQ(port.committed_frames().size(), 3u);
  EXPECT_EQ(port.committed_frames()[0], base);
  EXPECT_EQ(port.committed_frames()[2], base + 2);
  // Everything else untouched.
  ConfigMemory expect(dev);
  expect.write_frames(base, payload.frame_run(base, 3));
  EXPECT_EQ(mem, expect);
}

TEST(FrameTable, RecordsEachFdriRunAndReappliesIt) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  ConfigMemory payload(dev);
  const std::size_t a = fm.frame_index(5, 10);
  const std::size_t b = fm.frame_index(7, 2);
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    payload.frame(f).set_word(1, 0x51000000u ^ static_cast<std::uint32_t>(f));
  }
  // Two FDRI runs, the second overlapping the first's last frame from a
  // separate packet, so commit order matters.
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(a)));
  w.write_frames(payload, a, 3);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(b)));
  w.write_frames(payload, b, 2);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(a + 2)));
  ConfigMemory second(dev);
  w.write_frames(second, a + 2, 1);
  w.write_crc();
  w.write_cmd(Command::LFRM);
  const Bitstream bs = w.finish();

  ConfigMemory mem(dev);
  mem.frame(a + 2).set(0, true);
  const ConfigMemory before = mem;
  ConfigPort port(mem);
  const FrameTable table = replay(port, bs.words);
  // The plane-less validator records the same table, and it writes no
  // plane: readback on it throws.
  EXPECT_EQ(validate_stream(dev, bs.words), table);
  EXPECT_FALSE(table.started);
  EXPECT_THROW((void)ConfigPort(dev).readback_frames(a, 1), JpgError);

  ASSERT_EQ(table.runs.size(), 3u);
  EXPECT_EQ(table.runs[0].first_frame, a);
  EXPECT_EQ(table.runs[0].frame_count, 3u);
  EXPECT_EQ(table.runs[1].first_frame, b);
  EXPECT_EQ(table.runs[2].first_frame, a + 2);
  // A run's offset names the first word of its frames in the stream.
  const std::size_t fw = fm.frame_words();
  const auto stream_frame = [&](const FrameRun& run, std::size_t k) {
    const std::uint32_t* p = bs.words.data() + run.word_offset + k * fw;
    return std::vector<std::uint32_t>(p, p + fw);
  };
  const auto plane_frame = [](const ConfigMemory& m, std::size_t f) {
    const std::span<const std::uint32_t> words = m.frame(f).words();
    return std::vector<std::uint32_t>(words.begin(), words.end());
  };
  EXPECT_EQ(stream_frame(table.runs[0], 0), plane_frame(payload, a));
  EXPECT_EQ(stream_frame(table.runs[1], 1), plane_frame(payload, b + 1));
  EXPECT_EQ(stream_frame(table.runs[2], 0), plane_frame(second, a + 2));
  EXPECT_EQ(table.touched,
            (std::vector<std::size_t>{a, a + 1, a + 2, b, b + 1}));

  ConfigMemory applied = before;
  apply_frame_table(table, bs.words, applied);
  EXPECT_EQ(applied, mem);

  // Recorded offsets count from the last log clear: the same stream after
  // leading padding yields the same table.
  port.reset();
  port.load(std::vector<std::uint32_t>(5, kDummyWord));
  port.clear_committed_frames();
  port.load(bs.words);
  EXPECT_EQ(port.frame_table(), table);
}

// The view of a base plane under a stream's table reads the stream's words
// at each frame's last write and the base everywhere else — the replayed
// plane, frame for frame — and a table that does not fit the words or the
// plane throws before anything is read.
TEST(FrameTable, TargetPlaneReadsTheLastWriteOverTheBase) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  ConfigMemory payload(dev);
  const std::size_t a = fm.frame_index(5, 10);
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    payload.frame(f).set_word(2, 0x7A000000u ^ static_cast<std::uint32_t>(f));
  }
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(a)));
  w.write_frames(payload, a, 3);
  // The last frame again, from a blank plane: the later write wins.
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(a + 2)));
  w.write_frames(ConfigMemory(dev), a + 2, 1);
  w.write_crc();
  w.write_cmd(Command::LFRM);
  const Bitstream bs = w.finish();

  ConfigMemory base(dev);
  for (std::size_t f = 0; f < fm.num_frames(); f += 7) base.frame(f).set(3, true);
  ConfigMemory replayed = base;
  ConfigPort port(replayed);
  const FrameTable table = replay(port, bs.words);
  const TargetPlane view(base, table, bs.words);
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    const std::span<const std::uint32_t> got = view.frame_words(f);
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           replayed.frame(f).words().begin(),
                           replayed.frame(f).words().end()))
        << "frame " << f;
  }
  // Points into the stream for written frames, into the base otherwise.
  const std::uint32_t* begin = bs.words.data();
  const std::uint32_t* end = begin + bs.words.size();
  EXPECT_TRUE(view.frame_words(a).data() >= begin &&
              view.frame_words(a).data() < end);
  EXPECT_EQ(view.frame_words(a + 3).data(), base.frame(a + 3).words().data());
  EXPECT_EQ(TargetPlane(base).frame_words(a).data(),
            base.frame(a).words().data());

  const std::span<const std::uint32_t> words(bs.words);
  EXPECT_THROW(TargetPlane(base, table, words.first(words.size() / 2)),
               JpgError);
  FrameTable past_the_plane;
  past_the_plane.runs.push_back({fm.num_frames() - 1, 0, 2});
  EXPECT_THROW(TargetPlane(base, past_the_plane, words), JpgError);
}

// A stream may carry anything in the bits past a frame's end; the port
// drops them on commit, and so does the view.
TEST(FrameTable, TargetPlaneDropsBitsPastTheFrameEnd) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  ASSERT_NE(fm.frame_bits() % 32, 0u);
  const std::size_t a = fm.frame_index(3, 4);
  ConfigMemory payload(dev);
  payload.frame(a).set_word(0, 0x600DF00Du);
  BitstreamWriter w(dev);  // no CRC packet, so the words can be edited
  w.begin();
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(a)));
  w.write_frames(payload, a, 1);
  w.write_cmd(Command::LFRM);
  Bitstream bs = w.finish();

  const ConfigMemory base(dev);
  ConfigMemory replayed = base;
  ConfigPort port(replayed);
  FrameTable table = replay(port, bs.words);
  ASSERT_EQ(table.touched, std::vector<std::size_t>{a});
  bs.words[table.runs[0].word_offset + fm.frame_words() - 1] |= 1u << 31;
  table = replay(port, bs.words);
  const TargetPlane view(base, table, bs.words);
  const std::span<const std::uint32_t> got = view.frame_words(a);
  const std::span<const std::uint32_t> want = replayed.frame(a).words();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(got[0], 0x600DF00Du);
}

// The block commit of a multi-frame run must clear the bits past the end
// of every frame it copies, not just the run's last: the port's commit and
// apply_frame_table both equal one masked write per frame.
TEST(FrameTable, BlockCommitsMaskEveryFrameOfARun) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  ASSERT_NE(fm.frame_bits() % 32, 0u);
  const std::size_t fw = fm.frame_words();
  const std::size_t a = fm.frame_index(3, 4);
  constexpr std::size_t kFrames = 5;
  ConfigMemory payload(dev);
  Rng rng(0x7A11ull);
  for (std::size_t f = a; f < a + kFrames; ++f) {
    for (std::size_t w = 0; w < fw; ++w) {
      payload.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }
  BitstreamWriter w(dev);  // no CRC packet, so the words can be edited
  w.begin();
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(a)));
  w.write_frames(payload, a, kFrames);
  w.write_cmd(Command::LFRM);
  Bitstream bs = w.finish();

  ConfigMemory replayed(dev);
  ConfigPort port(replayed);
  FrameTable table = replay(port, bs.words);
  ASSERT_EQ(table.runs.size(), 1u);
  const std::size_t off = table.runs[0].word_offset;
  for (std::size_t k = 0; k < kFrames; ++k) {
    bs.words[off + (k + 1) * fw - 1] |= 1u << 31;
  }
  table = replay(port, bs.words);
  ASSERT_EQ(table.runs[0].frame_count, kFrames);

  ConfigMemory expect(dev);
  for (std::size_t k = 0; k < kFrames; ++k) {
    expect.frame(a + k).set_words(
        std::span(bs.words).subspan(off + k * fw, fw));
  }
  ASSERT_FALSE(expect.frame(a + 1).differs_from(payload.frame(a + 1)));
  EXPECT_EQ(replayed, expect);
  ConfigMemory applied(dev);
  apply_frame_table(table, bs.words, applied);
  EXPECT_EQ(applied, expect);
}

TEST(FrameTable, RejectsAPayloadThatBeganBeforeTheLogClear) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  ConfigMemory payload(dev);
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(4)));
  w.write_frames(payload, 4, 2);
  w.write_crc();
  const Bitstream bs = w.finish();
  ConfigMemory mem(dev);
  ConfigPort port(mem);
  const std::span<const std::uint32_t> words(bs.words);
  const std::size_t cut = words.size() - 3 * fm.frame_words();  // mid-payload
  port.load(words.first(cut));
  port.clear_committed_frames();
  port.load(words.subspan(cut));
  ASSERT_EQ(port.committed_frames().size(), 2u);
  EXPECT_THROW((void)port.frame_table(), JpgError);
}

// A stream that ends inside a packet is malformed even though every word
// it carries loads cleanly. Sweeps every cut point of one partial stream
// (a type-1 and a type-2 FDRI packet): ConfigPort::finish throws for a
// cut strictly inside a packet and drops the port to desync, so the
// complete stream resyncs and loads afterwards; on a packet boundary it
// changes nothing.
TEST(ConfigPort, FinishRejectsAStreamCutInsideAPacket) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();
  ConfigMemory payload(dev);
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    payload.frame(f).set_word(2, 0x6D000000u ^ static_cast<std::uint32_t>(f));
  }
  const std::size_t small = 3;
  const std::size_t big = (1u << 11) / fw + 1;  // payload needs a type-2 header
  BitstreamWriter w(dev);
  std::vector<std::size_t> boundaries{0, 1};  // before and after the dummy
  const auto mark = [&] { boundaries.push_back(w.size_words()); };
  w.begin();
  mark();
  w.write_cmd(Command::RCRC);
  mark();
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
  mark();
  w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
  mark();
  w.write_cmd(Command::WCFG);
  mark();
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(4)));
  mark();
  w.write_frames(payload, 4, small);
  mark();
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(40)));
  mark();
  w.write_frames(payload, 40, big);
  mark();
  w.write_crc();
  mark();
  w.write_cmd(Command::LFRM);
  mark();
  const Bitstream bs = w.finish();
  ASSERT_EQ(boundaries.back() + 3, bs.words.size());  // DESYNC + pad follow
  boundaries.push_back(bs.words.size() - 1);
  boundaries.push_back(bs.words.size());

  const std::span<const std::uint32_t> words(bs.words);
  std::size_t inside = 0;
  for (std::size_t cut = 0; cut <= words.size(); ++cut) {
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    ConfigMemory mem(dev);
    ConfigPort port(mem);
    port.load(words.first(cut));
    const bool synced = port.synced();
    const std::vector<std::size_t> committed = port.committed_frames();
    const ConfigMemory plane = mem;
    if (on_boundary) {
      EXPECT_NO_THROW(port.finish()) << "cut " << cut;
      EXPECT_EQ(port.synced(), synced) << "cut " << cut;
      EXPECT_EQ(port.committed_frames(), committed) << "cut " << cut;
      EXPECT_EQ(mem, plane) << "cut " << cut;
      EXPECT_NO_THROW((void)validate_stream(dev, words.first(cut)))
          << "cut " << cut;
      continue;
    }
    ++inside;
    EXPECT_THROW(port.finish(), BitstreamError) << "cut " << cut;
    EXPECT_FALSE(port.synced()) << "cut " << cut;
    EXPECT_EQ(port.committed_frames(), committed) << "cut " << cut;
    EXPECT_THROW((void)validate_stream(dev, words.first(cut)), BitstreamError)
        << "cut " << cut;
    // Desynced, not stuck: the complete stream loads from here.
    EXPECT_NO_THROW(port.load(words)) << "cut " << cut;
    EXPECT_NO_THROW(port.finish()) << "cut " << cut;
  }
  EXPECT_EQ(inside, words.size() + 1 - boundaries.size());
}

TEST(ConfigPort, ReadbackMatchesMemory) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  mem.frame(7).set(3, true);
  mem.frame(8).set(5, true);
  ConfigPort port(mem);
  const auto words = port.readback_frames(7, 2);
  ASSERT_EQ(words.size(), 2 * dev.frames().frame_words());
  ConfigMemory copy(dev);
  copy.write_frames(7, words);
  EXPECT_FALSE(copy.frame(7).differs_from(mem.frame(7)));
  EXPECT_FALSE(copy.frame(8).differs_from(mem.frame(8)));
}

TEST(ConfigMemory, DiffFrames) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory a(dev), b(dev);
  EXPECT_TRUE(a.diff_frames(b).empty());
  b.frame(3).set(1, true);
  b.frame(100).set(2, true);
  const auto diff = a.diff_frames(b);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], 3u);
  EXPECT_EQ(diff[1], 100u);
}

// The frames are one array at a fixed stride, and a copy of the plane is
// the source frame for frame.
TEST(ConfigMemory, FramesAreOneArrayAndCopyFrameForFrame) {
  const Device& dev = Device::get("XCV50");
  const std::size_t fw = dev.frames().frame_words();
  ConfigMemory mem(dev);
  ASSERT_EQ(mem.frame_words(), fw);
  Rng rng(0xF1A7ull);
  for (std::size_t f = 0; f < mem.num_frames(); ++f) {
    for (std::size_t w = 0; w < fw; ++w) {
      mem.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }
  const std::span<const std::uint32_t> all =
      std::as_const(mem).frame_run(0, mem.num_frames());
  ASSERT_EQ(all.size(), mem.num_frames() * fw);
  for (std::size_t f = 0; f < mem.num_frames(); ++f) {
    ASSERT_EQ(mem.frame(f).words().data(), all.data() + f * fw) << f;
  }
  const ConfigMemory copy = mem;
  EXPECT_NE(copy.frame(0).words().data(), all.data());
  for (std::size_t f = 0; f < mem.num_frames(); ++f) {
    ASSERT_FALSE(copy.frame(f).differs_from(mem.frame(f))) << f;
  }
}

// A move hands the frames over without copying their words; the move
// assignment keeps the copy's same-device check.
TEST(ConfigMemory, MoveHandsOverTheFrameWords) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory src(dev);
  src.frame(0).set_word(0, 0xC0FFEEu);
  const std::uint32_t* words = src.frame(0).words().data();
  ConfigMemory moved(std::move(src));
  EXPECT_EQ(moved.frame(0).words().data(), words);
  EXPECT_EQ(moved.frame(0).words()[0], 0xC0FFEEu);
  ConfigMemory assigned(dev);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.frame(0).words().data(), words);
  ConfigMemory other(Device::get("XCV100"));
  EXPECT_THROW(assigned = std::move(other), JpgError);
  EXPECT_EQ(assigned.frame(0).words().data(), words);
}

TEST(BitstreamReader, ParsesBitgenOutput) {
  const Device& dev = Device::get("XCV100");
  ConfigMemory mem(dev);
  const Bitstream bs = generate_full_bitstream(mem);
  const BitstreamReader reader(bs);
  EXPECT_EQ(reader.idcode(), dev.spec().idcode);
  // FDRI carries all frames + 1 pad frame.
  EXPECT_EQ(reader.fdri_words(),
            (dev.frames().num_frames() + 1) * dev.frames().frame_words());
  const auto blocks = reader.far_blocks(dev.frames().frame_words());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].second, dev.frames().num_frames());
  EXPECT_FALSE(reader.summarize().empty());
}

TEST(Crc16, TableMatchesBitSerialReference) {
  // The table-driven fast path and the bit-serial definition must agree on
  // arbitrary register-write streams, including across resets.
  Rng rng(0xC4C1ull);
  Crc16 fast;
  Crc16Serial ref;
  for (int i = 0; i < 5000; ++i) {
    if (rng.uniform(97) == 0) {
      fast.reset();
      ref.reset();
    }
    const auto reg = static_cast<std::uint32_t>(rng.uniform(32));
    const auto data = static_cast<std::uint32_t>(rng.next());
    fast.update(reg, data);
    ref.update(reg, data);
    ASSERT_EQ(fast.value(), ref.value()) << "step " << i;
  }
}

TEST(Crc16, RunMatchesBitSerialReference) {
  // update_run folds eight writes per step; runs of 0..40 words (empty, a
  // remainder alone, several steps with and without a remainder) must
  // leave the same register as the one-bit-at-a-time definition, and a run
  // split anywhere the same register as the whole run.
  Rng rng(0xC4C2ull);
  Crc16 fast;
  Crc16Serial ref;
  std::vector<std::uint32_t> run;
  for (int i = 0; i < 2000; ++i) {
    const auto reg = static_cast<std::uint32_t>(rng.uniform(32));
    run.resize(rng.uniform(41));
    for (std::uint32_t& w : run) w = static_cast<std::uint32_t>(rng.next());
    Crc16 split = fast;
    const std::size_t cut = rng.uniform(run.size() + 1);
    split.update_run(reg, std::span(run).first(cut));
    split.update_run(reg, std::span(run).subspan(cut));
    fast.update_run(reg, run);
    for (const std::uint32_t w : run) ref.update(reg, w);
    ASSERT_EQ(fast.value(), ref.value()) << "run " << i;
    ASSERT_EQ(split.value(), fast.value()) << "run " << i << " cut " << cut;
  }
}

TEST(BitstreamReader, FarBlocksRejectsMisalignedPayload) {
  // A ragged FDRI payload used to be silently rounded down, undercounting
  // the frames a partial touches — the verify path would then skip frames
  // the stream actually wrote.
  const Device& dev = Device::get("XCV50");
  const std::size_t fw = dev.frames().frame_words();
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FAR, dev.frames().encode_far({0, 1, 0}));
  std::vector<std::uint32_t> ragged(fw * 2 + 3, 0);
  w.write_fdri(ragged);
  const BitstreamReader reader(w.finish());
  EXPECT_THROW((void)reader.far_blocks(fw), BitstreamError);
}

TEST(BitstreamReader, FarBlocksSkipsPadOnlyPackets) {
  // An FDRI packet holding exactly one frame is all pad: it flushes the
  // pipeline and commits nothing, so it must not surface as a bogus
  // zero-frame (previously: huge, wrapped-around) block.
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();
  ConfigMemory payload(dev);
  const std::size_t base = fm.frame_index(2, 1);

  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(base)));
  std::vector<std::uint32_t> pad_only(fw, 0);
  w.write_fdri(pad_only);  // 1 frame: pad, nothing committed
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(base + 4)));
  w.write_frames(payload, base + 4, 2);  // 2 frames + pad
  const BitstreamReader reader(w.finish());

  const auto blocks = reader.far_blocks(fw);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].first, fm.encode_far(fm.address_of_index(base + 4)));
  EXPECT_EQ(blocks[0].second, 2u);
}

TEST(ReaderPortConformance, Type2ContinuationRequiresWriteOp) {
  // Both consumers must rule on the same malformed framing the same way: a
  // zero-count FDRI announcement continued by a type-2 packet whose op is
  // not Write is a protocol error for the port AND the offline reader.
  Bitstream bad;
  bad.words = {kDummyWord, kSyncWord,
               encode_type1(PacketOp::Write, ConfigReg::FDRI, 0),
               encode_type2(PacketOp::Read, 4), 0, 0, 0, 0};

  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  ConfigPort port(mem);
  std::string port_err;
  try {
    port.load(bad);
  } catch (const BitstreamError& e) {
    port_err = e.what();
  }
  std::string reader_err;
  try {
    const BitstreamReader reader(bad);
  } catch (const BitstreamError& e) {
    reader_err = e.what();
  }
  EXPECT_FALSE(port_err.empty());
  EXPECT_EQ(port_err, reader_err);
}

TEST(ReaderPortConformance, Type2WriteContinuationAcceptedByBoth) {
  // The well-formed counterpart: a payload large enough to force the
  // type 1 zero-count + type 2 encoding must decode on both consumers and
  // yield the same frame accounting.
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();
  // > 2047 words of FDRI forces the type-2 path in the writer.
  const std::size_t count = 2048 / fw + 2;
  ConfigMemory payload(dev);
  const std::size_t base = fm.frame_index(1, 0);

  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
  w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(base)));
  w.write_frames(payload, base, count);
  w.write_crc();
  w.write_cmd(Command::LFRM);
  const Bitstream bs = w.finish();

  ConfigMemory mem(dev);
  ConfigPort port(mem);
  EXPECT_NO_THROW(port.load(bs));
  EXPECT_EQ(port.frames_committed(), count);

  const BitstreamReader reader(bs);
  const auto blocks = reader.far_blocks(fw);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].second, count);
}

TEST(ConfigPort, AbortClearsAddressingContext) {
  // An explicit ABORT mid-session must forget the loaded FAR: an FDRI
  // write in the next session without its own FAR is a protocol error,
  // exactly as on a fresh port.
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();

  ConfigMemory mem(dev);
  ConfigPort port(mem);
  BitstreamWriter wa(dev);
  wa.begin();
  wa.write_cmd(Command::RCRC);
  wa.write_cmd(Command::WCFG);
  wa.write_reg(ConfigReg::FAR, fm.encode_far({0, 5, 10}));
  port.load(wa.stream());  // mid-session: FAR loaded, no DESYNC yet
  port.abort();

  BitstreamWriter wb(dev);
  wb.begin();
  wb.write_cmd(Command::RCRC);
  wb.write_cmd(Command::WCFG);
  std::vector<std::uint32_t> frames(fw * 2, 0);
  wb.write_fdri(frames);
  EXPECT_THROW(port.load(wb.finish()), BitstreamError);
  EXPECT_EQ(port.frames_committed(), 0u);
}

TEST(BitstreamReader, RejectsTruncation) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  Bitstream bs = generate_full_bitstream(mem);
  bs.words.resize(bs.words.size() / 2);
  EXPECT_THROW(BitstreamReader{bs}, BitstreamError);
  Bitstream nosync;
  nosync.words = {kDummyWord, kDummyWord};
  EXPECT_THROW(BitstreamReader{nosync}, BitstreamError);
}

}  // namespace
}  // namespace jpg
