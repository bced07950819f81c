// Tests for the bitstream substrate: CRC, packet codec, the Bitstream
// container, bitgen -> ConfigPort roundtrips, fault injection, and the
// packet-level reader.
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_reader.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "bitstream/crc16.h"
#include "support/rng.h"

namespace jpg {
namespace {

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
  for (std::size_t i = 0; i < 3; ++i) {
    expect.copy_frame_from(payload, base + i);
  }
  EXPECT_EQ(mem, expect);
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
  copy.write_frame_words(7, words.data());
  copy.write_frame_words(8, words.data() + dev.frames().frame_words());
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
  // update_run folds two writes per step; runs of every parity (and empty
  // ones) must leave the same register as the one-bit-at-a-time definition.
  Rng rng(0xC4C2ull);
  Crc16 fast;
  Crc16Serial ref;
  std::vector<std::uint32_t> run;
  for (int i = 0; i < 2000; ++i) {
    const auto reg = static_cast<std::uint32_t>(rng.uniform(32));
    run.resize(rng.uniform(9));
    for (std::uint32_t& w : run) w = static_cast<std::uint32_t>(rng.next());
    fast.update_run(reg, run);
    for (const std::uint32_t w : run) ref.update(reg, w);
    ASSERT_EQ(fast.value(), ref.value()) << "run " << i;
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
