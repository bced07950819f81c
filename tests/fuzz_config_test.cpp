// Tests for the malformed-bitstream fuzz engine and the recovery contracts
// it enforces, plus directed regressions for bug classes the fuzzer is
// built to catch (stale addressing state after a protocol error, ports
// stuck mid-payload after truncation).
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "bitstream/stream_fuzzer.h"

namespace jpg {
namespace {

Bitstream patterned_full(const Device& dev, ConfigMemory& plane) {
  const FrameMap& fm = dev.frames();
  for (std::size_t f = 0; f < fm.num_frames(); f += 9) {
    for (std::size_t w = 0; w < fm.frame_words(); w += 2) {
      plane.frame(f).set_word(w, 0x3C000000u ^
                                     (static_cast<std::uint32_t>(f) << 8) ^
                                     static_cast<std::uint32_t>(w));
    }
  }
  return generate_full_bitstream(plane);
}

TEST(StreamFuzzer, CampaignHoldsEveryContract) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory plane(dev);
  const Bitstream full = patterned_full(dev, plane);
  FuzzOptions opts;
  opts.iterations = 600;
  opts.seed = 2026;
  const FuzzReport rep = fuzz_config_streams(dev, full, {}, opts);
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.iterations, 600);
  EXPECT_EQ(rep.port_rejections + rep.port_accepts, 600);
  EXPECT_EQ(rep.reader_rejections + rep.reader_accepts, 600);
  // The campaign must actually reject things; an all-accept run means the
  // mutators are broken, not that the decoders are perfect.
  EXPECT_GT(rep.port_rejections, 100);
  int mutations = 0;
  for (const int c : rep.mutation_counts) mutations += c;
  EXPECT_GE(mutations, 600);
  EXPECT_FALSE(rep.summary().empty());
}

TEST(StreamFuzzer, DeterministicReplayFromSeed) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory plane(dev);
  const Bitstream full = patterned_full(dev, plane);
  FuzzOptions opts;
  opts.iterations = 150;
  opts.seed = 77;
  const FuzzReport a = fuzz_config_streams(dev, full, {}, opts);
  const FuzzReport b = fuzz_config_streams(dev, full, {}, opts);
  EXPECT_EQ(a.summary(), b.summary());
  opts.seed = 78;
  const FuzzReport c = fuzz_config_streams(dev, full, {}, opts);
  EXPECT_NE(a.summary(), c.summary());
}

// Property: ConfigPort::load(span) ingests FDRI payload runs in bulk, and
// that must be indistinguishable from clocking the same words in one
// load_word at a time — same plane, committed-frame log, words_consumed()
// and the same exception text thrown at the same word — over the whole
// mutated corpus, partials with several FAR blocks included.
TEST(StreamFuzzer, BulkLoadMatchesWordAtATime) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();
  ConfigMemory plane(dev);
  const Bitstream full = patterned_full(dev, plane);

  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
  w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
  w.write_cmd(Command::WCFG);
  for (const int major : {2, 5}) {
    const std::size_t first = fm.frame_index(major, 0);
    w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(first)));
    w.write_frames(plane, first, 4);
  }
  w.write_crc();
  w.write_cmd(Command::LFRM);
  const std::vector<Bitstream> partials{w.finish()};

  FuzzOptions opts;
  opts.iterations = 400;
  opts.seed = 4099;
  const FuzzReport rep = fuzz_config_streams(dev, full, partials, opts);
  EXPECT_EQ(rep.bulk_equiv_failures, 0) << rep.first_bulk_divergence;
  EXPECT_TRUE(rep.clean()) << rep.summary();
  // Both outcomes must be exercised: rejections compare exception text and
  // position, accepts compare committed frames.
  EXPECT_GT(rep.port_rejections, 50);
  EXPECT_GT(rep.port_accepts, 10);
}

TEST(StreamFuzzer, MutationKindsAllNamed) {
  for (int k = 0; k < kNumMutationKinds; ++k) {
    EXPECT_NE(mutation_kind_name(static_cast<MutationKind>(k)), "?");
  }
}

// Regression for the stale-addressing-state bug class: a stream that dies
// on a CRC error used to leave cur_reg_/far_/cur_frame_ behind, so a
// follow-up stream could silently write frames at the dead stream's FAR.
// After the error the port must behave exactly like a freshly reset one.
TEST(ConfigPortRecovery, ErrorClearsAddressingContext) {
  const Device& dev = Device::get("XCV50");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();

  ConfigMemory payload(dev);
  const std::size_t base = fm.frame_index(5, 10);
  payload.frame(base).set(3, true);

  // Stream A: loads a FAR, then dies on a wrong CRC value.
  BitstreamWriter wa(dev);
  wa.begin();
  wa.write_cmd(Command::RCRC);
  wa.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
  wa.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
  wa.write_cmd(Command::WCFG);
  wa.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(base)));
  wa.write_reg(ConfigReg::CRC, 0xBEEF);  // wrong: the port throws here
  const Bitstream dying = wa.finish();

  // Stream B: an FDRI write with no FAR of its own.
  BitstreamWriter wb(dev);
  wb.begin();
  wb.write_cmd(Command::RCRC);
  wb.write_cmd(Command::WCFG);
  std::vector<std::uint32_t> two_frames(fw * 2, 0x1111u);
  wb.write_fdri(two_frames);
  const Bitstream farless = wb.finish();

  auto outcome = [&](ConfigPort& port) -> std::string {
    try {
      port.load(farless);
      return "accepted";
    } catch (const BitstreamError& e) {
      return e.what();
    }
  };

  ConfigMemory mem_fresh(dev), mem_abused(dev);
  ConfigPort fresh(mem_fresh);
  ConfigPort abused(mem_abused);
  EXPECT_THROW(abused.load(dying), BitstreamError);
  EXPECT_FALSE(abused.synced());

  // Identical behaviour — in particular no write at the stale FAR.
  EXPECT_EQ(outcome(abused), outcome(fresh));
  EXPECT_EQ(abused.frames_committed(), 0u);
  EXPECT_EQ(mem_abused, mem_fresh);
}

// A truncated stream leaves the port waiting for FDRI payload; without an
// ABORT the next stream's words are swallowed as frame data. ABORT must
// drop the decode state while keeping committed frames and startup status.
TEST(ConfigPortRecovery, AbortUnsticksTruncatedPayload) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory plane(dev);
  const Bitstream full = patterned_full(dev, plane);

  ConfigMemory mem(dev);
  ConfigPort port(mem);
  port.load(full);
  EXPECT_TRUE(port.started());

  Bitstream cut = full;
  cut.words.resize(cut.words.size() / 2);  // mid-FDRI payload
  port.load(cut);               // no error: the port is simply left waiting
  EXPECT_TRUE(port.synced());   // ...synced, mid-packet

  port.abort();
  EXPECT_FALSE(port.synced());
  EXPECT_TRUE(port.started());  // startup status survives ABORT

  port.load(full);              // decodes cleanly from the sync word
  EXPECT_EQ(mem, plane);
}

}  // namespace
}  // namespace jpg
