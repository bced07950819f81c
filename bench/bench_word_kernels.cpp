// WORD KERNELS — the BitSpan bulk operations under the partial generator's
// warm path (DESIGN.md §5a/§5c): in-place and relocating copy_range,
// diff_in_range and popcount, measured on real frame geometries from XCV50
// up to XCV1000. The kernels are shared-middle word blits (memcpy, memcmp,
// 64-bit popcount) with masked edges and a funnel-shift fallback for
// misaligned relocation. Per part it also measures the two whole-stream
// kernels of a verified swap (DESIGN.md §5d): the configuration CRC over a
// full-plane FDRI payload, one update per word against update_run's
// eight-write steps, and a copy of the flat configuration plane. It writes
// BENCH_word_kernels.json to the working directory.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <utility>

#include "bench_util.h"
#include "bitstream/config_memory.h"
#include "bitstream/crc16.h"
#include "bitstream/packet.h"
#include "device/device.h"
#include "support/bitvec.h"
#include "support/rng.h"

namespace jpg {
namespace {

BitVector noise_frame(std::size_t nbits, std::uint64_t seed) {
  BitVector v(nbits);
  Rng rng(seed);
  for (std::size_t w = 0; w < v.num_words(); ++w) {
    v.set_word(w, static_cast<std::uint32_t>(rng.next()));
  }
  return v;
}

/// Mean time of one call. The clock is read once per batch of `batch`
/// calls, never between calls, so a call much shorter than a clock read
/// (a 20-word frame copy) is not timed as the clock.
template <typename F>
double ns_per_call(F&& f) {
  const int batch = benchutil::smoke_mode() ? 64 : 512;
  const double min_seconds = benchutil::smoke_mode() ? 0.01 : 0.1;
  f();  // warm up
  std::int64_t iters = 0;
  double elapsed = 0;
  benchutil::Stopwatch sw;
  do {
    for (int i = 0; i < batch; ++i) f();
    iters += batch;
    elapsed = sw.seconds();
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(iters);
}

void bench_kernels() {
  using benchutil::fmt;
  const std::vector<const char*> parts =
      benchutil::smoke_mode()
          ? std::vector<const char*>{"XCV50"}
          : std::vector<const char*>{"XCV50", "XCV300", "XCV800", "XCV1000"};

  benchutil::JsonReport report;
  benchutil::Table t({"device", "frame bits", "kernel", "ns/frame", "GB/s"});
  benchutil::Table planes({"device", "plane words", "crc16 word ns/word",
                           "crc16 run ns/word", "plane copy ns"});
  for (const char* part : parts) {
    const Device& dev = Device::get(part);
    const std::size_t nbits = dev.frames().frame_words() * 32;
    const double gb = static_cast<double>(nbits) / 8.0;  // bytes per call
    const BitVector src = noise_frame(nbits, 1);
    const BitVector other = noise_frame(nbits, 2);
    BitVector dst = noise_frame(nbits, 3);

    // The partial generator's row-window blit: skip a few bits of header,
    // copy the body. Offsets chosen so head/tail masks and the word middle
    // are all exercised, like FrameMap::row_bit_base windows are.
    const std::size_t pos = 18;
    const std::size_t len = nbits - 40;

    const double inplace_ns =
        ns_per_call([&] { dst.copy_range(src, pos, len); });
    const double reloc_co_ns = ns_per_call(
        [&] { dst.copy_range(src, pos, pos + 64, len - 80); });
    const double reloc_mis_ns = ns_per_call(
        [&] { dst.copy_range(src, pos, pos + 13, len - 40); });
    dst = other;  // equal ranges: diff scans the entire window
    const double diff_ns = ns_per_call([&] {
      benchmark::DoNotOptimize(dst.diff_in_range(other, pos, len));
    });
    const double pop_ns =
        ns_per_call([&] { benchmark::DoNotOptimize(src.popcount()); });

    struct Row {
      const char* kernel;
      const char* key;
      double ns;
    };
    for (const Row& r :
         {Row{"copy_range in-place", "copy_inplace_ns", inplace_ns},
          Row{"copy_range reloc co-aligned", "copy_reloc_aligned_ns",
              reloc_co_ns},
          Row{"copy_range reloc misaligned", "copy_reloc_misaligned_ns",
              reloc_mis_ns},
          Row{"diff_in_range (equal)", "diff_ns", diff_ns},
          Row{"popcount", "popcount_ns", pop_ns}}) {
      t.row({part, std::to_string(nbits), r.kernel, fmt(r.ns, 0),
             fmt(gb / r.ns, 2)});
      report.set(part, r.key, r.ns);
    }
    report.set(part, "frame_bits", static_cast<double>(nbits));

    // One full-plane FDRI payload through the CRC, then a plane copy.
    ConfigMemory plane(dev);
    const BitVector noise = noise_frame(plane.num_frames() * nbits, 4);
    plane.write_frames(0, noise.words());
    const std::span<const std::uint32_t> payload =
        std::as_const(plane).frame_run(0, plane.num_frames());
    constexpr auto kFdri = static_cast<std::uint32_t>(ConfigReg::FDRI);
    Crc16 crc;
    const double n = static_cast<double>(payload.size());
    const double crc_word_ns = ns_per_call([&] {
      for (const std::uint32_t w : payload) crc.update(kFdri, w);
      benchmark::DoNotOptimize(crc.value());
    }) / n;
    const double crc_run_ns = ns_per_call([&] {
      crc.update_run(kFdri, payload);
      benchmark::DoNotOptimize(crc.value());
    }) / n;
    ConfigMemory copy(dev);
    const double copy_ns = ns_per_call([&] {
      copy = plane;
      benchmark::DoNotOptimize(copy.frame(0).words().data());
    });
    planes.row({part, std::to_string(payload.size()), fmt(crc_word_ns, 2),
                fmt(crc_run_ns, 2), fmt(copy_ns, 0)});
    report.set(part, "crc16_word_ns_per_word", crc_word_ns);
    report.set(part, "crc16_run_ns_per_word", crc_run_ns);
    report.set(part, "plane_copy_ns", copy_ns);
    report.set(part, "misaligned_penalty", reloc_mis_ns / reloc_co_ns);
    report.set(part, "host_cpus",
               static_cast<double>(benchutil::host_cpus()));
  }
  t.print("WORD KERNELS: BitSpan bulk ops on frame geometries");
  planes.print("WORD KERNELS: configuration CRC and plane copy per part");
  std::printf("co-aligned relocation and in-place blits ride the memcpy/"
              "vector path; the misaligned\nfunnel-shift fallback is the "
              "price of odd bit offsets (rare in frame composition).\n");
  benchutil::add_telemetry_section(report);
  report.write_file("BENCH_word_kernels.json");
}

}  // namespace
}  // namespace jpg

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  jpg::bench_kernels();
  return 0;
}
