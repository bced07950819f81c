// Metamorphic equivalence suite: seeded sweeps asserting relations that
// must hold between independent paths through the generator, regardless of
// the concrete design content.
//
//  1. Load-equivalence: a partial bitstream applied to the base plane via
//     the real configuration port leaves the device plane identical to
//     compose(module, region) — and loading the *full* BitGen stream of
//     that composed plane into a fresh device reproduces it again. The
//     overlay fast path, the port's FAR/FDRI decode and full BitGen must
//     all agree bit for bit.
//  2. Batch-equivalence: a batch of generate() calls over disjoint regions,
//     run concurrently on a pool against one caching generator, is
//     byte-identical to sequential uncached calls, cold and warm.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "core/partial_gen.h"
#include "support/thread_pool.h"

namespace jpg {
namespace {

/// Seeded pseudo-random content in the frames of `region`'s majors (the
/// only frames a partial for `region` may draw module bits from).
void scribble_region(ConfigMemory& mem, const Region& region,
                     std::mt19937_64& rng) {
  const Device& dev = mem.device();
  const FrameMap& fm = dev.frames();
  for (const int major : region.clb_majors(dev)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      for (std::size_t w = 0; w < fm.frame_words(); ++w) {
        mem.frame(idx).set_word(w, static_cast<std::uint32_t>(rng()));
      }
    }
  }
}

/// Seeded pseudo-random content over the whole plane.
void scribble_plane(ConfigMemory& mem, std::mt19937_64& rng) {
  const FrameMap& fm = mem.device().frames();
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    for (std::size_t w = 0; w < fm.frame_words(); ++w) {
      mem.frame(f).set_word(w, static_cast<std::uint32_t>(rng()));
    }
  }
}

bool planes_equal(const ConfigMemory& a, const ConfigMemory& b) {
  const FrameMap& fm = a.device().frames();
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    for (std::size_t w = 0; w < fm.frame_words(); ++w) {
      if (a.frame(f).word(w) != b.frame(f).word(w)) return false;
    }
  }
  return true;
}

Region region_for(const Device& dev, std::uint64_t seed) {
  // Vary position, width and height with the seed; stay on CLB columns.
  std::mt19937_64 rng(seed * 7919 + 13);
  const int width = 1 + static_cast<int>(rng() % 3);
  const int c0 = 2 + static_cast<int>(rng() % (dev.cols() - width - 4));
  const int r0 = static_cast<int>(rng() % (dev.rows() / 2));
  const int r1 = r0 + static_cast<int>(rng() % (dev.rows() - r0));
  return Region{r0, c0, r1, c0 + width - 1};
}

class MetamorphicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetamorphicSweep, PartialLoadEqualsComposeEqualsFullBitgen) {
  const std::uint64_t seed = GetParam();
  const Device& dev = Device::get("XCV50");
  std::mt19937_64 rng(seed);

  ConfigMemory base(dev);
  scribble_plane(base, rng);
  ConfigMemory module_plane(dev);
  const Region region = region_for(dev, seed);
  scribble_region(module_plane, region, rng);

  const PartialBitstreamGenerator gen(base);
  const PartialGenResult partial = gen.generate(module_plane, region);

  // Path 1: base plane mutated by the real port loading the partial.
  ConfigMemory via_port = base;
  {
    ConfigPort port(via_port);
    port.load(partial.bitstream);
  }
  // Path 2: direct frame-level composition.
  const ConfigMemory composed = gen.compose(module_plane, region);
  EXPECT_TRUE(planes_equal(via_port, composed))
      << "partial load diverged from compose() at seed " << seed << ", region "
      << region.to_string();

  // Path 3: full BitGen of the modified design, loaded into a fresh device.
  ConfigMemory via_full(dev);
  {
    ConfigPort port(via_full);
    port.load(generate_full_bitstream(composed));
  }
  EXPECT_TRUE(planes_equal(via_full, composed))
      << "full bitgen round-trip diverged at seed " << seed;
}

TEST_P(MetamorphicSweep, DiffOnlyPartialIsLoadEquivalentToo) {
  const std::uint64_t seed = GetParam();
  const Device& dev = Device::get("XCV50");
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);

  ConfigMemory base(dev);
  scribble_plane(base, rng);
  ConfigMemory module_plane(dev);
  const Region region = region_for(dev, seed);
  scribble_region(module_plane, region, rng);

  const PartialBitstreamGenerator gen(base);
  PartialGenOptions opts;
  opts.diff_only = true;
  const PartialGenResult partial = gen.generate(module_plane, region, opts);

  ConfigMemory via_port = base;
  {
    ConfigPort port(via_port);
    port.load(partial.bitstream);
  }
  EXPECT_TRUE(planes_equal(via_port, gen.compose(module_plane, region)))
      << "diff-only partial load diverged at seed " << seed;
}

TEST_P(MetamorphicSweep, BatchEqualsSequential) {
  const std::uint64_t seed = GetParam();
  const Device& dev = Device::get("XCV50");
  std::mt19937_64 rng(seed * 31 + 7);

  ConfigMemory base(dev);
  scribble_plane(base, rng);

  // Three disjoint fixed-column regions with seed-varied heights.
  std::vector<Region> regions;
  for (int k = 0; k < 3; ++k) {
    const int c0 = 2 + k * 6;
    const int r0 = static_cast<int>(rng() % (dev.rows() / 2));
    const int r1 = r0 + static_cast<int>(rng() % (dev.rows() - r0));
    regions.push_back(Region{r0, c0, r1, c0 + 3});
  }
  std::vector<ConfigMemory> modules;
  for (const Region& r : regions) {
    ConfigMemory m(dev);
    scribble_region(m, r, rng);
    modules.push_back(std::move(m));
  }

  // Sequential reference from an uncached generator; batch output from a
  // caching one (the cache must not change a single byte).
  const PartialBitstreamGenerator ref_gen(base, /*cache_capacity=*/0);
  const PartialBitstreamGenerator batch_gen(base);
  ThreadPool pool(3);
  const auto run_batch = [&] {
    std::vector<PartialGenResult> out(regions.size());
    pool.parallel_for(regions.size(), [&](std::size_t k) {
      out[k] = batch_gen.generate(modules[k], regions[k]);
    });
    return out;
  };
  const std::vector<PartialGenResult> batch = run_batch();
  for (std::size_t k = 0; k < regions.size(); ++k) {
    const PartialGenResult ref = ref_gen.generate(modules[k], regions[k]);
    EXPECT_EQ(batch[k].bitstream.words, ref.bitstream.words)
        << "batch result " << k << " diverged at seed " << seed;
    EXPECT_EQ(batch[k].frames, ref.frames);
    EXPECT_EQ(batch[k].far_blocks, ref.far_blocks);
  }

  // Repeating the batch (now cache-served) must stay byte-identical.
  const std::vector<PartialGenResult> again = run_batch();
  for (std::size_t k = 0; k < regions.size(); ++k) {
    EXPECT_EQ(again[k].bitstream.words, batch[k].bitstream.words);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace jpg
