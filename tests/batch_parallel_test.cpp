// Determinism and audit tests for the parallel generate_batch fan-out: the
// batch output must be byte-identical at any requested width (every update
// composes against the immutable base plane and lands in its input slot),
// and the result must honestly report the fan-out it actually ran with
// (PartialGenResult::workers_used, at most the requested width on
// ThreadPool::global()) so a silent fall-back to an inline loop can never
// masquerade as batch parallelism.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/partial_gen.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace jpg {
namespace {

ConfigMemory noise_plane(const Device& dev, std::uint64_t seed) {
  ConfigMemory mem(dev);
  Rng rng(seed);
  const std::size_t fw = dev.frames().frame_words();
  for (std::size_t f = 0; f < mem.num_frames(); ++f) {
    for (std::size_t w = 0; w < fw; ++w) {
      mem.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }
  return mem;
}

TEST(BatchParallel, ByteIdenticalAcrossPoolWidthsOnXCV800) {
  // XCV800-sized batch: eight disjoint full-height slots over four module
  // planes, wide enough that every pool width really fans out.
  const Device& dev = Device::get("XCV800");
  const ConfigMemory base = noise_plane(dev, 1);
  std::vector<ConfigMemory> pool;
  for (std::uint64_t s = 2; s <= 5; ++s) pool.push_back(noise_plane(dev, s));

  PartialGenOptions diff;
  diff.diff_only = true;
  std::vector<RegionUpdate> updates;
  for (int i = 0; i < 8; ++i) {
    const int c0 = 2 + i * ((dev.cols() - 4) / 8);
    updates.push_back({&pool[static_cast<std::size_t>(i) % pool.size()],
                       Region{0, c0, dev.rows() - 1, c0 + 2},
                       i % 2 == 0 ? PartialGenOptions{} : diff});
  }

  const PartialBitstreamGenerator gen(base, /*cache_capacity=*/0);
  const auto baseline = gen.generate_batch(updates, 1);
  ASSERT_EQ(baseline.size(), updates.size());
  for (const PartialGenResult& r : baseline) EXPECT_EQ(r.workers_used, 1u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto res = gen.generate_batch(updates, threads);
    ASSERT_EQ(res.size(), updates.size()) << "threads " << threads;
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].bitstream.words, baseline[i].bitstream.words)
          << "update " << i << " threads " << threads;
      EXPECT_EQ(res[i].frames, baseline[i].frames)
          << "update " << i << " threads " << threads;
      EXPECT_EQ(res[i].far_blocks, baseline[i].far_blocks)
          << "update " << i << " threads " << threads;
      // Audit: an observed fan-out of at least one runner, at most the
      // requested width and at most the global pool plus the caller.
      EXPECT_GE(res[i].workers_used, 1u);
      EXPECT_LE(res[i].workers_used,
                std::min(threads, ThreadPool::global().size() + 1));
    }
  }
}

TEST(BatchParallel, CachedBatchStaysByteIdenticalAcrossPoolWidths) {
  // With the pbit cache live, parallel cache insertion must not change
  // bytes either: warm hits and cold misses mix across threads.
  const Device& dev = Device::get("XCV100");
  const ConfigMemory base = noise_plane(dev, 7);
  std::vector<ConfigMemory> pool;
  for (std::uint64_t s = 11; s <= 13; ++s) pool.push_back(noise_plane(dev, s));

  std::vector<RegionUpdate> updates;
  for (int i = 0; i < 6; ++i) {
    const int c0 = 1 + i * ((dev.cols() - 2) / 6);
    updates.push_back({&pool[static_cast<std::size_t>(i) % pool.size()],
                       Region{0, c0, dev.rows() - 1, c0 + 1},
                       PartialGenOptions{}});
  }

  const PartialBitstreamGenerator gen(base);
  // Pre-warm half the cache so the batch mixes hits and misses.
  for (std::size_t i = 0; i < updates.size(); i += 2) {
    (void)gen.generate(*updates[i].module_config, updates[i].region,
                       updates[i].opts);
  }
  const auto baseline = gen.generate_batch(updates, 1);
  for (const std::size_t threads : {4u, 8u}) {
    const auto res = gen.generate_batch(updates, threads);
    ASSERT_EQ(res.size(), baseline.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].bitstream.words, baseline[i].bitstream.words)
          << "update " << i << " threads " << threads;
      EXPECT_GE(res[i].workers_used, 1u);
      EXPECT_LE(res[i].workers_used,
                std::min(threads, ThreadPool::global().size() + 1));
    }
  }
}

TEST(BatchParallel, DefaultWidthUsesGlobalPool) {
  const Device& dev = Device::get("XCV50");
  const ConfigMemory base = noise_plane(dev, 3);
  const ConfigMemory mod = noise_plane(dev, 4);
  const std::vector<RegionUpdate> updates = {
      {&mod, Region{0, 2, dev.rows() - 1, 4}, {}},
      {&mod, Region{0, 8, dev.rows() - 1, 10}, {}},
  };
  const PartialBitstreamGenerator gen(base, /*cache_capacity=*/0);
  for (const PartialGenResult& r : gen.generate_batch(updates)) {
    EXPECT_GE(r.workers_used, 1u);
    EXPECT_LE(r.workers_used, ThreadPool::global().size() + 1);
  }
}

}  // namespace
}  // namespace jpg
