// Unit tests for PartialBitstreamGenerator: frame composition (including
// rectangular, non-full-height regions), FAR-run coalescing, CRC options,
// and the non-disruptiveness property at the bit level.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "bitstream/bitstream_reader.h"
#include "bitstream/config_port.h"
#include "core/partial_gen.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace jpg {
namespace {

class PartialGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    base_ = std::make_unique<ConfigMemory>(*dev_);
    module_ = std::make_unique<ConfigMemory>(*dev_);
    // Fill both planes with distinct reproducible noise.
    Rng rng(123);
    for (std::size_t f = 0; f < base_->num_frames(); ++f) {
      for (std::size_t w = 0; w < dev_->frames().frame_words(); ++w) {
        base_->frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
        module_->frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
      }
    }
  }

  const Device* dev_ = nullptr;
  std::unique_ptr<ConfigMemory> base_;
  std::unique_ptr<ConfigMemory> module_;
};

TEST_F(PartialGenTest, ComposeFullHeightReplacesRegionColumns) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  const ConfigMemory composed = gen.compose(*module_, region);

  const FrameMap& fm = dev_->frames();
  const auto majors = region.clb_majors(*dev_);
  for (std::size_t f = 0; f < composed.num_frames(); ++f) {
    const auto a = fm.address_of_index(f);
    const bool in_region =
        std::find(majors.begin(), majors.end(), static_cast<int>(a.major)) !=
        majors.end();
    if (!in_region) {
      EXPECT_FALSE(composed.frame(f).differs_from(base_->frame(f)))
          << fm.describe_frame(f);
      continue;
    }
    // In-region frame: region rows from the module, padding rows from base.
    for (int r = 0; r < dev_->rows(); ++r) {
      const ConfigMemory& want = region.contains_row(r) ? *module_ : *base_;
      for (int b = 0; b < FrameMap::kBitsPerRow; ++b) {
        const std::size_t bit = fm.row_bit_base(r) + static_cast<std::size_t>(b);
        ASSERT_EQ(composed.frame(f).get(bit), want.frame(f).get(bit))
            << fm.describe_frame(f) << " row " << r << " bit " << b;
      }
    }
    // The top/bottom padding windows always come from the base.
    for (int b = 0; b < FrameMap::kBitsPerRow; ++b) {
      EXPECT_EQ(composed.frame(f).get(static_cast<std::size_t>(b)),
                base_->frame(f).get(static_cast<std::size_t>(b)));
    }
  }
}

TEST_F(PartialGenTest, ComposeRectangularRegionMergesRows) {
  // Rows 4..9 only: out-of-region rows of the region columns must keep the
  // base content (the non-disruptiveness property for 2D regions).
  const Region region{4, 10, 9, 12};
  const PartialBitstreamGenerator gen(*base_);
  const ConfigMemory composed = gen.compose(*module_, region);

  const FrameMap& fm = dev_->frames();
  for (const int major : region.clb_majors(*dev_)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t f = fm.frame_index(major, minor);
      for (int r = 0; r < dev_->rows(); ++r) {
        const ConfigMemory& want = region.contains_row(r) ? *module_ : *base_;
        for (int b = 0; b < FrameMap::kBitsPerRow; b += 5) {
          const std::size_t bit =
              fm.row_bit_base(r) + static_cast<std::size_t>(b);
          ASSERT_EQ(composed.frame(f).get(bit), want.frame(f).get(bit))
              << "major " << major << " minor " << minor << " row " << r;
        }
      }
    }
  }
}

TEST_F(PartialGenTest, GeneratedStreamLoadsToComposedState) {
  const Region region{2, 7, 11, 9};  // rectangular on purpose
  const PartialBitstreamGenerator gen(*base_);
  const PartialGenResult pr = gen.generate(*module_, region);

  ConfigMemory loaded = *base_;
  ConfigPort port(loaded);
  port.load(pr.bitstream);
  EXPECT_EQ(loaded, gen.compose(*module_, region));
}

TEST_F(PartialGenTest, AllFramesModeShipsWholeColumns) {
  const Region region{0, 5, dev_->rows() - 1, 6};
  const PartialBitstreamGenerator gen(*base_);
  PartialGenOptions opts;
  opts.diff_only = false;
  const PartialGenResult pr = gen.generate(*module_, region, opts);
  EXPECT_EQ(pr.frames.size(),
            static_cast<std::size_t>(region.width()) * FrameMap::kClbFrames);
  // Contiguity check: adjacent CLB columns may or may not be adjacent
  // majors (the clock column intervenes mid-device), so the block count is
  // between 1 and the column count.
  EXPECT_GE(pr.far_blocks, 1u);
  EXPECT_LE(pr.far_blocks, static_cast<std::size_t>(region.width()));
}

TEST_F(PartialGenTest, DiffOnlySkipsIdenticalFrames) {
  // Make module identical to base except one frame's region rows.
  const Region region{0, 5, dev_->rows() - 1, 8};
  ConfigMemory same = *base_;
  const int major = dev_->frames().major_of_clb_col(6);
  const std::size_t touched = dev_->frames().frame_index(major, 17);
  same.frame(touched).set(dev_->frames().row_bit_base(3) + 2,
                          !base_->frame(touched).get(
                              dev_->frames().row_bit_base(3) + 2));
  const PartialBitstreamGenerator gen(*base_);
  PartialGenOptions opts;
  opts.diff_only = true;
  const PartialGenResult pr = gen.generate(same, region, opts);
  ASSERT_EQ(pr.frames.size(), 1u);
  EXPECT_EQ(pr.frames[0], touched);
  EXPECT_EQ(pr.far_blocks, 1u);
}

TEST_F(PartialGenTest, FarRunsCoalesceContiguousFrames) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  ConfigMemory same = *base_;
  const int major = dev_->frames().major_of_clb_col(6);
  // Touch frames 10,11,12 (one run) and 20 (second run).
  for (const int minor : {10, 11, 12, 20}) {
    const std::size_t f = dev_->frames().frame_index(major, minor);
    same.frame(f).set(dev_->frames().row_bit_base(1), true);
    // Ensure the flip actually differs from base.
    same.frame(f).set(dev_->frames().row_bit_base(1),
                      !base_->frame(f).get(dev_->frames().row_bit_base(1)));
  }
  const PartialBitstreamGenerator gen(*base_);
  PartialGenOptions opts;
  opts.diff_only = true;
  const PartialGenResult pr = gen.generate(same, region, opts);
  EXPECT_EQ(pr.frames.size(), 4u);
  EXPECT_EQ(pr.far_blocks, 2u);

  // And the stream declares exactly those FAR blocks.
  const BitstreamReader reader(pr.bitstream);
  const auto blocks = reader.far_blocks(dev_->frames().frame_words());
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].second, 3u);
  EXPECT_EQ(blocks[1].second, 1u);
}

TEST_F(PartialGenTest, NoCrcOptionOmitsCrcButStillLoads) {
  const Region region{0, 5, dev_->rows() - 1, 5};
  const PartialBitstreamGenerator gen(*base_);
  PartialGenOptions opts;
  opts.include_crc = false;
  const PartialGenResult pr = gen.generate(*module_, region, opts);
  const BitstreamReader reader(pr.bitstream);
  for (const auto& w : reader.writes()) {
    EXPECT_NE(w.reg, ConfigReg::CRC);
  }
  ConfigMemory loaded = *base_;
  ConfigPort port(loaded);
  EXPECT_NO_THROW(port.load(pr.bitstream));
}

TEST_F(PartialGenTest, EmptyDiffYieldsFramelessStream) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  PartialGenOptions opts;
  opts.diff_only = true;
  const PartialGenResult pr = gen.generate(*base_, region, opts);
  EXPECT_TRUE(pr.frames.empty());
  EXPECT_EQ(pr.far_blocks, 0u);
  // Still a well-formed (if pointless) stream.
  ConfigMemory loaded = *base_;
  ConfigPort port(loaded);
  EXPECT_NO_THROW(port.load(pr.bitstream));
  EXPECT_EQ(loaded, *base_);
}

TEST_F(PartialGenTest, RejectsOutOfBoundsRegion) {
  const PartialBitstreamGenerator gen(*base_);
  EXPECT_THROW((void)gen.compose(*module_, Region{0, 0, 99, 99}), JpgError);
  EXPECT_THROW((void)gen.generate(*module_, Region{0, 0, 99, 99}), JpgError);
}

TEST_F(PartialGenTest, GenerateMatchesSeedFramePath) {
  // Byte-identity of the generation path against the original pipeline
  // (full compose + explicit frame list through generate_frames).
  const Region region{2, 7, 11, 9};
  const PartialBitstreamGenerator gen(*base_, /*cache_capacity=*/0);
  const FrameMap& fm = dev_->frames();
  for (const bool diff_only : {false, true}) {
    PartialGenOptions opts;
    opts.diff_only = diff_only;
    const ConfigMemory composed = gen.compose(*module_, region);
    std::vector<std::size_t> frames;
    for (const int major : region.clb_majors(*dev_)) {
      for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
        const std::size_t idx = fm.frame_index(major, minor);
        if (!diff_only ||
            composed.frame(idx).differs_from(base_->frame(idx))) {
          frames.push_back(idx);
        }
      }
    }
    const PartialGenResult seed = gen.generate_frames(composed, frames, opts);
    const PartialGenResult fast = gen.generate(*module_, region, opts);
    EXPECT_EQ(fast.bitstream.words, seed.bitstream.words)
        << "diff_only=" << diff_only;
    EXPECT_EQ(fast.frames, seed.frames);
    EXPECT_EQ(fast.far_blocks, seed.far_blocks);
    frames.clear();
  }
}

TEST_F(PartialGenTest, ConcurrentGenerateMatchesSequentialGenerate) {
  // Concurrent callers (the service generates leases from several pool
  // workers at once) share one cache: generate() on disjoint regions from
  // a 3-worker pool is byte-identical to sequential uncached calls.
  PartialGenOptions diff;
  diff.diff_only = true;
  const std::vector<std::pair<Region, PartialGenOptions>> updates = {
      {Region{0, 2, dev_->rows() - 1, 5}, {}},
      {Region{3, 8, 10, 11}, diff},
      {Region{0, 14, 7, 17}, {}},
  };
  const PartialBitstreamGenerator par(*base_);
  ThreadPool pool(3);
  std::vector<PartialGenResult> got(updates.size());
  const auto run = [&](std::size_t i) {
    got[i] = par.generate(*module_, updates[i].first, updates[i].second);
  };
  pool.parallel_for(updates.size(), run);
  const PartialBitstreamGenerator seq(*base_, /*cache_capacity=*/0);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const PartialGenResult want =
        seq.generate(*module_, updates[i].first, updates[i].second);
    EXPECT_EQ(got[i].bitstream.words, want.bitstream.words) << "update " << i;
    EXPECT_EQ(got[i].frames, want.frames) << "update " << i;
    EXPECT_EQ(got[i].far_blocks, want.far_blocks) << "update " << i;
  }
  // Repeating the calls (now warm in the cache) must be just as identical.
  const std::vector<PartialGenResult> cold = got;
  pool.parallel_for(updates.size(), run);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(got[i].bitstream.words, cold[i].bitstream.words);
  }
  EXPECT_EQ(par.cache_stats().hits, updates.size());
}

TEST_F(PartialGenTest, CacheHitServesIdenticalBytes) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  const PartialGenResult first = gen.generate(*module_, region);
  const PartialGenResult again = gen.generate(*module_, region);
  EXPECT_EQ(again.bitstream.words, first.bitstream.words);
  EXPECT_EQ(again.frames, first.frames);
  const PbitCacheStats stats = gen.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST_F(PartialGenTest, CacheMissesOnModuleEdit) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  (void)gen.generate(*module_, region);
  // Flip a module bit inside the region window: the content hash changes,
  // so the stale entry must not be served.
  const FrameMap& fm = dev_->frames();
  const std::size_t f = fm.frame_index(fm.major_of_clb_col(6), 3);
  const std::size_t bit = fm.row_bit_base(4) + 7;
  module_->frame(f).set(bit, !module_->frame(f).get(bit));
  const PartialGenResult fresh = gen.generate(*module_, region);
  EXPECT_EQ(gen.cache_stats().misses, 2u);
  EXPECT_EQ(gen.cache_stats().hits, 0u);
  const PartialBitstreamGenerator uncached(*base_, /*cache_capacity=*/0);
  EXPECT_EQ(fresh.bitstream.words,
            uncached.generate(*module_, region).bitstream.words);
}

TEST_F(PartialGenTest, CacheMissesOnBaseMutation) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  (void)gen.generate(*module_, region);
  // Mutate the base in a padding window of a region-major frame (the
  // write_onto_base scenario): padding rows come from the base, so the
  // correct output actually changes — a stale cache hit would be wrong.
  const FrameMap& fm = dev_->frames();
  const std::size_t f = fm.frame_index(fm.major_of_clb_col(6), 3);
  base_->frame(f).set(3, !base_->frame(f).get(3));
  const PartialGenResult fresh = gen.generate(*module_, region);
  EXPECT_EQ(gen.cache_stats().misses, 2u);
  EXPECT_EQ(gen.cache_stats().hits, 0u);
  const PartialBitstreamGenerator uncached(*base_, /*cache_capacity=*/0);
  EXPECT_EQ(fresh.bitstream.words,
            uncached.generate(*module_, region).bitstream.words);
}

TEST_F(PartialGenTest, CacheDistinguishesOptions) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  PartialGenOptions no_crc;
  no_crc.include_crc = false;
  const PartialGenResult with_crc = gen.generate(*module_, region);
  const PartialGenResult without = gen.generate(*module_, region, no_crc);
  EXPECT_EQ(gen.cache_stats().misses, 2u);
  EXPECT_EQ(gen.cache_stats().hits, 0u);
  EXPECT_NE(with_crc.bitstream.words, without.bitstream.words);
}

TEST_F(PartialGenTest, CacheIsThreadSafeUnderConcurrentGenerate) {
  // ThreadPool::global() may be a single worker on a small host; force a
  // 4-worker pool so the cache mutex really is contended (and so the TSan
  // build of this test exercises cross-thread access).
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_);
  const PartialGenResult want = gen.generate(*module_, region);
  ThreadPool pool(4);
  std::vector<PartialGenResult> got(16);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    PartialGenOptions opts;
    opts.include_crc = (i % 2 == 0);
    got[i] = gen.generate(*module_, region, opts);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(got[i].bitstream.words, want.bitstream.words) << i;
    } else {
      EXPECT_EQ(got[i].frames, want.frames) << i;
    }
  }
  const PbitCacheStats stats = gen.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 17u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST_F(PartialGenTest, CacheEvictsLeastRecentlyUsed) {
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_, /*cache_capacity=*/1);
  PartialGenOptions no_crc;
  no_crc.include_crc = false;
  (void)gen.generate(*module_, region);          // miss, cached
  (void)gen.generate(*module_, region, no_crc);  // miss, evicts the first
  (void)gen.generate(*module_, region);          // miss again
  const PbitCacheStats stats = gen.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 1u);
}

TEST_F(PartialGenTest, CacheStatsSnapshotIsCoherentUnderLoad) {
  // All four tallies are mutated inside the same critical section, so a
  // snapshot taken at *any* instant — here from a sampler thread racing
  // eight generator threads through a capacity-2 cache — must satisfy
  // hits + misses == lookups and entries <= capacity. A torn snapshot
  // (counters read outside the lock, or mutated in separate sections)
  // makes this fail within a handful of samples.
  const Region region{0, 5, dev_->rows() - 1, 8};
  const PartialBitstreamGenerator gen(*base_, /*cache_capacity=*/2);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const PbitCacheStats s = gen.cache_stats();
      if (s.hits + s.misses != s.lookups || s.entries > s.capacity) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  ThreadPool pool(4);
  pool.parallel_for(64, [&](std::size_t i) {
    PartialGenOptions opts;
    opts.include_crc = (i % 3 != 0);
    opts.diff_only = (i % 3 == 2);  // three distinct keys -> steady eviction
    (void)gen.generate(*module_, region, opts);
  });
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(violations.load(), 0);
  const PbitCacheStats stats = gen.cache_stats();
  EXPECT_EQ(stats.lookups, 64u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, stats.capacity);
}

}  // namespace
}  // namespace jpg
