// Pin/lease tests for the pbit cache: a pinned entry survives an eviction
// storm (its spans stay valid), leases released under a concurrent
// generate_batch keep the cache coherent (run under JPG_SANITIZE=thread),
// double-pin and unpin-without-pin are contract errors, and capacity-0
// leases own a private copy.
#include <gtest/gtest.h>

#include <thread>

#include "core/partial_gen.h"
#include "support/rng.h"

namespace jpg {
namespace {

class PbitLeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    base_ = std::make_unique<ConfigMemory>(*dev_);
    Rng rng(321);
    for (std::size_t f = 0; f < base_->num_frames(); ++f) {
      for (std::size_t w = 0; w < dev_->frames().frame_words(); ++w) {
        base_->frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
      }
    }
  }

  /// A module plane whose region content is keyed by `tag` — distinct tags
  /// produce distinct cache keys for the same region.
  ConfigMemory module_plane(std::uint32_t tag) const {
    ConfigMemory m(*dev_);
    for (std::size_t f = 0; f < m.num_frames(); ++f) {
      for (std::size_t w = 0; w < dev_->frames().frame_words(); ++w) {
        m.frame(f).set_word(
            w, (tag << 24) ^ static_cast<std::uint32_t>(f * 131 + w));
      }
    }
    return m;
  }

  const Device* dev_ = nullptr;
  std::unique_ptr<ConfigMemory> base_;
};

TEST_F(PbitLeaseTest, LeaseServesTheCachedWordsWithoutACopy) {
  const PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  const ConfigMemory mod = module_plane(1);
  const PartialGenResult want = gen.generate(mod, region);

  const PbitLease lease = gen.generate_leased(mod, region);
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease.bitstream().words, want.bitstream.words);
  EXPECT_EQ(lease.frames(), want.frames);
  EXPECT_EQ(lease.words().size(), want.bitstream.words.size());
  EXPECT_EQ(gen.cache_stats().pinned, 1u);
  // The span points at the cache's resident entry, not a fresh buffer:
  // a second (hypothetical) copy would have a different address, and the
  // result reference stays stable across unrelated cache churn below.
  const std::uint32_t* resident = lease.words().data();
  for (std::uint32_t t = 10; t < 14; ++t) {
    (void)gen.generate(module_plane(t), region);
  }
  EXPECT_EQ(lease.words().data(), resident);
}

TEST_F(PbitLeaseTest, PinnedEntrySurvivesEvictionStorm) {
  PartialBitstreamGenerator gen(*base_);
  gen.set_cache_capacity(2);
  const Region region{0, 5, dev_->rows() - 1, 8};
  const ConfigMemory mod = module_plane(1);
  const PartialGenResult want = gen.generate(mod, region);

  PbitLease lease = gen.generate_leased(mod, region);
  ASSERT_TRUE(lease.valid());
  // Storm: far more distinct entries than the capacity holds. The pinned
  // entry is LRU-exempt; everything else cycles through.
  for (std::uint32_t t = 2; t < 22; ++t) {
    (void)gen.generate(module_plane(t), region);
  }
  EXPECT_EQ(lease.bitstream().words, want.bitstream.words);
  PbitCacheStats stats = gen.cache_stats();
  EXPECT_EQ(stats.pinned, 1u);
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_GT(stats.evictions, 0u);

  // Once released the entry is evictable again: shrink to zero and the
  // cache fully drains.
  lease.release();
  EXPECT_EQ(gen.cache_stats().pinned, 0u);
  gen.set_cache_capacity(0);
  EXPECT_EQ(gen.cache_stats().entries, 0u);
}

TEST_F(PbitLeaseTest, EvictionDeferredWhilePinnedAppliesOnUnpin) {
  PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  PbitLease lease = gen.generate_leased(module_plane(1), region);
  // Capacity 0 normally drops everything; the pinned entry must stay.
  gen.set_cache_capacity(0);
  EXPECT_EQ(gen.cache_stats().entries, 1u);
  EXPECT_EQ(gen.cache_stats().pinned, 1u);
  lease.release();
  // The deferred eviction fires at unpin time.
  EXPECT_EQ(gen.cache_stats().entries, 0u);
  EXPECT_EQ(gen.cache_stats().pinned, 0u);
}

// A ledger shares the leased result instead of copying it. Sharing is not
// pinning: once the lease is released the entry evicts as usual, and the
// shared result stays valid — the same object the cache held, not a copy.
TEST_F(PbitLeaseTest, SharedResultOutlivesEvictionWithoutPinning) {
  PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  const ConfigMemory mod = module_plane(1);
  const PartialGenResult want = gen.generate(mod, region);
  PbitLease lease = gen.generate_leased(mod, region);
  const std::shared_ptr<const PartialGenResult> shared = lease.shared();
  EXPECT_EQ(shared.get(), &lease.result());
  EXPECT_EQ(gen.cache_stats().pinned, 1u);
  lease.release();
  EXPECT_EQ(gen.cache_stats().pinned, 0u);
  gen.set_cache_capacity(0);
  EXPECT_EQ(gen.cache_stats().entries, 0u);
  EXPECT_EQ(gen.cache_stats().evictions, 1u);
  EXPECT_EQ(shared->bitstream.words, want.bitstream.words);
  EXPECT_THROW((void)lease.shared(), JpgError);
}

TEST_F(PbitLeaseTest, ClearCacheKeepsPinnedEntries) {
  PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  const ConfigMemory mod = module_plane(1);
  const PbitLease lease = gen.generate_leased(mod, region);
  (void)gen.generate(module_plane(2), region);
  gen.clear_cache();
  // The unpinned entry is gone; the leased one still answers lookups.
  EXPECT_EQ(gen.cache_stats().entries, 1u);
  EXPECT_TRUE(lease.valid());
  (void)gen.generate(mod, region);
  EXPECT_EQ(gen.cache_stats().hits, 1u);
}

TEST_F(PbitLeaseTest, DoublePinThrows) {
  const PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  const ConfigMemory mod = module_plane(1);
  PbitLease lease = gen.generate_leased(mod, region);
  EXPECT_THROW((void)gen.generate_leased(mod, region), JpgError);
  // A plain generate() against the pinned entry is fine (it copies).
  EXPECT_EQ(gen.generate(mod, region).bitstream.words,
            lease.bitstream().words);
  // After release, leasing the same key works again.
  lease.release();
  const PbitLease again = gen.generate_leased(mod, region);
  EXPECT_TRUE(again.valid());
}

TEST_F(PbitLeaseTest, UnpinWithoutPinThrows) {
  const PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  PbitLease lease = gen.generate_leased(module_plane(1), region);
  lease.release();
  EXPECT_FALSE(lease.valid());
  EXPECT_THROW(lease.release(), JpgError);
  EXPECT_THROW((void)lease.result(), JpgError);
  PbitLease never;
  EXPECT_THROW(never.release(), JpgError);
}

TEST_F(PbitLeaseTest, MoveTransfersThePin) {
  const PartialBitstreamGenerator gen(*base_);
  const Region region{0, 5, dev_->rows() - 1, 8};
  PbitLease a = gen.generate_leased(module_plane(1), region);
  const std::uint32_t* resident = a.words().data();
  PbitLease b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): contract
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.words().data(), resident);
  EXPECT_EQ(gen.cache_stats().pinned, 1u);
  b.release();
  EXPECT_EQ(gen.cache_stats().pinned, 0u);
}

TEST_F(PbitLeaseTest, CapacityZeroLeaseOwnsAPrivateCopy) {
  PartialBitstreamGenerator gen(*base_);
  gen.set_cache_capacity(0);
  const Region region{0, 5, dev_->rows() - 1, 8};
  PbitLease lease = gen.generate_leased(module_plane(1), region);
  ASSERT_TRUE(lease.valid());
  EXPECT_FALSE(lease.words().empty());
  EXPECT_EQ(gen.cache_stats().entries, 0u);
  EXPECT_EQ(gen.cache_stats().pinned, 0u);
  lease.release();
  EXPECT_THROW(lease.release(), JpgError);
}

// TSan coverage: leases pinned/released while generate_batch workers churn
// the same cache. The pinned entries' words must remain stable throughout,
// and the final cache state coherent.
TEST_F(PbitLeaseTest, LeaseUnderConcurrentBatchChurn) {
  PartialBitstreamGenerator gen(*base_);
  gen.set_cache_capacity(4);
  const Region lease_region{0, 2, dev_->rows() - 1, 3};
  const ConfigMemory lease_mod = module_plane(99);
  const PartialGenResult want = gen.generate(lease_mod, lease_region);

  // Disjoint-major batch regions, away from the leased region's columns.
  const ConfigMemory m1 = module_plane(11);
  const ConfigMemory m2 = module_plane(12);
  const ConfigMemory m3 = module_plane(13);
  const std::vector<RegionUpdate> updates = {
      {&m1, Region{0, 6, dev_->rows() - 1, 7}, {}},
      {&m2, Region{0, 10, dev_->rows() - 1, 11}, {}},
      {&m3, Region{0, 14, dev_->rows() - 1, 15}, {}},
  };

  for (int round = 0; round < 8; ++round) {
    PbitLease lease = gen.generate_leased(lease_mod, lease_region);
    std::thread releaser([&lease] { lease.release(); });
    const auto results = gen.generate_batch(updates, 3);
    releaser.join();
    ASSERT_EQ(results.size(), updates.size());
    EXPECT_FALSE(lease.valid());
  }
  const PbitCacheStats stats = gen.cache_stats();
  EXPECT_EQ(stats.pinned, 0u);
  EXPECT_LE(stats.entries, stats.capacity);
  // The leased pbit still regenerates/serves byte-identically.
  EXPECT_EQ(gen.generate(lease_mod, lease_region).bitstream.words,
            want.bitstream.words);
}

}  // namespace
}  // namespace jpg
