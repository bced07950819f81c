// Unit tests for the support substrate: BitVector, Rng, string utilities,
// ThreadPool, and error types.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "support/bitvec.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/thread_pool.h"

namespace jpg {
namespace {

TEST(BitVector, StartsZeroed) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.num_words(), 4u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(bv.get(i));
  }
  EXPECT_EQ(bv.popcount(), 0u);
}

TEST(BitVector, SetGetRoundtrip) {
  BitVector bv(70);
  bv.set(0, true);
  bv.set(31, true);
  bv.set(32, true);
  bv.set(69, true);
  EXPECT_TRUE(bv.get(0));
  EXPECT_TRUE(bv.get(31));
  EXPECT_TRUE(bv.get(32));
  EXPECT_TRUE(bv.get(69));
  EXPECT_FALSE(bv.get(1));
  EXPECT_EQ(bv.popcount(), 4u);
  bv.set(31, false);
  EXPECT_FALSE(bv.get(31));
  EXPECT_EQ(bv.popcount(), 3u);
}

TEST(BitVector, FieldAccess) {
  BitVector bv(64);
  bv.set_field(3, 7, 0b1011001);
  EXPECT_EQ(bv.get_field(3, 7), 0b1011001u);
  EXPECT_FALSE(bv.get(2));
  EXPECT_FALSE(bv.get(10));
  // Field spanning a word boundary.
  bv.set_field(28, 8, 0xA5);
  EXPECT_EQ(bv.get_field(28, 8), 0xA5u);
}

TEST(BitVector, WordAccessMasksTail) {
  BitVector bv(40);  // 8 tail bits in word 1
  bv.set_word(1, 0xFFFFFFFFu);
  EXPECT_EQ(bv.word(1), 0xFFu);
  EXPECT_EQ(bv.popcount(), 8u);
}

TEST(BitVector, EqualityAndDiff) {
  BitVector a(50), b(50);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.differs_from(b));
  b.set(17, true);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.differs_from(b));
}

// Reference BitVector filled with reproducible noise.
BitVector noise_vector(std::size_t nbits, std::uint64_t seed) {
  BitVector bv(nbits);
  Rng rng(seed);
  for (std::size_t w = 0; w < bv.num_words(); ++w) {
    bv.set_word(w, static_cast<std::uint32_t>(rng.next()));
  }
  return bv;
}

TEST(BitVector, CopyRangeExhaustiveBoundaries) {
  // All alignments 0..63 x lengths crossing one, two and three word
  // boundaries, verified bit-for-bit against a get/set reference —
  // including that bits outside the range stay untouched.
  constexpr std::size_t kBits = 64 + 3 * 32 + 64;  // headroom on both sides
  const BitVector src = noise_vector(kBits, 1);
  const BitVector dst0 = noise_vector(kBits, 2);
  for (std::size_t pos = 0; pos < 64; ++pos) {
    for (std::size_t len = 1; pos + len <= kBits && len <= 3 * 32 + 2;
         ++len) {
      BitVector got = dst0;
      got.copy_range(src, pos, len);
      BitVector want = dst0;
      for (std::size_t i = pos; i < pos + len; ++i) {
        want.set(i, src.get(i));
      }
      ASSERT_EQ(got, want) << "pos " << pos << " len " << len;
    }
  }
}

TEST(BitVector, CopyRangeRelocatingExhaustiveBoundaries) {
  constexpr std::size_t kBits = 256;
  const BitVector src = noise_vector(kBits, 3);
  const BitVector dst0 = noise_vector(kBits, 4);
  for (std::size_t sp = 0; sp < 40; ++sp) {
    for (std::size_t dp = 0; dp < 40; ++dp) {
      for (const std::size_t len : {1u, 17u, 31u, 32u, 33u, 64u, 65u, 97u}) {
        BitVector got = dst0;
        got.copy_range(src, sp, dp, len);
        BitVector want = dst0;
        for (std::size_t i = 0; i < len; ++i) {
          want.set(dp + i, src.get(sp + i));
        }
        ASSERT_EQ(got, want) << "sp " << sp << " dp " << dp << " len " << len;
      }
    }
  }
}

TEST(BitVector, CopyRangeZeroLengthIsNoop) {
  const BitVector src = noise_vector(96, 5);
  const BitVector dst0 = noise_vector(96, 6);
  BitVector got = dst0;
  got.copy_range(src, 40, 0);
  EXPECT_EQ(got, dst0);
  got.copy_range(src, 17, 55, 0);
  EXPECT_EQ(got, dst0);
}

TEST(BitVector, DiffInRangeExhaustiveBoundaries) {
  constexpr std::size_t kBits = 64 + 3 * 32 + 64;
  const BitVector a = noise_vector(kBits, 7);
  for (std::size_t pos = 0; pos < 64; ++pos) {
    for (const std::size_t len : {1u, 2u, 31u, 32u, 33u, 63u, 64u, 65u,
                                  95u, 96u, 97u}) {
      if (pos + len > kBits) continue;
      BitVector b = a;
      EXPECT_FALSE(a.diff_in_range(b, pos, len)) << pos << "+" << len;
      // A flipped bit just outside either edge must not register; one on
      // each edge and in the middle must.
      if (pos > 0) {
        b.set(pos - 1, !a.get(pos - 1));
        EXPECT_FALSE(a.diff_in_range(b, pos, len)) << pos << "+" << len;
        b = a;
      }
      if (pos + len < kBits) {
        b.set(pos + len, !a.get(pos + len));
        EXPECT_FALSE(a.diff_in_range(b, pos, len)) << pos << "+" << len;
        b = a;
      }
      for (const std::size_t at : {pos, pos + len / 2, pos + len - 1}) {
        b.set(at, !a.get(at));
        EXPECT_TRUE(a.diff_in_range(b, pos, len))
            << pos << "+" << len << " flip " << at;
        b = a;
      }
    }
  }
  EXPECT_FALSE(a.diff_in_range(a, 10, 0));
}

// The short-range boundary sweeps above never reach the word kernels' block
// paths (8-word XOR-OR reduction, memcpy middles, 64-bit popcount pairs);
// these long-range tests do, at deliberately ragged offsets and tails.

TEST(BitVector, CopyRangeLongMiddleUnalignedEdges) {
  constexpr std::size_t kBits = 41 * 32 + 13;  // ragged final word
  const BitVector src = noise_vector(kBits, 11);
  const BitVector dst0 = noise_vector(kBits, 12);
  for (const std::size_t pos : {0u, 1u, 13u, 31u, 32u, 45u}) {
    for (const std::size_t len : {std::size_t{257}, std::size_t{512},
                                  std::size_t{1024}, kBits - 64, kBits - pos}) {
      if (pos + len > kBits) continue;
      BitVector got = dst0;
      got.copy_range(src, pos, len);
      BitVector want = dst0;
      for (std::size_t i = pos; i < pos + len; ++i) want.set(i, src.get(i));
      ASSERT_EQ(got, want) << "pos " << pos << " len " << len;
    }
  }
}

TEST(BitVector, CopyRangeRelocatingLongCoAlignedAndMisaligned) {
  constexpr std::size_t kBits = 64 * 32;
  const BitVector src = noise_vector(kBits, 13);
  const BitVector dst0 = noise_vector(kBits, 14);
  // Co-aligned pairs (sp % 32 == dp % 32) ride the word-blit fast path even
  // when both offsets are odd; misaligned pairs take the funnel-shift
  // fallback. Both must match the bit-by-bit reference over many words.
  struct Case {
    std::size_t sp, dp;
  };
  for (const Case c : {Case{5, 5 + 3 * 32}, Case{29, 29 + 32}, Case{0, 64},
                       Case{31, 31 + 17 * 32},  // co-aligned
                       Case{5, 18}, Case{29, 32}, Case{0, 63},
                       Case{31, 1}}) {  // misaligned
    for (const std::size_t len :
         {std::size_t{300}, std::size_t{1000}, kBits / 2}) {
      if (c.sp + len > kBits || c.dp + len > kBits) continue;
      BitVector got = dst0;
      got.copy_range(src, c.sp, c.dp, len);
      BitVector want = dst0;
      for (std::size_t i = 0; i < len; ++i) {
        want.set(c.dp + i, src.get(c.sp + i));
      }
      ASSERT_EQ(got, want)
          << "sp " << c.sp << " dp " << c.dp << " len " << len;
    }
  }
}

TEST(BitVector, DiffInRangeLongBlocksFindEveryFlipPosition) {
  // One flipped bit per word of a >8-word middle must always register —
  // catches any lane dropped by the 8-wide reduction — and a flip just
  // outside the ragged edges must not.
  constexpr std::size_t kBits = 24 * 32 + 7;
  const BitVector a = noise_vector(kBits, 15);
  const std::size_t pos = 19;
  const std::size_t len = kBits - 40;
  BitVector b = a;
  EXPECT_FALSE(a.diff_in_range(b, pos, len));
  for (std::size_t at = pos; at < pos + len; at += 29) {  // every word, odd lanes
    b.set(at, !a.get(at));
    EXPECT_TRUE(a.diff_in_range(b, pos, len)) << "flip " << at;
    b = a;
  }
  b.set(pos - 1, !a.get(pos - 1));
  b.set(pos + len, !a.get(pos + len));
  EXPECT_FALSE(a.diff_in_range(b, pos, len));
}

TEST(BitVector, PopcountMatchesBitLoopOnRaggedSizes) {
  // Odd word counts exercise the 64-bit pair chunks plus the 32-bit tail.
  for (const std::size_t nbits : {0u, 1u, 31u, 32u, 33u, 64u, 65u,
                                  9u * 32u + 13u, 41u * 32u + 1u}) {
    const BitVector v = noise_vector(nbits, 16 + nbits);
    std::size_t want = 0;
    for (std::size_t i = 0; i < nbits; ++i) want += v.get(i) ? 1 : 0;
    EXPECT_EQ(v.popcount(), want) << "nbits " << nbits;
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit over 1000 draws
}

TEST(Rng, RangeInclusive) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngSplit, DeterministicAndOrderIndependent) {
  // split(i) is a pure function of (parent state, i): any call order, any
  // number of other splits, same child stream.
  const Rng parent(42);
  Rng c3a = parent.split(3);
  Rng c7 = parent.split(7);
  Rng c3b = parent.split(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c3a.next(), c3b.next());
  }
  bool differs = false;
  Rng c3c = parent.split(3);
  for (int i = 0; i < 100; ++i) {
    if (c3c.next() != c7.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngSplit, DoesNotConsumeParentState) {
  Rng a(123), b(123);
  (void)a.split(0);
  (void)a.split(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // And advancing the parent changes what split() derives.
  Rng p1(5), p2(5);
  (void)p2.next();
  Rng c1 = p1.split(1);
  Rng c2 = p2.split(1);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (c1.next() != c2.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngSplit, ChildStreamsAreStatisticallyIndependent) {
  // Statistical smoke test over 256 sibling streams: per-stream bit balance
  // stays near 0.5, and adjacent siblings agree on their low bits about
  // half the time (correlated streams — e.g. seed+i naive derivation —
  // fail the agreement bound badly).
  const Rng parent(2026);
  constexpr int kStreams = 256;
  constexpr int kDraws = 64;
  std::vector<std::vector<std::uint64_t>> draws(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Rng child = parent.split(static_cast<std::uint64_t>(s));
    for (int i = 0; i < kDraws; ++i) draws[s].push_back(child.next());
  }
  // Bit balance: over 64*64 = 4096 bits per stream, expect ~0.5.
  for (int s = 0; s < kStreams; ++s) {
    int ones = 0;
    for (const std::uint64_t v : draws[s]) ones += std::popcount(v);
    const double frac = static_cast<double>(ones) / (64.0 * kDraws);
    EXPECT_GT(frac, 0.45) << "stream " << s;
    EXPECT_LT(frac, 0.55) << "stream " << s;
  }
  // Pairwise agreement between adjacent streams: per-bit match rate ~0.5.
  for (int s = 0; s + 1 < kStreams; ++s) {
    int agree = 0;
    for (int i = 0; i < kDraws; ++i) {
      agree += std::popcount(~(draws[s][i] ^ draws[s + 1][i]));
    }
    const double frac = static_cast<double>(agree) / (64.0 * kDraws);
    EXPECT_GT(frac, 0.45) << "streams " << s << "," << s + 1;
    EXPECT_LT(frac, 0.55) << "streams " << s << "," << s + 1;
  }
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StringUtil, Split) {
  const auto v = split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "");
  EXPECT_EQ(v[3], "c");
}

TEST(StringUtil, SplitWs) {
  const auto v = split_ws("  foo\t bar baz ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "foo");
  EXPECT_EQ(v[2], "baz");
}

TEST(StringUtil, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("XCV50", "xcv50"));
  EXPECT_FALSE(iequals("XCV50", "XCV100"));
}

TEST(StringUtil, ParseUint) {
  EXPECT_EQ(parse_uint("123"), 123u);
  EXPECT_EQ(parse_uint("0x1F"), 31u);
  EXPECT_EQ(parse_uint(" 7 "), 7u);
  EXPECT_FALSE(parse_uint("12a").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("-3").has_value());
  EXPECT_FALSE(parse_uint("99999999999999999999999").has_value());
}

TEST(StringUtil, WildcardMatch) {
  EXPECT_TRUE(wildcard_match("u1/*", "u1/nrz"));
  EXPECT_TRUE(wildcard_match("*", "anything"));
  EXPECT_TRUE(wildcard_match("u*/ff*", "u12/ff3"));
  EXPECT_FALSE(wildcard_match("u1/*", "u2/nrz"));
  EXPECT_TRUE(wildcard_match("abc", "abc"));
  EXPECT_FALSE(wildcard_match("abc", "abcd"));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw JpgError("boom");
                        }),
      JpgError);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

// A task may post to its own pool: on this 1-worker pool the post returns
// at once, without running the task, and the posted task runs once the
// poster's task has returned (the service dispatches from its completion
// hooks this way).
TEST(ThreadPool, PostFromOwnWorkerRunsAfterThePoster) {
  ThreadPool pool(1);
  std::mutex mutex;
  std::vector<int> order;
  std::promise<void> done;
  pool.post([&] {
    EXPECT_TRUE(pool.on_worker_thread());
    EXPECT_NO_THROW(pool.post([&] {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back(2);
      }
      done.set_value();
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::lock_guard<std::mutex> lock(mutex);
    order.push_back(1);
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(pool.on_worker_thread());
}

// A width cap narrows the fan-out on the one global pool: whatever the cap,
// every index runs once, only the caller and global() workers run
// iterations, and no more than min(w, size() + 1) distinct threads take
// part.
TEST(ThreadPool, SizedCacheStaysBoundedOverWidthSweep) {
  ThreadPool& pool = ThreadPool::global();
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kMaxWidth = 24;
  constexpr std::size_t kN = 64;
  for (std::size_t w = 1; w <= kMaxWidth; ++w) {
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<int> foreign{0};
    std::mutex mutex;
    std::set<std::thread::id> ids;
    pool.parallel_for(
        kN,
        [&](std::size_t i) {
          hits[i].fetch_add(1);
          const std::thread::id self = std::this_thread::get_id();
          if (self != caller && !pool.on_worker_thread()) foreign.fetch_add(1);
          const std::lock_guard<std::mutex> lock(mutex);
          ids.insert(self);
        },
        w);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " width " << w;
    }
    EXPECT_EQ(foreign.load(), 0) << "width " << w;
    EXPECT_GE(ids.size(), 1u) << "width " << w;
    EXPECT_LE(ids.size(), std::min(w, pool.size() + 1)) << "width " << w;
  }
}

// Width 1 is an inline loop on the caller in index order (what the router
// relies on for num_threads = 1), and an exception thrown
// under any cap still reaches the caller.
TEST(ThreadPool, SizedCacheReusesPoolsAndPinsLeased) {
  ThreadPool& pool = ThreadPool::global();
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::vector<std::size_t> order;
  bool off_caller = false;
  pool.parallel_for(
      16,
      [&](std::size_t i) {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back(i);
        if (std::this_thread::get_id() != caller) off_caller = true;
      },
      1);
  std::vector<std::size_t> expected(16);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
  EXPECT_FALSE(off_caller);

  for (const std::size_t cap : {1u, 2u, 3u}) {
    EXPECT_THROW(pool.parallel_for(
                     10,
                     [](std::size_t i) {
                       if (i == 5) throw JpgError("boom");
                     },
                     cap),
                 JpgError)
        << "cap " << cap;
  }
}

TEST(Errors, ParseErrorCarriesLocation) {
  const ParseError e("design.xdl", 12, "unexpected token");
  EXPECT_EQ(e.file(), "design.xdl");
  EXPECT_EQ(e.line(), 12);
  EXPECT_NE(std::string(e.what()).find("design.xdl:12"), std::string::npos);
}

TEST(Errors, RequireThrowsJpgError) {
  EXPECT_THROW(JPG_REQUIRE(false, "must hold"), JpgError);
  EXPECT_NO_THROW(JPG_REQUIRE(true, "must hold"));
}

}  // namespace
}  // namespace jpg
