// Deterministic pseudo-random number generation.
//
// Every stochastic component in jpg-cpp (the annealing placer, workload
// generators, fault injectors) takes an explicit Rng so that runs are exactly
// reproducible from a seed. The generator is xoshiro256** seeded through
// SplitMix64, which is fast, has a 2^256-1 period, and passes BigCrush.
#pragma once

#include <cstdint>

#include "support/error.h"

namespace jpg {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 stream to fill the xoshiro state; avoids the all-zero state.
    std::uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      si = z ^ (z >> 31);
    }
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) {
    JPG_ASSERT(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    JPG_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool chance(double p) { return unit() < p; }

  /// Derives the `stream`-th independent child generator *without* consuming
  /// parent state: split(i) returns the same child no matter how many other
  /// streams were split off before or after, which is what parallel sweep
  /// shards need to draw uncorrelated sequences in any execution order. The
  /// child is seeded through a SplitMix64 finalizer over the parent state
  /// mixed with the golden-ratio-scrambled stream index (and Rng's own
  /// constructor runs a second expansion pass on top).
  [[nodiscard]] Rng split(std::uint64_t stream) const {
    std::uint64_t x = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^
                      rotl(s_[3], 43);
    x ^= 0xa0761d6478bd642full + stream * 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return Rng(x ^ (x >> 31));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

}  // namespace jpg
