// PartialBitstreamGenerator: the heart of JPG.
//
// Given the base design's configuration memory and the configuration of an
// updated sub-module, it composes the frames of the module's region —
// module bits inside the region's rows, base bits everywhere else in those
// columns — and emits a loadable partial bitstream containing only the
// frames that actually change. Because Virtex frames span full columns,
// writing a region always rewrites entire columns; composition from the
// base guarantees the out-of-region rows are rewritten with their *current*
// values, which is what makes the load non-disruptive (paper §2.1, §3).
//
// Composition copies the base plane (one block copy of its flat word
// array), row windows of the region's frames move as word-level blits, and a
// content-addressed LRU cache short-circuits regeneration when a module
// pool cycles (the Figure-1 serving workload). generate() is safe to call
// concurrently; the cache is the only state the calls share.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "bitstream/bitstream_writer.h"
#include "bitstream/config_memory.h"
#include "device/region.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

struct PartialGenOptions {
  /// false (default): ship every frame of the region's columns. The partial
  /// bitstream is then *state-independent* — it installs the module no
  /// matter which variant currently occupies the region, which is what a
  /// pre-generated module pool (Figure 1) requires, and matches the
  /// "partial bitstreams are subsets of a complete bitstream" model of the
  /// paper (and PARBIT).
  /// true: ship only frames that differ from the tool's base configuration.
  /// Smaller, but only correct when the device is known to hold exactly the
  /// base state (use together with write_onto_base, which keeps the tool's
  /// base in sync). The ablation bench quantifies the trade-off.
  bool diff_only = false;
  bool include_crc = true;
};

struct PartialGenResult {
  Bitstream bitstream;
  std::vector<std::size_t> frames;  ///< linear frame indices written
  std::size_t far_blocks = 0;       ///< contiguous FAR/FDRI runs emitted
  /// Wall time plus this call's own tallies (frames, far_blocks,
  /// cache_hit); filled by generate(), reset on every cache hit.
  telemetry::StageSnapshot telemetry;
};

/// Coherent snapshot of the pbit cache: every field is read under the one
/// cache mutex, in the same critical section that mutates them, so
/// `hits + misses == lookups` holds in any snapshot regardless of how many
/// generate() calls are in flight.
struct PbitCacheStats {
  std::size_t lookups = 0;  ///< cache consultations (hits + misses)
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;  ///< LRU entries dropped (capacity pressure)
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::size_t pinned = 0;  ///< entries currently held by a PbitLease

  [[nodiscard]] double hit_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(lookups);
  }
};

class PartialBitstreamGenerator;

/// A pinned reference into the pbit cache. While the lease is held the
/// entry cannot be evicted (eviction is deferred until unpin), so spans
/// over the cached bitstream's words stay valid for as long as a streaming
/// download needs them — the resident-pbit swap path sends the cache's own
/// words with zero copies. Move-only; releases (unpins) on destruction.
/// Errors by contract: pinning an already-pinned entry throws, and
/// releasing a lease twice throws (unpin-without-pin). A lease must not
/// outlive its generator.
class PbitLease {
 public:
  PbitLease() = default;
  PbitLease(PbitLease&& other) noexcept;
  PbitLease& operator=(PbitLease&& other) noexcept;
  ~PbitLease();
  PbitLease(const PbitLease&) = delete;
  PbitLease& operator=(const PbitLease&) = delete;

  [[nodiscard]] bool valid() const { return result_ != nullptr; }
  /// Requires valid().
  [[nodiscard]] const PartialGenResult& result() const;
  [[nodiscard]] const Bitstream& bitstream() const;
  /// The resident words, spanning the cache entry directly.
  [[nodiscard]] std::span<const std::uint32_t> words() const;
  [[nodiscard]] const std::vector<std::size_t>& frames() const;
  /// Shared ownership of the leased result. Holding it keeps the result
  /// alive (e.g. in an applied-pbit ledger) but does not pin the cache
  /// entry: the entry stays evictable once the lease is released.
  [[nodiscard]] const std::shared_ptr<const PartialGenResult>& shared() const;

  /// Unpins the entry now (making it evictable again) and invalidates the
  /// lease. Throws JpgError if the lease was already released.
  void release();

 private:
  friend class PartialBitstreamGenerator;
  PbitLease(const PartialBitstreamGenerator* gen, void* entry,
            std::shared_ptr<const PartialGenResult> result)
      : gen_(gen), entry_(entry), result_(std::move(result)) {}

  const PartialBitstreamGenerator* gen_ = nullptr;  ///< null: unpinned lease
  void* entry_ = nullptr;  ///< opaque cache-entry handle (pinned node)
  /// The cache entry's result, or a private one (capacity-0 fallback).
  std::shared_ptr<const PartialGenResult> result_;
};

class PartialBitstreamGenerator {
 public:
  /// Entries the pbit cache holds by default; enough for every module pool
  /// in the paper's scenarios (3 regions × 4 variants) with headroom.
  static constexpr std::size_t kDefaultCacheCapacity = 64;

  /// `base` must outlive the generator.
  explicit PartialBitstreamGenerator(
      const ConfigMemory& base, std::size_t cache_capacity = kDefaultCacheCapacity);

  /// Frame-level composition: base memory with the region's rows of the
  /// region's columns replaced by `module_config`'s bits.
  [[nodiscard]] ConfigMemory compose(const ConfigMemory& module_config,
                                     const Region& region) const;

  /// Generates the partial bitstream updating `region` of the base design
  /// to `module_config`'s content. The stream carries IDCODE/FLR checks, a
  /// WCFG sequence of FAR+FDRI runs, CRC, LFRM and DESYNC — and no startup
  /// sequence, since the device keeps running during a dynamic load.
  /// Results are served from the pbit cache when (region, options, content)
  /// was generated before.
  [[nodiscard]] PartialGenResult generate(const ConfigMemory& module_config,
                                          const Region& region,
                                          const PartialGenOptions& opts = {}) const;

  /// Like generate(), but pins the cache entry and returns a lease over it:
  /// the resident words can be streamed to a board (every burst is a
  /// subspan of them) without the per-swap result copy — and without the
  /// entry being evicted mid-download. Pinning an entry that is already
  /// pinned throws. With caching disabled (capacity 0) the lease owns a
  /// private copy instead, so it is always safe to hold.
  [[nodiscard]] PbitLease generate_leased(
      const ConfigMemory& module_config, const Region& region,
      const PartialGenOptions& opts = {}) const;

  /// Generic form: emits a partial bitstream shipping exactly `frames`
  /// (linear indices, any block type) with contents taken from `content`.
  [[nodiscard]] PartialGenResult generate_frames(
      const ConfigMemory& content, const std::vector<std::size_t>& frames,
      const PartialGenOptions& opts = {}) const;

  /// BRAM content update (block type 1): ships the frames of `side`'s BRAM
  /// column whose content in `content` differs from the base (or all of
  /// them with diff_only = false). Rewriting memory contents without
  /// touching a single logic frame was a flagship partial-reconfiguration
  /// use case of the era.
  [[nodiscard]] PartialGenResult generate_bram_update(
      const ConfigMemory& content, Side side,
      const PartialGenOptions& opts = {}) const;

  [[nodiscard]] const ConfigMemory& base() const { return *base_; }

  // --- pbit cache ----------------------------------------------------------
  /// Capacity 0 disables caching. Shrinking evicts LRU entries.
  void set_cache_capacity(std::size_t capacity);
  void clear_cache();
  [[nodiscard]] PbitCacheStats cache_stats() const;

 private:
  struct CacheKey {
    Region region;
    bool diff_only = false;
    bool include_crc = false;
    std::uint64_t content_hash = 0;  ///< region-scoped base+module content

    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept;
  };

  /// Shared precondition of compose/generate: the module plane targets
  /// this device and the region is in bounds.
  void check_update(const ConfigMemory& module_config,
                    const Region& region) const;

  [[nodiscard]] std::uint64_t content_hash(const ConfigMemory& module_config,
                                           const Region& region) const;

  [[nodiscard]] PartialGenResult generate_uncached(
      const ConfigMemory& module_config, const Region& region,
      const PartialGenOptions& opts) const;

  const ConfigMemory* base_;
  const Device* device_;

  // LRU pbit cache, keyed by (region, options, content hash); front of the
  // list is most recently used. Guarded for concurrent generate() callers.
  // List nodes have stable addresses, which is what makes a PbitLease's
  // span over a pinned entry safe across unrelated insertions/evictions.
  struct CacheEntry {
    CacheKey key;
    /// Shared so a ledger can hold the result past eviction; immutable.
    std::shared_ptr<const PartialGenResult> result;
    bool pinned = false;
  };

  friend class PbitLease;
  /// Unpins the entry behind a lease and applies any eviction that was
  /// deferred while it was pinned. Throws on unpin-without-pin.
  void unpin_internal(void* entry) const;
  /// Evicts LRU entries past capacity, skipping pinned ones (their
  /// eviction is deferred until unpin). Caller holds cache_mutex_.
  void trim_cache_locked() const;

  mutable std::mutex cache_mutex_;
  mutable std::list<CacheEntry> cache_lru_;
  mutable std::unordered_map<CacheKey, std::list<CacheEntry>::iterator,
                             CacheKeyHash>
      cache_index_;
  mutable std::size_t cache_lookups_ = 0;
  mutable std::size_t cache_hits_ = 0;
  mutable std::size_t cache_misses_ = 0;
  mutable std::size_t cache_evictions_ = 0;
  mutable std::size_t cache_pinned_ = 0;
  std::size_t cache_capacity_ = kDefaultCacheCapacity;
};

}  // namespace jpg
