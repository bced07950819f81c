#include "core/partial_gen.h"

#include <string>
#include <utility>

#include "support/error.h"
#include "support/log.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

namespace {

/// First bit / bit count of the region's row windows inside a frame. The
/// windows of consecutive rows are contiguous, so a region's rows form one
/// blit-able span per frame.
std::size_t window_base(const FrameMap& fm, const Region& region) {
  return fm.row_bit_base(region.r0);
}
std::size_t window_bits(const Region& region) {
  return static_cast<std::size_t>(region.height()) * FrameMap::kBitsPerRow;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

PartialBitstreamGenerator::PartialBitstreamGenerator(const ConfigMemory& base,
                                                     std::size_t cache_capacity)
    : base_(&base),
      device_(&base.device()),
      cache_capacity_(cache_capacity) {}

void PartialBitstreamGenerator::check_update(const ConfigMemory& module_config,
                                             const Region& region) const {
  JPG_REQUIRE(&module_config.device() == device_ ||
                  module_config.device().spec().name == device_->spec().name,
              "module config targets a different device");
  JPG_REQUIRE(region.in_bounds(*device_), "region out of bounds");
}

std::size_t PartialBitstreamGenerator::CacheKeyHash::operator()(
    const CacheKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(k.region.r0) << 48 ^
                 static_cast<std::uint64_t>(k.region.c0) << 32 ^
                 static_cast<std::uint64_t>(k.region.r1) << 16 ^
                 static_cast<std::uint64_t>(k.region.c1));
  fnv_mix(h, (k.diff_only ? 2u : 0u) | (k.include_crc ? 1u : 0u));
  fnv_mix(h, k.content_hash);
  return static_cast<std::size_t>(h);
}

std::uint64_t PartialBitstreamGenerator::content_hash(
    const ConfigMemory& module_config, const Region& region) const {
  const FrameMap& fm = device_->frames();
  const std::size_t win_lo = window_base(fm, region);
  const std::size_t win_hi = win_lo + window_bits(region) - 1;
  // The output depends on the full base frame (out-of-region rows are
  // re-shipped from it) but only on the module's region-row windows; the
  // module hash covers the words overlapping the window, so edits outside
  // the window cost at most a spurious miss, never a wrong hit.
  std::uint64_t h = kFnvOffset;
  for (const int major : region.clb_majors(*device_)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      fnv_mix(h, idx);
      for (const std::uint32_t w : base_->frame(idx).words()) {
        fnv_mix(h, w);
      }
      const ConstBitSpan mod = module_config.frame(idx);
      for (std::size_t w = win_lo >> 5; w <= (win_hi >> 5); ++w) {
        fnv_mix(h, mod.word(w));
      }
    }
  }
  return h;
}

ConfigMemory PartialBitstreamGenerator::compose(
    const ConfigMemory& module_config, const Region& region) const {
  check_update(module_config, region);
  const FrameMap& fm = device_->frames();
  const std::size_t win_lo = window_base(fm, region);
  const std::size_t win_bits = window_bits(region);
  ConfigMemory out = *base_;  // one block copy of the flat plane
  JPG_TELEM(std::uint64_t telem_frames = 0;)
  for (const int major : region.clb_majors(*device_)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      // Replace only the region rows' windows; out-of-region rows keep the
      // base content, so rewriting the frame is non-disruptive.
      out.frame(idx).copy_range(module_config.frame(idx), win_lo, win_bits);
      JPG_TELEM(++telem_frames;)
    }
  }
  JPG_COUNT("pgen.frames_composed", telem_frames);
  JPG_COUNT("pgen.words_blitted", telem_frames * ((win_bits + 31) / 32));
  return out;
}

PartialGenResult PartialBitstreamGenerator::generate_frames(
    const ConfigMemory& content, const std::vector<std::size_t>& frames,
    const PartialGenOptions& opts) const {
  const FrameMap& fm = device_->frames();
  const std::size_t fw = fm.frame_words();
  PartialGenResult result;
  result.frames = frames;

  // Coalesce contiguous runs first (they share one FAR + FDRI block); with
  // the runs known, the exact output size is predictable before a single
  // word is emitted, so the writer allocates once.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // (first, count)
  std::size_t i = 0;
  while (i < result.frames.size()) {
    std::size_t j = i + 1;
    while (j < result.frames.size() &&
           result.frames[j] == result.frames[j - 1] + 1) {
      ++j;
    }
    runs.emplace_back(result.frames[i], j - i);
    i = j;
  }

  // begin(2) + RCRC(2) + FLR(2) + IDCODE(2) + WCFG(2), per run FAR(2) +
  // FDRI header(1|2) + payload, then CRC(2)? + LFRM(2) + DESYNC(2)+pad(1).
  std::size_t predicted = 10 + (opts.include_crc ? 2 : 0) + 2 + 3;
  for (const auto& [first, count] : runs) {
    const std::size_t payload = (count + 1) * fw;
    predicted += 2 + (payload < (1u << 11) ? 1 : 2) + payload;
  }

  BitstreamWriter w(*device_);
  w.reserve(predicted);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
  w.write_reg(ConfigReg::IDCODE, device_->spec().idcode);
  w.write_cmd(Command::WCFG);

  for (const auto& [first, count] : runs) {
    const FrameAddress a = fm.address_of_index(first);
    w.write_reg(ConfigReg::FAR, fm.encode_far(a));
    w.write_frames(content, first, count);
    ++result.far_blocks;
  }

  if (opts.include_crc) w.write_crc();
  w.write_cmd(Command::LFRM);
  // No START: the device stays live through a dynamic partial load.
  result.bitstream = w.finish();
  JPG_ASSERT_MSG(result.bitstream.words.size() == predicted,
                 "partial stream size does not match prediction");
  return result;
}

PartialGenResult PartialBitstreamGenerator::generate_uncached(
    const ConfigMemory& module_config, const Region& region,
    const PartialGenOptions& opts) const {
  const FrameMap& fm = device_->frames();
  const ConfigMemory composed = compose(module_config, region);
  const std::size_t win_lo = window_base(fm, region);
  const std::size_t win_bits = window_bits(region);

  // Frames to ship: the region columns' frames, optionally reduced to those
  // that differ from the base. Composed frames can only differ inside the
  // region window, so the diff scan is a word-level range compare.
  std::vector<std::size_t> frames;
  const auto majors = region.clb_majors(*device_);
  frames.reserve(majors.size() * static_cast<std::size_t>(FrameMap::kClbFrames));
  for (const int major : majors) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      const std::size_t idx = fm.frame_index(major, minor);
      if (!opts.diff_only ||
          composed.frame(idx).diff_in_range(base_->frame(idx), win_lo,
                                            win_bits)) {
        frames.push_back(idx);
      }
    }
  }
  return generate_frames(composed, frames, opts);
}

PartialGenResult PartialBitstreamGenerator::generate(
    const ConfigMemory& module_config, const Region& region,
    const PartialGenOptions& opts) const {
  JPG_SPAN("pgen.generate");
  const std::uint64_t telem_t0 = telemetry::now_ns();
  check_update(module_config, region);

  CacheKey key;
  bool use_cache;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    use_cache = cache_capacity_ > 0;
  }
  if (use_cache) {
    key = CacheKey{region, opts.diff_only, opts.include_crc,
                   content_hash(module_config, region)};
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_index_.find(key);
    ++cache_lookups_;
    if (it != cache_index_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      ++cache_hits_;
      JPG_COUNT("pgen.cache.hits", 1);
      PartialGenResult result = *it->second->result;
      // The price of a buffered hit: the whole cached stream is copied out.
      // generate_leased() is the zero-copy alternative for download paths.
      JPG_COUNT("pgen.cache.copy_bytes", result.bitstream.size_bytes());
      result.telemetry = telemetry::StageSnapshot{};
      result.telemetry.duration_ns = telemetry::now_ns() - telem_t0;
      result.telemetry.set("cache_hit", 1);
      result.telemetry.set("frames", result.frames.size());
      result.telemetry.set("far_blocks", result.far_blocks);
      JPG_INFO("partial bitstream for " << region.to_string() << ": "
                                        << result.frames.size()
                                        << " frames (cached), "
                                        << result.bitstream.size_bytes()
                                        << " bytes");
      return result;
    }
    ++cache_misses_;
    JPG_COUNT("pgen.cache.misses", 1);
  }

  PartialGenResult result = generate_uncached(module_config, region, opts);
  result.telemetry.duration_ns = telemetry::now_ns() - telem_t0;
  result.telemetry.set("cache_hit", 0);
  result.telemetry.set("frames", result.frames.size());
  result.telemetry.set("far_blocks", result.far_blocks);
  JPG_COUNT("pgen.generations", 1);
  JPG_INFO("partial bitstream for " << region.to_string() << ": "
                                    << result.frames.size() << " frames in "
                                    << result.far_blocks << " blocks, "
                                    << result.bitstream.size_bytes()
                                    << " bytes");
  if (use_cache) {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      // A concurrent caller generated the same key; outputs are
      // deterministic, so just refresh recency.
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    } else {
      cache_lru_.push_front(CacheEntry{
          key, std::make_shared<const PartialGenResult>(result), false});
      cache_index_.emplace(key, cache_lru_.begin());
      trim_cache_locked();
    }
  }
  return result;
}

PartialGenResult PartialBitstreamGenerator::generate_bram_update(
    const ConfigMemory& content, Side side,
    const PartialGenOptions& opts) const {
  const FrameMap& fm = device_->frames();
  const int bram_major = side == Side::Left ? 0 : 1;
  std::vector<std::size_t> frames;
  for (int minor = 0; minor < FrameMap::kBramFrames; ++minor) {
    const std::size_t idx = fm.bram_frame_index(bram_major, minor);
    if (!opts.diff_only ||
        content.frame(idx).differs_from(base_->frame(idx))) {
      frames.push_back(idx);
    }
  }
  PartialGenResult result = generate_frames(content, frames, opts);
  JPG_INFO("BRAM partial update (" << (side == Side::Left ? "left" : "right")
                                   << "): " << result.frames.size()
                                   << " frames, "
                                   << result.bitstream.size_bytes()
                                   << " bytes");
  return result;
}

PbitLease PartialBitstreamGenerator::generate_leased(
    const ConfigMemory& module_config, const Region& region,
    const PartialGenOptions& opts) const {
  JPG_SPAN("pgen.generate_leased");
  check_update(module_config, region);

  bool use_cache;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    use_cache = cache_capacity_ > 0;
  }
  if (!use_cache) {
    // Nothing to pin into: the lease owns a private copy. Slower, but the
    // lease contract (words stay valid until release) still holds.
    JPG_COUNT("pgen.generations", 1);
    return PbitLease(nullptr, nullptr,
                     std::make_shared<const PartialGenResult>(
                         generate_uncached(module_config, region, opts)));
  }

  const CacheKey key{region, opts.diff_only, opts.include_crc,
                     content_hash(module_config, region)};
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    ++cache_lookups_;
    const auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      CacheEntry& entry = *it->second;
      JPG_REQUIRE(!entry.pinned,
                  "pbit cache entry is already pinned (double pin)");
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      ++cache_hits_;
      JPG_COUNT("pgen.cache.hits", 1);
      entry.pinned = true;
      ++cache_pinned_;
      JPG_COUNT("pgen.cache.pins", 1);
      return PbitLease(this, &entry, entry.result);
    }
    ++cache_misses_;
    JPG_COUNT("pgen.cache.misses", 1);
  }

  auto result = std::make_shared<const PartialGenResult>(
      generate_uncached(module_config, region, opts));
  JPG_COUNT("pgen.generations", 1);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    // A concurrent worker inserted the same key; outputs are deterministic,
    // so pin its entry instead of inserting a duplicate.
    CacheEntry& entry = *it->second;
    JPG_REQUIRE(!entry.pinned,
                "pbit cache entry is already pinned (double pin)");
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    entry.pinned = true;
    ++cache_pinned_;
    JPG_COUNT("pgen.cache.pins", 1);
    return PbitLease(this, &entry, entry.result);
  }
  cache_lru_.push_front(CacheEntry{key, std::move(result), true});
  cache_index_.emplace(key, cache_lru_.begin());
  ++cache_pinned_;
  JPG_COUNT("pgen.cache.pins", 1);
  trim_cache_locked();
  CacheEntry& entry = cache_lru_.front();
  return PbitLease(this, &entry, entry.result);
}

void PartialBitstreamGenerator::unpin_internal(void* entry) const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  auto* e = static_cast<CacheEntry*>(entry);
  JPG_REQUIRE(e != nullptr && e->pinned, "unpin without a pin");
  e->pinned = false;
  --cache_pinned_;
  // Apply whatever eviction was deferred while the entry was pinned.
  trim_cache_locked();
}

void PartialBitstreamGenerator::trim_cache_locked() const {
  if (cache_lru_.size() <= cache_capacity_) return;
  auto it = cache_lru_.end();
  while (cache_lru_.size() > cache_capacity_ && it != cache_lru_.begin()) {
    --it;
    if (it->pinned) continue;  // eviction deferred until unpin
    cache_index_.erase(it->key);
    it = cache_lru_.erase(it);
    ++cache_evictions_;
    JPG_COUNT("pgen.cache.evictions", 1);
  }
}

void PartialBitstreamGenerator::set_cache_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_capacity_ = capacity;
  trim_cache_locked();
}

void PartialBitstreamGenerator::clear_cache() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  // Pinned entries stay: a live lease's words must remain valid. They
  // become evictable as usual once released.
  for (auto it = cache_lru_.begin(); it != cache_lru_.end();) {
    if (it->pinned) {
      ++it;
      continue;
    }
    cache_index_.erase(it->key);
    it = cache_lru_.erase(it);
  }
  cache_lookups_ = 0;
  cache_hits_ = 0;
  cache_misses_ = 0;
  cache_evictions_ = 0;
}

PbitCacheStats PartialBitstreamGenerator::cache_stats() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return PbitCacheStats{cache_lookups_,    cache_hits_,
                        cache_misses_,     cache_evictions_,
                        cache_lru_.size(), cache_capacity_,
                        cache_pinned_};
}

// --- PbitLease ---------------------------------------------------------------

PbitLease::PbitLease(PbitLease&& other) noexcept { *this = std::move(other); }

PbitLease& PbitLease::operator=(PbitLease&& other) noexcept {
  if (this == &other) return *this;
  if (result_ != nullptr && gen_ != nullptr) gen_->unpin_internal(entry_);
  gen_ = other.gen_;
  entry_ = other.entry_;
  result_ = std::move(other.result_);
  other.gen_ = nullptr;
  other.entry_ = nullptr;
  return *this;
}

PbitLease::~PbitLease() {
  // Unlike release(), silently tolerate an already-released lease: the
  // destructor of a moved-from or explicitly released lease is a no-op.
  if (result_ != nullptr && gen_ != nullptr) gen_->unpin_internal(entry_);
}

const PartialGenResult& PbitLease::result() const {
  JPG_REQUIRE(valid(), "lease is not valid (released or default-constructed)");
  return *result_;
}

const Bitstream& PbitLease::bitstream() const { return result().bitstream; }

std::span<const std::uint32_t> PbitLease::words() const {
  return bitstream().words;
}

const std::vector<std::size_t>& PbitLease::frames() const {
  return result().frames;
}

const std::shared_ptr<const PartialGenResult>& PbitLease::shared() const {
  JPG_REQUIRE(valid(), "lease is not valid (released or default-constructed)");
  return result_;
}

void PbitLease::release() {
  JPG_REQUIRE(result_ != nullptr,
              "lease already released (unpin without a pin)");
  if (gen_ != nullptr) gen_->unpin_internal(entry_);
  gen_ = nullptr;
  entry_ = nullptr;
  result_.reset();
}

}  // namespace jpg
