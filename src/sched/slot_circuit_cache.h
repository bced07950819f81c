// SlotCircuitCache: the circuit an applied pbit configures at a slot,
// elaborated once per (region, pbit bytes).
//
// Every completed node checks the pbit the service actually applied: replay
// it onto the base plane (PbitRelocator::decode) and extract the circuit
// (extract_circuit). Both walk the whole device, yet they are a pure
// function of the pbit's bytes and the region, and a scheduler only ever
// sees kernels x impls x slots distinct keys — relocation is byte-identical
// to generating at the target, so it adds none. The cache keeps those
// circuits; each node still simulates a fresh NetlistSim over its entry, so
// no flip-flop state is shared between nodes or threads.
//
// A hit needs an equal region and a byte-identical pbit: a pointer-equal
// fast path, then Bitstream::operator== (never a hash alone, whose collision
// would return another module's circuit). A different pbit at a slot is
// always decoded and extracted again, and a pbit that fails to decode or
// extract is not cached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "bitstream/packet.h"
#include "core/partial_gen.h"
#include "core/relocate.h"
#include "device/region.h"
#include "sched/sched_fixture.h"
#include "sim/circuit_extractor.h"

namespace jpg::sched {

/// Drives `input` on pad `in_pad` of a fresh simulator over `circuit` (FFs
/// at their init values), one bit per clock, and samples pad `out_pad`
/// after each step.
[[nodiscard]] std::vector<bool> socket_trace(const ExtractedCircuit& circuit,
                                             int in_pad, int out_pad,
                                             const std::vector<bool>& input);

class SlotCircuitCache {
 public:
  /// Decodes over `fixture`'s base; capacity is kernels x impls x slots,
  /// least recently used entries evicted beyond it. `fixture` must outlive
  /// the cache.
  explicit SlotCircuitCache(const SchedFixture& fixture);

  /// The circuit `pbit` configures when applied at `region` over the base.
  /// Throws JpgError (RelocError, ExtractError) exactly as decode and
  /// extraction do; thread-safe, and extraction runs outside the lock.
  [[nodiscard]] std::shared_ptr<const ExtractedCircuit> circuit(
      const std::shared_ptr<const Bitstream>& pbit, const Region& region);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  struct Entry {
    Region region;
    /// Held, so the address cannot be reused: pointer equality is identity.
    std::shared_ptr<const Bitstream> pbit;
    std::shared_ptr<const ExtractedCircuit> circuit;
  };
  using Entries = std::list<Entry>;

  /// Entry for (region, pbit), by pointer first and then by bytes; end()
  /// if none. Caller holds mu_.
  Entries::iterator find_locked(const std::shared_ptr<const Bitstream>& pbit,
                                const Region& region);

  PartialBitstreamGenerator gen_;
  PbitRelocator reloc_;
  std::size_t capacity_;

  mutable std::mutex mu_;
  Entries entries_;  ///< most recently used first
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace jpg::sched
