#include "sched/slot_circuit_cache.h"

#include <algorithm>
#include <string>

#include "sim/netlist_sim.h"
#include "support/error.h"
#include "support/telemetry/telemetry.h"

namespace jpg::sched {

namespace {

/// Extracted port name of pad `pad` ("P<n>").
std::string pad_port(int pad) {
  std::string port = "P";
  port += std::to_string(pad);
  return port;
}

}  // namespace

std::vector<bool> socket_trace(const ExtractedCircuit& circuit, int in_pad,
                               int out_pad, const std::vector<bool>& input) {
  NetlistSim sim(circuit.netlist);
  const std::string in_port = pad_port(in_pad);
  const std::string out_port = pad_port(out_pad);
  std::vector<bool> out;
  out.reserve(input.size());
  for (const bool b : input) {
    sim.set_input(in_port, b);
    sim.step();
    out.push_back(sim.get_output(out_port));
  }
  return out;
}

SlotCircuitCache::SlotCircuitCache(const SchedFixture& fixture)
    : gen_(fixture.base()),
      reloc_(gen_),
      capacity_(fixture.kernels().size() * fixture.impls_per_kernel() *
                fixture.slots().size()) {}

std::shared_ptr<const ExtractedCircuit> SlotCircuitCache::circuit(
    const std::shared_ptr<const Bitstream>& pbit, const Region& region) {
  JPG_REQUIRE(pbit != nullptr, "slot circuit cache needs a pbit");
  {
    const std::lock_guard<std::mutex> guard(mu_);
    const auto it = find_locked(pbit, region);
    if (it != entries_.end()) {
      it->pbit = pbit;  // byte-identical; the newest pointer hits fastest
      entries_.splice(entries_.begin(), entries_, it);
      ++hits_;
      JPG_COUNT("sched.sim_cache.hits", 1);
      return it->circuit;
    }
    ++misses_;
  }
  JPG_COUNT("sched.sim_cache.misses", 1);

  auto circuit = std::make_shared<const ExtractedCircuit>(
      extract_circuit(reloc_.decode(*pbit, region)));

  const std::lock_guard<std::mutex> guard(mu_);
  const auto it = find_locked(pbit, region);
  if (it != entries_.end()) {
    // Another thread elaborated the same key meanwhile; keep one entry.
    entries_.splice(entries_.begin(), entries_, it);
    return it->circuit;
  }
  entries_.push_front(Entry{region, pbit, circuit});
  if (entries_.size() > capacity_) entries_.pop_back();
  return circuit;
}

SlotCircuitCache::Entries::iterator SlotCircuitCache::find_locked(
    const std::shared_ptr<const Bitstream>& pbit, const Region& region) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.pbit == pbit && e.region == region;
      });
  if (it != entries_.end()) return it;
  return std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
    return e.region == region && *e.pbit == *pbit;
  });
}

std::size_t SlotCircuitCache::size() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return entries_.size();
}

std::uint64_t SlotCircuitCache::hits() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return hits_;
}

std::uint64_t SlotCircuitCache::misses() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return misses_;
}

}  // namespace jpg::sched
