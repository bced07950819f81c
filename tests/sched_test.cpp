// Accelerator-scheduler tests: task-graph generator invariants, the uniform
// socket fixture, the oracle property family (including the fault and
// defrag-mid-run tiers), the chaos tier (concurrent registration /
// cancellation / board revocation / shutdown-with-inflight), the memoised
// slot circuits against a fresh decode, and the service stats-coherence
// invariant under submit churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "bitstream/packet.h"
#include "core/partial_gen.h"
#include "core/relocate.h"
#include "sched/accel_scheduler.h"
#include "sched/sched_fixture.h"
#include "sched/slot_circuit_cache.h"
#include "sched/task_graph.h"
#include "sim/bitstream_sim.h"
#include "support/error.h"
#include "support/rng.h"
#include "testing/sched_oracle.h"

namespace jpg::sched {
namespace {

const SchedFixture& fixture() { return SchedFixture::shared("XCV50"); }

TaskGraph graph_for(std::uint64_t seed, const std::string& app = "app") {
  Rng rng(seed);
  TaskGraphOptions opt;
  opt.num_impls = fixture().impls_per_kernel();
  return random_task_graph(rng, fixture().kernels(), opt, app);
}

std::vector<bool> random_bits(Rng& rng, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (rng.next() & 1) != 0;
  return bits;
}

/// The uncached path: a fresh BitstreamSim over the decoded plane.
std::vector<bool> fresh_trace(const ConfigMemory& plane, std::size_t slot,
                              const std::vector<bool>& input) {
  BitstreamSim sim(plane);
  std::vector<bool> out;
  for (const bool b : input) {
    sim.set_pad(fixture().in_pad(slot), b);
    sim.step();
    out.push_back(sim.get_pad(fixture().out_pad(slot)));
  }
  return out;
}

std::vector<bool> cached_trace(SlotCircuitCache& cache,
                               const std::shared_ptr<const Bitstream>& pbit,
                               const Region& region, std::size_t slot,
                               const std::vector<bool>& input) {
  return socket_trace(*cache.circuit(pbit, region), fixture().in_pad(slot),
                      fixture().out_pad(slot), input);
}

std::shared_ptr<const Bitstream> pbit_for(const std::string& kernel, int impl,
                                          std::size_t slot,
                                          const PartialGenOptions& opts = {}) {
  const PartialBitstreamGenerator gen(fixture().base());
  return std::make_shared<const Bitstream>(
      gen.generate(fixture().plane(kernel, impl, slot),
                   fixture().slots()[slot], opts)
          .bitstream);
}

/// Slot `slot` widened by one column on the left: it covers every frame
/// the slot's pbits write, so they decode there too, under another key.
Region widened(std::size_t slot) {
  Region r = fixture().slots()[slot];
  --r.c0;
  return r;
}

TEST(TaskGraphTest, GeneratorIsDeterministic) {
  Rng a(7);
  Rng b(7);
  TaskGraphOptions opt;
  const TaskGraph ga = random_task_graph(a, fixture().kernels(), opt);
  const TaskGraph gb = random_task_graph(b, fixture().kernels(), opt);
  ASSERT_EQ(ga.nodes.size(), gb.nodes.size());
  for (std::size_t i = 0; i < ga.nodes.size(); ++i) {
    EXPECT_EQ(ga.nodes[i].kernel, gb.nodes[i].kernel);
    EXPECT_EQ(ga.nodes[i].pool, gb.nodes[i].pool);
    EXPECT_EQ(ga.nodes[i].preds, gb.nodes[i].preds);
    EXPECT_EQ(ga.nodes[i].stimulus_seed, gb.nodes[i].stimulus_seed);
  }
}

TEST(TaskGraphTest, GeneratorRespectsBounds) {
  Rng rng(11);
  TaskGraphOptions opt;
  opt.min_nodes = 3;
  opt.max_nodes = 5;
  opt.max_preds = 1;
  for (int i = 0; i < 50; ++i) {
    const TaskGraph g = random_task_graph(rng, fixture().kernels(), opt);
    EXPECT_GE(g.nodes.size(), 3u);
    EXPECT_LE(g.nodes.size(), 5u);
    for (const TaskNode& n : g.nodes) {
      EXPECT_LE(n.preds.size(), 1u);
      EXPECT_FALSE(n.pool.empty());
    }
  }
}

TEST(TaskGraphTest, ValidateRejectsForwardEdge) {
  TaskGraph g;
  g.nodes.resize(2);
  g.nodes[0].name = "n0";
  g.nodes[0].kernel = "nrzi";
  g.nodes[0].pool = {0};
  g.nodes[0].preds = {1};  // forward edge: not a DAG in index order
  g.nodes[1].name = "n1";
  g.nodes[1].kernel = "nrzi";
  g.nodes[1].pool = {0};
  EXPECT_THROW(g.validate(), JpgError);
}

TEST(SchedFixtureTest, UniformSocketsAndDistinctImplPlanes) {
  const SchedFixture& fx = fixture();
  EXPECT_EQ(fx.slots().size(), 3u);
  EXPECT_EQ(fx.kernels().size(), 4u);
  EXPECT_EQ(fx.slot_of(fx.slots()[1]), 1);
  EXPECT_EQ(fx.slot_of(Region{0, 0, 1, 1}), -1);
  EXPECT_EQ(SchedFixture::variant_label("fir", 1), "fir#1");
  // Implementation variants must be genuinely different bitstreams — the
  // whole point of the inverter-pair construction.
  for (const std::string& k : fx.kernels()) {
    EXPECT_FALSE(fx.plane(k, 0, 0) == fx.plane(k, 1, 0))
        << k << " impl planes are identical";
  }
  // Pads are distinct per slot (each socket has its own pin pair).
  EXPECT_NE(fx.in_pad(0), fx.in_pad(1));
  EXPECT_NE(fx.out_pad(0), fx.out_pad(1));
}

TEST(SchedulerTest, SingleGraphMatchesSequentialReference) {
  const TaskGraph g = graph_for(21);
  const auto refs = reference_traces(fixture(), g, 24);

  AcceleratorScheduler sched(fixture());
  AppTicket t = sched.submit(g);
  const AppReport rep = t.report.get();
  ASSERT_TRUE(rep.completed);
  ASSERT_EQ(rep.nodes.size(), g.nodes.size());
  for (const NodeResult& nr : rep.nodes) {
    EXPECT_TRUE(nr.ok);
    EXPECT_EQ(nr.trace, refs[nr.node]) << "node " << nr.node;
    for (const std::size_t p : g.nodes[nr.node].preds) {
      EXPECT_LT(rep.nodes[p].end_event, nr.start_event);
    }
  }
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.dep_violations, 0u);
  EXPECT_EQ(st.nodes_completed, g.nodes.size());
  EXPECT_EQ(st.placements_reuse + st.placements_relocated + st.placements_cold,
            st.nodes_completed);
}

TEST(SchedulerTest, LocalityNeverChangesResults) {
  const TaskGraph g = graph_for(33);
  const auto refs = reference_traces(fixture(), g, 24);
  for (const bool locality : {true, false}) {
    SchedConfig cfg;
    cfg.locality = locality;
    AcceleratorScheduler sched(fixture(), cfg);
    const AppReport rep = sched.submit(g).report.get();
    ASSERT_TRUE(rep.completed) << "locality=" << locality;
    for (const NodeResult& nr : rep.nodes) {
      EXPECT_EQ(nr.trace, refs[nr.node])
          << "locality=" << locality << " node " << nr.node;
    }
  }
}

TEST(SchedulerTest, RepeatedKernelsHitResidentReuse) {
  // Same kernel + single-variant pools across many nodes: after the cold
  // start, the ladder must keep landing on rung 1.
  TaskGraph g;
  g.app = "hot";
  for (int i = 0; i < 8; ++i) {
    TaskNode n;
    n.name = "n" + std::to_string(i);
    n.kernel = "nrzi";
    n.pool = {0};
    n.stimulus_seed = 100 + static_cast<std::uint64_t>(i);
    if (i > 0) n.preds = {static_cast<std::size_t>(i - 1)};
    g.nodes.push_back(std::move(n));
  }
  AcceleratorScheduler sched(fixture());
  const AppReport rep = sched.submit(g).report.get();
  ASSERT_TRUE(rep.completed);
  const SchedStats st = sched.stats();
  EXPECT_GT(st.placements_reuse, 0u);
  EXPECT_GT(st.reuse_rate(), 0.5);
}

TEST(SchedulerTest, OracleFamilySmoke) {
  const Rng root(91);
  for (int batch = 0; batch < 3; ++batch) {
    Rng rng(root.split(static_cast<std::uint64_t>(batch)).next());
    TaskGraphOptions opt;
    opt.num_impls = fixture().impls_per_kernel();
    std::vector<TaskGraph> graphs;
    for (int gi = 0; gi < 3; ++gi) {
      graphs.push_back(random_task_graph(rng, fixture().kernels(), opt,
                                         "app" + std::to_string(gi)));
    }
    const auto res = testing::run_sched_oracle(fixture(), graphs);
    EXPECT_TRUE(res.ok()) << res.property << ": " << res.detail;
  }
}

TEST(SchedulerTest, FaultTierStillConverges) {
  testing::SchedOracleOptions opt;
  opt.fault_tier = true;
  const std::vector<TaskGraph> graphs = {graph_for(55, "app0"),
                                         graph_for(56, "app1")};
  const auto res = testing::run_sched_oracle(fixture(), graphs, opt);
  EXPECT_TRUE(res.ok()) << res.property << ": " << res.detail;
}

// Satellite: plan_defrag interacting with the scheduler — defragmentation
// passes run concurrently with the graphs, and every trace must still equal
// the sequential reference (resident reuse must not regress correctness).
TEST(SchedulerTest, DefragMidRunIsTraceNeutral) {
  testing::SchedOracleOptions opt;
  opt.defrag_mid_run = true;
  const std::vector<TaskGraph> graphs = {graph_for(71, "app0"),
                                         graph_for(72, "app1"),
                                         graph_for(73, "app2")};
  const auto res = testing::run_sched_oracle(fixture(), graphs, opt);
  EXPECT_TRUE(res.ok()) << res.property << ": " << res.detail;
}

TEST(SchedulerTest, CancelResolvesEveryNode) {
  AcceleratorScheduler sched(fixture());
  const TaskGraph g = graph_for(44);
  AppTicket t = sched.submit(g);
  sched.cancel(t.id);
  const AppReport rep = t.report.get();  // must not hang
  EXPECT_TRUE(rep.cancelled || rep.completed);
  ASSERT_EQ(rep.nodes.size(), g.nodes.size());
  for (const NodeResult& nr : rep.nodes) {
    // Every node resolved one way: ran to completion or was cancelled.
    EXPECT_TRUE(nr.ok || !nr.error.empty()) << "node " << nr.node;
  }
}

TEST(SchedulerTest, RevokingAllBoardsFailsPendingWork) {
  SchedConfig cfg;
  AcceleratorScheduler sched(fixture(), cfg);
  sched.revoke_board(0);
  AppTicket t = sched.submit(graph_for(61));
  const AppReport rep = t.report.get();  // must resolve, not hang
  EXPECT_FALSE(rep.completed);
  sched.restore_board(0);
  const AppReport rep2 = sched.submit(graph_for(62)).report.get();
  EXPECT_TRUE(rep2.completed);
}

TEST(SchedulerTest, FinishedAppsAreDropped) {
  TaskGraph g;
  g.app = "one";
  TaskNode n;
  n.name = "n0";
  n.kernel = "nrzi";
  n.pool = {0};
  g.nodes.push_back(n);

  AcceleratorScheduler sched(fixture());
  const AppTicket first = sched.submit(g);
  ASSERT_TRUE(first.report.get().completed);
  for (int i = 1; i < 300; ++i) {
    ASSERT_TRUE(sched.submit(g).report.get().completed) << "app " << i;
  }
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.apps_completed, 300u);
  EXPECT_EQ(st.apps_live, 0u);
  sched.cancel(first.id);  // resolved and dropped: a no-op
  const SchedStats after = sched.stats();
  EXPECT_EQ(after.apps_cancelled, 0u);
  EXPECT_EQ(after.nodes_cancelled, 0u);
  EXPECT_EQ(after.apps_live, 0u);
}

// A zero-depth service queue rejects every submit synchronously, so the
// completion hook runs inside the service's submit(), on the thread that is
// pumping dispatch, and re-enters the pump there. Each dispatched node
// climbs its whole retry ladder on that thread and fails; no app may hang.
TEST(SchedulerTest, SynchronousRejectionsFailEveryApp) {
  SchedConfig cfg;
  cfg.service.queue_depth = 0;
  AcceleratorScheduler sched(fixture(), cfg);
  std::vector<AppTicket> tickets;
  for (std::uint64_t i = 0; i < 4; ++i) {
    tickets.push_back(
        sched.submit(graph_for(90 + i, "app" + std::to_string(i))));
  }
  for (AppTicket& t : tickets) {
    const AppReport rep = t.report.get();
    EXPECT_FALSE(rep.completed);
    EXPECT_FALSE(rep.cancelled);
    for (const NodeResult& nr : rep.nodes) {
      EXPECT_FALSE(nr.ok) << "node " << nr.node;
      EXPECT_FALSE(nr.error.empty()) << "node " << nr.node;
    }
  }
  sched.shutdown();
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.apps_failed, tickets.size());
  EXPECT_EQ(st.nodes_completed, 0u);
  EXPECT_GT(st.nodes_dispatched, 0u);
  EXPECT_EQ(st.swap_retries,
            static_cast<std::uint64_t>(cfg.max_retries) * st.nodes_dispatched);
  EXPECT_EQ(st.apps_live, 0u);
  const ServiceStats svc = sched.service().stats();
  EXPECT_EQ(svc.rejected_queue_full, svc.submitted);
}

// The app's only node is in flight when the last board is revoked. Its
// completion finalizes the app and then, with nothing in flight and no
// board left, fails every unstarted node of every app still registered:
// that pass must not resolve the just-finalized app a second time.
TEST(SchedulerTest, LastNodeDrainingOnRevokedFleetFinalizesOnce) {
  TaskGraph g;
  g.app = "one";
  TaskNode n;
  n.name = "n0";
  n.kernel = "nrzi";
  n.pool = {0};
  g.nodes.push_back(n);

  SchedConfig cfg;
  cfg.service.start_paused = true;  // hold the node at the service
  AcceleratorScheduler sched(fixture(), cfg);
  const AppTicket t = sched.submit(g);
  sched.revoke_board(0);
  sched.service().resume();
  const AppReport rep = t.report.get();
  EXPECT_TRUE(rep.completed);
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.apps_completed, 1u);
  EXPECT_EQ(st.apps_failed, 0u);
  EXPECT_EQ(st.apps_live, 0u);
}

// Rung 2 asks the service whether a donor is resident. With a quota of one
// lease per tenant, app A's second node detaches its first node's variant
// V, and the service reaps it. Board 0 still holds V in its ledger, so
// revoking it leaves no slot to reuse V at: a later V-only node must be
// planned cold at once, not as a donorless relocation that costs a retry.
TEST(SchedulerTest, ReapedDonorIsPlannedCold) {
  auto node = [](const std::string& name, int impl) {
    TaskNode n;
    n.name = name;
    n.kernel = "nrzi";
    n.pool = {impl};
    n.stimulus_seed = 7;
    return n;
  };
  TaskGraph chain;
  chain.app = "a";
  chain.nodes.push_back(node("v", 0));
  chain.nodes.push_back(node("w", 1));
  chain.nodes[1].preds = {0};
  TaskGraph v_only;
  v_only.app = "b";
  v_only.nodes.push_back(node("v", 0));

  SchedConfig cfg;
  cfg.num_boards = 2;
  cfg.service.tenant_quota = 1;
  AcceleratorScheduler sched(fixture(), cfg);
  const AppReport a = sched.submit(chain).report.get();
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.nodes[0].board, 0);
  EXPECT_EQ(a.nodes[1].board, 0);

  sched.revoke_board(0);
  const AppReport b = sched.submit(v_only).report.get();
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(b.nodes[0].board, 1);
  EXPECT_EQ(b.nodes[0].placement, Placement::Cold);
  EXPECT_EQ(b.nodes[0].trace, reference_traces(fixture(), v_only, 24)[0]);
  EXPECT_EQ(sched.stats().swap_retries, 0u);
}

// Every (kernel, impl, slot) pbit: the cached circuit simulates exactly like
// a fresh BitstreamSim over the decoded plane, on the first call and on a
// repeated call with a byte-identical copy and other inputs — so no FF state
// of a stateful kernel (accum, fir) leaks from one node into the next.
TEST(SlotCircuitCacheTest, TracesMatchFreshDecodeOnEveryKey) {
  const SchedFixture& fx = fixture();
  const PartialBitstreamGenerator gen(fx.base());
  const PbitRelocator reloc(gen);
  SlotCircuitCache cache(fx);
  Rng rng(5);
  std::size_t keys = 0;
  for (const std::string& k : fx.kernels()) {
    for (std::size_t impl = 0; impl < fx.impls_per_kernel(); ++impl) {
      for (std::size_t s = 0; s < fx.slots().size(); ++s, ++keys) {
        const auto pbit = pbit_for(k, static_cast<int>(impl), s);
        const Region& region = fx.slots()[s];
        const ConfigMemory plane = reloc.decode(*pbit, region);
        const auto copy = std::make_shared<const Bitstream>(*pbit);
        for (const auto& p : {pbit, copy}) {
          const std::vector<bool> in = random_bits(rng, 24);
          EXPECT_EQ(cached_trace(cache, p, region, s, in),
                    fresh_trace(plane, s, in))
              << k << "#" << impl << " slot " << s;
        }
      }
    }
  }
  EXPECT_EQ(cache.misses(), keys);
  EXPECT_EQ(cache.hits(), keys);
  EXPECT_EQ(cache.size(), keys);
}

TEST(SlotCircuitCacheTest, FlippedFdriWordIsAMiss) {
  const SchedFixture& fx = fixture();
  // No CRC, so the flipped stream still loads and is judged on its content.
  PartialGenOptions opts;
  opts.include_crc = false;
  const auto pbit = pbit_for("accum", 0, 1, opts);
  Bitstream flipped = *pbit;
  ConfigReg reg = ConfigReg::CRC;
  bool done = false;
  for (std::size_t i = 0; i < flipped.words.size() && !done; ++i) {
    const auto h = decode_header(flipped.words[i], reg);
    if (!h) continue;
    reg = h->reg;
    if (h->op == PacketOp::Write && h->reg == ConfigReg::FDRI &&
        h->word_count > 0) {
      flipped.words[i + 1 + h->word_count / 2] ^= 1u;
      done = true;
    }
    i += h->word_count;
  }
  ASSERT_TRUE(done) << "no FDRI payload in the pbit";
  const auto other = std::make_shared<const Bitstream>(std::move(flipped));

  const Region& region = fx.slots()[1];
  SlotCircuitCache cache(fx);
  (void)cache.circuit(pbit, region);
  // The flipped stream is elaborated on its own: same outcome as the
  // uncached path, whether that is a circuit or an error.
  const PartialBitstreamGenerator gen(fx.base());
  const PbitRelocator reloc(gen);
  const std::vector<bool> in(24, true);
  std::string fresh_error;
  std::vector<bool> fresh;
  try {
    fresh = fresh_trace(reloc.decode(*other, region), 1, in);
  } catch (const JpgError& e) {
    fresh_error = e.what();
  }
  std::string cached_error;
  std::vector<bool> cached;
  try {
    cached = cached_trace(cache, other, region, 1, in);
  } catch (const JpgError& e) {
    cached_error = e.what();
  }
  EXPECT_EQ(cached_error, fresh_error);
  EXPECT_EQ(cached, fresh);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(SlotCircuitCacheTest, SameBytesAtAnotherRegionIsAMiss) {
  const SchedFixture& fx = fixture();
  const auto pbit = pbit_for("fir", 1, 0);
  SlotCircuitCache cache(fx);
  const auto at_slot = cache.circuit(pbit, fx.slots()[0]);
  const auto at_wide = cache.circuit(pbit, widened(0));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(at_slot, at_wide);
}

TEST(SlotCircuitCacheTest, EntriesNeverExceedFixtureBound) {
  const SchedFixture& fx = fixture();
  SlotCircuitCache cache(fx);
  EXPECT_EQ(cache.capacity(), fx.kernels().size() * fx.impls_per_kernel() *
                                  fx.slots().size());
  std::shared_ptr<const Bitstream> oldest;
  for (const bool wide : {false, true}) {
    for (const std::string& k : fx.kernels()) {
      for (std::size_t impl = 0; impl < fx.impls_per_kernel(); ++impl) {
        for (std::size_t s = 0; s < fx.slots().size(); ++s) {
          const auto pbit = pbit_for(k, static_cast<int>(impl), s);
          if (!oldest) oldest = pbit;
          (void)cache.circuit(pbit, wide ? widened(s) : fx.slots()[s]);
          ASSERT_LE(cache.size(), cache.capacity());
        }
      }
    }
  }
  EXPECT_EQ(cache.size(), cache.capacity());
  EXPECT_EQ(cache.misses(), 2 * cache.capacity());
  // The least recently used entry went first.
  (void)cache.circuit(oldest, fx.slots()[0]);
  EXPECT_EQ(cache.misses(), 2 * cache.capacity() + 1);
}

// Two threads ask for the same cold key at once: both elaborate it outside
// the lock, both get a correct circuit, and one entry is kept.
TEST(SlotCircuitCacheTest, ConcurrentColdKeyKeepsOneEntry) {
  const SchedFixture& fx = fixture();
  const auto pbit = pbit_for("accum", 1, 2);
  const Region& region = fx.slots()[2];
  const PartialBitstreamGenerator gen(fx.base());
  const PbitRelocator reloc(gen);
  Rng rng(9);
  const std::vector<bool> in = random_bits(rng, 24);
  const std::vector<bool> expect =
      fresh_trace(reloc.decode(*pbit, region), 2, in);

  SlotCircuitCache cache(fx);
  const std::vector<std::shared_ptr<const Bitstream>> pbits = {
      pbit, std::make_shared<const Bitstream>(*pbit)};
  std::atomic<int> arrived{0};
  std::vector<std::vector<bool>> traces(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      traces[t] = cached_trace(cache, pbits[t], region, 2, in);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(traces[0], expect);
  EXPECT_EQ(traces[1], expect);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits() + cache.misses(), 2u);
}

// Chaos tier: concurrent app registration and cancellation mid-graph, board
// revocation/restoration, then shutdown with graphs still in flight. The
// assertions are liveness (every future resolves) and lease hygiene (no
// pinned cache entry outside the resident registry).
TEST(SchedulerChaosTest, ConcurrentSubmitCancelRevokeShutdown) {
  SchedConfig cfg;
  cfg.workers = 3;
  AcceleratorScheduler sched(fixture(), cfg);

  constexpr int kThreads = 4;
  constexpr int kAppsPerThread = 6;
  std::vector<AppTicket> tickets(kThreads * kAppsPerThread);
  std::atomic<bool> stop{false};

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    submitters.emplace_back([&, th] {
      for (int a = 0; a < kAppsPerThread; ++a) {
        const int idx = th * kAppsPerThread + a;
        const TaskGraph g = graph_for(
            1000 + static_cast<std::uint64_t>(idx), "t" + std::to_string(idx));
        tickets[idx] = sched.submit(g);
        if (a % 3 == 1) sched.cancel(tickets[idx].id);  // cancel mid-graph
      }
    });
  }
  std::thread chaos([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      sched.revoke_board(0);
      std::this_thread::yield();
      sched.restore_board(0);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : submitters) t.join();
  stop.store(true, std::memory_order_relaxed);
  chaos.join();
  sched.restore_board(0);

  // Every future must resolve — completed, failed, or cancelled.
  std::size_t completed = 0, other = 0;
  for (AppTicket& t : tickets) {
    const AppReport rep = t.report.get();
    (rep.completed ? completed : other) += 1;
  }
  EXPECT_EQ(completed + other, tickets.size());

  sched.shutdown(true);
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.apps_submitted,
            st.apps_completed + st.apps_cancelled + st.apps_failed);
  EXPECT_EQ(st.dep_violations, 0u);

  // No leaked leases: every pinned cache entry is owned by a live registry
  // entry (PbitCacheStats.pinned is the ground truth on the cache side).
  const ServiceStats svc = sched.service().stats();
  EXPECT_EQ(sched.service().cache_stats().pinned, svc.resident_entries);
  EXPECT_EQ(svc.submitted, svc.accounted());
}

TEST(SchedulerChaosTest, ShutdownWithInflightGraphsDrains) {
  std::vector<AppTicket> tickets;
  {
    AcceleratorScheduler sched(fixture());
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(
          sched.submit(graph_for(2000 + static_cast<std::uint64_t>(i))));
    }
    sched.shutdown(true);  // drain: everything already registered completes
    for (AppTicket& t : tickets) {
      EXPECT_TRUE(t.report.get().completed);
    }
    EXPECT_THROW((void)sched.submit(graph_for(1)), JpgError);
  }
  tickets.clear();
  {
    AcceleratorScheduler sched(fixture());
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(
          sched.submit(graph_for(3000 + static_cast<std::uint64_t>(i))));
    }
    sched.shutdown(false);  // cancel unstarted work, finish running nodes
  }
  for (AppTicket& t : tickets) {
    const AppReport rep = t.report.get();  // resolved either way, no hang
    EXPECT_TRUE(rep.completed || rep.cancelled);
  }
}

// Satellite: ServiceStats / TenantStats snapshot coherence under submit
// churn. Eight threads fire mixed valid / malformed / queue-pressure
// requests; at quiescence the conservation invariant must hold exactly,
// globally and per tenant.
TEST(ServiceStatsTest, SnapshotCoherenceUnderSubmitChurn) {
  const SchedFixture& fx = fixture();
  ServiceConfig cfg;
  cfg.queue_depth = 12;  // small: force QueueFull rejections into the mix
  ReconfigService svc(fx.device(), fx.base(), 2, cfg);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::vector<std::thread> workers;
  std::vector<std::vector<std::future<ServiceResponse>>> futures(kThreads);
  workers.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    workers.emplace_back([&, th] {
      for (int i = 0; i < kPerThread; ++i) {
        ServiceRequest req;
        req.tenant = "tenant" + std::to_string(th % 3);
        req.kind = RequestKind::Swap;
        req.region = fx.slots()[static_cast<std::size_t>(i) % 3];
        req.variant = SchedFixture::variant_label(
            fx.kernels()[static_cast<std::size_t>(i) % 4], 0);
        req.module_config = &fx.plane(
            fx.kernels()[static_cast<std::size_t>(i) % 4], 0,
            static_cast<std::size_t>(i) % 3);
        if (i % 7 == 3) req.board = 99;  // BadRequest: unknown board
        futures[th].push_back(svc.submit(req));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) (void)f.get();  // quiescence: every response resolved
  }
  svc.shutdown(true);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(st.submitted, st.accounted())
      << "completed " << st.completed << " failed " << st.failed
      << " rejected_queue_full " << st.rejected_queue_full
      << " rejected_shutdown " << st.rejected_shutdown
      << " rejected_bad_request " << st.rejected_bad_request;
  EXPECT_GT(st.rejected_bad_request, 0u);
  std::uint64_t tenant_submitted = 0, tenant_done = 0;
  for (const auto& [name, ts] : st.tenants) {
    tenant_submitted += ts.submitted;
    tenant_done += ts.completed + ts.failed + ts.rejected;
  }
  EXPECT_EQ(tenant_submitted, st.submitted);
  EXPECT_EQ(tenant_done, st.accounted());
}

TEST(ServiceStatsTest, CompletionHookSeesEveryCookie) {
  const SchedFixture& fx = fixture();
  std::mutex lock;
  std::vector<std::uint64_t> seen;
  ServiceConfig cfg;
  cfg.on_complete = [&](const ServiceResponse& resp) {
    const std::lock_guard<std::mutex> guard(lock);
    seen.push_back(resp.cookie);
  };
  ReconfigService svc(fx.device(), fx.base(), 1, cfg);
  std::vector<std::future<ServiceResponse>> futures;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    ServiceRequest req;
    req.tenant = "t";
    req.region = fx.slots()[c % 3];
    req.variant = "nrzi#0";
    req.module_config = &fx.plane("nrzi", 0, c % 3);
    req.cookie = c;
    if (c == 4) req.board = 42;  // rejected paths must fire the hook too
    futures.push_back(svc.submit(req));
  }
  for (auto& f : futures) (void)f.get();
  svc.shutdown(true);
  const std::lock_guard<std::mutex> guard(lock);
  std::vector<std::uint64_t> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace jpg::sched
