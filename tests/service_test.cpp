// ReconfigService: the multi-tenant reconfiguration core. Covers the final
// board planes after concurrent verified swaps (two boards, interleaved
// tenants), admission control at the configured queue depth, per-tenant
// resident-quota enforcement (telemetry-verified), resident-lease sharing
// across tenants, DRR fairness (a small tenant is not starved behind a
// flooding one, equal backlogs take strict turns, a head waiting on a busy
// board does not hold back another tenant's), shutdown semantics, request
// validation, the applied pbit a response carries, the completion hook's
// lifetime, and that every call which frees work (a board release,
// shutdown's drain, the end of an execution) dispatches what it unblocks.
// Runs under the tsan label: submit, dispatch, execution and completion all
// race by design.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/partial_gen.h"
#include "device/device.h"
#include "service/load_harness.h"
#include "service/reconfig_service.h"
#include "support/telemetry/telemetry.h"
#include "support/thread_pool.h"

namespace jpg {
namespace {

std::uint64_t svc_counter(const char* name) {
#if JPG_TELEMETRY_ENABLED
  return telemetry::MetricsRegistry::global().snapshot().counter(name);
#else
  (void)name;
  return 0;
#endif
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    fx_ = std::make_unique<LoadFixture>(make_load_fixture(*dev_, 77, 2, 5));
  }

  /// The plane a board should hold after applying `swaps` (slot, variant)
  /// in order to the fixture base. Each step composes over the *evolving*
  /// plane (a generator over the pristine base would reset it every time).
  ConfigMemory expected_plane(
      const std::vector<std::pair<std::size_t, std::size_t>>& swaps) const {
    ConfigMemory want(fx_->base);
    for (const auto& [slot, variant] : swaps) {
      const PartialBitstreamGenerator gen(want);
      want = gen.compose(fx_->variants[variant], fx_->slots[slot]);
    }
    return want;
  }

  const Device* dev_ = nullptr;
  std::unique_ptr<LoadFixture> fx_;
};

TEST_F(ServiceTest, ConcurrentSwapsConvergeToExpectedPlanes) {
  ReconfigService svc(*dev_, fx_->base, 2);

  // One tenant per board: a tenant's queue is FIFO and a board serialises
  // its swaps, so each board's final plane is the ordered composition.
  const std::vector<std::pair<std::size_t, std::size_t>> on0{
      {0, 0}, {1, 1}, {0, 2}};
  const std::vector<std::pair<std::size_t, std::size_t>> on1{{1, 2}, {0, 1}};
  std::vector<std::future<ServiceResponse>> futures;
  for (const auto& [slot, variant] : on0) {
    ServiceRequest r = fx_->request(slot, variant, "alpha");
    r.board = 0;
    futures.push_back(svc.submit(std::move(r)));
  }
  for (const auto& [slot, variant] : on1) {
    ServiceRequest r = fx_->request(slot, variant, "beta");
    r.board = 1;
    futures.push_back(svc.submit(std::move(r)));
  }
  for (auto& f : futures) {
    const ServiceResponse resp = f.get();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_TRUE(resp.report.ok());
  }
  svc.shutdown();

  EXPECT_EQ(svc.board(0).config(), expected_plane(on0));
  EXPECT_EQ(svc.board(1).config(), expected_plane(on1));
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 5u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.inflight, 0u);
}

TEST_F(ServiceTest, AdmissionControlRejectsBeyondQueueDepth) {
  ServiceConfig cfg;
  cfg.queue_depth = 4;
  cfg.start_paused = true;  // stage the backlog deterministically
  ReconfigService svc(*dev_, fx_->base, 1, cfg);

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(svc.submit(fx_->request(0, 0, "t")));
  }
  // Rejections are synchronous: the overflow futures are already ready.
  for (int i = 4; i < 6; ++i) {
    ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().error,
              ServiceError::QueueFull);
  }
  svc.resume();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(futures[static_cast<std::size_t>(i)].get().ok());
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected_queue_full, 2u);
  EXPECT_LE(st.queue_peak, 4u);
  EXPECT_EQ(st.completed, 4u);
}

TEST_F(ServiceTest, TenantQuotaEvictsLeastRecentlyUsedLease) {
  ServiceConfig cfg;
  cfg.tenant_quota = 2;
  ReconfigService svc(*dev_, fx_->base, 1, cfg);

  const std::uint64_t evict0 = svc_counter("svc.quota.evictions");
  // Five distinct variants through one tenant, sequentially: the resident
  // set must never exceed the quota of two.
  for (std::size_t v = 0; v < 5; ++v) {
    const ServiceResponse resp = svc.submit(fx_->request(0, v, "solo")).get();
    ASSERT_TRUE(resp.ok()) << resp.message;
  }
  const ServiceStats st = svc.stats();
  const TenantStats& ts = st.tenants.at("solo");
  EXPECT_EQ(ts.completed, 5u);
  EXPECT_LE(ts.resident_entries, 2u);
  EXPECT_LE(ts.resident_peak, 2u);
  EXPECT_EQ(ts.quota_evictions, 3u);
  EXPECT_LE(st.resident_entries, 2u);  // registry reaped the evicted leases
#if JPG_TELEMETRY_ENABLED
  EXPECT_EQ(svc_counter("svc.quota.evictions") - evict0, 3u);
#else
  (void)evict0;
#endif
  svc.shutdown();
}

TEST_F(ServiceTest, TenantsShareResidentLeases) {
  ReconfigService svc(*dev_, fx_->base, 1, {});
  // Warm through a Generate, then both tenants hit the same resident key.
  ServiceRequest warm = fx_->request(1, 3, "a", RequestKind::Generate);
  ASSERT_TRUE(svc.submit(std::move(warm)).get().ok());
  const ServiceResponse ra = svc.submit(fx_->request(1, 3, "a")).get();
  const ServiceResponse rb = svc.submit(fx_->request(1, 3, "b")).get();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra.resident_hit);
  EXPECT_TRUE(rb.resident_hit);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.tenants.at("a").resident_hits, 1u);
  EXPECT_EQ(st.tenants.at("b").resident_hits, 1u);
  // One shared entry, not one per tenant.
  EXPECT_EQ(st.resident_entries, 1u);
}

TEST_F(ServiceTest, DeficitRoundRobinDoesNotStarveSmallTenants) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.drr_quantum_words = 1u << 24;  // quantum >> cost: pure round-robin
  {
    ReconfigService svc(*dev_, fx_->base, 1, cfg);

    // Tenant "flood" stages 8 swaps before "small" stages 2. FIFO-by-arrival
    // would dispatch small's at seq 8 and 9; DRR must interleave them early.
    std::vector<std::future<ServiceResponse>> flood;
    std::vector<std::future<ServiceResponse>> small;
    for (int i = 0; i < 8; ++i) {
      flood.push_back(svc.submit(fx_->request(0, 0, "flood")));
    }
    for (int i = 0; i < 2; ++i) {
      small.push_back(svc.submit(fx_->request(1, 1, "small")));
    }
    svc.resume();
    std::uint64_t flood_max = 0;
    std::uint64_t small_max = 0;
    for (auto& f : flood) {
      const ServiceResponse r = f.get();
      ASSERT_TRUE(r.ok()) << r.message;
      flood_max = std::max(flood_max, r.dispatch_seq);
    }
    for (auto& f : small) {
      const ServiceResponse r = f.get();
      ASSERT_TRUE(r.ok()) << r.message;
      small_max = std::max(small_max, r.dispatch_seq);
    }
    EXPECT_LT(small_max, flood_max);
    EXPECT_LE(small_max, 6u);  // both of small's swaps dispatch well before last
    svc.shutdown();
  }
  {
    // Strict round-robin: on one board, a tenant that sent its head passes
    // the turn on, so three equal backlogs dispatch A B C A B C A B C.
    ReconfigService svc(*dev_, fx_->base, 1, cfg);
    const std::vector<std::string> names = {"a", "b", "c"};
    std::vector<std::pair<std::string, std::future<ServiceResponse>>> staged;
    for (const std::string& name : names) {
      for (std::size_t i = 0; i < 3; ++i) {
        staged.emplace_back(name, svc.submit(fx_->request(i % 2, i, name)));
      }
    }
    svc.resume();
    std::vector<std::string> order(staged.size());
    for (auto& [name, f] : staged) {
      const ServiceResponse r = f.get();
      ASSERT_TRUE(r.ok()) << r.message;
      ASSERT_LT(r.dispatch_seq, order.size());
      order[r.dispatch_seq] = name;
    }
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a", "b", "c",
                                                "a", "b", "c"}));
    svc.shutdown();
  }
}

// A head waiting on a busy board keeps its tenant's place but does not hold
// back another tenant's head bound for a free board: "c" is blocked behind
// "a"'s swap on board 0, and "b" still goes out in the same pass.
TEST_F(ServiceTest, HeadOnABusyBoardDoesNotHoldBackOtherTenants) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReconfigService svc(*dev_, fx_->base, 2, cfg);
  auto pinned = [&](std::size_t slot, const char* tenant, int board) {
    ServiceRequest req = fx_->request(slot, slot, tenant);
    req.board = board;
    return svc.submit(std::move(req));
  };
  std::vector<std::future<ServiceResponse>> a;
  a.push_back(pinned(0, "a", 0));
  a.push_back(pinned(1, "a", 0));
  std::future<ServiceResponse> c = pinned(0, "c", 0);
  std::future<ServiceResponse> b = pinned(1, "b", 1);
  svc.resume();
  const ServiceResponse rb = b.get();
  ASSERT_TRUE(rb.ok()) << rb.message;
  EXPECT_LE(rb.dispatch_seq, 1u);
  for (auto& f : a) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(c.get().ok());
  svc.shutdown();
}

TEST_F(ServiceTest, ShutdownRejectsQueuedAndNewRequests) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReconfigService svc(*dev_, fx_->base, 1, cfg);
  std::vector<std::future<ServiceResponse>> staged;
  for (int i = 0; i < 3; ++i) {
    staged.push_back(svc.submit(fx_->request(0, 0, "t")));
  }
  svc.shutdown(/*drain=*/false);
  for (auto& f : staged) {
    EXPECT_EQ(f.get().error, ServiceError::ShuttingDown);
  }
  EXPECT_EQ(svc.submit(fx_->request(0, 0, "t")).get().error,
            ServiceError::ShuttingDown);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected_shutdown, 4u);
  EXPECT_EQ(st.completed, 0u);
}

TEST_F(ServiceTest, ValidatesRequestsSynchronously) {
  ReconfigService svc(*dev_, fx_->base, 1, {});
  ServiceRequest no_module = fx_->request(0, 0, "t");
  no_module.module_config = nullptr;
  EXPECT_EQ(svc.submit(std::move(no_module)).get().error,
            ServiceError::BadRequest);

  ServiceRequest bad_board = fx_->request(0, 0, "t");
  bad_board.board = 7;
  EXPECT_EQ(svc.submit(std::move(bad_board)).get().error,
            ServiceError::BadRequest);

  ServiceRequest no_variant = fx_->request(0, 0, "t");
  no_variant.variant.clear();
  EXPECT_EQ(svc.submit(std::move(no_variant)).get().error,
            ServiceError::BadRequest);

  ServiceRequest bad_region = fx_->request(0, 0, "t");
  bad_region.region.c1 = dev_->cols() + 3;
  EXPECT_EQ(svc.submit(std::move(bad_region)).get().error,
            ServiceError::BadRequest);
}

TEST_F(ServiceTest, PoissonLoadCompletesEveryAcceptedRequest) {
  ServiceConfig cfg;
  cfg.queue_depth = 32;
  ReconfigService svc(*dev_, fx_->base, 2, cfg);
  PoissonLoadOptions opt;
  opt.requests = 60;
  opt.tenants = 4;
  opt.rate_hz = 0;  // back-to-back: saturates, may exercise QueueFull
  opt.seed = 5;
  const PoissonLoadResult res = run_poisson_load(svc, *fx_, opt);
  EXPECT_EQ(res.completed + res.rejected + res.failed, 60u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_GT(res.completed, 0u);
  EXPECT_EQ(res.latencies_ns.size(), res.completed);
  EXPECT_GT(percentile_ns(res.latencies_ns, 99), 0u);
  svc.shutdown();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, res.completed);
  EXPECT_LE(st.queue_peak, 32u);
}

TEST_F(ServiceTest, ResponseCarriesTheAppliedPbit) {
  ReconfigService svc(*dev_, fx_->base, 1);
  const ServiceResponse first = svc.submit(fx_->request(0, 0, "t")).get();
  const ServiceResponse second = svc.submit(fx_->request(0, 1, "t")).get();
  ASSERT_TRUE(first.ok()) << first.message;
  ASSERT_TRUE(second.ok()) << second.message;
  ASSERT_NE(first.applied, nullptr);
  ASSERT_NE(second.applied, nullptr);

  // The ledger's last entry at the region is the pointer the latest swap
  // there reported.
  std::shared_ptr<const Bitstream> last;
  for (const AppliedSlot& a : svc.applied_pbits(0)) {
    if (a.region == fx_->slots[0]) last = a.pbit;
  }
  EXPECT_EQ(last, second.applied);
  EXPECT_NE(first.applied, second.applied);

  const ServiceResponse gen =
      svc.submit(fx_->request(1, 0, "t", RequestKind::Generate)).get();
  ASSERT_TRUE(gen.ok()) << gen.message;
  EXPECT_EQ(gen.applied, nullptr);

  ServiceRequest bad = fx_->request(0, 0, "t");
  bad.board = 7;
  const ServiceResponse rejected = svc.submit(std::move(bad)).get();
  EXPECT_EQ(rejected.error, ServiceError::BadRequest);
  EXPECT_EQ(rejected.applied, nullptr);
}

// Each lease is replayed once, when it is published; every swap of it
// then applies that replay's frame table instead of replaying again, and
// the boards still end on the composed planes.
TEST_F(ServiceTest, SwapsApplyTheTableValidatedAtPublish) {
  const std::uint64_t validated0 = svc_counter("svc.resident.validated");
  const std::uint64_t applies0 = svc_counter("dl.table_applies");
  ReconfigService svc(*dev_, fx_->base, 2);
  const std::vector<std::pair<std::size_t, std::size_t>> swaps{
      {0, 0}, {1, 1}, {0, 0}, {1, 1}, {0, 2}};
  for (int b = 0; b < 2; ++b) {
    for (const auto& [slot, variant] : swaps) {
      ServiceRequest r = fx_->request(slot, variant, "t");
      r.board = b;
      const ServiceResponse resp = svc.submit(std::move(r)).get();
      ASSERT_TRUE(resp.ok()) << resp.message;
    }
  }
  svc.shutdown();
  EXPECT_EQ(svc.board(0).config(), expected_plane(swaps));
  EXPECT_EQ(svc.board(1).config(), expected_plane(swaps));
#if JPG_TELEMETRY_ENABLED
  EXPECT_EQ(svc_counter("svc.resident.validated") - validated0, 3u);
  EXPECT_EQ(svc_counter("dl.table_applies") - applies0, 10u);
#else
  (void)validated0;
  (void)applies0;
#endif
}

// words_swapped counts applied swaps only: on a link where every send
// fails, every swap rolls back and no tenant is credited a word, while a
// clean swap credits exactly its stream.
TEST_F(ServiceTest, WordsSwappedCountsOnlyAppliedSwaps) {
  {
    ReconfigService svc(*dev_, fx_->base, 1);
    const ServiceResponse r = svc.submit(fx_->request(0, 0, "t")).get();
    ASSERT_TRUE(r.ok()) << r.message;
    svc.shutdown();
    ASSERT_NE(r.applied, nullptr);
    EXPECT_EQ(svc.stats().tenants.at("t").words_swapped,
              r.applied->words.size());
  }
  ServiceConfig cfg;
  cfg.inject_faults = true;
  cfg.fault_profile.send_failure = 1.0;
  ReconfigService svc(*dev_, fx_->base, 2, cfg);
  std::vector<std::future<ServiceResponse>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(
        svc.submit(fx_->request(i % 2, i % 5, "t" + std::to_string(i % 3))));
  }
  for (auto& f : futures) {
    const ServiceResponse r = f.get();
    EXPECT_EQ(r.error, ServiceError::DownloadFailed) << r.message;
  }
  svc.shutdown();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.failed, 6u);
  std::uint64_t words = 0;
  for (const auto& [name, ts] : st.tenants) words += ts.words_swapped;
  EXPECT_EQ(words, 0u);
}

// The hook may submit: a hook that chains one follow-up request off the
// first completion sees both resolve, and every submit is accounted for at
// quiescence.
TEST_F(ServiceTest, CompletionHookMaySubmit) {
  ReconfigService* svc_ptr = nullptr;
  std::promise<std::future<ServiceResponse>> follow_up;
  std::future<std::future<ServiceResponse>> chained = follow_up.get_future();
  ServiceConfig cfg;
  cfg.on_complete = [&](const ServiceResponse& resp) {
    if (resp.cookie != 1) return;
    ServiceRequest next = fx_->request(1, 1, "t");
    next.cookie = 2;
    follow_up.set_value(svc_ptr->submit(std::move(next)));
  };
  ReconfigService svc(*dev_, fx_->base, 1, cfg);
  svc_ptr = &svc;
  ServiceRequest first = fx_->request(0, 0, "t");
  first.cookie = 1;
  const ServiceResponse r1 = svc.submit(std::move(first)).get();
  ASSERT_TRUE(r1.ok()) << r1.message;
  const ServiceResponse r2 = chained.get().get();
  ASSERT_TRUE(r2.ok()) << r2.message;
  EXPECT_EQ(r2.cookie, 2u);
  svc.shutdown();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.submitted, st.accounted());
}

// A swap pinned to a board that attest() holds waits in the queue; freeing
// the board must dispatch it, with no later submit or completion to do it.
// The attest thread keeps claiming the board, so a submit that finds the
// pinned head queued (queue_depth 1 right after submit; the service is not
// paused and nothing else runs) was blocked by attest.
TEST_F(ServiceTest, SwapBlockedByAttestDispatchesWhenTheBoardIsReleased) {
  ReconfigService svc(*dev_, fx_->base, 1, {});
  ASSERT_TRUE(svc.submit(fx_->request(0, 0, "t")).get().ok());
  std::atomic<bool> stop{false};
  std::thread auditor([&] {
    while (!stop) EXPECT_TRUE(svc.attest(0).ok());
  });
  std::size_t blocked = 0;
  for (int i = 0; i < 200 && blocked < 3; ++i) {
    ServiceRequest req = fx_->request(static_cast<std::size_t>(i % 2),
                                      static_cast<std::size_t>(i % 5), "t");
    req.board = 0;
    std::future<ServiceResponse> f = svc.submit(std::move(req));
    if (svc.stats().queue_depth == 1) ++blocked;
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ADD_FAILURE() << "a swap queued behind attest() was never dispatched";
      break;
    }
    const ServiceResponse r = f.get();
    ASSERT_TRUE(r.ok()) << r.message;
  }
  stop = true;
  auditor.join();
  EXPECT_GE(blocked, 1u) << "no submit found the board held by attest()";
  svc.shutdown();
}

// shutdown(drain=true) on a paused service that is never resumed still
// dispatches and completes the whole backlog.
TEST_F(ServiceTest, ShutdownDrainsAPausedBacklogWithoutResume) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReconfigService svc(*dev_, fx_->base, 2, cfg);
  std::vector<std::future<ServiceResponse>> staged;
  for (int i = 0; i < 6; ++i) {
    staged.push_back(svc.submit(fx_->request(static_cast<std::size_t>(i % 2),
                                             static_cast<std::size_t>(i % 5),
                                             i % 2 == 0 ? "a" : "b")));
  }
  EXPECT_EQ(svc.stats().queue_depth, 6u);
  std::future<void> drained =
      std::async(std::launch::async, [&] { svc.shutdown(/*drain=*/true); });
  if (drained.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "shutdown(drain=true) did not dispatch a paused backlog";
    svc.resume();  // unblock the drain so the test can end
  }
  drained.get();
  for (auto& f : staged) {
    const ServiceResponse r = f.get();
    EXPECT_TRUE(r.ok()) << r.message;
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 6u);
  EXPECT_EQ(st.submitted, st.accounted());
}

// Executions beyond the pool's width wait on the in-flight cap, and a
// Generate frees no board: only the end of an execution (after its hook)
// can dispatch the rest of a backlog of Generates.
TEST_F(ServiceTest, GenerateBacklogBeyondThePoolWidthDrains) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReconfigService svc(*dev_, fx_->base, 1, cfg);
  const std::size_t n = 2 * ThreadPool::global().size() + 1;
  std::vector<std::future<ServiceResponse>> staged;
  for (std::size_t i = 0; i < n; ++i) {
    staged.push_back(svc.submit(
        fx_->request(i % 2, i % 5, "t", RequestKind::Generate)));
  }
  svc.resume();
  for (auto& f : staged) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "a Generate held back by the in-flight cap was never dispatched";
    EXPECT_TRUE(f.get().ok());
  }
  svc.shutdown();
  EXPECT_EQ(svc.stats().completed, n);
}

// A request costing more than one DRR quantum gains its credit one quantum
// at a time. With nothing else in flight no later event comes, so the pass
// that runs on submit must grant all of it and send the request.
TEST_F(ServiceTest, RequestCostingSeveralQuantaIsServedOnAnIdleService) {
  ServiceConfig cfg;
  cfg.drr_quantum_words = 256;
  ReconfigService svc(*dev_, fx_->base, 1, cfg);
  std::future<ServiceResponse> f =
      svc.submit(fx_->request(0, 0, "t", RequestKind::Generate));
  const std::future_status status = f.wait_for(std::chrono::seconds(5));
  // Reject a stuck backlog, or the destructor's drain would wait forever.
  if (status != std::future_status::ready) svc.shutdown(/*drain=*/false);
  ASSERT_EQ(status, std::future_status::ready)
      << "a request costing more than one quantum was never dispatched";
  EXPECT_TRUE(f.get().ok());
  EXPECT_GT(svc.stats().drr_quanta, 1u);
}

// The hook reads its own captures after a delay, and the service is
// destroyed without waiting on the future: destruction must wait for the
// running hook, or the hook reads freed memory.
TEST_F(ServiceTest, DestroyWaitsForRunningCompletionHook) {
  std::atomic<bool> hook_done{false};
  ServiceConfig cfg;
  cfg.on_complete = [tag = std::string(64, 'h'),
                     &hook_done](const ServiceResponse&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(tag, std::string(64, 'h'));
    hook_done = true;
  };
  auto svc = std::make_unique<ReconfigService>(*dev_, fx_->base, 1, cfg);
  (void)svc->submit(fx_->request(0, 0, "t"));
  svc.reset();
  EXPECT_TRUE(hook_done);
  // Should destruction return early, let the hook finish inside this test,
  // so the use-after-free is reported here and hook_done outlives it.
  while (!hook_done) std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

}  // namespace
}  // namespace jpg
