// ReconfigService: the in-process core of a long-running `jpgd` daemon.
//
// The paper's tool is a one-shot generator; this service is the
// "reconfiguration as a service" story: one process owns a fleet of N
// boards sharing a base design, and many logical tenants submit concurrent
// generate/swap requests against reconfigurable slots. Requests flow
// through a bounded admission queue (reject-with-ServiceError beyond the
// configured depth — the backpressure signal an open-loop client
// observes), are scheduled across tenants by deficit round-robin (a tenant
// flooding the queue cannot starve the others; cost is the stream size, so
// big-region tenants don't get a free ride either), and execute on a
// shared ThreadPool with one download in flight per board.
//
// The datapath reuses the existing backends end to end: pbits come from
// PartialBitstreamGenerator::generate_leased (pinned, cache-resident — the
// zero-copy path of DESIGN.md §5g), each newly published lease is validated
// once into a FrameTable (validate_stream), the wire is
// VerifiedDownloader::download_validated (two-state invariant per swap), and
// per-tenant quotas are layered *over* the content-addressed cache: each
// tenant owns an LRU of resident leases; exceeding its quota releases the
// tenant's least-recently-used lease (making the entry evictable again)
// rather than evicting another tenant's working set. Tenants requesting the
// same (region, variant) share one lease, refcounted by attachment.
//
// Everything is instrumented through the PR 4 telemetry subsystem as
// `svc.*` counters/gauges/histograms (docs/OBSERVABILITY.md) plus a
// coherent ServiceStats snapshot.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bitstream/config_memory.h"
#include "bitstream/frame_table.h"
#include "core/partial_gen.h"
#include "core/relocate.h"
#include "device/region.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/verified_downloader.h"
#include "support/thread_pool.h"

namespace jpg {

/// Why a request was not served. Admission-control rejections are reported
/// synchronously (the returned future is already ready) so an open-loop
/// client sees backpressure immediately instead of a silently growing queue.
enum class ServiceError {
  None,          ///< request served
  QueueFull,     ///< admission control: pending depth at the configured limit
  ShuttingDown,  ///< submitted after shutdown() began
  BadRequest,    ///< malformed request (unknown board, missing module, ...)
  DownloadFailed,  ///< the verified download did not converge to Success
};

[[nodiscard]] std::string_view service_error_name(ServiceError e);

enum class RequestKind {
  Generate,  ///< generate + pin the pbit (warm the tenant's resident set)
  Swap,      ///< generate/lease, then verified streamed download to a board
};

struct ServiceRequest {
  std::string tenant;
  RequestKind kind = RequestKind::Swap;
  /// Target board for swaps; -1 lets the scheduler pick a free board
  /// (least configuration words shipped so far — cheap load balancing).
  int board = -1;
  /// Module plane and slot; must outlive the request's completion. May be
  /// null when ServiceConfig::allow_relocation is set: the service then
  /// serves the variant by relocating a resident donor pbit of the same
  /// (variant, shape) to this request's region.
  const ConfigMemory* module_config = nullptr;
  Region region;
  /// Content label for the resident registry ("fir_v2"). Two requests with
  /// the same (region, variant) share one resident lease, so the label must
  /// identify the module content the way a real pool's variant name does.
  std::string variant;
  PartialGenOptions gen_opts;
  /// Opaque caller tag echoed in the response — lets a completion hook
  /// correlate responses with whatever the caller was tracking (the
  /// scheduler uses it for its node ids) without a side table.
  std::uint64_t cookie = 0;
};

struct ServiceResponse {
  ServiceError error = ServiceError::None;
  std::string message;         ///< detail when error != None
  std::uint64_t cookie = 0;    ///< ServiceRequest::cookie, echoed
  int board = -1;              ///< board served (swaps)
  bool resident_hit = false;   ///< lease served from the resident registry
  std::uint64_t queue_wait_ns = 0;  ///< submit -> dispatch
  std::uint64_t service_ns = 0;     ///< dispatch -> completion
  std::uint64_t dispatch_seq = 0;   ///< global dispatch order (fairness audit)
  DownloadReport report;       ///< swaps only
  /// The pbit the board's ledger now holds at the request's region (the
  /// same pointer applied_pbits() reports); null unless a swap succeeded.
  std::shared_ptr<const Bitstream> applied;

  [[nodiscard]] bool ok() const { return error == ServiceError::None; }
  [[nodiscard]] std::uint64_t latency_ns() const {
    return queue_wait_ns + service_ns;
  }
};

struct ServiceConfig {
  /// Admission limit on queued-not-yet-dispatched requests; beyond it
  /// submit() rejects with ServiceError::QueueFull.
  std::size_t queue_depth = 256;
  /// Resident leases a tenant may hold (0 = unlimited). Exceeding it
  /// releases the tenant's LRU lease (svc.quota.evictions).
  std::size_t tenant_quota = 8;
  /// DRR quantum in stream words (positive): a tenant's credit on joining
  /// the active list, and its gain whenever its head costs more than that.
  std::uint64_t drr_quantum_words = 32 * 1024;
  /// Pbit cache capacity of the service's generator.
  std::size_t cache_capacity = PartialBitstreamGenerator::kDefaultCacheCapacity;
  /// Construct paused: requests queue but nothing dispatches until
  /// resume() — tests use this to stage a backlog deterministically.
  bool start_paused = false;
  /// Serve a (variant) key at any compatible slot: a request with a null
  /// module_config is satisfied by relocating a resident donor pbit of the
  /// same variant and shape (PbitRelocator, containment enforced) — the
  /// compile-once-place-anywhere placement freedom of docs/SERVICE.md.
  bool allow_relocation = false;
  /// Containment requirement for relocation-served requests. Flowed modules
  /// with I/O always carry boundary crossings (their interface wires escape
  /// the region by construction), so serving them via relocation needs this
  /// off — sound exactly when every compatible slot exposes an identical
  /// interface (the scheduler's uniform-socket fixture guarantees it; its
  /// oracle family re-proves trace equality per placement).
  bool reloc_require_containment = true;
  /// Wrap every board link in a FaultyBoard(fault_profile, fault_seed + i):
  /// the scheduler's fault tier. Bring-up of the base design bypasses the
  /// wrapper (a clean power-on); only runtime swap/readback traffic is
  /// subject to injection, and DownloadPolicy retries must ride it out.
  bool inject_faults = false;
  FaultProfile fault_profile;
  std::uint64_t fault_seed = 1;
  /// Fired once per request on every completion path, just before the
  /// future becomes ready: on a pool worker for executed requests, inside
  /// submit() (the caller's thread) for synchronous rejections, and inside
  /// shutdown(false) for queued requests it rejects. It runs under no
  /// service lock, so it may call submit() and the const queries. Such a
  /// submit dispatches on the hook's own thread: an accepted request is
  /// posted to the pool (never run inline), a rejected one re-enters the
  /// hook on the same thread. It must not call shutdown(), attest() or
  /// defragment(), and must never block on a service future: it may hold
  /// one of the service's workers. An executed request stays in flight
  /// (ServiceStats::inflight) until its hook returns, so shutdown() and the
  /// destructor wait for it.
  std::function<void(const ServiceResponse&)> on_complete;
  DownloadPolicy policy;  ///< per-board verified-download policy
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t resident_hits = 0;
  std::uint64_t quota_evictions = 0;
  /// Configuration words of the tenant's applied swaps. A swap whose
  /// download was rejected, rolled back or failed counts nothing (the
  /// board-pick balance counts every word shipped, applied or not).
  std::uint64_t words_swapped = 0;
  std::size_t resident_entries = 0;  ///< leases held right now
  std::size_t resident_peak = 0;     ///< max ever held (quota audit)
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;          ///< completed with error set
  std::uint64_t dispatched = 0;
  std::uint64_t drr_quanta = 0;      ///< DRR quanta granted
  std::size_t queue_depth = 0;       ///< pending right now
  std::size_t queue_peak = 0;        ///< max pending ever observed
  std::size_t inflight = 0;          ///< executing, completion hook included
  std::size_t resident_entries = 0;  ///< live entries in the registry
  std::uint64_t relocations_served = 0;  ///< requests served via a donor pbit
  std::uint64_t defrag_moves = 0;        ///< slots moved by defragment()
  std::map<std::string, TenantStats> tenants;

  /// Conservation invariant: every submitted request ends in exactly one of
  /// completed / failed / rejected_*. Holds at quiescence (no queued or
  /// in-flight work) — the stats-coherence test pins it under churn.
  [[nodiscard]] std::uint64_t accounted() const {
    return completed + failed + rejected_queue_full + rejected_shutdown +
           rejected_bad_request;
  }
};

/// One pbit currently applied to a board, as reported by applied_pbits():
/// the scheduler reads which variant each free slot holds from these
/// snapshots (decode the pbit over the base at `region` for its content).
struct AppliedSlot {
  Region region;
  std::string variant;
  std::uint64_t seq = 0;  ///< apply order (ascending)
  /// Shared with the service ledger (and the pbit cache, while resident);
  /// immutable, so it stays valid after later swaps.
  std::shared_ptr<const Bitstream> pbit;
};

/// Outcome of a defragmentation pass over one board.
struct DefragReport {
  std::vector<DefragMove> planned;  ///< compaction plan (may be empty)
  std::size_t executed = 0;         ///< moves completed (move + scrub verified)
  bool ok = true;                   ///< every planned move executed
  std::string error;                ///< first failure (ok == false)
};

/// One service = one device, one base design, N simulated boards. Submit is
/// thread-safe; responses complete on pool workers. Destruction drains:
/// pending requests finish (shutdown(false) rejects them instead).
class ReconfigService {
 public:
  ReconfigService(const Device& device, const ConfigMemory& base,
                  std::size_t num_boards, ServiceConfig cfg = {});
  ~ReconfigService();

  ReconfigService(const ReconfigService&) = delete;
  ReconfigService& operator=(const ReconfigService&) = delete;

  /// Admission-controlled, asynchronous. The future is already ready for
  /// rejected requests (QueueFull / ShuttingDown / BadRequest).
  [[nodiscard]] std::future<ServiceResponse> submit(ServiceRequest req);

  /// Starts dispatching (no-op unless start_paused or already resumed).
  void resume();

  /// Stops admitting. drain=true completes everything already queued;
  /// drain=false rejects queued requests with ShuttingDown. In-flight
  /// executions always finish. Idempotent.
  void shutdown(bool drain = true);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] PbitCacheStats cache_stats() const { return gen_.cache_stats(); }
  [[nodiscard]] std::size_t num_boards() const { return boards_.size(); }
  /// The simulated board itself (tests inspect final planes through it).
  [[nodiscard]] const SimBoard& board(std::size_t i) const;

  /// Snapshot of the pbits currently applied to board `i`, in apply order.
  /// Shares the streams rather than copying them.
  [[nodiscard]] std::vector<AppliedSlot> applied_pbits(std::size_t i) const;

  /// True while a Ready resident lease carries `variant`: a relocation
  /// request for it has a donor to serve from (if one sits at a
  /// shape-compatible region other than the request's own).
  [[nodiscard]] bool has_resident(std::string_view variant) const;

  /// Readback attestation of one board: reconstructs the expected plane
  /// from the base design plus every pbit applied to that board (in apply
  /// order, relocated ones included) and audits the device against it.
  /// Blocks while the board has a swap in flight; read-only on the device.
  [[nodiscard]] AttestReport attest(std::size_t board);

  /// Compacts the board's applied slots toward the lowest base-free
  /// columns: plans with plan_defrag(), then executes each move as a
  /// verified relocate-download plus a verified base-restore scrub of the
  /// vacated slot — the two-state invariant holds across every step.
  DefragReport defragment(std::size_t board);

 private:
  struct Pending {
    ServiceRequest req;
    std::promise<ServiceResponse> promise;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t cost_words = 0;  ///< DRR cost: estimated stream words
  };

  struct Tenant {
    std::deque<Pending> queue;
    std::uint64_t deficit = 0;  ///< DRR credit (words), set on joining
    TenantStats stats;
  };

  /// One pbit currently applied to a board, keyed by its region. A later
  /// swap at the same region replaces the entry (full-column pbits are
  /// state-independent); `seq` preserves apply order so attestation can
  /// replay the set deterministically.
  struct AppliedPbit {
    Region region;
    std::string variant;
    /// Shares the resident cache result; holding it does not pin the entry.
    std::shared_ptr<const Bitstream> pbit;
    std::uint64_t seq = 0;
  };

  struct BoardCtx {
    explicit BoardCtx(const Device& dev) : board(dev) {}
    SimBoard board;
    /// Present when ServiceConfig::inject_faults: the downloader talks to
    /// the board only through this adversarial link decorator.
    std::unique_ptr<FaultyBoard> faulty;
    std::unique_ptr<VerifiedDownloader> downloader;
    bool busy = false;
    std::uint64_t words_shipped = 0;  ///< balance metric for board pick
    std::map<std::string, AppliedPbit> applied;  ///< live slots (lock_)
  };

  /// A pinned pbit shared by every tenant currently attached to its
  /// (region, variant) key. The lease releases — the cache entry becomes
  /// evictable — when the last shared_ptr drops.
  struct Resident {
    /// Creation is a tiny state machine so concurrent requests for the same
    /// key generate once: the creator inserts a Generating entry, releases
    /// resident_lock_, generates (or relocates), validates the lease once,
    /// then publishes Ready (or Failed) and wakes the waiters.
    enum class State { Generating, Ready, Failed };
    State state = State::Generating;
    PbitLease lease;
    /// The publish-time replay of the lease's words; every swap applies it
    /// instead of replaying again. A lease whose replay throws is never
    /// published. Immutable once Ready.
    FrameTable table;
    std::size_t attached = 0;  ///< tenants holding it in their LRU
    // Identity of the pbit, for the relocation donor search: another
    // request for the same variant at a shape-compatible region can be
    // served by relocating this entry's stream.
    Region region;
    std::string variant;
    PartialGenOptions opts;
  };

  /// Fires cfg_.on_complete (if set), then fulfils the promise. The single
  /// funnel for every completion path, so the hook can never be missed.
  void complete(std::promise<ServiceResponse>& promise, ServiceResponse resp);

  /// One pass over the DRR active list under lock_ (rules 1-5 of
  /// docs/SERVICE.md), run once by every event that changes what can run:
  /// submit, resume, shutdown, release_board, the end of an execution.
  void dispatch_locked();
  /// Pops the tenant's head, marks its board busy and posts its execution.
  void post_head_locked(Tenant& tenant, int board_idx);
  [[nodiscard]] int pick_board_locked(const ServiceRequest& req) const;
  [[nodiscard]] std::uint64_t estimate_cost_words(const Region& region) const;

  void execute(std::shared_ptr<Pending> p, int board_idx,
               std::uint64_t dispatch_seq);
  /// Lease acquisition + per-tenant quota enforcement. Returns the shared
  /// resident entry; sets resident_hit when no generation was needed.
  std::shared_ptr<Resident> acquire_resident(const std::string& tenant,
                                             const ServiceRequest& req,
                                             bool& resident_hit);
  /// validate_stream of a lease's words, counted as a publish validation.
  /// Takes no lock. Throws BitstreamError on a malformed lease.
  [[nodiscard]] FrameTable validate_lease(
      std::span<const std::uint32_t> words) const;
  /// Drops registry entries no tenant holds once in-flight users are done.
  void reap_residents_locked();
  /// Ready resident with the same (variant, options) and a shape-compatible
  /// region, or null. Caller holds resident_lock_.
  [[nodiscard]] std::shared_ptr<Resident> find_donor_locked(
      const ServiceRequest& req) const;
  /// Columns carrying no base-design configuration (defrag move targets).
  [[nodiscard]] std::vector<char> base_free_columns() const;
  /// Waits until board `i` is idle and marks it busy / releases it again
  /// (attest and defragment exclude the swap datapath this way).
  void claim_board(std::size_t i);
  void release_board(std::size_t i);

  const Device* device_;
  const ConfigMemory* base_;
  ServiceConfig cfg_;
  PartialBitstreamGenerator gen_;
  std::vector<std::unique_ptr<BoardCtx>> boards_;
  /// Executions run here, at most pool_.size() at a time.
  ThreadPool& pool_ = ThreadPool::global();

  mutable std::mutex lock_;  ///< queue + tenants + boards + stats
  /// Wakes shutdown()'s drain wait and claim_board() when work finishes or
  /// a board frees.
  std::condition_variable cv_;
  std::map<std::string, Tenant> tenants_;
  /// DRR active list: exactly the tenants with a non-empty queue, in turn
  /// order (map nodes are stable, so the pointers are too).
  std::list<Tenant*> active_;
  std::size_t total_pending_ = 0;
  std::size_t inflight_ = 0;
  std::uint64_t dispatch_seq_ = 0;
  std::uint64_t apply_seq_ = 0;  ///< apply-order stamp for BoardCtx::applied
  bool paused_ = false;
  bool accepting_ = true;
  ServiceStats stats_;

  // Resident registry. Guarded by its own mutex, never held together with
  // lock_ (acquire_resident runs between dispatch and completion, both of
  // which take lock_ on their own): generation inside acquire_resident must
  // not block submit/dispatch, and quota math must not block generation.
  mutable std::mutex resident_lock_;
  std::condition_variable resident_cv_;  ///< wakes same-key waiters
  std::map<std::string, std::shared_ptr<Resident>> residents_;
  /// Per-tenant resident LRU: front = most recently used registry key.
  std::map<std::string, std::list<std::string>> tenant_lru_;
};

}  // namespace jpg
