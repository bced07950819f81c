// AcceleratorScheduler: the runtime workload layer over ReconfigService.
//
// Applications register task graphs (task_graph.h) whose nodes name socket
// kernels with per-node variant pools; the scheduler owns a ReconfigService
// fleet sharing the SchedFixture base design and dispatches ready nodes with
// locality-aware placement, climbing a three-rung ladder per node:
//
//   1. Reuse     — a free slot already holds a pool variant (the service's
//                  applied_pbits ledger says so): swap avoidance, the
//                  service serves the lease from its resident registry.
//   2. Relocated — the service holds a resident donor pbit of a pool
//                  variant (has_resident): submit with module_config =
//                  nullptr and let the service relocate the donor
//                  (allow_relocation, containment relaxed — sound on the
//                  uniform-socket fixture).
//   3. Cold      — flow output is generated from the fixture's module plane.
//
// The scheduler is a policy layer: slot contents and donors are read from
// the service, and it has no threads. Dispatch runs on the events that make
// a node dispatchable — submit(), restore_board() and every service
// completion — through one pump that submits a node's swap and keeps no
// future. The service's on_complete hook, chained behind any caller hook,
// either queues a failed attempt as a cold retry or simulates the node over
// the circuit of the pbit actually applied (ServiceResponse::applied,
// memoised in SlotCircuitCache), marks its successors ready and gives each
// the XOR of its predecessors' output traces as its input stream; then it
// pumps. Any schedule that respects the DAG must reproduce the sequential
// reference traces exactly (reference_traces) — the invariant the scheduler
// oracle family proves per random graph.
//
// Everything is instrumented as `sched.*` telemetry (docs/OBSERVABILITY.md)
// next to the service's `svc.*` catalogue.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/sched_fixture.h"
#include "sched/slot_circuit_cache.h"
#include "sched/task_graph.h"
#include "service/reconfig_service.h"

namespace jpg::sched {

/// Which rung of the placement ladder served a node.
enum class Placement {
  Reuse,      ///< pool variant already resident at the chosen slot
  Relocated,  ///< served by relocating a donor pbit of a pool variant
  Cold,       ///< generated from the fixture's flowed module plane
};

[[nodiscard]] std::string_view placement_name(Placement p);

struct SchedConfig {
  std::size_t num_boards = 1;
  /// Cap on nodes in flight at the service (retries of an in-flight node
  /// do not count again). A ready node waits for a place here before it
  /// takes a slot.
  std::size_t workers = 2;
  int sim_cycles = 24;     ///< per-node simulation length (bits of trace)
  bool locality = true;    ///< rung 1: prefer slots already holding a variant
  bool allow_relocation = true;  ///< rung 2: donor relocation before cold
  int max_retries = 2;     ///< cold retries after a reuse/relocation failure
  /// Service configuration; the ctor forces allow_relocation /
  /// reloc_require_containment to match the rungs enabled above and chains
  /// any caller-provided on_complete hook behind the scheduler's own.
  ServiceConfig service;
};

struct NodeResult {
  std::size_t node = 0;
  std::string kernel;
  std::string variant;     ///< registry label actually served ("fir#1")
  int board = -1;
  int slot = -1;
  Placement placement = Placement::Cold;
  bool ok = false;
  std::string error;
  std::vector<bool> trace;       ///< simulated output, sim_cycles bits
  std::uint64_t start_event = 0;  ///< dispatch order (global event clock)
  std::uint64_t end_event = 0;    ///< completion order (same clock)
  std::uint64_t queue_wait_ns = 0;  ///< ready -> dispatch
  std::uint64_t service_ns = 0;     ///< service-side dispatch -> completion
};

struct AppReport {
  std::uint64_t app = 0;
  bool completed = false;  ///< every node ran and succeeded
  bool cancelled = false;
  std::vector<NodeResult> nodes;  ///< indexed like TaskGraph::nodes
};

struct AppTicket {
  std::uint64_t id = 0;
  std::shared_future<AppReport> report;
};

struct SchedStats {
  std::uint64_t apps_submitted = 0;
  std::uint64_t apps_completed = 0;
  std::uint64_t apps_cancelled = 0;
  std::uint64_t apps_failed = 0;
  std::uint64_t nodes_dispatched = 0;
  std::uint64_t nodes_completed = 0;
  std::uint64_t nodes_failed = 0;
  std::uint64_t nodes_cancelled = 0;
  std::uint64_t placements_reuse = 0;
  std::uint64_t placements_relocated = 0;
  std::uint64_t placements_cold = 0;
  std::uint64_t swap_retries = 0;     ///< ladder fallbacks to a cold retry
  std::uint64_t dep_violations = 0;   ///< dispatches with an unfinished pred
  std::uint64_t completion_events = 0;  ///< service on_complete deliveries
  std::uint64_t boards_revoked = 0;
  /// Registered apps whose future has not resolved yet (a resolved app is
  /// dropped, so this is 0 at quiescence however many apps have run).
  std::uint64_t apps_live = 0;

  /// Swap-avoidance hit rate: reuse placements over completed nodes.
  [[nodiscard]] double reuse_rate() const {
    return nodes_completed == 0
               ? 0.0
               : static_cast<double>(placements_reuse) /
                     static_cast<double>(nodes_completed);
  }
};

/// Sequential reference execution: every node in index order, pool variant 0
/// at slot 0, no service involved. The oracle family compares scheduled
/// traces against these — placement must never change results.
[[nodiscard]] std::vector<std::vector<bool>> reference_traces(
    const SchedFixture& fixture, const TaskGraph& graph, int sim_cycles);

/// The input stream a node sees: XOR of its predecessors' output traces, or
/// a stream seeded from stimulus_seed for source nodes.
[[nodiscard]] std::vector<bool> node_input(
    const TaskGraph& graph, std::size_t node,
    const std::vector<std::vector<bool>>& traces, int sim_cycles);

class AcceleratorScheduler {
 public:
  /// `fixture` must outlive the scheduler.
  explicit AcceleratorScheduler(const SchedFixture& fixture,
                                SchedConfig cfg = {});
  ~AcceleratorScheduler();

  AcceleratorScheduler(const AcceleratorScheduler&) = delete;
  AcceleratorScheduler& operator=(const AcceleratorScheduler&) = delete;

  /// Registers a task graph; throws JpgError on invalid graphs (unknown
  /// kernel, impl outside the fixture pool) and after shutdown().
  [[nodiscard]] AppTicket submit(TaskGraph graph);

  /// Cancels an app: waiting/ready nodes become Cancelled, running nodes
  /// finish. The app's report resolves with cancelled = true. Unknown or
  /// already-finished ids are a no-op.
  void cancel(std::uint64_t app_id);

  /// Takes board `i` out of dispatch; running nodes on it finish. When no
  /// boards remain, every unstarted node fails (nothing can ever place).
  void revoke_board(std::size_t i);
  /// Returns a revoked board to dispatch.
  void restore_board(std::size_t i);

  /// Forwards to the service; rung 1 reads the moved slots from its ledger.
  DefragReport defragment(std::size_t board) {
    return svc_->defragment(board);
  }

  /// Stops admitting apps. drain=true waits for every registered app to
  /// resolve; drain=false cancels unstarted work first. Idempotent.
  void shutdown(bool drain = true);

  [[nodiscard]] SchedStats stats() const;
  [[nodiscard]] ReconfigService& service() { return *svc_; }
  [[nodiscard]] const SchedFixture& fixture() const { return *fixture_; }

 private:
  enum class NodeState { Waiting, Ready, Running, Done, Failed, Cancelled };

  struct AppCtx {
    std::uint64_t id = 0;
    TaskGraph graph;
    std::vector<NodeState> state;
    std::vector<std::vector<bool>> traces;
    std::vector<NodeResult> results;
    std::vector<std::uint64_t> ready_ns;  ///< steady clock at Ready
    std::size_t unfinished = 0;
    bool cancelled = false;
    bool finalized = false;
    std::promise<AppReport> promise;
  };

  struct BoardState {
    std::vector<bool> busy;  ///< per slot: a node of ours is placed there
    bool revoked = false;
  };

  struct Dispatch {
    std::shared_ptr<AppCtx> app;
    std::size_t node = 0;
    int board = -1;
    int slot = -1;
    Placement placement = Placement::Cold;  ///< the planned rung
    std::string variant;
    int impl = 0;
    int attempt = 0;  ///< 0 = the planned rung, then cold retries
    std::vector<bool> input;  ///< predecessors' XOR, fixed at dispatch
  };

  /// Submits queued retries, then picked nodes, until nothing more can be
  /// dispatched. Only one thread pumps at a time: a nested call (a
  /// synchronous rejection re-enters the hook inside svc_->submit) or a
  /// concurrent one returns at once, and the running loop sees its work on
  /// the next pick.
  void pump();
  /// One scan for a dispatchable (ready node, free slot) pair under lock_;
  /// fills `out` and marks the node Running. Returns false when nothing is
  /// dispatchable right now.
  bool pick_dispatch_locked(Dispatch& out);
  /// The service request for one attempt of a dispatched node.
  [[nodiscard]] ServiceRequest request_for(const Dispatch& d) const;
  /// Runs inside the service's on_complete hook: queues a cold retry, or
  /// simulates the node over the applied pbit and completes it; then pumps.
  void on_service_complete(const ServiceResponse& resp);
  /// Completion bus: marks the node Done/Failed, frees the slot, readies
  /// successors, finalizes the app when its last node resolves.
  void complete_node_locked(const Dispatch& d, NodeResult result);
  void finalize_app_locked(AppCtx& app);
  /// Resolves every Waiting/Ready node of `app` as `to` (Cancelled or
  /// Failed) with error `why`; finalizes the app once nothing is left.
  void resolve_unstarted_locked(AppCtx& app, NodeState to,
                                const std::string& why);
  /// Drops resolved apps from apps_. Never call it inside a loop over apps_.
  void drop_finished_locked();
  /// Fails every not-yet-running node of every app (no boards left).
  void fail_unstarted_locked(const std::string& why);
  [[nodiscard]] bool all_boards_revoked_locked() const;

  const SchedFixture* fixture_;
  SchedConfig cfg_;
  std::unique_ptr<ReconfigService> svc_;
  /// Circuits of applied pbits, shared by every node of this scheduler.
  SlotCircuitCache circuits_;

  mutable std::mutex lock_;
  std::condition_variable cv_;  ///< shutdown() waits here for the last app
  /// Apps whose future has not resolved, in submission order.
  std::vector<std::shared_ptr<AppCtx>> apps_;
  std::vector<BoardState> boards_;
  std::uint64_t next_app_ = 1;
  std::uint64_t event_clock_ = 0;
  /// Nodes submitted to the service and not yet completed, by cookie.
  std::map<std::uint64_t, Dispatch> running_;
  /// Failed attempts waiting for the pump to resubmit them cold.
  std::deque<Dispatch> retries_;
  std::size_t inflight_ = 0;  ///< dispatched nodes not yet completed
  bool accepting_ = true;
  bool pumping_ = false;  ///< some thread is inside pump()'s loop
  SchedStats stats_;
};

}  // namespace jpg::sched
