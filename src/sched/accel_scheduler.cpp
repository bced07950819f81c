#include "sched/accel_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/partial_gen.h"
#include "core/relocate.h"
#include "sim/bitstream_sim.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/telemetry/telemetry.h"

namespace jpg::sched {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Simulates one node at `slot` on the composed full plane: drive the input
/// stream on the slot's pad, sample the output pad each cycle.
std::vector<bool> sim_trace(const SchedFixture& fixture,
                            const ConfigMemory& plane, std::size_t slot,
                            const std::vector<bool>& input) {
  BitstreamSim sim(plane);
  const int p_in = fixture.in_pad(slot);
  const int p_out = fixture.out_pad(slot);
  std::vector<bool> out;
  out.reserve(input.size());
  for (const bool b : input) {
    sim.set_pad(p_in, b);
    sim.step();
    out.push_back(sim.get_pad(p_out));
  }
  return out;
}

}  // namespace

std::string_view placement_name(Placement p) {
  switch (p) {
    case Placement::Reuse: return "reuse";
    case Placement::Relocated: return "relocated";
    case Placement::Cold: return "cold";
  }
  return "?";
}

std::vector<bool> node_input(const TaskGraph& graph, std::size_t node,
                             const std::vector<std::vector<bool>>& traces,
                             int sim_cycles) {
  JPG_REQUIRE(node < graph.nodes.size(), "node index out of range");
  const TaskNode& n = graph.nodes[node];
  std::vector<bool> in(static_cast<std::size_t>(sim_cycles), false);
  if (n.preds.empty()) {
    Rng rng(n.stimulus_seed);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = (rng.next() & 1) != 0;
    }
  } else {
    for (const std::size_t p : n.preds) {
      JPG_REQUIRE(p < traces.size() && traces[p].size() == in.size(),
                  "predecessor trace missing for node " + n.name);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = in[i] != traces[p][i];
      }
    }
  }
  return in;
}

std::vector<std::vector<bool>> reference_traces(const SchedFixture& fixture,
                                                const TaskGraph& graph,
                                                int sim_cycles) {
  graph.validate();
  PartialBitstreamGenerator gen(fixture.base());
  std::vector<std::vector<bool>> traces(graph.nodes.size());
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const TaskNode& n = graph.nodes[i];
    const std::vector<bool> in = node_input(graph, i, traces, sim_cycles);
    const ConfigMemory plane =
        gen.compose(fixture.plane(n.kernel, n.pool.front(), 0),
                    fixture.slots()[0]);
    traces[i] = sim_trace(fixture, plane, 0, in);
  }
  return traces;
}

AcceleratorScheduler::AcceleratorScheduler(const SchedFixture& fixture,
                                           SchedConfig cfg)
    : fixture_(&fixture), cfg_(std::move(cfg)) {
  JPG_REQUIRE(cfg_.num_boards >= 1, "scheduler needs at least one board");
  JPG_REQUIRE(cfg_.workers >= 1, "scheduler needs at least one worker");
  JPG_REQUIRE(cfg_.sim_cycles >= 1, "sim_cycles must be positive");

  ServiceConfig svc = cfg_.service;
  svc.allow_relocation = cfg_.allow_relocation;
  if (cfg_.allow_relocation) {
    // Uniform sockets: every slot binds the same interface, so containment
    // (which flowed modules always violate — their crossings escape the
    // region) is safely relaxed. The oracle family re-proves this by trace
    // equality per placement.
    svc.reloc_require_containment = false;
  }
  const auto user_hook = svc.on_complete;
  svc.on_complete = [this, user_hook](const ServiceResponse& resp) {
    {
      const std::lock_guard<std::mutex> guard(lock_);
      ++stats_.completion_events;
    }
    JPG_COUNT("sched.svc_completions", 1);
    if (user_hook) user_hook(resp);
  };
  svc_ = std::make_unique<ReconfigService>(fixture.device(), fixture.base(),
                                           cfg_.num_boards, std::move(svc));

  // Private pool: node tasks block on service futures, so the scheduler must
  // not share a pool with the service (ThreadPool::sized caches by width —
  // same width would alias). See SchedConfig::workers.
  pool_ = std::make_shared<ThreadPool>(cfg_.workers);

  boards_.resize(cfg_.num_boards);
  for (BoardState& b : boards_) {
    b.slots.resize(fixture_->slots().size());
  }
  JPG_GAUGE_SET("sched.boards", static_cast<std::int64_t>(cfg_.num_boards));

  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

AcceleratorScheduler::~AcceleratorScheduler() { shutdown(true); }

AppTicket AcceleratorScheduler::submit(TaskGraph graph) {
  graph.validate();
  for (const TaskNode& n : graph.nodes) {
    const auto& kernels = fixture_->kernels();
    JPG_REQUIRE(std::find(kernels.begin(), kernels.end(), n.kernel) !=
                    kernels.end(),
                "unknown kernel '" + n.kernel + "' in node " + n.name);
    for (const int impl : n.pool) {
      JPG_REQUIRE(impl >= 0 && static_cast<std::size_t>(impl) <
                                   fixture_->impls_per_kernel(),
                  "impl variant out of fixture range in node " + n.name);
    }
  }

  auto app = std::make_shared<AppCtx>();
  app->graph = std::move(graph);
  const std::size_t n = app->graph.nodes.size();
  app->state.assign(n, NodeState::Waiting);
  app->traces.resize(n);
  app->results.resize(n);
  app->ready_ns.assign(n, 0);
  app->unfinished = n;

  AppTicket ticket;
  {
    std::unique_lock<std::mutex> lk(lock_);
    JPG_REQUIRE(accepting_, "scheduler is shut down");
    app->id = next_app_++;
    ticket.id = app->id;
    ticket.report = app->promise.get_future().share();
    for (std::size_t i = 0; i < n; ++i) {
      app->results[i].node = i;
      app->results[i].kernel = app->graph.nodes[i].kernel;
      if (app->graph.nodes[i].preds.empty()) {
        app->state[i] = NodeState::Ready;
        app->ready_ns[i] = now_ns();
      }
    }
    ++stats_.apps_submitted;
    apps_.push_back(app);
    if (n == 0) finalize_app_locked(*app);
    // A submit that lands while every board is revoked and nothing is in
    // flight can never place; without this check the app's future would
    // only resolve via a completion that will never happen.
    if (inflight_ == 0 && all_boards_revoked_locked()) {
      fail_unstarted_locked("all boards revoked");
    }
  }
  JPG_COUNT("sched.apps.submitted", 1);
  cv_.notify_all();
  return ticket;
}

bool AcceleratorScheduler::all_boards_revoked_locked() const {
  for (const BoardState& b : boards_) {
    if (!b.revoked) return false;
  }
  return true;
}

bool AcceleratorScheduler::pick_dispatch_locked(Dispatch& out) {
  // Free (board, slot) pairs on unrevoked boards.
  std::vector<std::pair<int, int>> free_slots;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    if (boards_[b].revoked) continue;
    for (std::size_t s = 0; s < boards_[b].slots.size(); ++s) {
      if (!boards_[b].slots[s].busy) {
        free_slots.emplace_back(static_cast<int>(b), static_cast<int>(s));
      }
    }
  }
  if (free_slots.empty()) return false;

  for (const auto& app : apps_) {
    if (app->finalized) continue;
    for (std::size_t i = 0; i < app->graph.nodes.size(); ++i) {
      if (app->state[i] != NodeState::Ready) continue;
      const TaskNode& node = app->graph.nodes[i];

      int board = -1;
      int slot = -1;
      int impl = node.pool[(app->id + i) % node.pool.size()];
      Placement placement = Placement::Cold;

      // Rung 1 — reuse: a free slot already holds a pool variant.
      if (cfg_.locality) {
        for (const auto& [b, s] : free_slots) {
          const std::string& resident =
              boards_[static_cast<std::size_t>(b)]
                  .slots[static_cast<std::size_t>(s)]
                  .variant;
          if (resident.empty()) continue;
          for (const int cand : node.pool) {
            if (SchedFixture::variant_label(node.kernel, cand) == resident) {
              board = b;
              slot = s;
              impl = cand;
              placement = Placement::Reuse;
              break;
            }
          }
          if (board >= 0) break;
        }
      }
      // Rung 2 — relocation: a donor lease of a pool variant exists
      // somewhere. The index is advisory; if the service can no longer find
      // the donor, the cold retry in execute_node covers it.
      if (board < 0 && cfg_.allow_relocation) {
        for (const int cand : node.pool) {
          const auto it = lease_regions_.find(
              SchedFixture::variant_label(node.kernel, cand));
          if (it != lease_regions_.end() && !it->second.empty()) {
            impl = cand;
            placement = Placement::Relocated;
            break;
          }
        }
        if (placement == Placement::Relocated) {
          board = free_slots.front().first;
          slot = free_slots.front().second;
        }
      }
      // Rung 3 — cold generate. Prefer a slot still holding base v0 so a
      // resident variant elsewhere stays reusable.
      if (board < 0) {
        for (const auto& [b, s] : free_slots) {
          if (boards_[static_cast<std::size_t>(b)]
                  .slots[static_cast<std::size_t>(s)]
                  .variant.empty()) {
            board = b;
            slot = s;
            break;
          }
        }
        if (board < 0) {
          board = free_slots.front().first;
          slot = free_slots.front().second;
        }
        placement = Placement::Cold;
      }

      // Dependency audit: dispatching a node whose predecessor has not
      // completed is a scheduler bug; the oracle gates on this counter.
      for (const std::size_t p : node.preds) {
        if (app->state[p] != NodeState::Done) {
          ++stats_.dep_violations;
          JPG_COUNT("sched.dep_violations", 1);
        }
      }

      app->state[i] = NodeState::Running;
      boards_[static_cast<std::size_t>(board)]
          .slots[static_cast<std::size_t>(slot)]
          .busy = true;
      NodeResult& r = app->results[i];
      r.start_event = ++event_clock_;
      r.board = board;
      r.slot = slot;
      r.placement = placement;
      const std::uint64_t now = now_ns();
      r.queue_wait_ns = app->ready_ns[i] ? now - app->ready_ns[i] : 0;
      JPG_HIST("sched.node.queue_wait_ns", r.queue_wait_ns);

      out.app = app;
      out.node = i;
      out.board = board;
      out.slot = slot;
      out.placement = placement;
      out.impl = impl;
      out.variant = SchedFixture::variant_label(node.kernel, impl);
      return true;
    }
  }
  return false;
}

void AcceleratorScheduler::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(lock_);
  while (!stop_dispatcher_) {
    Dispatch d;
    if (pick_dispatch_locked(d)) {
      ++inflight_;
      ++stats_.nodes_dispatched;
      JPG_COUNT("sched.nodes.dispatched", 1);
      lk.unlock();
      // Futures from submit are intentionally dropped: completion flows
      // through complete_node_locked, and the pool drains in shutdown().
      (void)pool_->submit([this, d] { execute_node(d); });
      lk.lock();
      continue;
    }
    cv_.wait(lk);
  }
}

void AcceleratorScheduler::execute_node(Dispatch d) {
  const TaskNode& node = d.app->graph.nodes[d.node];
  const Region region = fixture_->slots()[static_cast<std::size_t>(d.slot)];

  NodeResult result;
  std::vector<bool> input;
  {
    const std::lock_guard<std::mutex> guard(lock_);
    result = d.app->results[d.node];
    // Predecessor traces are final once a node is Ready; copy under lock so
    // the read is ordered after the writers' completions.
    input = node_input(d.app->graph, d.node, d.app->traces, cfg_.sim_cycles);
  }
  result.variant = d.variant;

  // Attempt ladder: the planned placement first, then cold retries (each
  // with the fixture's own plane — always serveable).
  ServiceResponse resp;
  bool sent_cold = d.placement == Placement::Cold;
  for (int attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    ServiceRequest req;
    req.tenant = "app" + std::to_string(d.app->id);
    req.kind = RequestKind::Swap;
    req.board = d.board;
    req.region = region;
    req.variant = result.variant;
    req.cookie = (d.app->id << 32) | static_cast<std::uint64_t>(d.node);
    if (attempt == 0 && d.placement == Placement::Relocated) {
      req.module_config = nullptr;  // force the donor-relocation path
    } else {
      req.module_config =
          &fixture_->plane(node.kernel, d.impl,
                           static_cast<std::size_t>(d.slot));
    }
    resp = svc_->submit(req).get();
    if (resp.ok()) {
      if (attempt > 0 || (sent_cold && d.placement != Placement::Cold)) {
        // Ladder fell through to a cold serve; account it as such.
        result.placement = Placement::Cold;
      } else {
        result.placement = d.placement;
      }
      break;
    }
    if (attempt < cfg_.max_retries) {
      sent_cold = true;
      const std::lock_guard<std::mutex> guard(lock_);
      ++stats_.swap_retries;
      JPG_COUNT("sched.swap_retries", 1);
    }
  }

  if (resp.ok()) {
    // Completion bus payload: decode the pbit the service actually applied
    // (applied_pbits is the ground truth — relocation-served requests carry
    // the donor's translated stream, not the fixture plane) and simulate.
    try {
      const std::vector<AppliedSlot> applied =
          svc_->applied_pbits(static_cast<std::size_t>(d.board));
      const AppliedSlot* mine = nullptr;
      for (const AppliedSlot& a : applied) {
        if (a.region == region) mine = &a;  // ascending seq: last wins
      }
      JPG_REQUIRE(mine != nullptr,
                  "service reported success but no applied pbit at slot");
      PartialBitstreamGenerator gen(fixture_->base());
      const PbitRelocator reloc(gen);
      const ConfigMemory plane = reloc.decode(*mine->pbit, region);
      result.trace = sim_trace(*fixture_, plane,
                               static_cast<std::size_t>(d.slot), input);
      result.ok = true;
    } catch (const JpgError& e) {
      result.ok = false;
      result.error = e.what();
    }
    result.queue_wait_ns += resp.queue_wait_ns;
    result.service_ns = resp.service_ns;
  } else {
    result.ok = false;
    result.error = std::string(service_error_name(resp.error)) +
                   (resp.message.empty() ? "" : ": " + resp.message);
  }
  d.placement = result.placement;

  std::unique_lock<std::mutex> lk(lock_);
  complete_node_locked(lk, d, std::move(result));
}

void AcceleratorScheduler::complete_node_locked(
    std::unique_lock<std::mutex>& lock, const Dispatch& d, NodeResult result) {
  (void)lock;
  AppCtx& app = *d.app;
  result.end_event = ++event_clock_;

  BoardState& board = boards_[static_cast<std::size_t>(d.board)];
  SlotState& slot = board.slots[static_cast<std::size_t>(d.slot)];
  slot.busy = false;
  if (result.ok) {
    slot.variant = result.variant;
    lease_regions_[result.variant].insert(
        fixture_->slots()[static_cast<std::size_t>(d.slot)].to_string());
  }

  --inflight_;
  const std::size_t i = d.node;
  if (result.ok) {
    app.state[i] = NodeState::Done;
    app.traces[i] = result.trace;
    ++stats_.nodes_completed;
    JPG_COUNT("sched.nodes.completed", 1);
    switch (result.placement) {
      case Placement::Reuse:
        ++stats_.placements_reuse;
        JPG_COUNT("sched.placements.reuse", 1);
        break;
      case Placement::Relocated:
        ++stats_.placements_relocated;
        JPG_COUNT("sched.placements.relocated", 1);
        break;
      case Placement::Cold:
        ++stats_.placements_cold;
        JPG_COUNT("sched.placements.cold", 1);
        break;
    }
  } else {
    app.state[i] = NodeState::Failed;
    ++stats_.nodes_failed;
    JPG_COUNT("sched.nodes.failed", 1);
  }
  app.results[i] = std::move(result);
  --app.unfinished;

  if (app.state[i] == NodeState::Done && !app.cancelled) {
    // Ready the successors whose predecessors are all complete.
    for (std::size_t j = i + 1; j < app.graph.nodes.size(); ++j) {
      if (app.state[j] != NodeState::Waiting) continue;
      bool ready = false;
      bool all_done = true;
      for (const std::size_t p : app.graph.nodes[j].preds) {
        if (p == i) ready = true;
        if (app.state[p] != NodeState::Done) all_done = false;
      }
      if (ready && all_done) {
        app.state[j] = NodeState::Ready;
        app.ready_ns[j] = now_ns();
      }
    }
  } else {
    // Failure or cancellation: nothing further from this app can run.
    for (std::size_t j = 0; j < app.graph.nodes.size(); ++j) {
      if (app.state[j] == NodeState::Waiting ||
          app.state[j] == NodeState::Ready) {
        app.state[j] = NodeState::Cancelled;
        app.results[j].error =
            app.cancelled ? "cancelled" : "predecessor failed";
        ++stats_.nodes_cancelled;
        --app.unfinished;
      }
    }
  }

  if (app.unfinished == 0 && !app.finalized) finalize_app_locked(app);
  // A revocation that raced with in-flight nodes resolves here: once the
  // last running node drains and no board remains, nothing can ever place.
  if (inflight_ == 0 && all_boards_revoked_locked()) {
    fail_unstarted_locked("all boards revoked");
  }
  cv_.notify_all();
}

void AcceleratorScheduler::finalize_app_locked(AppCtx& app) {
  app.finalized = true;
  AppReport report;
  report.app = app.id;
  report.cancelled = app.cancelled;
  report.completed = !app.graph.nodes.empty();
  for (std::size_t i = 0; i < app.graph.nodes.size(); ++i) {
    if (app.state[i] != NodeState::Done) report.completed = false;
  }
  if (app.graph.nodes.empty()) report.completed = !app.cancelled;
  report.nodes = app.results;
  if (report.completed) {
    ++stats_.apps_completed;
    JPG_COUNT("sched.apps.completed", 1);
  } else if (app.cancelled) {
    ++stats_.apps_cancelled;
    JPG_COUNT("sched.apps.cancelled", 1);
  } else {
    ++stats_.apps_failed;
    JPG_COUNT("sched.apps.failed", 1);
  }
  app.promise.set_value(std::move(report));
}

void AcceleratorScheduler::cancel(std::uint64_t app_id) {
  {
    const std::lock_guard<std::mutex> guard(lock_);
    for (const auto& app : apps_) {
      if (app->id != app_id || app->finalized) continue;
      app->cancelled = true;
      for (std::size_t i = 0; i < app->graph.nodes.size(); ++i) {
        if (app->state[i] == NodeState::Waiting ||
            app->state[i] == NodeState::Ready) {
          app->state[i] = NodeState::Cancelled;
          app->results[i].error = "cancelled";
          ++stats_.nodes_cancelled;
          --app->unfinished;
        }
      }
      if (app->unfinished == 0) finalize_app_locked(*app);
      break;
    }
  }
  cv_.notify_all();
}

void AcceleratorScheduler::revoke_board(std::size_t i) {
  {
    const std::lock_guard<std::mutex> guard(lock_);
    JPG_REQUIRE(i < boards_.size(), "board index out of range");
    if (!boards_[i].revoked) {
      boards_[i].revoked = true;
      ++stats_.boards_revoked;
      JPG_COUNT("sched.boards.revoked", 1);
    }
    if (all_boards_revoked_locked() && inflight_ == 0) {
      fail_unstarted_locked("all boards revoked");
    }
  }
  cv_.notify_all();
}

void AcceleratorScheduler::restore_board(std::size_t i) {
  {
    const std::lock_guard<std::mutex> guard(lock_);
    JPG_REQUIRE(i < boards_.size(), "board index out of range");
    boards_[i].revoked = false;
  }
  cv_.notify_all();
}

void AcceleratorScheduler::fail_unstarted_locked(const std::string& why) {
  for (const auto& app : apps_) {
    if (app->finalized) continue;
    for (std::size_t i = 0; i < app->graph.nodes.size(); ++i) {
      if (app->state[i] == NodeState::Waiting ||
          app->state[i] == NodeState::Ready) {
        app->state[i] = NodeState::Failed;
        app->results[i].error = why;
        ++stats_.nodes_failed;
        --app->unfinished;
      }
    }
    if (app->unfinished == 0) finalize_app_locked(*app);
  }
}

DefragReport AcceleratorScheduler::defragment(std::size_t board) {
  DefragReport report = svc_->defragment(board);
  // Defrag moves resident variants between slots; resync the registry from
  // the service's ground truth so rung 1 keeps matching reality.
  const std::vector<AppliedSlot> applied = svc_->applied_pbits(board);
  {
    const std::lock_guard<std::mutex> guard(lock_);
    JPG_REQUIRE(board < boards_.size(), "board index out of range");
    for (std::size_t s = 0; s < boards_[board].slots.size(); ++s) {
      if (boards_[board].slots[s].busy) continue;
      std::string variant;
      for (const AppliedSlot& a : applied) {
        if (a.region == fixture_->slots()[s]) variant = a.variant;
      }
      boards_[board].slots[s].variant = variant;
    }
  }
  cv_.notify_all();
  return report;
}

void AcceleratorScheduler::shutdown(bool drain) {
  {
    std::unique_lock<std::mutex> lk(lock_);
    accepting_ = false;
    if (!drain) {
      for (const auto& app : apps_) {
        if (app->finalized) continue;
        app->cancelled = true;
        for (std::size_t i = 0; i < app->graph.nodes.size(); ++i) {
          if (app->state[i] == NodeState::Waiting ||
              app->state[i] == NodeState::Ready) {
            app->state[i] = NodeState::Cancelled;
            app->results[i].error = "cancelled";
            ++stats_.nodes_cancelled;
            --app->unfinished;
          }
        }
        if (app->unfinished == 0) finalize_app_locked(*app);
      }
      cv_.notify_all();
    }
    cv_.wait(lk, [&] {
      if (inflight_ != 0) return false;
      for (const auto& app : apps_) {
        if (!app->finalized) return false;
      }
      return true;
    });
    stop_dispatcher_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (svc_) svc_->shutdown(drain);
}

SchedStats AcceleratorScheduler::stats() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return stats_;
}

}  // namespace jpg::sched
