#include "sched/accel_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/partial_gen.h"
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
    const ExtractedCircuit circuit = extract_circuit(gen.compose(
        fixture.plane(n.kernel, n.pool.front(), 0), fixture.slots()[0]));
    traces[i] =
        socket_trace(circuit, fixture.in_pad(0), fixture.out_pad(0), in);
  }
  return traces;
}

AcceleratorScheduler::AcceleratorScheduler(const SchedFixture& fixture,
                                           SchedConfig cfg)
    : fixture_(&fixture), cfg_(std::move(cfg)), circuits_(fixture) {
  JPG_REQUIRE(cfg_.num_boards >= 1, "scheduler needs at least one board");
  JPG_REQUIRE(cfg_.workers >= 1,
              "scheduler needs room for at least one node in flight");
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
    if (user_hook) user_hook(resp);
    on_service_complete(resp);
  };
  svc_ = std::make_unique<ReconfigService>(fixture.device(), fixture.base(),
                                           cfg_.num_boards, std::move(svc));

  boards_.resize(cfg_.num_boards);
  for (BoardState& b : boards_) {
    b.busy.assign(fixture_->slots().size(), false);
  }
  JPG_GAUGE_SET("sched.boards", static_cast<std::int64_t>(cfg_.num_boards));
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
    drop_finished_locked();
  }
  JPG_COUNT("sched.apps.submitted", 1);
  pump();
  return ticket;
}

bool AcceleratorScheduler::all_boards_revoked_locked() const {
  for (const BoardState& b : boards_) {
    if (!b.revoked) return false;
  }
  return true;
}

bool AcceleratorScheduler::pick_dispatch_locked(Dispatch& out) {
  // Free (board, slot) pairs on unrevoked boards, each with the variant the
  // service's ledger holds there ("" = base content). The ledger is read
  // once per board that has a free slot.
  struct FreeSlot {
    int board;
    int slot;
    std::string variant;
  };
  std::vector<FreeSlot> free_slots;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const BoardState& board = boards_[b];
    if (board.revoked ||
        std::find(board.busy.begin(), board.busy.end(), false) ==
            board.busy.end()) {
      continue;
    }
    const std::vector<AppliedSlot> applied = svc_->applied_pbits(b);
    for (std::size_t s = 0; s < board.busy.size(); ++s) {
      if (board.busy[s]) continue;
      FreeSlot fs{static_cast<int>(b), static_cast<int>(s), {}};
      for (const AppliedSlot& a : applied) {
        if (a.region == fixture_->slots()[s]) fs.variant = a.variant;
      }
      free_slots.push_back(std::move(fs));
    }
  }
  if (free_slots.empty()) return false;

  for (const auto& app : apps_) {
    for (std::size_t i = 0; i < app->graph.nodes.size(); ++i) {
      if (app->state[i] != NodeState::Ready) continue;
      const TaskNode& node = app->graph.nodes[i];

      int board = -1;
      int slot = -1;
      int impl = node.pool[(app->id + i) % node.pool.size()];
      Placement placement = Placement::Cold;

      // Rung 1 — reuse: a free slot already holds a pool variant.
      if (cfg_.locality) {
        for (const FreeSlot& fs : free_slots) {
          if (fs.variant.empty()) continue;
          for (const int cand : node.pool) {
            if (SchedFixture::variant_label(node.kernel, cand) == fs.variant) {
              board = fs.board;
              slot = fs.slot;
              impl = cand;
              placement = Placement::Reuse;
              break;
            }
          }
          if (board >= 0) break;
        }
      }
      // Rung 2 — relocation: the service holds a resident donor of a pool
      // variant.
      if (board < 0 && cfg_.allow_relocation) {
        for (const int cand : node.pool) {
          if (svc_->has_resident(
                  SchedFixture::variant_label(node.kernel, cand))) {
            impl = cand;
            placement = Placement::Relocated;
            board = free_slots.front().board;
            slot = free_slots.front().slot;
            break;
          }
        }
      }
      // Rung 3 — cold generate. Prefer a slot still holding base v0 so a
      // resident variant elsewhere stays reusable.
      if (board < 0) {
        const auto base = std::find_if(
            free_slots.begin(), free_slots.end(),
            [](const FreeSlot& fs) { return fs.variant.empty(); });
        const FreeSlot& fs =
            base != free_slots.end() ? *base : free_slots.front();
        board = fs.board;
        slot = fs.slot;
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
          .busy[static_cast<std::size_t>(slot)] = true;
      NodeResult& r = app->results[i];
      r.start_event = ++event_clock_;
      r.board = board;
      r.slot = slot;
      r.placement = placement;
      const std::uint64_t now = now_ns();
      r.queue_wait_ns = app->ready_ns[i] ? now - app->ready_ns[i] : 0;
      r.variant = SchedFixture::variant_label(node.kernel, impl);
      JPG_HIST("sched.node.queue_wait_ns", r.queue_wait_ns);

      out.app = app;
      out.node = i;
      out.board = board;
      out.slot = slot;
      out.placement = placement;
      out.impl = impl;
      out.variant = r.variant;
      // Predecessor traces are final once a node is Ready.
      out.input = node_input(app->graph, i, app->traces, cfg_.sim_cycles);
      return true;
    }
  }
  return false;
}

void AcceleratorScheduler::pump() {
  std::unique_lock<std::mutex> lk(lock_);
  if (pumping_) return;
  pumping_ = true;
  for (;;) {
    Dispatch d;
    if (!retries_.empty()) {
      d = std::move(retries_.front());
      retries_.pop_front();
    } else if (inflight_ < cfg_.workers && pick_dispatch_locked(d)) {
      ++inflight_;
      ++stats_.nodes_dispatched;
      JPG_COUNT("sched.nodes.dispatched", 1);
    } else {
      break;
    }
    ServiceRequest req = request_for(d);
    running_.emplace(req.cookie, std::move(d));
    // Unlocked: a synchronous rejection runs the completion hook on this
    // thread. The future is dropped; the hook is the completion path.
    lk.unlock();
    (void)svc_->submit(std::move(req));
    lk.lock();
  }
  pumping_ = false;
}

ServiceRequest AcceleratorScheduler::request_for(const Dispatch& d) const {
  ServiceRequest req;
  req.tenant = "app" + std::to_string(d.app->id);
  req.kind = RequestKind::Swap;
  req.board = d.board;
  req.region = fixture_->slots()[static_cast<std::size_t>(d.slot)];
  req.variant = d.variant;
  req.cookie = (d.app->id << 32) | static_cast<std::uint64_t>(d.node);
  if (d.attempt == 0 && d.placement == Placement::Relocated) {
    req.module_config = nullptr;  // force the donor-relocation path
  } else {
    // The planned rung, or a cold retry with the fixture's own plane,
    // which is always serveable.
    req.module_config =
        &fixture_->plane(d.app->graph.nodes[d.node].kernel, d.impl,
                         static_cast<std::size_t>(d.slot));
  }
  return req;
}

void AcceleratorScheduler::on_service_complete(const ServiceResponse& resp) {
  JPG_COUNT("sched.svc_completions", 1);
  Dispatch d;
  bool retry = false;
  {
    const std::lock_guard<std::mutex> guard(lock_);
    ++stats_.completion_events;
    const auto it = running_.find(resp.cookie);
    if (it == running_.end()) return;  // not one of this scheduler's nodes
    d = std::move(it->second);
    running_.erase(it);
    retry = !resp.ok() && d.attempt < cfg_.max_retries;
    if (retry) {
      ++d.attempt;
      ++stats_.swap_retries;
      JPG_COUNT("sched.swap_retries", 1);
      retries_.push_back(std::move(d));
    }
  }
  if (retry) {
    pump();
    return;
  }

  // Completion bus payload: the circuit of the pbit the service actually
  // applied (relocation-served requests carry the donor's translated
  // stream, not the fixture plane), elaborated once per (region, pbit
  // bytes), then simulated afresh.
  std::vector<bool> trace;
  std::string error;
  if (resp.ok()) {
    try {
      JPG_REQUIRE(resp.applied != nullptr,
                  "service reported success but applied no pbit");
      const auto slot = static_cast<std::size_t>(d.slot);
      const std::shared_ptr<const ExtractedCircuit> circuit =
          circuits_.circuit(resp.applied, fixture_->slots()[slot]);
      trace = socket_trace(*circuit, fixture_->in_pad(slot),
                           fixture_->out_pad(slot), d.input);
    } catch (const JpgError& e) {
      error = e.what();
    }
  } else {
    error = std::string(service_error_name(resp.error)) +
            (resp.message.empty() ? "" : ": " + resp.message);
  }

  {
    const std::lock_guard<std::mutex> guard(lock_);
    NodeResult result = d.app->results[d.node];
    // A serve after a retry fell through the ladder: account it as cold.
    result.placement = d.attempt == 0 ? d.placement : Placement::Cold;
    result.ok = error.empty();
    result.error = std::move(error);
    result.trace = std::move(trace);
    if (resp.ok()) {
      result.queue_wait_ns += resp.queue_wait_ns;
      result.service_ns = resp.service_ns;
    }
    complete_node_locked(d, std::move(result));
  }
  pump();
}

void AcceleratorScheduler::complete_node_locked(const Dispatch& d,
                                                NodeResult result) {
  AppCtx& app = *d.app;
  result.end_event = ++event_clock_;
  boards_[static_cast<std::size_t>(d.board)]
      .busy[static_cast<std::size_t>(d.slot)] = false;
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
    resolve_unstarted_locked(
        app, NodeState::Cancelled,
        app.cancelled ? "cancelled" : "predecessor failed");
  }

  if (app.unfinished == 0 && !app.finalized) finalize_app_locked(app);
  // A revocation that raced with in-flight nodes resolves here: once the
  // last running node drains and no board remains, nothing can ever place.
  if (inflight_ == 0 && all_boards_revoked_locked()) {
    fail_unstarted_locked("all boards revoked");
  }
  drop_finished_locked();
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

void AcceleratorScheduler::resolve_unstarted_locked(AppCtx& app,
                                                    NodeState to,
                                                    const std::string& why) {
  for (std::size_t i = 0; i < app.graph.nodes.size(); ++i) {
    if (app.state[i] != NodeState::Waiting &&
        app.state[i] != NodeState::Ready) {
      continue;
    }
    app.state[i] = to;
    app.results[i].error = why;
    ++(to == NodeState::Cancelled ? stats_.nodes_cancelled
                                  : stats_.nodes_failed);
    --app.unfinished;
  }
  if (app.unfinished == 0 && !app.finalized) finalize_app_locked(app);
}

void AcceleratorScheduler::drop_finished_locked() {
  std::erase_if(apps_, [](const std::shared_ptr<AppCtx>& app) {
    return app->finalized;
  });
}

void AcceleratorScheduler::cancel(std::uint64_t app_id) {
  {
    const std::lock_guard<std::mutex> guard(lock_);
    for (const auto& app : apps_) {
      if (app->id != app_id) continue;
      app->cancelled = true;
      resolve_unstarted_locked(*app, NodeState::Cancelled, "cancelled");
      break;
    }
    drop_finished_locked();
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
  pump();
}

void AcceleratorScheduler::fail_unstarted_locked(const std::string& why) {
  for (const auto& app : apps_) {
    resolve_unstarted_locked(*app, NodeState::Failed, why);
  }
  drop_finished_locked();
}

void AcceleratorScheduler::shutdown(bool drain) {
  {
    std::unique_lock<std::mutex> lk(lock_);
    accepting_ = false;
    if (!drain) {
      for (const auto& app : apps_) {
        app->cancelled = true;
        resolve_unstarted_locked(*app, NodeState::Cancelled, "cancelled");
      }
      drop_finished_locked();
    }
    cv_.wait(lk, [&] { return inflight_ == 0 && apps_.empty(); });
  }
  if (svc_) svc_->shutdown(drain);
}

SchedStats AcceleratorScheduler::stats() const {
  const std::lock_guard<std::mutex> guard(lock_);
  SchedStats st = stats_;
  st.apps_live = apps_.size();
  return st;
}

}  // namespace jpg::sched
