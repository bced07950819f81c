#include "service/reconfig_service.h"

#include <algorithm>

#include "bitstream/bitgen.h"
#include "support/error.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

std::string_view service_error_name(ServiceError e) {
  switch (e) {
    case ServiceError::None: return "none";
    case ServiceError::QueueFull: return "queue_full";
    case ServiceError::ShuttingDown: return "shutting_down";
    case ServiceError::BadRequest: return "bad_request";
    case ServiceError::DownloadFailed: return "download_failed";
  }
  return "?";
}

ReconfigService::ReconfigService(const Device& device, const ConfigMemory& base,
                                 std::size_t num_boards, ServiceConfig cfg)
    : device_(&device),
      base_(&base),
      cfg_(std::move(cfg)),
      gen_(base, cfg_.cache_capacity),
      paused_(cfg_.start_paused) {
  JPG_REQUIRE(&base.device() == &device,
              "service base plane targets a different device");
  JPG_REQUIRE(num_boards > 0, "a service needs at least one board");
  // Bring the fleet up on the base design over a clean link; each board's
  // downloader owns the mirror that makes every later swap verifiable.
  const Bitstream base_bit = generate_full_bitstream(base);
  boards_.reserve(num_boards);
  for (std::size_t i = 0; i < num_boards; ++i) {
    auto ctx = std::make_unique<BoardCtx>(device);
    // Bring-up is a clean power-on: the base always loads unfaulted. Only
    // runtime traffic goes through the adversarial link below.
    ctx->board.send_config(base_bit.words);
    Xhwif* link = &ctx->board;
    if (cfg_.inject_faults) {
      ctx->faulty = std::make_unique<FaultyBoard>(
          ctx->board, cfg_.fault_profile, cfg_.fault_seed + i);
      link = ctx->faulty.get();
    }
    ctx->downloader =
        std::make_unique<VerifiedDownloader>(*link, device, cfg_.policy);
    ctx->downloader->assume_board_state(base);
    boards_.push_back(std::move(ctx));
  }
  pool_ = ThreadPool::sized(cfg_.pool_width);
  max_inflight_ =
      cfg_.max_inflight == 0 ? pool_->size() : cfg_.max_inflight;
  JPG_GAUGE_SET("svc.boards", static_cast<std::int64_t>(num_boards));
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ReconfigService::~ReconfigService() {
  shutdown(/*drain=*/true);
  if (dispatcher_.joinable()) dispatcher_.join();
}

const SimBoard& ReconfigService::board(std::size_t i) const {
  JPG_REQUIRE(i < boards_.size(), "board index out of range");
  return boards_[i]->board;
}

std::vector<AppliedSlot> ReconfigService::applied_pbits(std::size_t i) const {
  JPG_REQUIRE(i < boards_.size(), "board index out of range");
  std::vector<AppliedSlot> out;
  {
    const std::lock_guard<std::mutex> lock(lock_);
    for (const auto& [key, ap] : boards_[i]->applied) {
      out.push_back({ap.region, ap.variant, ap.seq, ap.pbit});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AppliedSlot& a, const AppliedSlot& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t ReconfigService::estimate_cost_words(const Region& region) const {
  const FrameMap& fm = device_->frames();
  return static_cast<std::uint64_t>(region.clb_majors(*device_).size()) *
         FrameMap::kClbFrames * fm.frame_words();
}

std::future<ServiceResponse> ReconfigService::submit(ServiceRequest req) {
  std::promise<ServiceResponse> promise;
  std::future<ServiceResponse> future = promise.get_future();
  JPG_COUNT("svc.submitted", 1);

  const std::uint64_t cookie = req.cookie;

  // Structural validation is synchronous: a malformed request never costs a
  // queue slot — but it is still *accounted* (submitted +
  // rejected_bad_request, per tenant too), so the ServiceStats conservation
  // invariant `submitted == accounted()` covers every outcome.
  std::string bad;
  if (req.module_config == nullptr && !cfg_.allow_relocation) {
    bad = "missing module_config";
  } else if (req.module_config != nullptr &&
             &req.module_config->device() != device_) {
    bad = "module plane targets a different device";
  } else if (!req.region.in_bounds(*device_)) {
    bad = "region out of bounds: " + req.region.to_string();
  } else if (req.variant.empty()) {
    bad = "empty variant label";
  } else if (req.board < -1 ||
             req.board >= static_cast<int>(boards_.size())) {
    bad = "board index out of range: " + std::to_string(req.board);
  }
  if (!bad.empty()) {
    JPG_COUNT("svc.rejected.bad_request", 1);
    {
      const std::lock_guard<std::mutex> lock(lock_);
      Tenant& tenant = tenants_[req.tenant];
      if (tenants_.size() != rr_order_.size()) rr_order_.push_back(req.tenant);
      ++stats_.submitted;
      ++stats_.rejected_bad_request;
      ++tenant.stats.submitted;
      ++tenant.stats.rejected;
    }
    ServiceResponse r;
    r.error = ServiceError::BadRequest;
    r.message = std::move(bad);
    r.cookie = cookie;
    complete(promise, std::move(r));
    return future;
  }

  ServiceError reject = ServiceError::None;
  {
    const std::lock_guard<std::mutex> lock(lock_);
    Tenant& tenant = tenants_[req.tenant];
    if (tenants_.size() != rr_order_.size()) rr_order_.push_back(req.tenant);
    ++stats_.submitted;
    ++tenant.stats.submitted;
    if (!accepting_) {
      reject = ServiceError::ShuttingDown;
      ++stats_.rejected_shutdown;
      ++tenant.stats.rejected;
      JPG_COUNT("svc.rejected.shutdown", 1);
    } else if (total_pending_ >= cfg_.queue_depth) {
      // Admission control: the queue never grows past the configured
      // depth; overload turns into an immediate, visible rejection.
      reject = ServiceError::QueueFull;
      ++stats_.rejected_queue_full;
      ++tenant.stats.rejected;
      JPG_COUNT("svc.rejected.queue_full", 1);
    } else {
      Pending p;
      p.cost_words = estimate_cost_words(req.region);
      p.req = std::move(req);
      p.promise = std::move(promise);
      p.enqueue_ns = telemetry::now_ns();
      tenant.queue.push_back(std::move(p));
      ++total_pending_;
      stats_.queue_peak = std::max(stats_.queue_peak, total_pending_);
      JPG_GAUGE_SET("svc.queue_depth",
                    static_cast<std::int64_t>(total_pending_));
    }
  }
  if (reject != ServiceError::None) {
    ServiceResponse r;
    r.error = reject;
    r.message = std::string(service_error_name(reject));
    r.cookie = cookie;
    complete(promise, std::move(r));
    return future;
  }
  cv_.notify_all();
  return future;
}

void ReconfigService::complete(std::promise<ServiceResponse>& promise,
                               ServiceResponse resp) {
  if (cfg_.on_complete) cfg_.on_complete(resp);
  promise.set_value(std::move(resp));
}

void ReconfigService::resume() {
  {
    const std::lock_guard<std::mutex> lock(lock_);
    paused_ = false;
  }
  cv_.notify_all();
}

void ReconfigService::shutdown(bool drain) {
  std::vector<std::pair<std::promise<ServiceResponse>, std::uint64_t>> rejected;
  {
    std::unique_lock<std::mutex> lock(lock_);
    accepting_ = false;
    paused_ = false;  // a paused backlog must still drain (or reject)
    if (!drain) {
      for (auto& [name, tenant] : tenants_) {
        for (Pending& p : tenant.queue) {
          rejected.emplace_back(std::move(p.promise), p.req.cookie);
          ++stats_.rejected_shutdown;
          ++tenant.stats.rejected;
        }
        tenant.queue.clear();
        tenant.deficit = 0;
      }
      total_pending_ = 0;
    }
  }
  cv_.notify_all();
  for (auto& [p, cookie] : rejected) {
    ServiceResponse r;
    r.error = ServiceError::ShuttingDown;
    r.message = "service shutting down";
    r.cookie = cookie;
    complete(p, std::move(r));
  }
  {
    std::unique_lock<std::mutex> lock(lock_);
    cv_.wait(lock, [&] { return total_pending_ == 0 && inflight_ == 0; });
    stop_dispatcher_ = true;
  }
  cv_.notify_all();
}

ServiceStats ReconfigService::stats() const {
  ServiceStats out;
  {
    const std::lock_guard<std::mutex> lock(lock_);
    out = stats_;
    out.queue_depth = total_pending_;
    out.inflight = inflight_;
    for (const auto& [name, tenant] : tenants_) {
      out.tenants[name] = tenant.stats;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(resident_lock_);
    out.resident_entries = residents_.size();
  }
  return out;
}

// --- Scheduling --------------------------------------------------------------

int ReconfigService::pick_board_locked(const ServiceRequest& req) const {
  if (req.board >= 0) {
    return boards_[static_cast<std::size_t>(req.board)]->busy ? -1 : req.board;
  }
  // Any free board, least configuration words shipped first.
  int best = -1;
  std::uint64_t best_words = ~0ull;
  for (std::size_t i = 0; i < boards_.size(); ++i) {
    if (!boards_[i]->busy && boards_[i]->words_shipped < best_words) {
      best = static_cast<int>(i);
      best_words = boards_[i]->words_shipped;
    }
  }
  return best;
}

bool ReconfigService::dispatch_one_round_locked() {
  if (paused_ || total_pending_ == 0 || inflight_ >= max_inflight_) {
    return false;
  }
  bool progress = false;
  const std::size_t nt = rr_order_.size();
  ++stats_.drr_rounds;
  JPG_COUNT("svc.drr.rounds", 1);
  for (std::size_t v = 0; v < nt && inflight_ < max_inflight_; ++v) {
    const std::string& name = rr_order_[(rr_cursor_ + v) % nt];
    Tenant& tenant = tenants_[name];
    if (tenant.queue.empty()) {
      tenant.deficit = 0;  // classic DRR: no backlog, no banked credit
      continue;
    }
    tenant.deficit += cfg_.drr_quantum_words;
    while (!tenant.queue.empty() && inflight_ < max_inflight_ &&
           tenant.deficit >= tenant.queue.front().cost_words) {
      Pending& head = tenant.queue.front();
      int board_idx = -1;
      if (head.req.kind == RequestKind::Swap) {
        board_idx = pick_board_locked(head.req);
        if (board_idx < 0) break;  // head-of-line blocked on a busy board
      }
      tenant.deficit -= head.cost_words;
      dispatch_locked(tenant, board_idx);
      progress = true;
    }
    if (tenant.queue.empty()) {
      tenant.deficit = 0;
    } else {
      // A board-blocked head keeps its credit, but never banks more than
      // it needs: one head's cost plus one quantum covers any request.
      tenant.deficit =
          std::min(tenant.deficit, tenant.queue.front().cost_words +
                                       cfg_.drr_quantum_words);
    }
  }
  // Only a round that dispatched passes the turn on. An empty round (every
  // head blocked on a busy board) keeps the cursor, or the next completion
  // would always hand the first turn back to the same tenant.
  if (progress && nt != 0) rr_cursor_ = (rr_cursor_ + 1) % nt;
  return progress;
}

void ReconfigService::dispatch_locked(Tenant& tenant, int board_idx) {
  auto p = std::make_shared<Pending>(std::move(tenant.queue.front()));
  tenant.queue.pop_front();
  --total_pending_;
  JPG_GAUGE_SET("svc.queue_depth", static_cast<std::int64_t>(total_pending_));
  if (board_idx >= 0) boards_[static_cast<std::size_t>(board_idx)]->busy = true;
  ++inflight_;
  JPG_GAUGE_SET("svc.inflight", static_cast<std::int64_t>(inflight_));
  ++stats_.dispatched;
  JPG_COUNT("svc.dispatched", 1);
  const std::uint64_t seq = dispatch_seq_++;
  (void)pool_->submit(
      [this, p, board_idx, seq] { execute(p, board_idx, seq); });
}

void ReconfigService::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(lock_);
  for (;;) {
    while (!stop_dispatcher_ && dispatch_one_round_locked()) {
    }
    if (stop_dispatcher_) return;
    cv_.wait(lock);
  }
}

// --- Execution ---------------------------------------------------------------

void ReconfigService::execute(std::shared_ptr<Pending> p, int board_idx,
                              std::uint64_t dispatch_seq) {
  ServiceResponse resp;
  resp.dispatch_seq = dispatch_seq;
  resp.board = board_idx;
  resp.cookie = p->req.cookie;
  const std::uint64_t t0 = telemetry::now_ns();
  resp.queue_wait_ns = t0 - p->enqueue_ns;
  JPG_HIST("svc.queue_wait_ns", resp.queue_wait_ns);

  std::shared_ptr<Resident> resident;
  std::uint64_t swap_words = 0;
  try {
    bool hit = false;
    resident = acquire_resident(p->req.tenant, p->req, hit);
    resp.resident_hit = hit;
    if (p->req.kind == RequestKind::Swap) {
      BoardCtx& ctx = *boards_[static_cast<std::size_t>(board_idx)];
      // Zero-copy: the source spans the pinned cache entry's own words.
      const StreamSource src = StreamSource::of(resident->lease.words());
      resp.report = ctx.downloader->download_stream(src, cfg_.stream);
      swap_words = resident->lease.words().size();
      if (resp.report.ok()) {
        JPG_COUNT("svc.swaps", 1);
        JPG_COUNT("svc.swap_words", swap_words);
      } else {
        resp.error = ServiceError::DownloadFailed;
        resp.message = resp.report.error;
      }
    } else {
      JPG_COUNT("svc.generates", 1);
    }
  } catch (const JpgError& e) {
    resp.error = ServiceError::BadRequest;
    resp.message = e.what();
  }
  resp.service_ns = telemetry::now_ns() - t0;
  if (p->req.kind == RequestKind::Swap) {
    JPG_HIST("svc.swap_ns", resp.service_ns);
  } else {
    JPG_HIST("svc.gen_ns", resp.service_ns);
  }

  {
    const std::lock_guard<std::mutex> lock(lock_);
    Tenant& tenant = tenants_[p->req.tenant];
    if (resp.ok()) {
      ++stats_.completed;
      ++tenant.stats.completed;
      JPG_COUNT("svc.completed", 1);
    } else {
      ++stats_.failed;
      ++tenant.stats.failed;
      JPG_COUNT("svc.failed", 1);
    }
    if (resp.resident_hit) ++tenant.stats.resident_hits;
    tenant.stats.words_swapped += swap_words;
    if (board_idx >= 0) {
      BoardCtx& ctx = *boards_[static_cast<std::size_t>(board_idx)];
      ctx.busy = false;
      ctx.words_shipped += swap_words;
      if (resp.ok() && p->req.kind == RequestKind::Swap && resident) {
        // Record the applied pbit (relocated ones included) so attest()
        // can reconstruct the board's expected plane and defragment()
        // knows which slots are live. Same-region swaps replace.
        const std::shared_ptr<const PartialGenResult>& res =
            resident->lease.shared();
        ctx.applied[p->req.region.to_string()] = AppliedPbit{
            p->req.region, p->req.variant,
            std::shared_ptr<const Bitstream>(res, &res->bitstream),
            ++apply_seq_};
      }
    }
    --inflight_;
    JPG_GAUGE_SET("svc.inflight", static_cast<std::int64_t>(inflight_));
  }
  // Drop this execution's lease reference before reaping, so a
  // quota-evicted entry whose last user just finished is released now.
  resident.reset();
  {
    const std::lock_guard<std::mutex> lock(resident_lock_);
    reap_residents_locked();
  }
  cv_.notify_all();
  complete(p->promise, std::move(resp));
}

// --- Resident registry -------------------------------------------------------

std::shared_ptr<ReconfigService::Resident> ReconfigService::acquire_resident(
    const std::string& tenant, const ServiceRequest& req, bool& resident_hit) {
  const std::string key = req.region.to_string() + "#" + req.variant +
                          (req.gen_opts.diff_only ? "#diff" : "") +
                          (req.gen_opts.include_crc ? "" : "#nocrc");
  std::shared_ptr<Resident> entry;
  bool creator = false;
  {
    const std::lock_guard<std::mutex> lock(resident_lock_);
    auto it = residents_.find(key);
    if (it != residents_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<Resident>();
      entry->region = req.region;
      entry->variant = req.variant;
      entry->opts = req.gen_opts;
      residents_[key] = entry;
      creator = true;
    }
  }

  bool relocated = false;
  if (creator) {
    // Generation runs outside every service lock: only requests for this
    // same key wait on it; everything else proceeds.
    try {
      PbitLease lease;
      if (req.module_config != nullptr) {
        lease = gen_.generate_leased(*req.module_config, req.region,
                                     req.gen_opts);
      } else {
        // Relocation serve: no module plane was supplied, so the variant
        // must already be resident somewhere shape-compatible — relocate
        // that donor's stream to this request's slot.
        std::shared_ptr<Resident> donor;
        {
          const std::lock_guard<std::mutex> lock(resident_lock_);
          donor = find_donor_locked(req);
        }
        if (donor == nullptr) {
          throw JpgError("no resident donor for variant '" + req.variant +
                         "' compatible with " + req.region.to_string());
        }
        // The donor's lease is immutable once Ready and stays pinned while
        // we hold the shared entry; copy its stream and relocate.
        const Bitstream donor_pbit = donor->lease.bitstream();
        const PbitRelocator reloc(gen_);
        RelocOptions ropts;
        ropts.gen = req.gen_opts;
        ropts.require_containment = cfg_.reloc_require_containment;
        lease = reloc.relocate_leased(donor_pbit, donor->region, req.region,
                                      ropts);
        relocated = true;
        JPG_COUNT("reloc.served_relocated", 1);
      }
      const std::lock_guard<std::mutex> lock(resident_lock_);
      entry->lease = std::move(lease);
      entry->state = Resident::State::Ready;
      JPG_COUNT("svc.resident.misses", 1);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(resident_lock_);
        entry->state = Resident::State::Failed;
        residents_.erase(key);
      }
      resident_cv_.notify_all();
      throw;
    }
    resident_cv_.notify_all();
  } else {
    std::unique_lock<std::mutex> lock(resident_lock_);
    resident_cv_.wait(lock, [&] {
      return entry->state != Resident::State::Generating;
    });
    if (entry->state == Resident::State::Failed) {
      throw JpgError("resident pbit generation failed for " + key);
    }
    resident_hit = true;
    JPG_COUNT("svc.resident.hits", 1);
  }

  // Attach to the tenant's LRU and enforce its quota. Evicting releases
  // only this tenant's least-recently-used attachment; the underlying
  // entry lives on while other tenants (or in-flight swaps) still hold it.
  std::uint64_t evictions = 0;
  std::size_t entries_now = 0;
  {
    const std::lock_guard<std::mutex> lock(resident_lock_);
    std::list<std::string>& lru = tenant_lru_[tenant];
    auto pos = std::find(lru.begin(), lru.end(), key);
    if (pos != lru.end()) {
      lru.erase(pos);
      lru.push_front(key);
    } else {
      lru.push_front(key);
      ++entry->attached;
      while (cfg_.tenant_quota != 0 && lru.size() > cfg_.tenant_quota) {
        const std::string victim = lru.back();
        lru.pop_back();
        auto it = residents_.find(victim);
        JPG_ASSERT(it != residents_.end() && it->second->attached > 0);
        --it->second->attached;
        ++evictions;
        JPG_COUNT("svc.quota.evictions", 1);
      }
    }
    entries_now = lru.size();
    reap_residents_locked();
  }
  {
    const std::lock_guard<std::mutex> lock(lock_);
    TenantStats& ts = tenants_[tenant].stats;
    ts.quota_evictions += evictions;
    ts.resident_entries = entries_now;
    ts.resident_peak = std::max(ts.resident_peak, entries_now);
    if (relocated) ++stats_.relocations_served;
  }
  return entry;
}

std::shared_ptr<ReconfigService::Resident> ReconfigService::find_donor_locked(
    const ServiceRequest& req) const {
  for (const auto& [key, entry] : residents_) {
    if (entry->state != Resident::State::Ready) continue;
    if (entry->variant != req.variant) continue;
    if (entry->opts.diff_only != req.gen_opts.diff_only ||
        entry->opts.include_crc != req.gen_opts.include_crc) {
      continue;
    }
    if (entry->region == req.region) continue;
    if (entry->region.width() != req.region.width() ||
        entry->region.height() != req.region.height()) {
      continue;
    }
    return entry;
  }
  return nullptr;
}

// --- Attestation and defragmentation -----------------------------------------

void ReconfigService::claim_board(std::size_t i) {
  std::unique_lock<std::mutex> lock(lock_);
  cv_.wait(lock, [&] { return !boards_[i]->busy; });
  boards_[i]->busy = true;
}

void ReconfigService::release_board(std::size_t i) {
  {
    const std::lock_guard<std::mutex> lock(lock_);
    boards_[i]->busy = false;
  }
  cv_.notify_all();
}

AttestReport ReconfigService::attest(std::size_t board) {
  JPG_REQUIRE(board < boards_.size(), "board index out of range");
  BoardCtx& ctx = *boards_[board];
  claim_board(board);
  AttestReport rep;
  try {
    std::vector<AppliedPbit> applied;
    {
      const std::lock_guard<std::mutex> lock(lock_);
      for (const auto& [key, ap] : ctx.applied) applied.push_back(ap);
    }
    std::sort(applied.begin(), applied.end(),
              [](const AppliedPbit& a, const AppliedPbit& b) {
                return a.seq < b.seq;
              });
    std::vector<Bitstream> streams;
    streams.reserve(applied.size());
    for (const AppliedPbit& ap : applied) streams.push_back(*ap.pbit);
    const ConfigMemory expected =
        reconstruct_expected_plane(*base_, streams);
    rep = ctx.downloader->attest(expected);
  } catch (...) {
    release_board(board);
    throw;
  }
  release_board(board);
  return rep;
}

std::vector<char> ReconfigService::base_free_columns() const {
  const FrameMap& fm = device_->frames();
  std::vector<char> usable(static_cast<std::size_t>(device_->cols()), 0);
  for (int c = 0; c < device_->cols(); ++c) {
    const int major = fm.major_of_clb_col(c);
    bool empty = true;
    for (int minor = 0; minor < fm.frames_in_major(major) && empty; ++minor) {
      empty = base_->frame(fm.frame_index(major, minor)).popcount() == 0;
    }
    usable[static_cast<std::size_t>(c)] = empty ? 1 : 0;
  }
  return usable;
}

DefragReport ReconfigService::defragment(std::size_t board) {
  JPG_REQUIRE(board < boards_.size(), "board index out of range");
  BoardCtx& ctx = *boards_[board];
  claim_board(board);
  DefragReport rep;
  try {
    std::map<std::string, AppliedPbit> applied;
    {
      const std::lock_guard<std::mutex> lock(lock_);
      applied = ctx.applied;
    }
    std::vector<DefragSlot> slots;
    slots.reserve(applied.size());
    for (const auto& [key, ap] : applied) slots.push_back({ap.region, key});
    const std::vector<char> usable = base_free_columns();
    rep.planned = plan_defrag(
        *device_, std::move(slots),
        [&usable](int c) { return usable[static_cast<std::size_t>(c)] != 0; });

    const PbitRelocator reloc(gen_);
    for (const DefragMove& mv : rep.planned) {
      const AppliedPbit& ap = applied.at(mv.key);
      // Move = relocate + verified download of the module at its new slot,
      // then a verified restore of the base at the vacated slot. Each step
      // is a download_partial, so the two-state invariant covers the whole
      // sequence: any failure leaves the board in a known configuration.
      auto moved = std::make_shared<const Bitstream>(
          reloc.relocate(*ap.pbit, mv.from, mv.to).bitstream);
      DownloadReport dl = ctx.downloader->download_partial(*moved);
      if (!dl.ok()) {
        rep.ok = false;
        rep.error = "move to " + mv.to.to_string() + " failed: " + dl.error;
        break;
      }
      const PartialGenResult scrub = gen_.generate(*base_, mv.from);
      dl = ctx.downloader->download_partial(scrub.bitstream);
      if (!dl.ok()) {
        rep.ok = false;
        rep.error = "scrub of " + mv.from.to_string() + " failed: " + dl.error;
        break;
      }
      ++rep.executed;
      JPG_COUNT("reloc.defrag_moves", 1);
      {
        const std::lock_guard<std::mutex> lock(lock_);
        ctx.applied.erase(mv.from.to_string());
        ctx.applied[mv.to.to_string()] =
            AppliedPbit{mv.to, ap.variant, std::move(moved), ++apply_seq_};
        ++stats_.defrag_moves;
      }
    }
  } catch (const JpgError& e) {
    rep.ok = false;
    rep.error = e.what();
  }
  release_board(board);
  return rep;
}

void ReconfigService::reap_residents_locked() {
  // An entry is reaped when no tenant holds it AND no in-flight execution
  // still references it (use_count == 1: only the registry). Erasing any
  // earlier would let a re-request regenerate — and try to re-pin — a
  // cache entry whose old lease is still alive.
  for (auto it = residents_.begin(); it != residents_.end();) {
    if (it->second->attached == 0 && it->second.use_count() == 1 &&
        it->second->state != Resident::State::Generating) {
      it = residents_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace jpg
