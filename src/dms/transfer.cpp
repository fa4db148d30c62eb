#include "dms/transfer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace pandarus::dms {
namespace {

/// obs mirrors of the engine's Stats plus link-level churn, resolved
/// once per process and shared by every TransferEngine instance.
struct EngineMetrics {
  obs::Counter& submitted = obs::Registry::global().counter(
      "pandarus_dms_transfers_submitted_total", "Transfer requests queued");
  obs::Counter& completed = obs::Registry::global().counter(
      "pandarus_dms_transfers_completed_total",
      "Transfers finished successfully");
  obs::Counter& failed = obs::Registry::global().counter(
      "pandarus_dms_transfers_failed_total",
      "Transfers terminally failed (retries exhausted)");
  obs::Counter& retries = obs::Registry::global().counter(
      "pandarus_dms_transfer_retries_total", "Failed attempts requeued");
  obs::Counter& bytes_moved = obs::Registry::global().counter(
      "pandarus_dms_bytes_moved_total", "Payload bytes of completed transfers");
  obs::Counter& link_rerates = obs::Registry::global().counter(
      "pandarus_dms_link_rerates_total",
      "Per-link fair-share rate re-evaluations");
  obs::Counter& reschedules = obs::Registry::global().counter(
      "pandarus_dms_transfer_reschedules_total",
      "Completion events moved because link sharing changed");
  obs::Gauge& in_flight = obs::Registry::global().gauge(
      "pandarus_dms_transfers_in_flight",
      "Transfers submitted but not yet finalized");
  obs::Counter& breaker_opens = obs::Registry::global().counter(
      "pandarus_dms_breaker_opens_total",
      "Circuit-breaker transitions to the open state");
  obs::Gauge& breakers_open = obs::Registry::global().gauge(
      "pandarus_dms_breakers_open",
      "Links with an open (or probing) circuit breaker");
  obs::Counter& alt_source = obs::Registry::global().counter(
      "pandarus_dms_alt_source_retries_total",
      "Transfers re-routed to an alternate source replica");
  obs::Counter& backoffs = obs::Registry::global().counter(
      "pandarus_dms_backoff_delays_total",
      "Retries held back by exponential backoff");

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

std::int64_t link_entity(grid::SiteId src, grid::SiteId dst) noexcept {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(src) << 32) |
                                   dst);
}

}  // namespace

// One transfer occupying a slot on a link.
struct TransferEngine::Active {
  TransferRequest request;
  std::uint64_t id = 0;
  util::SimTime submitted_at = 0;
  util::SimTime started_at = 0;
  std::uint32_t attempt = 1;
  bool stalled = false;
  double stall_factor = 1.0;
  bool doomed = false;  ///< this attempt will abort at its "finish" time
  /// A fault window contributed to this transfer's failure (service
  /// brownout raised the abort draw, or a blackout/outage killed an
  /// in-flight attempt).
  bool fault_tainted = false;
  /// The doomed attempt must resolve immediately (blackout abort), not
  /// at its natural finish time.
  bool abort_immediately = false;
  bool breaker_rejected = false;

  double bytes_done = 0.0;
  double rate_bps = 0.0;
  util::SimTime last_update = 0;
  sim::Scheduler::EventHandle finish_event;
};

struct TransferEngine::LinkState {
  grid::LinkKey key;
  std::vector<std::unique_ptr<Active>> active;
  std::deque<std::unique_ptr<Active>> pending;
  /// Backoff holding pen: retries waiting out their delay.  Owned here
  /// (not by the scheduler callback) so nothing leaks if the scheduler
  /// is torn down with events still queued.
  std::vector<std::unique_ptr<Active>> delayed;
  sim::Scheduler::EventHandle rerate_event;
  sim::Scheduler::EventHandle wake_event;

  enum class Breaker : std::uint8_t { kClosed, kOpen, kHalfOpen };
  Breaker breaker = Breaker::kClosed;
  std::uint32_t consecutive_failures = 0;
  util::SimTime open_until = 0;
};

TransferEngine::TransferEngine(sim::Scheduler& scheduler,
                               const grid::Topology& topology,
                               ReplicaCatalog& replicas, util::Rng rng,
                               Params params)
    : scheduler_(scheduler),
      topology_(topology),
      replicas_(replicas),
      rng_(rng),
      params_(params) {}

TransferEngine::TransferEngine(sim::Scheduler& scheduler,
                               const grid::Topology& topology,
                               ReplicaCatalog& replicas, util::Rng rng)
    : TransferEngine(scheduler, topology, replicas, rng, Params{}) {}

TransferEngine::~TransferEngine() = default;

void TransferEngine::set_injector(fault::Injector& injector) {
  injector_ = &injector;
  injector.subscribe([this](const fault::FaultWindow& window, bool begin) {
    on_fault(window, begin);
  });
}

void TransferEngine::enable_alternate_sources(const RseRegistry& rses) {
  rses_ = &rses;
  selector_.emplace(topology_, rses, replicas_);
}

TransferEngine::LinkState& TransferEngine::link_state(grid::SiteId src,
                                                      grid::SiteId dst) {
  const grid::LinkKey key{src, dst};
  auto it = links_.find(key);
  if (it == links_.end()) {
    auto ls = std::make_unique<LinkState>();
    ls->key = key;
    it = links_.emplace(key, std::move(ls)).first;
  }
  return *it->second;
}

std::uint64_t TransferEngine::submit(TransferRequest request) {
  assert(request.size_bytes > 0);
  auto active = std::make_unique<Active>();
  active->request = std::move(request);
  active->id = next_id_++;
  active->submitted_at = scheduler_.now();
  const std::uint64_t id = active->id;

  LinkState& ls = link_state(active->request.src, active->request.dst);
  ls.pending.push_back(std::move(active));
  ++stats_.submitted;
  ++in_flight_;
  EngineMetrics::get().submitted.inc();
  EngineMetrics::get().in_flight.add(1);
  if (obs::EventLog* log = scheduler_.session().events) {
    const TransferRequest& req = ls.pending.back()->request;
    log->emit(obs::Event("transfer_submit", scheduler_.now(),
                         static_cast<std::int64_t>(id))
                  .field("file", static_cast<std::uint64_t>(req.file))
                  .field("bytes", req.size_bytes)
                  .field("src", req.src)
                  .field("dst", req.dst)
                  .field("activity", static_cast<std::int32_t>(req.activity))
                  .field("task", req.jeditaskid));
  }
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    const TransferRequest& req = ls.pending.back()->request;
    flows->transfer_submitted(id, static_cast<std::int64_t>(req.file),
                              req.src, req.dst, scheduler_.now());
  }
  try_start(ls);
  return id;
}

bool TransferEngine::admits(LinkState& ls) {
  if (injector_ != nullptr &&
      injector_->link_blocked(ls.key.src, ls.key.dst)) {
    return false;
  }
  if (!params_.breaker_enabled) return true;
  if (ls.breaker == LinkState::Breaker::kOpen &&
      scheduler_.now() >= ls.open_until) {
    ls.breaker = LinkState::Breaker::kHalfOpen;  // cooldown over: probe
  }
  if (ls.breaker == LinkState::Breaker::kOpen) return false;
  if (ls.breaker == LinkState::Breaker::kHalfOpen && !ls.active.empty()) {
    return false;  // the half-open probe holds the only admission
  }
  return true;
}

void TransferEngine::try_start(LinkState& ls) {
  const grid::NetworkLink& link = topology_.link(ls.key.src, ls.key.dst);
  bool started = false;
  while (!ls.pending.empty() && ls.active.size() < link.max_active &&
         admits(ls)) {
    start_one(ls);
    started = true;
  }
  if (started) update_rates(ls);
  if (!ls.pending.empty() && ls.active.size() < link.max_active) {
    // Slots are free but admission said no: a fault window or the
    // breaker is holding the queue back.
    handle_blocked(ls);
  }
}

void TransferEngine::handle_blocked(LinkState& ls) {
  // First chance: re-route queued transfers whose file has a replica on
  // a healthier link.
  if (params_.alternate_source_retry && selector_.has_value() &&
      !ls.pending.empty()) {
    std::deque<std::unique_ptr<Active>> kept;
    while (!ls.pending.empty()) {
      std::unique_ptr<Active> a = std::move(ls.pending.front());
      ls.pending.pop_front();
      if (LinkState* target = reroute_target(*a)) {
        target->pending.push_back(std::move(a));
        try_start(*target);
      } else {
        kept.push_back(std::move(a));
      }
    }
    ls.pending = std::move(kept);
  }
  if (ls.pending.empty() || ls.wake_event.pending()) return;

  // Wake when the blockage can actually lift: the blocking windows'
  // end, the breaker cooldown, or a plain poll when neither is known.
  const util::SimTime now = scheduler_.now();
  util::SimTime at = now;
  if (injector_ != nullptr) {
    at = std::max(at, injector_->blocked_until(ls.key.src, ls.key.dst));
  }
  if (params_.breaker_enabled && ls.breaker == LinkState::Breaker::kOpen) {
    at = std::max(at, ls.open_until);
  }
  if (at <= now) at = now + params_.blocked_poll;
  ls.wake_event = scheduler_.schedule_at(at, [this, &ls] {
    ls.wake_event = {};
    try_start(ls);
  });
}

TransferEngine::LinkState* TransferEngine::reroute_target(Active& active) {
  const RseId alt = selector_->select_source(
      active.request.file, active.request.dst, scheduler_.now(),
      /*exclude_site=*/active.request.src);
  if (alt == kNoRse) return nullptr;
  const grid::SiteId src = rses_->rse(alt).site;
  if (src == active.request.src) return nullptr;
  LinkState& target = link_state(src, active.request.dst);
  if (injector_ != nullptr && injector_->link_blocked(src, active.request.dst)) {
    return nullptr;
  }
  if (params_.breaker_enabled &&
      target.breaker == LinkState::Breaker::kOpen &&
      scheduler_.now() < target.open_until) {
    return nullptr;
  }
  ++stats_.alt_source_retries;
  EngineMetrics::get().alt_source.inc();
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("transfer_reroute", scheduler_.now(),
                         static_cast<std::int64_t>(active.id))
                  .field("old_src", active.request.src)
                  .field("new_src", src)
                  .field("dst", active.request.dst)
                  .field("attempt", active.attempt));
  }
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->transfer_rerouted(active.id);
  }
  active.request.src = src;
  return &target;
}

void TransferEngine::start_one(LinkState& ls) {
  auto active = std::move(ls.pending.front());
  ls.pending.pop_front();

  const grid::NetworkLink& link = topology_.link(ls.key.src, ls.key.dst);
  // Protocol setup latency delays the effective start a little.
  active->started_at =
      scheduler_.now() + static_cast<util::SimDuration>(link.latency_ms);
  active->last_update = active->started_at;
  active->bytes_done = 0.0;
  active->stalled = rng_.bernoulli(params_.stall_prob);
  if (active->stalled) {
    // Log-uniform severity: most stalls are mild, a tail is crippling.
    const double lo = std::log(params_.stall_factor_min);
    const double hi = std::log(params_.stall_factor_max);
    active->stall_factor = std::exp(rng_.uniform(lo, hi));
  }
  double abort_prob = params_.failure_prob;
  const double boost = injector_ != nullptr ? injector_->abort_boost() : 0.0;
  abort_prob += boost;
  active->doomed = rng_.bernoulli(abort_prob);
  if (active->doomed && boost > 0.0) active->fault_tainted = true;
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("transfer_start", scheduler_.now(),
                         static_cast<std::int64_t>(active->id))
                  .field("src", ls.key.src)
                  .field("dst", ls.key.dst)
                  .field("attempt", active->attempt)
                  .field("effective_start", active->started_at));
  }
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->attempt_start(active->id, active->attempt, ls.key.src, ls.key.dst,
                         scheduler_.now());
  }
  ls.active.push_back(std::move(active));
  schedule_rerate(ls);
}

void TransferEngine::update_rates(LinkState& ls) {
  if (ls.active.empty()) {
    ls.rerate_event.cancel();
    return;
  }
  const util::SimTime now = scheduler_.now();
  const grid::NetworkLink& link = topology_.link(ls.key.src, ls.key.dst);
  const double fault_factor =
      injector_ != nullptr
          ? injector_->link_capacity_factor(ls.key.src, ls.key.dst)
          : 1.0;
  const double capacity =
      std::max(link.effective_capacity(now, fault_factor), 1e3);
  const double fair_share =
      capacity / static_cast<double>(ls.active.size());
  EngineMetrics::get().link_rerates.inc();
  EngineMetrics::get().reschedules.inc(ls.active.size());

  for (auto& active : ls.active) {
    // Account progress since the last rate change.
    if (now > active->last_update && active->rate_bps > 0.0) {
      active->bytes_done += active->rate_bps *
                            util::to_seconds(now - active->last_update);
    }
    active->last_update = std::max(now, active->started_at);

    double rate = std::min(fair_share, params_.per_stream_cap_bps);
    if (active->stalled) rate *= active->stall_factor;
    active->rate_bps = std::max(rate, 1e3);

    const double remaining =
        std::max(0.0, static_cast<double>(active->request.size_bytes) -
                          active->bytes_done);
    const auto eta = static_cast<util::SimDuration>(
        std::ceil(remaining / active->rate_bps * 1000.0));
    active->finish_event.cancel();
    Active* raw = active.get();
    const util::SimTime finish_at =
        active->abort_immediately
            ? now
            : active->last_update + std::max<util::SimDuration>(eta, 1);
    active->finish_event =
        scheduler_.schedule_at(finish_at, [this, &ls, raw] {
          complete(ls, raw);
        });
  }
}

void TransferEngine::schedule_rerate(LinkState& ls) {
  if (ls.rerate_event.pending()) return;
  ls.rerate_event = scheduler_.schedule_after(params_.rerate_interval,
                                              [this, &ls] {
                                                ls.rerate_event = {};
                                                update_rates(ls);
                                                if (!ls.active.empty())
                                                  schedule_rerate(ls);
                                              });
}

void TransferEngine::breaker_on_result(LinkState& ls, bool attempt_failed) {
  if (attempt_failed) {
    ++ls.consecutive_failures;
    const bool trips =
        ls.breaker == LinkState::Breaker::kHalfOpen ||
        (ls.breaker == LinkState::Breaker::kClosed &&
         ls.consecutive_failures >= params_.breaker_threshold);
    if (!trips) return;
    if (ls.breaker == LinkState::Breaker::kClosed) {
      ++open_breakers_;
      EngineMetrics::get().breakers_open.add(1);
    }
    ls.breaker = LinkState::Breaker::kOpen;
    ls.open_until = scheduler_.now() + params_.breaker_cooldown;
    ++stats_.breaker_opens;
    EngineMetrics::get().breaker_opens.inc();
    util::log_warning() << "circuit breaker open: link " << ls.key.src << "->"
                        << ls.key.dst << " after " << ls.consecutive_failures
                        << " consecutive failed attempts";
    if (obs::EventLog* log = scheduler_.session().events) {
      log->emit(obs::Event("breaker_state", scheduler_.now(),
                           link_entity(ls.key.src, ls.key.dst))
                    .field("src", ls.key.src)
                    .field("dst", ls.key.dst)
                    .field("state", "open")
                    .field("consecutive_failures", ls.consecutive_failures)
                    .field("open_until", ls.open_until));
    }
    if (obs::HealthEngine* health = scheduler_.session().health) {
      health->on_breaker(scheduler_.now(), ls.key.src, ls.key.dst,
                         /*open=*/true);
    }
  } else {
    ls.consecutive_failures = 0;
    if (ls.breaker == LinkState::Breaker::kClosed) return;
    // A success on an open or probing link is evidence it recovered.
    ls.breaker = LinkState::Breaker::kClosed;
    if (open_breakers_ > 0) --open_breakers_;
    EngineMetrics::get().breakers_open.add(-1);
    if (obs::EventLog* log = scheduler_.session().events) {
      log->emit(obs::Event("breaker_state", scheduler_.now(),
                           link_entity(ls.key.src, ls.key.dst))
                    .field("src", ls.key.src)
                    .field("dst", ls.key.dst)
                    .field("state", "closed")
                    .field("consecutive_failures", std::uint32_t{0})
                    .field("open_until", util::SimTime{0}));
    }
    if (obs::HealthEngine* health = scheduler_.session().health) {
      health->on_breaker(scheduler_.now(), ls.key.src, ls.key.dst,
                         /*open=*/false);
    }
  }
}

util::SimDuration TransferEngine::backoff_delay(std::uint64_t id,
                                                std::uint32_t attempt) const {
  if (params_.retry_backoff_base <= 0) return 0;
  // `attempt` is the upcoming attempt number (>= 2): the first retry
  // waits one base interval, doubling from there.
  const double base =
      static_cast<double>(params_.retry_backoff_base) *
      std::pow(2.0, static_cast<double>(attempt) - 2.0);
  double delay =
      std::min(base, static_cast<double>(params_.retry_backoff_max));
  // Deterministic jitter from a stateless hash: no RNG stream is
  // consumed, so enabling backoff never perturbs unrelated draws.
  const double u = util::hash_unit(util::hash_mix(0xb0ffu, id, attempt));
  delay *= 1.0 + params_.retry_jitter * (2.0 * u - 1.0);
  return std::max<util::SimDuration>(
      1, static_cast<util::SimDuration>(std::llround(delay)));
}

void TransferEngine::release_delayed(LinkState& ls, Active* raw) {
  auto it = std::find_if(ls.delayed.begin(), ls.delayed.end(),
                         [raw](const auto& p) { return p.get() == raw; });
  if (it == ls.delayed.end()) return;
  std::unique_ptr<Active> active = std::move(*it);
  ls.delayed.erase(it);
  ls.pending.push_back(std::move(active));
  try_start(ls);
}

void TransferEngine::complete(LinkState& ls, Active* active) {
  // Extract the finished transfer from the active set.
  auto it = std::find_if(ls.active.begin(), ls.active.end(),
                         [active](const auto& p) { return p.get() == active; });
  assert(it != ls.active.end());
  std::unique_ptr<Active> done = std::move(*it);
  ls.active.erase(it);

  const bool attempt_failed = done->doomed;
  if (params_.breaker_enabled) breaker_on_result(ls, attempt_failed);

  if (attempt_failed && done->attempt < params_.max_attempts) {
    // Retry: requeue the transfer with attempt bumped, possibly on a
    // different source link and after a backoff delay.
    ++stats_.retries;
    EngineMetrics::get().retries.inc();
    LinkState* target = &ls;
    const bool degraded =
        (injector_ != nullptr &&
         injector_->link_blocked(ls.key.src, ls.key.dst)) ||
        (params_.breaker_enabled &&
         ls.breaker != LinkState::Breaker::kClosed);
    if (degraded && params_.alternate_source_retry && selector_.has_value()) {
      if (LinkState* alt = reroute_target(*done)) target = alt;
    }
    const util::SimDuration delay =
        backoff_delay(done->id, done->attempt + 1);
    if (obs::EventLog* log = scheduler_.session().events) {
      log->emit(obs::Event("transfer_retry", scheduler_.now(),
                           static_cast<std::int64_t>(done->id))
                    .field("failed_attempt", done->attempt)
                    .field("src", ls.key.src)
                    .field("dst", ls.key.dst)
                    .field("next_src", target->key.src)
                    .field("backoff_ms", delay));
    }
    if (obs::FlowTracker* flows = scheduler_.session().flows) {
      flows->attempt_end(done->id, scheduler_.now(), /*success=*/false,
                         /*terminal=*/false, /*registered=*/false);
    }
    done->attempt += 1;
    done->finish_event = {};
    done->rate_bps = 0.0;
    done->doomed = false;
    done->abort_immediately = false;
    if (delay <= 0) {
      target->pending.push_back(std::move(done));
      if (target != &ls) try_start(*target);
    } else {
      ++stats_.backoff_delays;
      EngineMetrics::get().backoffs.inc();
      Active* raw = done.get();
      target->delayed.push_back(std::move(done));
      scheduler_.schedule_after(delay, [this, target, raw] {
        release_delayed(*target, raw);
      });
    }
  } else {
    if (attempt_failed && params_.breaker_enabled &&
        ls.breaker == LinkState::Breaker::kOpen) {
      done->breaker_rejected = true;
    }
    finalize(std::move(done), !attempt_failed);
  }
  // Freed slot: admit queued work and rebalance the shares.
  try_start(ls);
  update_rates(ls);
}

void TransferEngine::finalize(std::unique_ptr<Active> active, bool success) {
  TransferOutcome outcome;
  outcome.transfer_id = active->id;
  outcome.file = active->request.file;
  outcome.size_bytes = active->request.size_bytes;
  outcome.src = active->request.src;
  outcome.dst = active->request.dst;
  outcome.activity = active->request.activity;
  outcome.jeditaskid = active->request.jeditaskid;
  outcome.pandaid = active->request.pandaid;
  outcome.submitted_at = active->submitted_at;
  outcome.started_at = active->started_at;
  outcome.finished_at = scheduler_.now();
  outcome.success = success;
  outcome.attempts = active->attempt;

  if (success) {
    stats_.bytes_moved += active->request.size_bytes;
    EngineMetrics::get().bytes_moved.inc(active->request.size_bytes);
    bool quota_rejected = false;
    if (active->request.dst_rse != kNoRse) {
      const bool storage_down =
          injector_ != nullptr && injector_->storage_down(active->request.dst);
      if (storage_down) {
        // Clustered lost registrations: the destination's storage
        // endpoint is inside a fault window.
        ++stats_.registration_failures;
        outcome.error = TransferError::kRegistrationFailed;
      } else if (rng_.bernoulli(params_.registration_failure_prob)) {
        ++stats_.registration_failures;
        outcome.error = TransferError::kRegistrationFailed;
      } else if (replicas_.add_replica(active->request.file,
                                       active->request.dst_rse)) {
        outcome.replica_registered = true;
      } else {
        // Destination RSE over quota: the bytes moved but no replica
        // could be registered (it will be garbage-collected) — another
        // source of catalog-unknown copies and re-transfers.
        ++stats_.quota_rejections;
        quota_rejected = true;
        outcome.error = TransferError::kRegistrationFailed;
      }
    }
    // Quota rejections are tallied apart from completions, keeping
    // submitted == completed + failed + quota_rejections an identity.
    if (!quota_rejected) {
      ++stats_.completed;
      EngineMetrics::get().completed.inc();
    }
  } else {
    ++stats_.failed;
    EngineMetrics::get().failed.inc();
    if (active->fault_tainted) {
      outcome.error = TransferError::kFaultWindow;
    } else if (active->breaker_rejected) {
      outcome.error = TransferError::kBreakerRejected;
    } else if (active->stalled) {
      outcome.error = TransferError::kStalledTerminal;
    } else {
      outcome.error = TransferError::kAborted;
    }
  }
  --in_flight_;
  EngineMetrics::get().in_flight.add(-1);

  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event(outcome.success ? "transfer_done" : "transfer_fail",
                         outcome.finished_at,
                         static_cast<std::int64_t>(outcome.transfer_id))
                  .field("bytes", outcome.size_bytes)
                  .field("src", outcome.src)
                  .field("dst", outcome.dst)
                  .field("activity",
                         static_cast<std::int32_t>(outcome.activity))
                  .field("task", outcome.jeditaskid)
                  .field("submitted", outcome.submitted_at)
                  .field("started", outcome.started_at)
                  .field("attempts", outcome.attempts)
                  .field("registered", outcome.replica_registered)
                  .field("error", transfer_error_name(outcome.error)));
  }
  if (obs::HealthEngine* health = scheduler_.session().health) {
    health->on_transfer_terminal(outcome.finished_at, outcome.success,
                                 transfer_error_name(outcome.error),
                                 outcome.finished_at - outcome.submitted_at);
  }
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->attempt_end(outcome.transfer_id, outcome.finished_at,
                       outcome.success, /*terminal=*/true,
                       outcome.replica_registered);
  }

  if (active->request.on_complete) active->request.on_complete(outcome);
  if (sink_) sink_(outcome);
}

void TransferEngine::on_fault(const fault::FaultWindow& window, bool begin) {
  const bool kills_links =
      window.kind == fault::FaultKind::kSiteOutage ||
      window.kind == fault::FaultKind::kLinkBlackout;
  if (!kills_links) return;

  // Deterministic order over the affected links regardless of hash-map
  // layout.
  std::vector<LinkState*> affected;
  for (auto& [key, ls] : links_) {
    const bool hit =
        window.kind == fault::FaultKind::kLinkBlackout
            ? key == window.link
            : key.src == window.site || key.dst == window.site;
    if (hit) affected.push_back(ls.get());
  }
  std::sort(affected.begin(), affected.end(),
            [](const LinkState* a, const LinkState* b) {
              if (a->key.src != b->key.src) return a->key.src < b->key.src;
              return a->key.dst < b->key.dst;
            });

  if (begin) {
    // Abort in-flight attempts now: the link is gone, not slow.  The
    // retry machinery (backoff, breaker, alternate source) takes over
    // in complete().
    for (LinkState* ls : affected) {
      std::vector<Active*> raws;
      raws.reserve(ls->active.size());
      for (auto& a : ls->active) {
        a->doomed = true;
        a->fault_tainted = true;
        a->abort_immediately = true;
        raws.push_back(a.get());
      }
      for (Active* raw : raws) {
        raw->finish_event.cancel();
        complete(*ls, raw);
      }
    }
  } else {
    // Window over: wake any queue the blockage held back.
    for (LinkState* ls : affected) {
      if (!ls->pending.empty()) try_start(*ls);
    }
  }
}

std::vector<TransferEngine::LinkProbe> TransferEngine::probe_links() const {
  std::vector<LinkProbe> probes;
  probes.reserve(links_.size());
  const util::SimTime now = scheduler_.now();
  for (const auto& [key, ls] : links_) {
    if (ls->active.empty() && ls->pending.empty() && ls->delayed.empty()) {
      continue;
    }
    LinkProbe p;
    p.key = key;
    p.active = static_cast<std::uint32_t>(ls->active.size());
    p.queued =
        static_cast<std::uint32_t>(ls->pending.size() + ls->delayed.size());
    for (const auto& a : ls->active) {
      // Advance byte progress to the probe instant so sampled link
      // series do not under/over-shoot between rerate ticks.
      double bytes_done = a->bytes_done;
      if (now > a->last_update && a->rate_bps > 0.0) {
        bytes_done += a->rate_bps * util::to_seconds(now - a->last_update);
      }
      const double remaining =
          std::max(0.0, static_cast<double>(a->request.size_bytes) -
                            bytes_done);
      p.bytes_in_flight += static_cast<std::uint64_t>(remaining);
      p.rate_bps += a->rate_bps;
    }
    probes.push_back(p);
  }
  std::sort(probes.begin(), probes.end(),
            [](const LinkProbe& a, const LinkProbe& b) {
              if (a.key.src != b.key.src) return a.key.src < b.key.src;
              return a.key.dst < b.key.dst;
            });
  return probes;
}

std::uint64_t TransferEngine::state_digest() const {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  std::uint64_t h = util::hash_mix(next_id_, in_flight_, open_breakers_);
  h = util::hash_mix(h, stats_.submitted, stats_.completed);
  h = util::hash_mix(h, stats_.failed, stats_.retries);
  h = util::hash_mix(h, stats_.registration_failures, stats_.quota_rejections);
  h = util::hash_mix(h, stats_.bytes_moved, stats_.breaker_opens);
  h = util::hash_mix(h, stats_.alt_source_retries, stats_.backoff_delays);
  // Sorted by link key: the unordered_map's iteration order depends on
  // rehash history, which two runs need not share.
  std::vector<const LinkState*> links;
  links.reserve(links_.size());
  for (const auto& [key, ls] : links_) links.push_back(ls.get());
  std::sort(links.begin(), links.end(),
            [](const LinkState* a, const LinkState* b) {
              if (a->key.src != b->key.src) return a->key.src < b->key.src;
              return a->key.dst < b->key.dst;
            });
  const auto mix_attempt = [&h, &bits](const Active& a) {
    h = util::hash_mix(h, a.id, a.attempt);
    h = util::hash_mix(h, static_cast<std::uint64_t>(a.submitted_at),
                       bits(a.bytes_done));
    h = util::hash_mix(h, bits(a.rate_bps),
                       static_cast<std::uint64_t>(a.last_update));
  };
  for (const LinkState* ls : links) {
    h = util::hash_mix(
        h, (static_cast<std::uint64_t>(ls->key.src) << 32) | ls->key.dst,
        static_cast<std::uint64_t>(ls->breaker));
    h = util::hash_mix(h, ls->consecutive_failures,
                       static_cast<std::uint64_t>(ls->open_until));
    h = util::hash_mix(h, ls->active.size(),
                       ls->pending.size() + (ls->delayed.size() << 32));
    for (const auto& a : ls->active) mix_attempt(*a);
    for (const auto& a : ls->pending) mix_attempt(*a);
    for (const auto& a : ls->delayed) mix_attempt(*a);
  }
  return h;
}

}  // namespace pandarus::dms
