#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace pandarus::obs {
namespace {

// Detector thresholds, windows and history bounds.
// EWMA spike detection (queue depth, link utilization).
constexpr double kEwmaAlpha = 0.2;
constexpr double kQueueZThreshold = 6.0;
constexpr double kQueueMinValue = 64.0;  // absolute floor before z applies
constexpr double kLinkUtilFloor = 0.92;  // utilization that always breaches
constexpr double kLinkZThreshold = 4.0;
// Lifecycle hysteresis (consecutive breaches / clears).
constexpr int kPendingTicks = 2;
constexpr int kClearTicks = 2;
// Transfer stall: `stalled_terminal` failures within kStallWindowMs.
constexpr std::uint64_t kStallThreshold = 3;
// Breaker flap escalation: open/close transitions per link.
constexpr std::int64_t kFlapWindowMs = 6 * 3600 * 1000;
constexpr std::uint64_t kFlapThreshold = 4;
// SLO burn-rate evaluation.
constexpr std::int64_t kSloBucketMs = 5 * 60 * 1000;
constexpr std::int64_t kSloFastWindowMs = 1 * 3600 * 1000;
constexpr std::int64_t kSloSlowWindowMs = 6 * 3600 * 1000;
constexpr double kSloBurnThreshold = 2.0;
constexpr double kTransferLatencyTarget = 0.95;  // fraction under the bound
constexpr double kEventIntegrityTarget = 0.999;  // fraction not dropped
// Bounded histories.
constexpr std::size_t kMaxTransitions = 4096;
constexpr std::size_t kMaxResolved = 512;

}  // namespace

std::string_view alert_phase_name(AlertPhase phase) noexcept {
  switch (phase) {
    case AlertPhase::kPending:
      return "pending";
    case AlertPhase::kFiring:
      return "firing";
    case AlertPhase::kResolved:
      return "resolved";
  }
  return "unknown";
}

// --- BucketRing -------------------------------------------------------------

BucketRing::BucketRing(std::int64_t bucket_ms, std::int64_t window_ms)
    : bucket_ms_(bucket_ms > 0 ? bucket_ms : 1) {
  const std::int64_t n = (window_ms + bucket_ms_ - 1) / bucket_ms_;
  capacity_ = static_cast<std::size_t>(n > 0 ? n : 1);
}

void BucketRing::expire(std::int64_t now) {
  const std::int64_t current = now / bucket_ms_;
  while (!buckets_.empty() &&
         buckets_.front().first + static_cast<std::int64_t>(capacity_) <=
             current) {
    buckets_.pop_front();
  }
}

void BucketRing::add(std::int64_t ts, std::uint64_t n) {
  expire(ts);
  const std::int64_t bucket = ts / bucket_ms_;
  if (!buckets_.empty() && buckets_.back().first == bucket) {
    buckets_.back().second += n;
  } else {
    buckets_.emplace_back(bucket, n);
  }
}

std::uint64_t BucketRing::total(std::int64_t now) {
  expire(now);
  std::uint64_t sum = 0;
  for (const auto& [bucket, count] : buckets_) sum += count;
  return sum;
}

void BucketRing::reset() { buckets_.clear(); }

// --- Ewma -------------------------------------------------------------------

void HealthEngine::Ewma::observe(double v) {
  if (!primed) {
    primed = true;
    mean = v;
    var = 0.0;
    return;
  }
  const double d = v - mean;
  // Exponentially weighted mean/variance (West 1979 incremental form).
  mean += kEwmaAlpha * d;
  var = (1.0 - kEwmaAlpha) * (var + kEwmaAlpha * d * d);
}

double HealthEngine::Ewma::zscore(double v) const {
  if (!primed) return 0.0;
  const double sd = std::sqrt(var);
  if (sd <= 1e-12) return v > mean ? 1e9 : 0.0;
  return (v - mean) / sd;
}

// --- LinkState / Slo --------------------------------------------------------

HealthEngine::LinkState::LinkState()
    : flaps(kFlapWindowMs / 8, kFlapWindowMs) {}

HealthEngine::Slo::Slo(std::string n, double t)
    : name(std::move(n)),
      target(t),
      good_fast(kSloBucketMs, kSloFastWindowMs),
      bad_fast(kSloBucketMs, kSloFastWindowMs),
      good_slow(kSloBucketMs, kSloSlowWindowMs),
      bad_slow(kSloBucketMs, kSloSlowWindowMs) {}

void HealthEngine::Slo::add(std::int64_t ts, bool is_good, std::uint64_t n) {
  if (is_good) {
    good += n;
    good_fast.add(ts, n);
    good_slow.add(ts, n);
  } else {
    bad += n;
    bad_fast.add(ts, n);
    bad_slow.add(ts, n);
  }
}

double HealthEngine::Slo::burn(std::int64_t now, bool fast) {
  const std::uint64_t g = fast ? good_fast.total(now) : good_slow.total(now);
  const std::uint64_t b = fast ? bad_fast.total(now) : bad_slow.total(now);
  const std::uint64_t n = g + b;
  if (n == 0) return 0.0;
  const double bad_frac =
      static_cast<double>(b) / static_cast<double>(n);
  return bad_frac / (1.0 - target);
}

// --- HealthEngine -----------------------------------------------------------

HealthEngine::HealthEngine() : stalls_(kStallWindowMs / 8, kStallWindowMs) {
  slos_.emplace_back("transfer_latency", kTransferLatencyTarget);
  slos_.emplace_back("transfer_success", kTransferSuccessTarget);
  slos_.emplace_back("event_integrity", kEventIntegrityTarget);
}

void HealthEngine::wire(EventLog* log) {
  std::scoped_lock lock(mutex_);
  log_ = log;
}

void HealthEngine::reset_locked() {
  last_ts_ = INT64_MIN;
  observations_ = 0;
  fired_ = 0;
  resolved_count_ = 0;
  queue_depth_ = Ewma{};
  links_.clear();
  stalls_.reset();
  have_prev_sample_ = false;
  prev_dropped_ = 0;
  for (Slo& slo : slos_) {
    slo.good = slo.bad = 0;
    slo.good_fast.reset();
    slo.bad_fast.reset();
    slo.good_slow.reset();
    slo.bad_slow.reset();
  }
  active_.clear();
  resolved_.clear();
  transitions_.clear();
}

void HealthEngine::note_ts_locked(std::int64_t ts) {
  // Simulated time runs monotonically within one campaign; a regression
  // means a new campaign started in the same process (bench loops, test
  // suites).  Reset so each epoch's alerts are self-contained — the
  // replay path sees the same regression in the stream and resets at
  // the same observation, preserving parity.
  if (ts < last_ts_ && last_ts_ != INT64_MIN) reset_locked();
  last_ts_ = ts;
  ++observations_;
}

void HealthEngine::transition_locked(Lifecycle& lc, std::int64_t ts,
                                     AlertPhase phase) {
  lc.state.phase = phase;
  lc.state.since_ts = ts;
  if (phase == AlertPhase::kFiring) {
    ++lc.state.fire_count;
    ++fired_;
  }
  AlertTransition t;
  t.ts = ts;
  t.phase = phase;
  t.detector = lc.state.detector;
  t.entity = lc.state.entity;
  t.severity = lc.state.severity;
  t.value = lc.state.value;
  t.threshold = lc.state.threshold;
  if (transitions_.size() >= kMaxTransitions) {
    transitions_.erase(transitions_.begin());
  }
  transitions_.push_back(std::move(t));

  if (log_ != nullptr) {
    // Sideband: alert lines ride the stream but stay out of its
    // self-accounting, so health-on minus alert lines is bitwise
    // health-off (log_stats included).
    log_->emit_sideband(
        Event("alert", ts, std::string_view(lc.state.entity))
            .field("detector", lc.state.detector)
            .field("phase", alert_phase_name(phase))
            .field("severity", lc.state.severity)
            .field("value", lc.state.value)
            .field("threshold", lc.state.threshold)
            .field("fire_count", lc.state.fire_count));
  }
}

void HealthEngine::step_locked(std::string_view detector,
                               std::string_view entity,
                               std::string_view severity, std::int64_t ts,
                               bool breach, double value, double threshold,
                               bool instant) {
  const auto key = std::make_pair(std::string(detector), std::string(entity));
  auto it = active_.find(key);
  if (!breach) {
    if (it == active_.end()) return;
    Lifecycle& lc = it->second;
    lc.state.last_ts = ts;
    lc.state.value = value;
    lc.state.threshold = threshold;
    lc.breach_streak = 0;
    ++lc.clear_streak;
    if (instant || lc.clear_streak >= kClearTicks) {
      transition_locked(lc, ts, AlertPhase::kResolved);
      ++resolved_count_;
      if (resolved_.size() < kMaxResolved) {
        resolved_.push_back(lc.state);
      }
      active_.erase(it);
    }
    return;
  }
  if (it == active_.end()) {
    Lifecycle lc;
    lc.state.detector = std::string(detector);
    lc.state.entity = std::string(entity);
    lc.state.severity = std::string(severity);
    lc.state.first_ts = ts;
    lc.state.last_ts = ts;
    lc.state.value = value;
    lc.state.threshold = threshold;
    lc.active = true;
    lc.breach_streak = 1;
    auto [ins, inserted] = active_.emplace(key, std::move(lc));
    static_cast<void>(inserted);
    transition_locked(ins->second, ts, AlertPhase::kPending);
    if (instant) transition_locked(ins->second, ts, AlertPhase::kFiring);
    return;
  }
  Lifecycle& lc = it->second;
  lc.state.last_ts = ts;
  lc.state.value = value;
  lc.state.threshold = threshold;
  lc.clear_streak = 0;
  ++lc.breach_streak;
  if (lc.state.phase == AlertPhase::kPending &&
      (instant || lc.breach_streak >= kPendingTicks)) {
    transition_locked(lc, ts, AlertPhase::kFiring);
  }
}

void HealthEngine::on_sample(std::int64_t ts,
                             const std::vector<std::string>& names,
                             const std::vector<std::int64_t>& values) {
  const std::lock_guard<std::mutex> lock(mutex_);
  note_ts_locked(ts);

  std::int64_t jobs_queued = -1;
  std::int64_t dropped = -1;
  const std::size_t n = std::min(names.size(), values.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = names[i];
    if (name == "jobs_queued") {
      jobs_queued = values[i];
    } else if (name == "events_dropped") {
      dropped = values[i];
    }
  }

  // Queue-depth spike: z-score against the series' own EWMA baseline,
  // evaluated *before* the observation joins the baseline.
  if (jobs_queued >= 0) {
    const double v = static_cast<double>(jobs_queued);
    const double z = queue_depth_.zscore(v);
    const bool breach = queue_depth_.primed && v >= kQueueMinValue &&
                        z >= kQueueZThreshold;
    step_locked("queue_depth_spike", "queue", "warning", ts, breach, v,
                queue_depth_.mean +
                    kQueueZThreshold * std::sqrt(queue_depth_.var),
                /*instant=*/false);
    queue_depth_.observe(v);
  }

  // Event-drop watchdog + integrity SLO: any dropped-event delta is an
  // immediate critical (telemetry is silently incomplete from then on).
  if (dropped >= 0) {
    const std::int64_t delta =
        have_prev_sample_ ? dropped - prev_dropped_ : dropped;
    const bool breach = delta > 0;
    step_locked("event_drop", "events", "critical", ts, breach,
                static_cast<double>(delta), 0.0, /*instant=*/true);
    slos_[2].add(ts, !breach);
    prev_dropped_ = dropped;
  }

  have_prev_sample_ = true;
  evaluate_slos_locked(ts);
  export_gauges_locked();
}

void HealthEngine::on_link_sample(std::int64_t ts, std::int64_t src,
                                  std::int64_t dst, std::int64_t queued,
                                  double utilization) {
  const std::lock_guard<std::mutex> lock(mutex_);
  note_ts_locked(ts);
  auto [it, inserted] = links_.try_emplace(std::make_pair(src, dst));
  static_cast<void>(inserted);
  LinkState& link = it->second;
  const double z = link.util.zscore(utilization);
  const bool breach =
      utilization >= kLinkUtilFloor ||
      (link.util.primed && utilization > 0.5 && z >= kLinkZThreshold &&
       queued > 0);
  std::string entity = "link:";
  entity += std::to_string(src);
  entity += "->";
  entity += std::to_string(dst);
  // Instant: link samples arrive once per sampler interval, so a single
  // saturated reading already represents a sustained condition.
  step_locked("link_util_spike", entity, "warning", ts, breach, utilization,
              kLinkUtilFloor, /*instant=*/true);
  link.util.observe(utilization);
}

void HealthEngine::on_transfer_terminal(std::int64_t ts, bool success,
                                        std::string_view error,
                                        std::int64_t duration_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  note_ts_locked(ts);
  if (success) {
    slos_[0].add(ts, duration_ms <= kTransferLatencyBoundMs);
  }
  slos_[1].add(ts, success);
  if (!success && error == "stalled_terminal") {
    stalls_.add(ts);
  }
  const std::uint64_t stalled = stalls_.total(ts);
  step_locked("transfer_stall", "transfers", "critical", ts,
              stalled >= kStallThreshold, static_cast<double>(stalled),
              static_cast<double>(kStallThreshold),
              /*instant=*/true);
}

void HealthEngine::on_breaker(std::int64_t ts, std::int64_t src,
                              std::int64_t dst, bool open) {
  const std::lock_guard<std::mutex> lock(mutex_);
  note_ts_locked(ts);
  auto [it, inserted] = links_.try_emplace(std::make_pair(src, dst));
  static_cast<void>(inserted);
  LinkState& link = it->second;
  if (link.breaker_open != open) link.flaps.add(ts);
  link.breaker_open = open;
  std::string entity = "link:";
  entity += std::to_string(src);
  entity += "->";
  entity += std::to_string(dst);
  step_locked("breaker_open", entity, "warning", ts, open, open ? 1.0 : 0.0,
              1.0, /*instant=*/true);
  const std::uint64_t flaps = link.flaps.total(ts);
  step_locked("breaker_flap", entity, "critical", ts,
              flaps >= kFlapThreshold, static_cast<double>(flaps),
              static_cast<double>(kFlapThreshold),
              /*instant=*/true);
}

void HealthEngine::evaluate_slos_locked(std::int64_t ts) {
  for (Slo& slo : slos_) {
    const double fast = slo.burn(ts, /*fast=*/true);
    const double slow = slo.burn(ts, /*fast=*/false);
    const bool breach = fast >= kSloBurnThreshold && slow >= kSloBurnThreshold;
    std::string entity = "slo:";
    entity += slo.name;
    step_locked("slo_burn", entity, "critical", ts, breach,
                std::min(fast, slow), kSloBurnThreshold,
                /*instant=*/false);
  }
}

void HealthEngine::export_gauges_locked() {
  // Gauges never touch the event stream, so exporting here is
  // determinism-neutral (same discipline as the campaign's progress
  // gauges).
  Registry& registry = Registry::global();
  std::uint64_t pending = 0;
  std::uint64_t firing = 0;
  for (const auto& [key, lc] : active_) {
    if (lc.state.phase == AlertPhase::kFiring) {
      ++firing;
    } else {
      ++pending;
    }
  }
  registry
      .gauge("pandarus_health_alerts_firing",
             "Alerts currently in the firing phase")
      .set(static_cast<std::int64_t>(firing));
  registry
      .gauge("pandarus_health_alerts_pending",
             "Alerts currently in the pending phase")
      .set(static_cast<std::int64_t>(pending));
  registry
      .gauge("pandarus_health_alerts_resolved_total",
             "Alerts resolved since the epoch began")
      .set(static_cast<std::int64_t>(resolved_count_));
  for (Slo& slo : slos_) {
    const double fast = slo.burn(last_ts_, /*fast=*/true);
    const double slow = slo.burn(last_ts_, /*fast=*/false);
    registry
        .gauge("pandarus_slo_" + slo.name + "_burn_fast",
               "Fast-window SLO burn rate")
        .set(static_cast<std::int64_t>(fast * 1000.0));
    registry
        .gauge("pandarus_slo_" + slo.name + "_burn_slow",
               "Slow-window SLO burn rate")
        .set(static_cast<std::int64_t>(slow * 1000.0));
  }
}

void HealthEngine::observe_json(const util::json::FlatObject& event) {
  const std::string_view kind = event.get_string("kind");
  const std::int64_t ts = event.get_int("ts");
  if (kind == "sample") {
    // Every non-envelope member is a sampler column, in emission order.
    std::vector<std::string> names;
    std::vector<std::int64_t> values;
    names.reserve(event.members.size());
    values.reserve(event.members.size());
    for (const util::json::FlatMember& m : event.members) {
      if (m.key == "ts" || m.key == "kind" || m.key == "entity") continue;
      names.emplace_back(m.key);
      values.push_back(m.as_int());
    }
    on_sample(ts, names, values);
  } else if (kind == "link_sample") {
    on_link_sample(ts, event.get_int("src"), event.get_int("dst"),
                   event.get_int("queued"),
                   event.get_double("utilization"));
  } else if (kind == "breaker_state") {
    on_breaker(ts, event.get_int("src"), event.get_int("dst"),
               event.get_string("state") == "open");
  } else if (kind == "transfer_done" || kind == "transfer_fail") {
    const bool success = kind == "transfer_done";
    const std::int64_t submitted = event.get_int("submitted", ts);
    on_transfer_terminal(ts, success, event.get_string("error", "none"),
                         ts - submitted);
  }
  // All other kinds — including "alert" itself — are ignored, so
  // replaying a health-on stream drives exactly the state its live run
  // had, with no self-amplification.
}

HealthEngine::Counts HealthEngine::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Counts c;
  c.observations = observations_;
  c.fired = fired_;
  c.resolved = resolved_count_;
  for (const auto& [key, lc] : active_) {
    if (lc.state.phase == AlertPhase::kFiring) {
      ++c.active_firing;
    } else {
      ++c.active_pending;
    }
  }
  return c;
}

std::vector<AlertState> HealthEngine::alerts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertState> out;
  out.reserve(active_.size() + resolved_.size());
  for (const auto& [key, lc] : active_) out.push_back(lc.state);
  for (const AlertState& state : resolved_) out.push_back(state);
  return out;
}

std::vector<AlertTransition> HealthEngine::transitions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

std::vector<SloStatus> HealthEngine::slos() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const Slo& slo : slos_) {
    SloStatus s;
    s.name = slo.name;
    s.target = slo.target;
    s.good = slo.good;
    s.bad = slo.bad;
    // burn() expires buckets; evaluate on copies so a const snapshot
    // never mutates detector state.
    Slo probe = slo;
    s.burn_fast = probe.burn(last_ts_, /*fast=*/true);
    s.burn_slow = probe.burn(last_ts_, /*fast=*/false);
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

void append_alert_json(std::string& out, const AlertState& a) {
  out += "{\"detector\":\"";
  detail::append_json_escaped(out, a.detector);
  out += "\",\"entity\":\"";
  detail::append_json_escaped(out, a.entity);
  out += "\",\"severity\":\"";
  detail::append_json_escaped(out, a.severity);
  out += "\",\"phase\":\"";
  out += alert_phase_name(a.phase);
  out += "\",\"first_ts\":";
  out += std::to_string(a.first_ts);
  out += ",\"since_ts\":";
  out += std::to_string(a.since_ts);
  out += ",\"last_ts\":";
  out += std::to_string(a.last_ts);
  out += ",\"value\":";
  detail::append_json_double(out, a.value);
  out += ",\"threshold\":";
  detail::append_json_double(out, a.threshold);
  out += ",\"fire_count\":";
  out += std::to_string(a.fire_count);
  out += '}';
}

}  // namespace

std::string HealthEngine::status_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(1024);
  out += "{\"counts\":{\"observations\":";
  out += std::to_string(observations_);
  out += ",\"fired\":";
  out += std::to_string(fired_);
  out += ",\"resolved\":";
  out += std::to_string(resolved_count_);
  std::uint64_t pending = 0;
  std::uint64_t firing = 0;
  for (const auto& [key, lc] : active_) {
    if (lc.state.phase == AlertPhase::kFiring) {
      ++firing;
    } else {
      ++pending;
    }
  }
  out += ",\"active_pending\":";
  out += std::to_string(pending);
  out += ",\"active_firing\":";
  out += std::to_string(firing);
  out += "},\"alerts\":[";
  bool first = true;
  for (const auto& [key, lc] : active_) {
    if (!first) out += ',';
    first = false;
    append_alert_json(out, lc.state);
  }
  out += "],\"resolved\":[";
  first = true;
  for (const AlertState& state : resolved_) {
    if (!first) out += ',';
    first = false;
    append_alert_json(out, state);
  }
  out += "],\"slos\":[";
  first = true;
  for (const Slo& slo : slos_) {
    if (!first) out += ',';
    first = false;
    Slo probe = slo;
    out += "{\"name\":\"";
    detail::append_json_escaped(out, slo.name);
    out += "\",\"target\":";
    detail::append_json_double(out, slo.target);
    out += ",\"good\":";
    out += std::to_string(slo.good);
    out += ",\"bad\":";
    out += std::to_string(slo.bad);
    out += ",\"burn_fast\":";
    detail::append_json_double(out, probe.burn(last_ts_, /*fast=*/true));
    out += ",\"burn_slow\":";
    detail::append_json_double(out, probe.burn(last_ts_, /*fast=*/false));
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace pandarus::obs
