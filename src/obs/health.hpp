// Streaming health engine: deterministic anomaly detectors and SLO
// burn-rate evaluation over the campaign's own events and sampled rows.
//
// The engine is fed twice, through two faces of the same interface:
//
//   * live — instrumented sites (sample rows, per-link probes, breaker
//     transitions, terminal transfer outcomes) call the typed on_*()
//     feeds directly, guarded by the scheduler's `session().health`
//     exactly like EventLog emit sites;
//   * replay — analysis::replay_events() streams a recorded NDJSON or
//     colstore file through observe_json(), which maps the canonical
//     event vocabulary (kObservedKinds: "sample", "link_sample",
//     "breaker_state", "transfer_done"/"transfer_fail") onto the *same*
//     typed feeds.  Every other kind is ignored, so a health-only pass
//     (analysis::derive_health_file) skips those events unread.
//
// Because both paths drive identical detector state in identical order,
// and every input carries simulated time only, the engine's
// status_json() is bit-identical between a live run and a replay of the
// stream that run produced.  That is the contract the /api/alerts
// parity gate checks.
//
// Detectors hold bounded state (EWMA scalars and fixed-width bucket
// rings), so memory is O(active links + detectors), never O(events).
// Alert lifecycle is pending → firing → resolved; a wired engine emits
// every transition as one typed `alert` NDJSON event into its session's
// EventLog, so stripping `alert` lines from a health-on stream restores
// the health-off bytes exactly.  An engine that was never wired (the
// replay face) emits nothing, so replaying a stream never re-emits its
// own alerts.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace pandarus::obs {

class EventLog;

enum class AlertPhase { kPending, kFiring, kResolved };
[[nodiscard]] std::string_view alert_phase_name(AlertPhase phase) noexcept;

/// One detector/entity alert, as surfaced by /api/alerts.
struct AlertState {
  std::string detector;
  std::string entity;    ///< e.g. "queue", "link:3->7"
  std::string severity;  ///< "warning" | "critical"
  AlertPhase phase = AlertPhase::kPending;
  std::int64_t first_ts = 0;  ///< when the pending phase began
  std::int64_t since_ts = 0;  ///< when the current phase began
  std::int64_t last_ts = 0;   ///< last observation that touched it
  double value = 0.0;         ///< most recent detector reading
  double threshold = 0.0;     ///< detector threshold at that reading
  std::uint32_t fire_count = 0;
};

/// One lifecycle transition, kept (bounded) for the report timeline.
struct AlertTransition {
  std::int64_t ts = 0;
  AlertPhase phase = AlertPhase::kPending;
  std::string detector;
  std::string entity;
  std::string severity;
  double value = 0.0;
  double threshold = 0.0;
};

/// One SLO objective's multi-window burn-rate snapshot.
struct SloStatus {
  std::string name;
  double target = 0.0;  ///< good-fraction objective, e.g. 0.95
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  double burn_fast = 0.0;  ///< bad_frac / error_budget over fast window
  double burn_slow = 0.0;
};

/// Fixed-width bucketed sliding-window counter: O(window/bucket) memory
/// regardless of event rate.  Monotone-time friendly; reset() on epoch
/// regression.
class BucketRing {
 public:
  BucketRing(std::int64_t bucket_ms, std::int64_t window_ms);
  void add(std::int64_t ts, std::uint64_t n = 1);
  /// Total count within [now - window, now]; expires old buckets.
  [[nodiscard]] std::uint64_t total(std::int64_t now);
  void reset();

 private:
  void expire(std::int64_t now);
  std::int64_t bucket_ms_;
  std::size_t capacity_;
  std::deque<std::pair<std::int64_t, std::uint64_t>> buckets_;
};

class HealthEngine {
 public:
  /// `stalled_terminal` failures count toward transfer_stall over this
  /// sliding window.
  static constexpr std::int64_t kStallWindowMs = 2 * 3600 * 1000;
  /// transfer_success SLO: the good-fraction objective.
  static constexpr double kTransferSuccessTarget = 0.90;
  /// transfer_latency SLO: a success is good when it took at most this.
  static constexpr std::int64_t kTransferLatencyBoundMs = 4 * 3600 * 1000;
  /// The event kinds observe_json() acts on; it ignores every other.
  static constexpr std::array<std::string_view, 5> kObservedKinds = {
      "sample", "link_sample", "breaker_state", "transfer_done",
      "transfer_fail"};

  HealthEngine();

  /// Alert lifecycle transitions from now on mirror to `log` as sideband
  /// `alert` events (none when null).  scenario::run_campaign wires its
  /// session's engine to the session's log before the first event.
  void wire(EventLog* log);

  // --- typed feeds (live instrumentation sites) -----------------------------
  // All feeds are read-only observers of the simulation: they consume
  // no simulation RNG and schedule nothing, so an armed engine leaves
  // the non-alert event stream byte-identical.

  /// One "sample" row (column names parallel to values); run_campaign
  /// calls it right after emitting the row, before the tick's link
  /// samples.
  void on_sample(std::int64_t ts, const std::vector<std::string>& names,
                 const std::vector<std::int64_t>& values);
  /// One per-link load probe.
  void on_link_sample(std::int64_t ts, std::int64_t src, std::int64_t dst,
                      std::int64_t queued, double utilization);
  /// One terminal transfer outcome; `error` uses
  /// dms::transfer_error_name vocabulary ("none", "stalled_terminal",
  /// ...), passed as text because obs layers below dms.
  void on_transfer_terminal(std::int64_t ts, bool success,
                            std::string_view error,
                            std::int64_t duration_ms);
  /// One circuit-breaker state change.
  void on_breaker(std::int64_t ts, std::int64_t src, std::int64_t dst,
                  bool open);

  /// Canonical stream mapping: routes one event, read in place by
  /// util::json::parse_flat or viewed from a colstore row, onto the
  /// typed feeds above.  Kinds outside kObservedKinds — including
  /// `alert` itself — are ignored, so feeding a health-on stream cannot
  /// self-amplify.
  void observe_json(const util::json::FlatObject& event);

  // --- snapshots ------------------------------------------------------------

  struct Counts {
    std::uint64_t observations = 0;  ///< typed feed calls accepted
    std::uint64_t fired = 0;         ///< alerts that reached firing
    std::uint64_t resolved = 0;      ///< alerts that reached resolved
    std::uint64_t active_pending = 0;
    std::uint64_t active_firing = 0;
  };
  [[nodiscard]] Counts counts() const;

  /// Active (pending/firing) alerts sorted by (detector, entity), then
  /// resolved history in resolution order.
  [[nodiscard]] std::vector<AlertState> alerts() const;
  [[nodiscard]] std::vector<AlertTransition> transitions() const;
  [[nodiscard]] std::vector<SloStatus> slos() const;

  /// Deterministic JSON document {"counts":…,"alerts":…,"slos":…} — the
  /// /api/alerts body and the live-vs-replay parity artifact.  Contains
  /// no wall-clock, watermark, or pointer-derived content.
  [[nodiscard]] std::string status_json() const;

 private:
  struct Lifecycle {
    AlertState state;
    int breach_streak = 0;
    int clear_streak = 0;
    bool active = false;  ///< pending or firing
  };

  /// Drives one detector/entity lifecycle step; mutex_ held.
  void step_locked(std::string_view detector, std::string_view entity,
                   std::string_view severity, std::int64_t ts, bool breach,
                   double value, double threshold, bool instant);
  void transition_locked(Lifecycle& lc, std::int64_t ts, AlertPhase phase);
  void evaluate_slos_locked(std::int64_t ts);
  void note_ts_locked(std::int64_t ts);
  void reset_locked();
  void export_gauges_locked();

  struct Ewma {
    bool primed = false;
    double mean = 0.0;
    double var = 0.0;
    void observe(double v);
    [[nodiscard]] double zscore(double v) const;
  };

  struct LinkState {
    Ewma util;
    BucketRing flaps;
    bool breaker_open = false;
    LinkState();
  };

  struct Slo {
    std::string name;
    double target;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    BucketRing good_fast, bad_fast, good_slow, bad_slow;
    Slo(std::string n, double t);
    void add(std::int64_t ts, bool is_good, std::uint64_t n = 1);
    /// burn = bad_frac / (1 - target) over the window; 0 when empty.
    [[nodiscard]] double burn(std::int64_t now, bool fast);
  };

  mutable std::mutex mutex_;
  EventLog* log_ = nullptr;
  std::int64_t last_ts_ = INT64_MIN;
  std::uint64_t observations_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t resolved_count_ = 0;

  // Detector state.
  Ewma queue_depth_;
  std::map<std::pair<std::int64_t, std::int64_t>, LinkState> links_;
  BucketRing stalls_;
  bool have_prev_sample_ = false;
  std::int64_t prev_dropped_ = 0;

  // SLOs (fixed order: latency, success, integrity).
  std::vector<Slo> slos_;

  // Alert state.
  std::map<std::pair<std::string, std::string>, Lifecycle> active_;
  std::vector<AlertState> resolved_;
  std::vector<AlertTransition> transitions_;
};

}  // namespace pandarus::obs
