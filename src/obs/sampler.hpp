// Simulated-clock periodic sampler: snapshots caller-supplied probes
// into a columnar time series, emitting one flat "sample" event per
// tick to its EventLog (plus any registered free-form emitters, e.g.
// per-link samples).
//
// The sampler itself knows nothing about the simulation scheduler —
// obs sits below sim in the module layering — so the owner registers
// the periodic ticks (scenario::run_campaign schedules one sample_at()
// call per interval, exactly like its pre-scheduled carousel waves).
// Probes must be read-only and must not consume simulation RNG, so a
// sampled run stays bit-identical to an unsampled one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pandarus::obs {

class EventLog;

class Sampler {
 public:
  /// Reads one column value at sample time.
  using Probe = std::function<std::int64_t()>;
  /// Free-form per-tick emitter (receives the sample's simulated time);
  /// used for variable-arity outputs like per-link samples.
  using Emitter = std::function<void(std::int64_t ts)>;
  /// Observes the completed row (names parallel to values) right after
  /// the "sample" event is emitted and before the emitters run — the
  /// same position the row occupies in the NDJSON stream, so a consumer
  /// fed here (obs::HealthEngine) sees rows in stream order.
  using RowObserver = std::function<void(
      std::int64_t ts, const std::vector<std::string>& names,
      const std::vector<std::int64_t>& values)>;

  /// Rows go to `log` as "sample" events; null emits none (the row
  /// observer still sees every row).
  explicit Sampler(std::int64_t interval_ms, EventLog* log = nullptr)
      : interval_ms_(interval_ms), log_(log) {}

  void add_column(std::string name, Probe probe);
  void add_emitter(Emitter emitter);
  void set_row_observer(RowObserver observer);

  /// Evaluates every probe at simulated time `ts`, emits a "sample"
  /// event (entity = tick index, one field per column) to the log,
  /// hands the row to the observer, then runs the free-form emitters.
  void sample_at(std::int64_t ts);

  [[nodiscard]] std::int64_t interval_ms() const noexcept {
    return interval_ms_;
  }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return names_;
  }

  /// sample_at() calls so far.
  [[nodiscard]] std::int64_t ticks() const noexcept { return ticks_; }

 private:
  std::int64_t interval_ms_;
  EventLog* log_;
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  std::vector<Emitter> emitters_;
  RowObserver row_observer_;
  std::int64_t ticks_ = 0;
};

}  // namespace pandarus::obs
