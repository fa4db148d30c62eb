// Transfer-time-percentage threshold sweep (paper Fig. 9).
//
// Matched jobs fall into four job-status x task-status classes; for each
// threshold T the sweep counts, per class, the jobs whose transfer time
// is at most T percent of their queuing time (the cumulative reading of
// Fig. 9: "among jobs where both the job and its task were successful,
// 913 jobs had a transfer-time percentage below 1%...").
#pragma once

#include <array>
#include <span>
#include <vector>

#include "analysis/breakdown.hpp"

namespace pandarus::analysis {

/// Order matches the paper's legend.
enum class StatusClass : std::uint8_t {
  kJobOkTaskOk = 0,
  kJobFailTaskOk = 1,
  kJobOkTaskFail = 2,
  kJobFailTaskFail = 3,
};
inline constexpr std::size_t kStatusClassCount = 4;

[[nodiscard]] StatusClass classify(bool job_failed, bool task_failed) noexcept;

struct ThresholdRow {
  double threshold = 0.0;  ///< fraction in [0, 1]
  /// Cumulative job counts with queue_fraction <= threshold, per class.
  std::array<std::size_t, kStatusClassCount> counts{};
  [[nodiscard]] std::size_t total() const noexcept {
    std::size_t n = 0;
    for (auto c : counts) n += c;
    return n;
  }
};

struct ThresholdSweep {
  std::vector<ThresholdRow> rows;
  std::array<std::size_t, kStatusClassCount> class_totals{};
  std::size_t total_jobs = 0;

  [[nodiscard]] std::size_t successful_jobs() const noexcept {
    return class_totals[0] + class_totals[2];
  }
  /// Jobs with fraction strictly above `threshold` (the paper's "72 jobs
  /// with transfer-time percentage greater than 75%"), per class.
  [[nodiscard]] std::array<std::size_t, kStatusClassCount> above(
      double threshold) const;
};

/// Runs the sweep over the given thresholds (fractions in [0, 1]).
[[nodiscard]] ThresholdSweep run_threshold_sweep(
    std::span<const BreakdownRow> rows, std::span<const double> thresholds);

/// The paper's x-axis: 1%..100% in 1% steps.
[[nodiscard]] std::vector<double> default_thresholds();

}  // namespace pandarus::analysis
