#include "analysis/threshold.hpp"

namespace pandarus::analysis {

StatusClass classify(bool job_failed, bool task_failed) noexcept {
  if (!job_failed && !task_failed) return StatusClass::kJobOkTaskOk;
  if (job_failed && !task_failed) return StatusClass::kJobFailTaskOk;
  if (!job_failed && task_failed) return StatusClass::kJobOkTaskFail;
  return StatusClass::kJobFailTaskFail;
}

std::array<std::size_t, kStatusClassCount> ThresholdSweep::above(
    double threshold) const {
  std::array<std::size_t, kStatusClassCount> out{};
  // Find the row at this threshold (or the closest below) and subtract
  // its cumulative counts from the class totals.
  const ThresholdRow* best = nullptr;
  for (const ThresholdRow& row : rows) {
    if (row.threshold <= threshold &&
        (best == nullptr || row.threshold > best->threshold)) {
      best = &row;
    }
  }
  for (std::size_t c = 0; c < kStatusClassCount; ++c) {
    out[c] = class_totals[c] - (best != nullptr ? best->counts[c] : 0);
  }
  return out;
}

ThresholdSweep run_threshold_sweep(std::span<const BreakdownRow> rows,
                                   std::span<const double> thresholds) {
  ThresholdSweep sweep;
  sweep.total_jobs = rows.size();
  for (const BreakdownRow& row : rows) {
    ++sweep.class_totals[static_cast<std::size_t>(
        classify(row.job_failed, row.task_failed))];
  }
  for (double t : thresholds) {
    ThresholdRow out;
    out.threshold = t;
    for (const BreakdownRow& row : rows) {
      if (row.queue_fraction <= t) {
        ++out.counts[static_cast<std::size_t>(
            classify(row.job_failed, row.task_failed))];
      }
    }
    sweep.rows.push_back(out);
  }
  return sweep;
}

std::vector<double> default_thresholds() {
  std::vector<double> out;
  out.reserve(100);
  for (int pct = 1; pct <= 100; ++pct) {
    out.push_back(static_cast<double>(pct) / 100.0);
  }
  return out;
}

}  // namespace pandarus::analysis
