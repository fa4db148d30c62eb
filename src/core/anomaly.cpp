#include "core/anomaly.hpp"

#include <algorithm>
#include <map>

#include "util/stats.hpp"

namespace pandarus::core {
namespace {

/// Flag matched transfers slower than median_link_throughput / this.
constexpr double kStallSlowdownFactor = 10.0;
/// Minimum per-link sample before stall detection is meaningful.
constexpr std::size_t kMinLinkSamples = 5;

}  // namespace

const char* anomaly_name(AnomalyType type) noexcept {
  switch (type) {
    case AnomalyType::kExcessiveTransferShare:
      return "excessive transfer share of queuing";
    case AnomalyType::kSpanningTransfer:
      return "transfer spans queuing and execution";
    case AnomalyType::kRedundantDelivery:
      return "redundant delivery of the same file";
    case AnomalyType::kStalledThroughput:
      return "throughput far below link median";
    case AnomalyType::kUnknownEndpoint:
      return "matched transfer with unknown endpoint";
  }
  return "?";
}

AnomalyReport AnomalyDetector::scan(const telemetry::MetadataStore& store,
                                    const MatchResult& result) const {
  AnomalyReport report;
  report.jobs_scanned = result.jobs.size();

  // Per-link median throughput over the *whole* event stream (not just
  // matched transfers), so stall detection has context.
  std::map<std::pair<grid::SiteId, grid::SiteId>, std::vector<double>>
      link_throughputs;
  for (const telemetry::TransferRecord& t : store.transfers()) {
    if (!t.success) continue;
    const double bps = t.throughput_bps();
    if (bps > 0.0) {
      link_throughputs[{t.source_site, t.destination_site}].push_back(bps);
    }
  }
  std::map<std::pair<grid::SiteId, grid::SiteId>, double> link_median;
  for (auto& [key, samples] : link_throughputs) {
    if (samples.size() < kMinLinkSamples) continue;
    link_median[key] = util::quantile(samples, 0.5);
  }

  std::size_t flagged_failed = 0;
  std::size_t unflagged_failed = 0;
  for (const MatchedJob& match : result.jobs) {
    const telemetry::JobRecord& job = store.jobs()[match.job_index];
    const JobTransferMetrics metrics = compute_metrics(store, match);
    bool flagged = false;
    auto emit = [&](AnomalyType type, double severity) {
      Anomaly a;
      a.type = type;
      a.job_index = match.job_index;
      a.pandaid = job.pandaid;
      a.severity = severity;
      a.job_failed = job.failed;
      ++report.counts[static_cast<std::size_t>(type)];
      report.anomalies.push_back(a);
      flagged = true;
    };

    if (metrics.queue_fraction() > kExcessiveTransferShare) {
      emit(AnomalyType::kExcessiveTransferShare, metrics.queue_fraction());
    }
    if (metrics.transfer_spans_execution) {
      emit(AnomalyType::kSpanningTransfer,
           static_cast<double>(metrics.transfer_time_in_wall));
    }

    const auto redundant = find_redundant_transfers(store, match);
    if (!redundant.empty()) {
      std::uint64_t wasted = 0;
      for (const auto& group : redundant) wasted += group.wasted_bytes();
      emit(AnomalyType::kRedundantDelivery, static_cast<double>(wasted));
    }

    bool any_unknown = false;
    double worst_slowdown = 0.0;
    for (std::size_t ti : match.transfer_indices) {
      const telemetry::TransferRecord& t = store.transfers()[ti];
      if (t.source_site == grid::kUnknownSite ||
          t.destination_site == grid::kUnknownSite) {
        any_unknown = true;
      }
      auto it = link_median.find({t.source_site, t.destination_site});
      if (it == link_median.end()) continue;
      const double bps = t.throughput_bps();
      if (bps <= 0.0) continue;
      const double slowdown = it->second / bps;
      if (slowdown > kStallSlowdownFactor) {
        worst_slowdown = std::max(worst_slowdown, slowdown);
      }
    }
    if (worst_slowdown > 0.0) {
      emit(AnomalyType::kStalledThroughput, worst_slowdown);
    }
    if (any_unknown) {
      emit(AnomalyType::kUnknownEndpoint, 1.0);
    }

    if (flagged) {
      ++report.jobs_flagged;
      flagged_failed += job.failed;
    } else {
      unflagged_failed += job.failed;
    }
  }

  report.flagged_failure_rate =
      report.jobs_flagged > 0
          ? static_cast<double>(flagged_failed) /
                static_cast<double>(report.jobs_flagged)
          : 0.0;
  const std::size_t unflagged = report.jobs_scanned - report.jobs_flagged;
  report.unflagged_failure_rate =
      unflagged > 0 ? static_cast<double>(unflagged_failed) /
                          static_cast<double>(unflagged)
                    : 0.0;
  return report;
}

}  // namespace pandarus::core
