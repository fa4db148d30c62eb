// Automated anomaly detection — the paper's §7 proposal made concrete:
// "Future efforts should focus on automating anomaly detection based on
// transfer-time thresholds".
//
// Given a matched snapshot, the detector flags the pathologies the
// paper's case studies identified by hand:
//  * excessive transfer share   — transfer time above a threshold
//                                 fraction of queuing time (Fig. 9/10);
//  * spanning transfer          — a matched transfer crossing the job's
//                                 start time (Fig. 11);
//  * redundant delivery         — the same file delivered to the same
//                                 effective destination more than once
//                                 inside the job's matched set (Fig. 12);
//  * stalled throughput         — a matched transfer running far below
//                                 the typical throughput of its link
//                                 (the 17.7x/20x spreads of Figs 10/11);
//  * unknown endpoint           — a matched transfer whose endpoint is
//                                 missing, i.e. inferable metadata debt.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/relaxed.hpp"

namespace pandarus::core {

enum class AnomalyType : std::uint8_t {
  kExcessiveTransferShare = 0,
  kSpanningTransfer = 1,
  kRedundantDelivery = 2,
  kStalledThroughput = 3,
  kUnknownEndpoint = 4,
};
inline constexpr std::size_t kAnomalyTypeCount = 5;

[[nodiscard]] const char* anomaly_name(AnomalyType type) noexcept;

struct Anomaly {
  AnomalyType type = AnomalyType::kExcessiveTransferShare;
  std::size_t job_index = 0;
  std::int64_t pandaid = 0;
  /// Magnitude in the anomaly's natural unit: share in [0,1] for
  /// excessive-transfer, wasted bytes for redundancy, slowdown factor
  /// for stalls, spanned wall-milliseconds for spanning transfers.
  double severity = 0.0;
  bool job_failed = false;
};

struct AnomalyReport {
  std::vector<Anomaly> anomalies;
  std::array<std::size_t, kAnomalyTypeCount> counts{};
  std::size_t jobs_scanned = 0;
  std::size_t jobs_flagged = 0;

  /// Failure rate among flagged vs unflagged jobs: the paper's
  /// "potential relationship between high transfer-time percentages and
  /// elevated error rates" quantified.
  double flagged_failure_rate = 0.0;
  double unflagged_failure_rate = 0.0;
};

/// Jobs whose transfer time exceeds this share of queuing time are
/// flagged as excessive (the paper highlights the >75% population).
inline constexpr double kExcessiveTransferShare = 0.75;

class AnomalyDetector {
 public:
  /// Scans every matched job; pure function of the snapshot.
  [[nodiscard]] AnomalyReport scan(const telemetry::MetadataStore& store,
                                   const MatchResult& result) const;
};

}  // namespace pandarus::core
