#include "analysis/report.hpp"

#include <ostream>

#include "analysis/bandwidth.hpp"
#include "analysis/breakdown.hpp"
#include "analysis/imbalance.hpp"
#include "analysis/threshold.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace pandarus::analysis {
namespace {

constexpr std::size_t kTopJobs = 10;  // rows in the Fig. 5/6 sections

void heading(std::ostream& os, const char* title) {
  os << "\n== " << title << " "
     << std::string(72 - std::min<std::size_t>(70, 4 + std::char_traits<char>::length(title)), '=')
     << "\n\n";
}

void top_jobs_section(std::ostream& os, const telemetry::MetadataStore& store,
                      const core::TriMatchResult& tri,
                      core::LocalityClass locality, std::size_t top_n) {
  const auto rows = build_breakdown(store, tri.rm1);
  const auto top = top_by_queuing(rows, locality, 0.10, top_n);
  if (top.empty()) {
    os << "(no jobs above the 10% transfer-time threshold)\n";
    return;
  }
  util::Table table({"pandaid", "Status", "Queue", "In transfer", "Share",
                     "Bytes"});
  for (std::size_t c = 2; c <= 5; ++c) table.set_align(c, util::Align::kRight);
  for (const auto& row : top) {
    table.add_row({std::to_string(row.pandaid), row.job_failed ? "F" : "D",
                   util::format_duration(row.queuing_time),
                   util::format_duration(row.transfer_time_in_queue),
                   util::format_percent(row.queue_fraction),
                   util::format_bytes(
                       static_cast<double>(row.transferred_bytes))});
  }
  table.print(os);
}

}  // namespace

void write_campaign_report(std::ostream& os,
                           const telemetry::MetadataStore& store,
                           const grid::Topology& topology,
                           const core::TriMatchResult& tri) {
  os << "PANDARUS CAMPAIGN REPORT\n";
  os << "========================\n";

  heading(os, "Overall matching (paper Section 5.1)");
  print_overall(os, overall_summary(store, tri.exact));

  heading(os, "Activity breakdown of exact matches (Table 1)");
  print_table1(os, activity_breakdown(store, tri.exact));

  heading(os, "Matching methods (Tables 2a/2b)");
  print_table2(os, compare_methods(store, tri));

  heading(os, "Top local-transfer jobs by queuing time (Fig. 5)");
  top_jobs_section(os, store, tri, core::LocalityClass::kAllLocal, kTopJobs);

  heading(os, "Top remote-transfer jobs by queuing time (Fig. 6)");
  top_jobs_section(os, store, tri, core::LocalityClass::kAllRemote, kTopJobs);

  heading(os, "Transfer-time threshold sweep (Fig. 9)");
  {
    const auto rows = build_breakdown(store, tri.exact);
    const auto sweep = run_threshold_sweep(rows, default_thresholds());
    const auto above = sweep.above(core::kExcessiveTransferShare);
    std::size_t above_total = 0;
    for (auto n : above) above_total += n;
    os << "Matched jobs: " << sweep.total_jobs << "; successful "
       << sweep.successful_jobs() << " ("
       << util::format_percent(
              sweep.total_jobs > 0
                  ? static_cast<double>(sweep.successful_jobs()) /
                        static_cast<double>(sweep.total_jobs)
                  : 0.0)
       << ").  Jobs above "
       << util::format_percent(core::kExcessiveTransferShare, 0)
       << " transfer share: " << above_total << ", of which failed "
       << above[1] + above[3] << ".\n";
  }

  heading(os, "Spatial/temporal imbalance (Section 3.2)");
  const auto spatial = spatial_imbalance(store, topology);
  const auto temporal = temporal_imbalance(store);
  os << "Gini(site bytes) = " << util::format_fixed(spatial.gini_bytes, 3)
     << ", Gini(site jobs) = " << util::format_fixed(spatial.gini_jobs, 3)
     << "; top-1 byte share "
     << util::format_percent(spatial.top1_byte_share) << ", top-5 "
     << util::format_percent(spatial.top5_byte_share) << "\n";
  os << "Temporal peak/mean (6h bins): "
     << util::format_fixed(temporal.peak_to_mean(), 2) << "\n";
  const auto errors = error_distribution(store);
  os << "Failed jobs " << errors.total_failed << " of "
     << errors.total_jobs << "; error mix:";
  for (const auto& [code, count] : errors.by_code) {
    os << "  " << code << "=" << util::format_percent(errors.share(code), 0);
  }
  os << "\n";

  heading(os, "Automated anomaly detection (Section 7)");
  const auto report = core::AnomalyDetector().scan(store, tri.rm2);
  util::Table table({"Class", "Flags"});
  table.set_align(1, util::Align::kRight);
  for (std::size_t t = 0; t < core::kAnomalyTypeCount; ++t) {
    table.add_row({core::anomaly_name(static_cast<core::AnomalyType>(t)),
                   util::format_count(std::uint64_t{report.counts[t]})});
  }
  table.print(os);
  os << "Flagged " << report.jobs_flagged << "/" << report.jobs_scanned
     << " matched jobs; failure rate flagged "
     << util::format_percent(report.flagged_failure_rate)
     << " vs unflagged "
     << util::format_percent(report.unflagged_failure_rate) << "\n";

  const CaseStudyExtractor extractor(store, tri);
  heading(os, "Case study: sequential staging (Fig. 10)");
  if (const auto cs = extractor.sequential_staging_case()) {
    os << "(matched by " << core::method_name(cs->method) << ", spread x"
       << util::format_fixed(cs->throughput_spread, 1) << ")\n"
       << render_timeline(store, cs->match);
  } else {
    os << "(no candidate in this campaign)\n";
  }
  heading(os, "Case study: failed job with spanning transfer (Fig. 11)");
  if (const auto cs = extractor.failed_spanning_case()) {
    os << render_timeline(store, cs->match);
  } else {
    os << "(no candidate in this campaign)\n";
  }
  heading(os, "Case study: RM2 redundancy + inference (Fig. 12)");
  if (const auto cs = extractor.rm2_redundant_case()) {
    os << render_transfer_table(store, topology, cs->match);
    std::uint64_t wasted = 0;
    for (const auto& group : cs->redundant) wasted += group.wasted_bytes();
    os << "Avoidable volume in this job: "
       << util::format_bytes(static_cast<double>(wasted)) << "\n";
  } else {
    os << "(no candidate in this campaign)\n";
  }
  os << "\n(end of report)\n";
}

}  // namespace pandarus::analysis
