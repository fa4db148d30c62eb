#include "analysis/report_html.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "analysis/breakdown.hpp"
#include "analysis/casestudy.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/summary.hpp"
#include "core/exact.hpp"
#include "core/relaxed.hpp"
#include "dms/did.hpp"
#include "obs/health.hpp"
#include "util/format.hpp"
#include "util/time.hpp"

namespace pandarus::analysis {
namespace {

constexpr std::string_view kTitle = "pandarus campaign report";
constexpr std::string_view kEndsEarly =
    "stream ends early (truncated or still being written): no terminal "
    "log_stats event, so every count below is a floor";
/// Bandwidth sparklines: top-k matched (src, dst) pairs per locality.
constexpr std::size_t kTopPairs = 4;
constexpr util::SimDuration kBandwidthBin = util::hours(1);
/// Rows in each Fig. 5/6-style queuing table.
constexpr std::size_t kBreakdownTopN = 10;
/// Transfer time must exceed this share of queuing time to qualify.
constexpr double kBreakdownMinFraction = 0.1;

std::string esc(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

const char* locality_label(core::LocalityClass c) {
  switch (c) {
    case core::LocalityClass::kAllLocal: return "all-local";
    case core::LocalityClass::kAllRemote: return "all-remote";
    case core::LocalityClass::kMixed: return "mixed";
  }
  return "?";
}

/// Inline SVG polyline sparkline, min-max normalized.
std::string sparkline(const std::vector<double>& values, int width = 260,
                      int height = 48) {
  if (values.empty()) return "<svg class=\"spark\"></svg>";
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  std::ostringstream os;
  os << "<svg class=\"spark\" width=\"" << width << "\" height=\"" << height
     << "\" viewBox=\"0 0 " << width << ' ' << height << "\">"
     << "<polyline fill=\"none\" stroke=\"#2266aa\" stroke-width=\"1.2\" "
        "points=\"";
  const double dx =
      values.size() > 1
          ? static_cast<double>(width - 2) /
                static_cast<double>(values.size() - 1)
          : 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = 1.0 + dx * static_cast<double>(i);
    const double y = 1.0 + (height - 2) * (1.0 - (values[i] - lo) / span);
    if (i != 0) os << ' ';
    os << util::format_fixed(x, 1) << ',' << util::format_fixed(y, 1);
  }
  os << "\"/></svg>";
  return os.str();
}

void write_meta_section(std::ostream& os, const ReplayResult& replay) {
  const auto counts = replay.store.counts();
  os << "<h2>Campaign</h2><table>"
     << "<tr><th>seed</th><td>" << replay.seed << "</td></tr>"
     << "<tr><th>days</th><td>" << util::format_fixed(replay.days, 2)
     << "</td></tr>"
     << "<tr><th>window</th><td>[" << replay.window_begin << ", "
     << replay.window_end << ") ms</td></tr>"
     << "<tr><th>sites</th><td>" << replay.site_names.size() << "</td></tr>"
     << "<tr><th>records</th><td>" << counts.jobs << " jobs, "
     << counts.files << " file rows, " << counts.transfers << " transfers ("
     << counts.transfers_with_taskid << " with taskid)</td></tr>"
     << "<tr><th>event lines</th><td>" << replay.lines_parsed << " parsed, "
     << replay.lines_skipped << " skipped</td></tr>";
  if (replay.log_stats.present) {
    os << "<tr><th>event log</th><td>" << replay.log_stats.events
       << " events, " << replay.log_stats.bytes << " bytes";
    if (replay.log_stats.dropped > 0) {
      os << " <span style=\"color:#b00;font-weight:bold\">("
         << replay.log_stats.dropped
         << " events dropped — stream truncated by max_events; every "
            "count below is a floor)</span>";
    } else {
      os << ", 0 dropped";
    }
    os << "</td></tr>";
  } else {
    // No end-of-stream marker: a cut at a line or chunk boundary
    // replays cleanly, so only the missing log_stats line shows it.
    os << "<tr><th style=\"color:#b00\">event log</th>"
          "<td><span style=\"color:#b00;font-weight:bold\">"
       << kEndsEarly << "</span></td></tr>";
  }
  os << "</table>";

  os << "<h3>Event kinds</h3><table><tr><th>kind</th><th>events</th></tr>";
  for (const auto& [kind, n] : replay.kind_counts) {
    os << "<tr><td>" << esc(kind) << "</td><td>" << n << "</td></tr>";
  }
  os << "</table>";
}

void write_summary_section(std::ostream& os, const ReplayResult& replay,
                           const core::TriMatchResult& tri) {
  const OverallSummary s = overall_summary(replay.store, tri.exact);
  os << "<h2>Matching summary</h2><table>"
     << "<tr><th>matched transfers (exact)</th><td>" << s.matched_transfers
     << " (" << util::format_percent(s.matched_transfer_pct)
     << " of taskid transfers)</td></tr>"
     << "<tr><th>matched jobs (exact)</th><td>" << s.matched_jobs << " ("
     << util::format_percent(s.matched_job_pct) << " of jobs)</td></tr>"
     << "<tr><th>mean queue fraction</th><td>"
     << util::format_percent(s.mean_queue_fraction) << "</td></tr>"
     << "<tr><th>geomean queue fraction</th><td>"
     << util::format_percent(s.geomean_queue_fraction) << "</td></tr></table>";

  const ActivityBreakdown t1 = activity_breakdown(replay.store, tri.exact);
  os << "<h3>Table 1 &mdash; matched transfers by activity</h3>"
     << "<table><tr><th>activity</th><th>matched</th><th>total</th>"
     << "<th>%</th></tr>";
  for (const ActivityRow& row : t1.rows) {
    os << "<tr><td>" << esc(dms::activity_name(row.activity)) << "</td><td>"
       << row.matched << "</td><td>" << row.total << "</td><td>"
       << util::format_percent(row.percentage()) << "</td></tr>";
  }
  os << "<tr><th>total</th><th>" << t1.matched_total << "</th><th>"
     << t1.taskid_total << "</th><th></th></tr></table>";

  const MethodComparison t2 = compare_methods(replay.store, tri);
  os << "<h3>Table 2a &mdash; matched transfers by method</h3>"
     << "<table><tr><th>method</th><th>local</th><th>remote</th>"
     << "<th>total</th><th>%</th></tr>";
  for (const MethodTransferRow& row : t2.transfers) {
    os << "<tr><td>" << core::method_name(row.method) << "</td><td>"
       << row.local << "</td><td>" << row.remote << "</td><td>"
       << row.total() << "</td><td>" << util::format_percent(row.matched_pct)
       << "</td></tr>";
  }
  os << "</table><h3>Table 2b &mdash; matched jobs by method</h3>"
     << "<table><tr><th>method</th><th>all-local</th><th>all-remote</th>"
     << "<th>mixed</th><th>total</th><th>%</th></tr>";
  for (const MethodJobRow& row : t2.jobs) {
    os << "<tr><td>" << core::method_name(row.method) << "</td><td>"
       << row.all_local << "</td><td>" << row.all_remote << "</td><td>"
       << row.mixed << "</td><td>" << row.total() << "</td><td>"
       << util::format_percent(row.matched_pct) << "</td></tr>";
  }
  os << "</table>";
}

void write_bandwidth_section(std::ostream& os, const ReplayResult& replay,
                             const core::TriMatchResult& tri) {
  os << "<h2>Bandwidth of matched transfers (Figs. 7/8)</h2>";
  for (const bool local : {false, true}) {
    os << "<h3>" << (local ? "Local sites" : "Remote pairs") << "</h3>"
       << "<table><tr><th>link</th><th>bytes</th><th>transfers</th>"
       << "<th>peak</th><th>mean</th><th>burstiness</th><th>series</th></tr>";
    for (const PairVolume& pair :
         top_matched_pairs(replay.store, tri.exact, local, kTopPairs)) {
      const auto series = bandwidth_series(replay.store, &tri.exact, pair.src,
                                           pair.dst, kBandwidthBin);
      const SeriesStats stats = series_stats(series);
      std::vector<double> values;
      values.reserve(series.size());
      for (const SeriesPoint& p : series) values.push_back(p.mbps);
      os << "<tr><td>" << esc(replay.site_name(pair.src));
      if (!local) os << " &rarr; " << esc(replay.site_name(pair.dst));
      os << "</td><td>" << util::format_bytes(static_cast<double>(pair.bytes))
         << "</td><td>" << pair.transfers << "</td><td>"
         << util::format_fixed(stats.peak_mbps, 1) << " MBps</td><td>"
         << util::format_fixed(stats.mean_mbps, 1) << " MBps</td><td>"
         << util::format_fixed(stats.burstiness(), 1) << "x</td><td>"
         << sparkline(values) << "</td></tr>";
    }
    os << "</table>";
  }
}

void write_breakdown_section(std::ostream& os, const ReplayResult& replay,
                             const core::TriMatchResult& tri) {
  const std::vector<BreakdownRow> rows =
      build_breakdown(replay.store, tri.exact);
  const BreakdownAggregates agg = aggregate(rows);
  os << "<h2>Queuing-time breakdown (Figs. 5/6)</h2><table>"
     << "<tr><th>mean queue fraction</th><td>"
     << util::format_percent(agg.mean_queue_fraction) << "</td></tr>"
     << "<tr><th>geomean queue fraction</th><td>"
     << util::format_percent(agg.geomean_queue_fraction) << "</td></tr>"
     << "<tr><th>zero-fraction jobs</th><td>" << agg.zero_fraction_jobs
     << "</td></tr>"
     << "<tr><th>size &harr; queuing correlation</th><td>"
     << util::format_fixed(agg.size_queue_correlation, 3) << "</td></tr>"
     << "<tr><th>size &harr; transfer-time correlation</th><td>"
     << util::format_fixed(agg.size_transfer_time_correlation, 3)
     << "</td></tr></table>";

  for (const auto locality :
       {core::LocalityClass::kAllRemote, core::LocalityClass::kAllLocal}) {
    os << "<h3>Top jobs by queuing time &mdash; "
       << locality_label(locality) << "</h3>"
       << "<table><tr><th>pandaid</th><th>queuing</th>"
       << "<th>transfer-in-queue</th><th>fraction</th><th>bytes</th>"
       << "<th>transfers</th><th>spans exec</th></tr>";
    for (const BreakdownRow& row :
         top_by_queuing(rows, locality, kBreakdownMinFraction,
                        kBreakdownTopN)) {
      os << "<tr><td>" << row.pandaid << "</td><td>"
         << util::format_duration(row.queuing_time) << "</td><td>"
         << util::format_duration(row.transfer_time_in_queue) << "</td><td>"
         << util::format_percent(row.queue_fraction) << "</td><td>"
         << util::format_bytes(static_cast<double>(row.transferred_bytes))
         << "</td><td>" << row.transfer_count << "</td><td>"
         << (row.transfer_spans_execution ? "yes" : "no") << "</td></tr>";
    }
    os << "</table>";
  }
}

void write_casestudy_section(std::ostream& os, const ReplayResult& replay,
                             const core::TriMatchResult& tri) {
  os << "<h2>Case studies (Figs. 10&ndash;12)</h2>";
  const CaseStudyExtractor extractor(replay.store, tri);
  struct Entry {
    const char* title;
    std::optional<CaseStudy> cs;
  };
  const Entry entries[] = {
      {"Sequential staging (Fig. 10)", extractor.sequential_staging_case()},
      {"Failed job with spanning transfer (Fig. 11)",
       extractor.failed_spanning_case()},
      {"RM2 redundant transfer set (Fig. 12)",
       extractor.rm2_redundant_case()},
  };
  for (const Entry& e : entries) {
    os << "<h3>" << e.title << "</h3>";
    if (!e.cs) {
      os << "<p>no qualifying job in this campaign</p>";
      continue;
    }
    const telemetry::JobRecord& job =
        replay.store.jobs()[e.cs->match.job_index];
    os << "<p>pandaid " << job.pandaid << " at "
       << esc(replay.site_name(job.computing_site)) << ", method "
       << core::method_name(e.cs->method) << ", "
       << e.cs->match.transfer_indices.size()
       << " matched transfers, throughput spread "
       << util::format_fixed(e.cs->throughput_spread, 1) << "x";
    if (!e.cs->redundant.empty()) {
      os << ", " << e.cs->redundant.size() << " redundant group(s)";
    }
    os << "</p><pre>" << esc(render_timeline(replay.store, e.cs->match))
       << "</pre>";
  }
}

void write_fault_section(std::ostream& os, const ReplayResult& replay) {
  if (replay.fault_windows.empty() && replay.failure_causes.empty()) return;
  os << "<h2>Infrastructure faults</h2>";

  if (!replay.failure_causes.empty()) {
    os << "<h3>Terminal transfer failures by cause</h3>"
       << "<table><tr><th>cause</th><th>transfers</th></tr>";
    for (const auto& [code, n] : replay.failure_causes) {
      const auto err = static_cast<dms::TransferError>(code);
      os << "<tr><td>" << esc(dms::transfer_error_name(err)) << "</td><td>"
         << n << "</td></tr>";
    }
    os << "</table>";
  }

  if (!replay.fault_windows.empty()) {
    // One row per window (the begin transition carries the full span);
    // an inline bar places it within the campaign window.
    os << "<h3>Fault-window timeline</h3>"
       << "<table><tr><th>fault</th><th>target</th><th>window</th>"
       << "<th>timeline</th></tr>";
    const double span = replay.window_end > replay.window_begin
                            ? static_cast<double>(replay.window_end -
                                                  replay.window_begin)
                            : 1.0;
    for (const ReplayResult::FaultWindowEvent& fw : replay.fault_windows) {
      if (!fw.begin) continue;
      std::string target;
      if (fw.site != grid::kUnknownSite) {
        target = replay.site_name(fw.site);
      } else if (fw.src != grid::kUnknownSite) {
        target = replay.site_name(fw.src) + " → " + replay.site_name(fw.dst);
      } else {
        target = "grid-wide";
      }
      const double x0 =
          std::clamp(static_cast<double>(fw.window_begin) / span, 0.0, 1.0);
      const double x1 =
          std::clamp(static_cast<double>(fw.window_end) / span, x0, 1.0);
      os << "<tr><td>" << esc(fw.fault_kind) << "</td><td>" << esc(target)
         << "</td><td>[" << fw.window_begin << ", " << fw.window_end
         << ") ms</td><td><svg width=\"260\" height=\"12\">"
         << "<rect x=\"0\" y=\"4\" width=\"260\" height=\"4\" "
            "fill=\"#eee\"/>"
         << "<rect x=\"" << util::format_fixed(x0 * 260.0, 1)
         << "\" y=\"2\" width=\""
         << util::format_fixed(std::max((x1 - x0) * 260.0, 1.5), 1)
         << "\" height=\"8\" fill=\"#c33\"/></svg></td></tr>";
    }
    os << "</table>";
  }
}

void write_health_section(std::ostream& os, const ReplayResult& replay,
                          const obs::HealthEngine& health) {
  const std::vector<obs::AlertTransition> transitions = health.transitions();
  const std::vector<obs::SloStatus> slos = health.slos();
  const obs::HealthEngine::Counts counts = health.counts();
  os << "<h2>Health (replay-derived detectors)</h2>"
     << "<p>" << counts.observations << " observations, " << counts.fired
     << " alert(s) fired, " << counts.resolved << " resolved, "
     << counts.active_firing << " still firing</p>";

  if (!slos.empty()) {
    os << "<h3>SLO burn rates</h3>"
       << "<table><tr><th>objective</th><th>target</th><th>good</th>"
       << "<th>bad</th><th>burn (fast)</th><th>burn (slow)</th></tr>";
    for (const obs::SloStatus& slo : slos) {
      os << "<tr><td>" << esc(slo.name) << "</td><td>"
         << util::format_fixed(slo.target, 3) << "</td><td>" << slo.good
         << "</td><td>" << slo.bad << "</td><td>"
         << util::format_fixed(slo.burn_fast, 2) << "</td><td>"
         << util::format_fixed(slo.burn_slow, 2) << "</td></tr>";
    }
    os << "</table>";
  }

  if (transitions.empty()) {
    os << "<p>no alert transitions in this stream</p>";
    return;
  }

  // Timeline: one row per (detector, entity); each firing span becomes
  // a bar between the firing and resolved transitions (an unresolved
  // firing extends to the window end).
  struct Span {
    std::int64_t begin = 0;
    std::int64_t end = -1;
    bool critical = false;
  };
  std::map<std::pair<std::string, std::string>, std::vector<Span>> rows;
  for (const obs::AlertTransition& t : transitions) {
    auto& spans = rows[{t.detector, t.entity}];
    if (t.phase == obs::AlertPhase::kFiring) {
      spans.push_back({t.ts, -1, t.severity == "critical"});
    } else if (t.phase == obs::AlertPhase::kResolved && !spans.empty() &&
               spans.back().end < 0) {
      spans.back().end = t.ts;
    }
  }
  const std::int64_t begin = replay.window_begin;
  const std::int64_t end =
      std::max(replay.window_end, begin + 1);
  const double span_ms = static_cast<double>(end - begin);
  os << "<h3>Alert timeline (" << transitions.size() << " transitions)</h3>"
     << "<table><tr><th>detector</th><th>entity</th><th>fires</th>"
     << "<th>timeline</th></tr>";
  for (const auto& [key, spans] : rows) {
    os << "<tr><td>" << esc(key.first) << "</td><td>" << esc(key.second)
       << "</td><td>" << spans.size()
       << "</td><td><svg width=\"260\" height=\"12\">"
       << "<rect x=\"0\" y=\"4\" width=\"260\" height=\"4\" fill=\"#eee\"/>";
    for (const Span& s : spans) {
      const double x0 = std::clamp(
          static_cast<double>(s.begin - begin) / span_ms, 0.0, 1.0);
      const double x1 = std::clamp(
          static_cast<double>((s.end < 0 ? end : s.end) - begin) / span_ms,
          x0, 1.0);
      os << "<rect x=\"" << util::format_fixed(x0 * 260.0, 1)
         << "\" y=\"2\" width=\""
         << util::format_fixed(std::max((x1 - x0) * 260.0, 1.5), 1)
         << "\" height=\"8\" fill=\"" << (s.critical ? "#c33" : "#e90")
         << "\"/>";
    }
    os << "</svg></td></tr>";
  }
  os << "</table>";
}

void write_sampler_section(std::ostream& os, const ReplayResult& replay) {
  if (replay.samples.empty()) return;
  os << "<h2>Sampled time series (" << replay.samples.size() << " ticks, "
     << replay.sample_interval_ms << " ms interval)</h2>"
     << "<table><tr><th>column</th><th>last</th><th>max</th>"
     << "<th>series</th></tr>";
  for (std::size_t c = 0; c < replay.sample_columns.size(); ++c) {
    std::vector<double> values;
    values.reserve(replay.samples.size());
    std::int64_t last = 0;
    std::int64_t max = 0;
    for (const ReplayResult::Sample& row : replay.samples) {
      if (c >= row.values.size()) continue;
      values.push_back(static_cast<double>(row.values[c]));
      last = row.values[c];
      max = std::max(max, row.values[c]);
    }
    os << "<tr><td>" << esc(replay.sample_columns[c]) << "</td><td>"
       << last << "</td><td>" << max << "</td><td>" << sparkline(values)
       << "</td></tr>";
  }
  os << "</table>";
}

void write_flow_section(std::ostream& os, const ReplayResult& replay) {
  // Only meaningful when the stream was recorded with flows armed
  // (PANDARUS_FLOWS): without flow_* lines the replay completes no
  // flows and the section is skipped.
  if (replay.flows->completed().empty()) return;
  const FlowAnalysis flows = analyze_flows(replay);

  os << "<h2>Critical-path wait attribution (causal flows)</h2>"
     << "<p>" << flows.flows.size() << " flows rebuilt from flow_* events; "
     << "per-job wall-clock decomposed into broker | stage-in | queue | "
        "run | stage-out (parts sum to wall exactly)</p>"
     << "<h3>Phase breakdown</h3>"
     << "<table><tr><th>phase</th><th>p50 ms</th><th>p95 ms</th>"
     << "<th>p99 ms</th><th>max ms</th><th>total ms</th></tr>";
  for (const PhaseQuantiles& q : flows.quantiles) {
    os << "<tr><td>" << esc(q.phase) << "</td><td>"
       << util::format_count(q.p50) << "</td><td>"
       << util::format_count(q.p95) << "</td><td>"
       << util::format_count(q.p99) << "</td><td>"
       << util::format_count(q.max) << "</td><td>"
       << util::format_count(q.total_ms) << "</td></tr>";
  }
  os << "</table>";

  os << "<p>failed " << flows.totals.failed << ", sequential staging "
     << flows.totals.sequential_staging << ", redundant transfers "
     << flows.totals.redundant_transfers << ", watchdog releases "
     << flows.totals.watchdog_releases << ", reroutes "
     << flows.totals.reroutes << "</p>";

  if (!flows.link_ranking.empty()) {
    os << "<h3>Top offending links (critical stage-in time)</h3>"
       << "<table><tr><th>rank</th><th>link</th><th>critical ms</th>"
       << "<th>flows</th></tr>";
    const std::size_t n = std::min<std::size_t>(10, flows.link_ranking.size());
    for (std::size_t i = 0; i < n; ++i) {
      const obs::LinkCritical& lc = flows.link_ranking[i];
      os << "<tr><td>" << i + 1 << "</td><td>" << esc(flows.site_label(lc.src))
         << " &rarr; " << esc(flows.site_label(lc.dst)) << "</td><td>"
         << util::format_count(lc.critical_ms) << "</td><td>" << lc.flows
         << "</td></tr>";
    }
    os << "</table>";
  }
}

void write_heatmap_section(std::ostream& os, const ReplayResult& replay) {
  // Site-by-site successful transfer volume, log-scaled (the Fig. 3
  // shape); built straight from the replayed transfer records.
  std::map<std::pair<grid::SiteId, grid::SiteId>, double> volume;
  std::set<grid::SiteId> active;
  for (const telemetry::TransferRecord& t : replay.store.transfers()) {
    if (!t.success) continue;
    volume[{t.source_site, t.destination_site}] +=
        static_cast<double>(t.file_size);
    active.insert(t.source_site);
    active.insert(t.destination_site);
  }
  if (volume.empty()) return;
  const std::vector<grid::SiteId> sites(active.begin(), active.end());
  double log_max = 0.0;
  for (const auto& [key, bytes] : volume) {
    log_max = std::max(log_max, std::log10(bytes + 1.0));
  }
  const std::size_t cell = 12;
  const std::size_t label = 110;
  const std::size_t n = sites.size();
  os << "<h2>Transfer volume heatmap (Fig. 3)</h2>"
     << "<p>source rows &rarr; destination columns, log-scaled bytes; "
        "the dark diagonal is local traffic</p>"
     << "<svg width=\"" << label + n * cell << "\" height=\""
     << n * cell + 8 << "\">";
  for (std::size_t r = 0; r < n; ++r) {
    os << "<text x=\"0\" y=\"" << r * cell + cell - 2
       << "\" font-size=\"9\">" << esc(replay.site_name(sites[r]))
       << "</text>";
    for (std::size_t c = 0; c < n; ++c) {
      const auto it = volume.find({sites[r], sites[c]});
      if (it == volume.end()) continue;
      const double intensity =
          log_max > 0.0 ? std::log10(it->second + 1.0) / log_max : 0.0;
      const int shade = 255 - static_cast<int>(intensity * 215.0);
      os << "<rect x=\"" << label + c * cell << "\" y=\"" << r * cell
         << "\" width=\"" << cell - 1 << "\" height=\"" << cell - 1
         << "\" fill=\"rgb(" << shade << ',' << shade << ",255)\"/>";
    }
  }
  os << "</svg>";
}

}  // namespace

void write_html_report(std::ostream& os, const ReplayResult& replay,
                       const HtmlReportOptions& options) {
  os << "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>"
     << kTitle << "</title><style>"
     << "body{font-family:sans-serif;margin:2em;max-width:70em}"
     << "table{border-collapse:collapse;margin:0.6em 0}"
     << "th,td{border:1px solid #bbb;padding:2px 8px;text-align:left;"
        "font-size:13px}"
     << "th{background:#eef}pre{background:#f6f6f6;padding:8px;"
        "overflow-x:auto;font-size:12px}"
     << "svg.spark{vertical-align:middle}"
     << "</style></head><body><h1>" << kTitle << "</h1>";

  write_meta_section(os, replay);

  if (!replay.store.jobs().empty() || !replay.store.transfers().empty()) {
    const core::Matcher matcher(replay.store);
    const core::TriMatchResult tri = core::run_all_methods(matcher);
    write_summary_section(os, replay, tri);
    write_bandwidth_section(os, replay, tri);
    write_breakdown_section(os, replay, tri);
    write_casestudy_section(os, replay, tri);
  } else {
    os << "<p>stream carried no harvest records; matching skipped</p>";
  }

  write_flow_section(os, replay);
  write_fault_section(os, replay);
  if (options.health != nullptr) {
    write_health_section(os, replay, *options.health);
  }
  write_sampler_section(os, replay);
  write_heatmap_section(os, replay);

  os << "</body></html>\n";
}

}  // namespace pandarus::analysis
