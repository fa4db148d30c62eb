#include "analysis/serve_endpoints.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "analysis/summary.hpp"
#include "core/relaxed.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"

namespace pandarus::analysis {
namespace {

using obs::detail::append_json_double;
using obs::detail::append_json_escaped;

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

std::string site_label(const std::map<std::int64_t, std::string>& names,
                       std::int64_t site) {
  const auto it = names.find(site);
  if (it != names.end()) return it->second;
  return "site_" + std::to_string(site);
}

void append_method(std::string& out, const char* name,
                   const core::MatchResult& r) {
  out += '"';
  out += name;
  out += "\":{\"matched_jobs\":";
  out += std::to_string(r.matched_job_count());
  out += ",\"matched_transfers\":";
  out += std::to_string(r.matched_transfer_count());
  out += '}';
}

std::string summary_json(const ReplayResult& replay,
                         const core::TriMatchResult& tri,
                         std::uint64_t watermark, bool closed) {
  const OverallSummary s = overall_summary(replay.store, tri.exact);
  std::string out = "{\"watermark\":" + std::to_string(watermark);
  out += closed ? ",\"closed\":true" : ",\"closed\":false";
  out += ",\"lines_parsed\":" + std::to_string(replay.lines_parsed);
  out += ",\"seed\":" + std::to_string(replay.seed);
  out += ",\"days\":";
  append_json_double(out, replay.days);
  out += ",\"window_begin\":" + std::to_string(replay.window_begin);
  out += ",\"window_end\":" + std::to_string(replay.window_end);
  out += ",\"jobs\":" + std::to_string(s.total_jobs);
  out += ",\"transfers\":" + std::to_string(s.total_transfers);
  out += ",\"transfers_with_taskid\":" +
         std::to_string(s.transfers_with_taskid);
  out += ',';
  append_method(out, "exact", tri.exact);
  out += ',';
  append_method(out, "rm1", tri.rm1);
  out += ',';
  append_method(out, "rm2", tri.rm2);
  out += ",\"matched_transfer_pct\":";
  append_json_double(out, s.matched_transfer_pct);
  out += ",\"matched_job_pct\":";
  append_json_double(out, s.matched_job_pct);
  out += ",\"mean_queue_fraction\":";
  append_json_double(out, s.mean_queue_fraction);
  out += ",\"geomean_queue_fraction\":";
  append_json_double(out, s.geomean_queue_fraction);
  out += "}\n";
  return out;
}

std::string tables_json(const ReplayResult& replay,
                        const core::TriMatchResult& tri,
                        std::uint64_t watermark) {
  const ActivityBreakdown t1 = activity_breakdown(replay.store, tri.exact);
  const MethodComparison t2 = compare_methods(replay.store, tri);
  std::string out = "{\"watermark\":" + std::to_string(watermark);
  out += ",\"table1\":{\"rows\":[";
  for (std::size_t i = 0; i < t1.rows.size(); ++i) {
    const ActivityRow& row = t1.rows[i];
    if (i != 0) out += ',';
    out += "{\"activity\":";
    append_quoted(out, dms::activity_name(row.activity));
    out += ",\"matched\":" + std::to_string(row.matched);
    out += ",\"total\":" + std::to_string(row.total);
    out += ",\"fraction\":";
    append_json_double(out, row.percentage());
    out += '}';
  }
  out += "],\"matched_total\":" + std::to_string(t1.matched_total);
  out += ",\"taskid_total\":" + std::to_string(t1.taskid_total);
  out += "},\"table2a\":[";
  for (std::size_t i = 0; i < t2.transfers.size(); ++i) {
    const MethodTransferRow& row = t2.transfers[i];
    if (i != 0) out += ',';
    out += "{\"method\":";
    append_quoted(out, core::method_name(row.method));
    out += ",\"local\":" + std::to_string(row.local);
    out += ",\"remote\":" + std::to_string(row.remote);
    out += ",\"matched_pct\":";
    append_json_double(out, row.matched_pct);
    out += '}';
  }
  out += "],\"table2b\":[";
  for (std::size_t i = 0; i < t2.jobs.size(); ++i) {
    const MethodJobRow& row = t2.jobs[i];
    if (i != 0) out += ',';
    out += "{\"method\":";
    append_quoted(out, core::method_name(row.method));
    out += ",\"all_local\":" + std::to_string(row.all_local);
    out += ",\"all_remote\":" + std::to_string(row.all_remote);
    out += ",\"mixed\":" + std::to_string(row.mixed);
    out += ",\"matched_pct\":";
    append_json_double(out, row.matched_pct);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string series_json(const ReplayResult& replay, std::uint64_t watermark) {
  std::string out = "{\"watermark\":" + std::to_string(watermark);
  out += ",\"interval_ms\":" + std::to_string(replay.sample_interval_ms);
  out += ",\"columns\":[\"ts\"";
  for (const std::string& column : replay.sample_columns) {
    out += ',';
    append_quoted(out, column);
  }
  out += "],\"rows\":[";
  for (std::size_t i = 0; i < replay.samples.size(); ++i) {
    const ReplayResult::Sample& sample = replay.samples[i];
    if (i != 0) out += ',';
    out += '[' + std::to_string(sample.ts);
    for (const std::int64_t v : sample.values) {
      out += ',' + std::to_string(v);
    }
    out += ']';
  }
  out += "]}\n";
  return out;
}

std::string critical_path_json(
    const obs::FlowTotals& totals,
    const std::vector<obs::LinkCritical>& ranking,
    const std::map<std::int64_t, std::string>& site_names,
    std::uint64_t watermark, bool tracker) {
  std::string out = "{\"watermark\":" + std::to_string(watermark);
  out += tracker ? ",\"tracker\":true" : ",\"tracker\":false";
  out += ",\"flows\":" + std::to_string(totals.flows);
  out += ",\"failed\":" + std::to_string(totals.failed);
  out += ",\"sequential_staging\":" +
         std::to_string(totals.sequential_staging);
  out += ",\"redundant_transfers\":" +
         std::to_string(totals.redundant_transfers);
  out += ",\"watchdog_releases\":" + std::to_string(totals.watchdog_releases);
  out += ",\"reroutes\":" + std::to_string(totals.reroutes);
  out += ",\"links\":[";
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const obs::LinkCritical& link = ranking[i];
    if (i != 0) out += ',';
    out += "{\"src\":" + std::to_string(link.src);
    out += ",\"dst\":" + std::to_string(link.dst);
    out += ",\"src_name\":";
    append_quoted(out, site_label(site_names, link.src));
    out += ",\"dst_name\":";
    append_quoted(out, site_label(site_names, link.dst));
    out += ",\"critical_ms\":" + std::to_string(link.critical_ms);
    out += ",\"flows\":" + std::to_string(link.flows);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::map<std::int64_t, std::string> wide_site_names(
    const ReplayResult& replay) {
  std::map<std::int64_t, std::string> names;
  for (const auto& [id, name] : replay.site_names) {
    names.emplace(static_cast<std::int64_t>(id), name);
  }
  return names;
}

/// Live snapshot folded incrementally: `replay` holds the lines `log`
/// published before `watermark`, read through a registered reader and
/// each folded exactly once, and every /api body except critical-path
/// is rebuilt only when the publication watermark moves.
struct LiveCache {
  explicit LiveCache(obs::EventLog* session_log) : log(session_log) {
    if (log != nullptr) watermark = reader.emplace(*log).position();
  }

  std::mutex mutex;
  bool valid = false;
  obs::EventLog* const log;
  /// Pins the lines it has not read yet, so none is freed unfolded.
  std::optional<obs::EventLog::Reader> reader;
  std::uint64_t watermark = 0;
  ReplayResult replay;
  core::TriMatchResult tri;
  /// Store rows (jobs, files, transfers) `tri` was matched on.
  std::array<std::size_t, 3> matched_rows{};
  std::string summary;
  std::string tables;
  std::string series;
  std::map<std::int64_t, std::string> site_names;
  obs::Counter& replayed_lines = obs::Registry::global().counter(
      "pandarus_serve_replayed_lines_total",
      "Published event lines folded into the live /api cache");

  /// mutex held.  Folds the newly published suffix and rebuilds the
  /// bodies when the watermark moved; no-op otherwise.
  void refresh() {
    if (valid && (log == nullptr || log->watermark() == watermark)) return;
    if (log != nullptr) {
      std::string suffix;
      const std::uint64_t wm = reader->read(suffix);
      std::istringstream in(std::move(suffix));
      const auto source = make_ndjson_source(in);
      while (const util::json::FlatObject* event = source->next()) {
        replay.observe(*event);
      }
      replay.lines_skipped += source->skipped();
      replayed_lines.inc(wm - watermark);
      watermark = wm;
    }
    // Match only once harvest records exist, and again only when they
    // change: the store is empty until the campaign's closing harvest,
    // so matching before that would find nothing.
    const std::array<std::size_t, 3> rows{replay.store.jobs().size(),
                                          replay.store.files().size(),
                                          replay.store.transfers().size()};
    if (rows != matched_rows && (rows[0] > 0 || rows[2] > 0)) {
      const core::Matcher matcher(replay.store);
      tri = core::run_all_methods(matcher);
      matched_rows = rows;
    }
    const bool closed = log != nullptr && log->closed();
    summary = summary_json(replay, tri, watermark, closed);
    tables = tables_json(replay, tri, watermark);
    series = series_json(replay, watermark);
    site_names = wide_site_names(replay);
    valid = true;
  }
};

}  // namespace

void attach_live_status(obs::StatusServer& server,
                        const obs::Session& session) {
  server.attach(session);
  auto cache = std::make_shared<LiveCache>(session.events);
  server.set_json_endpoint("/api/summary", [cache] {
    std::scoped_lock lock(cache->mutex);
    cache->refresh();
    return cache->summary;
  });
  server.set_json_endpoint("/api/tables", [cache] {
    std::scoped_lock lock(cache->mutex);
    cache->refresh();
    return cache->tables;
  });
  server.set_json_endpoint("/api/series", [cache] {
    std::scoped_lock lock(cache->mutex);
    cache->refresh();
    return cache->series;
  });
  const obs::FlowTracker* tracker = session.flows;
  server.set_json_endpoint("/api/critical-path", [cache, tracker] {
    // Totals and ranking come mutex-guarded from the live tracker, so
    // this endpoint is always current; only the site-name resolution
    // rides on the memoized replay.
    obs::FlowTotals totals;
    std::vector<obs::LinkCritical> ranking;
    if (tracker != nullptr) {
      totals = tracker->totals();
      ranking = tracker->link_ranking();
    }
    std::scoped_lock lock(cache->mutex);
    cache->refresh();
    return critical_path_json(totals, ranking, cache->site_names,
                              cache->watermark, tracker != nullptr);
  });
  const obs::HealthEngine* health = session.health;
  server.set_json_endpoint("/api/alerts", [health] {
    // Straight from the session engine's mutex-guarded state — the
    // same document a replay of the published stream derives, which is
    // exactly what the CI parity gate compares.
    if (health != nullptr) return health->status_json();
    return std::string("{\"enabled\":false}");
  });
}

void attach_replay_status(obs::StatusServer& server,
                          std::shared_ptr<const ReplayResult> replay,
                          std::shared_ptr<const std::string> alerts_json) {
  core::TriMatchResult tri;
  const auto counts = replay->store.counts();
  if (counts.jobs > 0 || counts.transfers > 0) {
    const core::Matcher matcher(replay->store);
    tri = core::run_all_methods(matcher);
  }
  const auto watermark =
      static_cast<std::uint64_t>(replay->lines_parsed);
  const bool closed = replay->log_stats.present;
  auto summary = std::make_shared<const std::string>(
      summary_json(*replay, tri, watermark, closed));
  auto tables = std::make_shared<const std::string>(
      tables_json(*replay, tri, watermark));
  auto series = std::make_shared<const std::string>(
      series_json(*replay, watermark));
  auto critical = std::make_shared<const std::string>(critical_path_json(
      replay->flows->totals(), replay->flows->link_ranking(),
      wide_site_names(*replay), watermark, true));
  server.set_json_endpoint("/api/summary", [summary] { return *summary; });
  server.set_json_endpoint("/api/tables", [tables] { return *tables; });
  server.set_json_endpoint("/api/series", [series] { return *series; });
  server.set_json_endpoint("/api/critical-path",
                           [critical] { return *critical; });
  server.set_json_endpoint("/api/alerts", [alerts_json] {
    if (alerts_json != nullptr) return *alerts_json;
    return std::string("{\"enabled\":false}");
  });
}

}  // namespace pandarus::analysis
