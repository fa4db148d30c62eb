// perfbench: the executable of the end-to-end benchmark (README.md in
// this directory explains the workloads; run.py runs them).  It calls the
// library only through its public entry points and prints one JSON
// object per line on stdout:
//
//   perfbench batch  --seed N --days D --dir DIR
//   perfbench sweep  --seed N --days D --setups K --seconds S  (S: whole
//                    process, setups included)
//   perfbench record --seed N --days D
//   perfbench report --file EVENTS --html OUT [--query 1]
//
// Observability hooks (event sinks, trace recorder) are armed only
// through the PANDARUS_* environment variables, which run.py sets per
// process.  The spans this file opens around each library call land in
// whatever TraceRecorder PANDARUS_TRACE installed, and cost one atomic
// load when none is installed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pandarus.hpp"

namespace {

using namespace pandarus;

constexpr std::uint64_t kDefaultSeed = 20250401;

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `--key value` pairs after the mode word.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) kv_[argv[i] + 2] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback
                           : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> kv_;
};

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += '"';
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Named measurements and output checks of one process, printed as one
/// JSON line.  Timings of library calls go through time(), which also
/// opens a trace span named after the measurement.
class Ledger {
 public:
  void add(const std::string& key, double v) { values_[key] += v; }
  void set(const std::string& key, double v) { values_[key] = v; }
  [[nodiscard]] double get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? 0.0 : it->second;
  }
  void series(const std::string& key, double v) { series_[key].push_back(v); }

  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
  }

  /// Runs `fn` inside a span `name` (category = the library module it
  /// calls) and adds its wall milliseconds to `<name>_ms`.
  template <typename F>
  auto time(const char* name, const char* category, F&& fn) {
    const obs::ScopedSpan span(name, category);
    const double t0 = mono_s();
    auto result = fn();
    add(std::string(name) + "_ms", (mono_s() - t0) * 1000.0);
    return result;
  }

  void print(const char* mode) const {
    std::string out = "{\"mode\":";
    append_json_string(out, mode);
    out += ",\"values\":{";
    bool first = true;
    for (const auto& [key, v] : values_) {
      if (!first) out += ',';
      first = false;
      append_json_string(out, key);
      out += ':' + json_number(v);
    }
    out += "},\"series\":{";
    first = true;
    for (const auto& [key, vs] : series_) {
      if (!first) out += ',';
      first = false;
      append_json_string(out, key);
      out += ":[";
      for (std::size_t i = 0; i < vs.size(); ++i) {
        if (i != 0) out += ',';
        out += json_number(vs[i]);
      }
      out += ']';
    }
    out += "},\"checks\":" + std::to_string(checks_) + ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      if (i != 0) out += ',';
      append_json_string(out, failures_[i]);
    }
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> series_;
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Registry deltas over a stretch of work (counters are process-global
/// and monotonic, so a before/after snapshot isolates the stretch).
class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::Registry::global().snapshot()) {}
  void finish() { after_ = obs::Registry::global().snapshot(); }
  [[nodiscard]] double counter(std::string_view name) const {
    return static_cast<double>(after_.counter_value(name) -
                               before_.counter_value(name));
  }
  [[nodiscard]] double histogram_sum(std::string_view name) const {
    return hist_sum(after_, name) - hist_sum(before_, name);
  }

 private:
  static double hist_sum(const obs::Snapshot& s, std::string_view name) {
    for (const auto& h : s.histograms) {
      if (h.name == name) return h.sum;
    }
    return 0.0;
  }
  obs::Snapshot before_;
  obs::Snapshot after_;
};

/// Wall milliseconds of a fixed computation that uses no library code:
/// fifteen repetitions of open-addressing inserts and lookups in an 8 MB
/// table, then a sort; the median repetition times fifteen.  Its work
/// never changes, so its time tracks only how fast the machine runs at the
/// moment.  Every timed stretch has one run just before and one just
/// after it (the `reference_ms` series), and run.py scales the stretch by
/// their mean.
double reference_ms() {
  constexpr std::size_t kKeys = std::size_t{1} << 18;
  constexpr std::size_t kMapped = std::size_t{1} << 16;
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  constexpr int kReps = 15;
  std::vector<std::uint64_t> keys(kKeys);
  std::vector<std::uint64_t> table(kSlots);
  const auto rep = [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x | 1;  // 0 marks an empty slot
    }
    const auto slot = [](std::uint64_t k) {
      return static_cast<std::size_t>(k * 0x9e3779b97f4a7c15ULL >> 44);
    };
    for (std::size_t i = 0; i < kMapped; ++i) {
      std::size_t s = slot(keys[i]);
      while (table[s] != 0) s = (s + 1) & (kSlots - 1);
      table[s] = keys[i];
    }
    std::size_t hits = 0;
    for (const std::uint64_t k : keys) {
      for (std::size_t s = slot(k); table[s] != 0; s = (s + 1) & (kSlots - 1)) {
        if (table[s] == k) {
          ++hits;
          break;
        }
      }
    }
    std::fill(table.begin(), table.end(), 0);
    std::sort(keys.begin(), keys.begin() + kMapped);
    if (hits != kMapped) std::abort();  // xorshift keys are distinct
  };
  rep();  // untimed: faults the buffers in
  // The median repetition ignores a spike that hits one of them.
  std::vector<double> ms;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = mono_s();
    rep();
    ms.push_back((mono_s() - t0) * 1000.0);
  }
  std::nth_element(ms.begin(), ms.begin() + kReps / 2, ms.end());
  return ms[kReps / 2] * kReps;
}

/// Marks the end of set-up (run.py times setup_s from process spawn to
/// here) and runs the reference loop that opens the timed phase.
void start_timed_phase(Ledger& ledger) {
  ledger.set("mono_setup_end", mono_s());
  ledger.series("reference_ms", reference_ms());
}

scenario::ScenarioConfig campaign_config(const Args& args) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::paper_scale();
  config.seed = args.u64("seed", kDefaultSeed);
  config.days = args.num("days", config.days);
  return config;
}

bool same_result(const core::MatchResult& a, const core::MatchResult& b) {
  if (a.jobs_considered != b.jobs_considered || a.jobs.size() != b.jobs.size())
    return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const core::MatchedJob& x = a.jobs[i];
    const core::MatchedJob& y = b.jobs[i];
    if (x.job_index != y.job_index || x.transfer_indices != y.transfer_indices ||
        x.local_transfers != y.local_transfers ||
        x.remote_transfers != y.remote_transfers)
      return false;
  }
  return true;
}

/// Every job `inner` matched is matched by `outer` with a superset of
/// transfers.
bool nested(const core::MatchResult& inner, const core::MatchResult& outer) {
  std::unordered_map<std::size_t, const core::MatchedJob*> by_job;
  for (const core::MatchedJob& j : outer.jobs) by_job[j.job_index] = &j;
  for (const core::MatchedJob& j : inner.jobs) {
    const auto it = by_job.find(j.job_index);
    if (it == by_job.end()) return false;
    std::vector<std::size_t> a = j.transfer_indices;
    std::vector<std::size_t> b = it->second->transfer_indices;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (!std::includes(b.begin(), b.end(), a.begin(), a.end())) return false;
  }
  return true;
}

core::TriMatchResult match_serial(Ledger& ledger, const core::Matcher& m) {
  core::TriMatchResult tri;
  tri.exact = ledger.time("core.match_exact", "core",
                          [&] { return m.run(core::MatchOptions::exact()); });
  tri.rm1 = ledger.time("core.match_rm1", "core",
                        [&] { return m.run(core::MatchOptions::rm1()); });
  tri.rm2 = ledger.time("core.match_rm2", "core",
                        [&] { return m.run(core::MatchOptions::rm2()); });
  return tri;
}

core::TriMatchResult match_parallel(Ledger& ledger, const core::Matcher& m,
                                    parallel::ThreadPool& pool) {
  return ledger.time("core.match_parallel", "core", [&] {
    const core::ParallelMatchDriver runner(m, pool);
    core::TriMatchResult tri;
    tri.exact = runner.run(core::MatchOptions::exact());
    tri.rm1 = runner.run(core::MatchOptions::rm1());
    tri.rm2 = runner.run(core::MatchOptions::rm2());
    return tri;
  });
}

/// Serial == parallel for every method, and exact ⊆ RM1 ⊆ RM2 per job.
void check_matches(Ledger& ledger, const core::TriMatchResult& serial,
                   const core::TriMatchResult& par) {
  ledger.check(same_result(serial.exact, par.exact), "parallel exact == serial");
  ledger.check(same_result(serial.rm1, par.rm1), "parallel rm1 == serial");
  ledger.check(same_result(serial.rm2, par.rm2), "parallel rm2 == serial");
  ledger.check(nested(serial.exact, serial.rm1), "exact subset of rm1");
  ledger.check(nested(serial.rm1, serial.rm2), "rm1 subset of rm2");
}

void record_campaign_stats(Ledger& ledger,
                           const scenario::ScenarioResult& result) {
  ledger.set("sim.events_processed",
             static_cast<double>(result.events_processed));
  ledger.set("wms.jobs_finished", static_cast<double>(result.panda.finished));
  ledger.set("wms.jobs_failed", static_cast<double>(result.panda.failed));
  ledger.set("dms.transfers_submitted",
             static_cast<double>(result.transfers.submitted));
  ledger.set("dms.transfers_failed",
             static_cast<double>(result.transfers.failed));
  ledger.set("dms.retries", static_cast<double>(result.transfers.retries));
  ledger.set("dms.bytes_moved", static_cast<double>(result.transfers.bytes_moved));
  ledger.set("telemetry.store_jobs",
             static_cast<double>(result.store.jobs().size()));
  ledger.set("telemetry.store_transfers",
             static_cast<double>(result.store.transfers().size()));
  // result.drained is not checked: whether the scheduler empties within
  // the fixed three-day grace window depends on the seed (a 2-day
  // campaign at some seeds still holds events), so it describes the
  // simulated run rather than the correctness of its outputs.
  ledger.check(!result.store.jobs().empty() && !result.store.transfers().empty(),
               "campaign produced records");
}

void record_match_counts(Ledger& ledger, const core::TriMatchResult& tri) {
  ledger.set("matched.exact", static_cast<double>(tri.exact.matched_job_count()));
  ledger.set("matched.rm1", static_cast<double>(tri.rm1.matched_job_count()));
  ledger.set("matched.rm2", static_cast<double>(tri.rm2.matched_job_count()));
}

// --- batch: the paper's §5 study, hooks off ---------------------------------

int run_batch(const Args& args) {
  Ledger ledger;
  const scenario::ScenarioConfig config = campaign_config(args);
  const std::string report_path = args.str("dir", ".") + "/campaign_report.txt";
  start_timed_phase(ledger);
  const double t0 = mono_s();

  const scenario::ScenarioResult result = ledger.time(
      "scenario.run_campaign", "scenario",
      [&] { return scenario::run_campaign(config); });
  RegistryDelta registry;
  const auto matcher = ledger.time("core.index_build", "core", [&] {
    return std::make_unique<core::Matcher>(result.store);
  });
  const core::TriMatchResult tri = match_serial(ledger, *matcher);
  registry.finish();
  const core::AnomalyReport anomalies =
      ledger.time("core.anomaly", "core", [&] {
        return core::AnomalyDetector().scan(result.store, tri.exact);
      });
  const core::GlobalRedundancy redundancy =
      ledger.time("core.redundancy", "core", [&] {
        return core::scan_global_redundancy(result.store, util::hours(6));
      });
  const bool report_ok =
      ledger.time("analysis.campaign_report", "analysis", [&] {
        std::ofstream out(report_path);
        analysis::write_campaign_report(out, result.store, result.topology,
                                        tri);
        out.close();
        return out.good();
      });
  ledger.set("wall_ms", (mono_s() - t0) * 1000.0);
  ledger.series("reference_ms", reference_ms());

  // Output checks, outside the timed phase.
  ledger.check(report_ok, "campaign report written");
  ledger.check(anomalies.jobs_scanned == tri.exact.matched_job_count(),
               "anomaly detector scanned every exact-matched job");
  ledger.check(redundancy.groups <= redundancy.redundant_transfers,
               "redundancy groups <= redundant transfers");
  record_campaign_stats(ledger, result);
  record_match_counts(ledger, tri);
  ledger.set("core.candidates_scanned",
             registry.counter("pandarus_match_candidates_scanned_total"));
  ledger.set("core.match_yield",
             tri.exact.jobs_considered == 0
                 ? 0.0
                 : static_cast<double>(tri.exact.matched_job_count()) /
                       static_cast<double>(tri.exact.jobs_considered));

  parallel::ThreadPool pool;
  RegistryDelta pool_delta;
  const auto pool_matcher = ledger.time("core.index_build_pool", "core", [&] {
    return std::make_unique<core::Matcher>(result.store, pool);
  });
  const core::TriMatchResult par = match_parallel(ledger, *pool_matcher, pool);
  pool_delta.finish();
  check_matches(ledger, tri, par);
  ledger.set("parallel.pool_tasks",
             pool_delta.counter("pandarus_pool_tasks_executed_total"));
  ledger.set("parallel.pool_wait_ms",
             1000.0 * pool_delta.histogram_sum("pandarus_pool_task_wait_seconds"));
  ledger.print("batch");
  return 0;
}

// --- sweep: corruption scales over one clean store ---------------------------

telemetry::CorruptionParams scaled(telemetry::CorruptionParams c, double s) {
  const auto f = [s](double p) { return std::min(1.0, p * s); };
  c.p_drop_transfer_taskid = f(c.p_drop_transfer_taskid);
  c.p_unknown_source = f(c.p_unknown_source);
  c.p_unknown_destination = f(c.p_unknown_destination);
  c.p_size_jitter = f(c.p_size_jitter);
  c.p_drop_file_record = f(c.p_drop_file_record);
  c.p_drop_job_record = f(c.p_drop_job_record);
  c.p_size_jitter_bad_site = f(c.p_size_jitter_bad_site);
  c.p_unknown_endpoint_bad_site_tasked = f(c.p_unknown_endpoint_bad_site_tasked);
  c.p_unknown_endpoint_bad_site_anonymous =
      f(c.p_unknown_endpoint_bad_site_anonymous);
  return c;
}

int run_sweep(const Args& args) {
  const double process_start = mono_s();
  Ledger ledger;
  // The substrate is the paper's campaign at its own seed and --seed draws
  // the corruption, so every seed sweeps the same store and the same
  // amount of matching work.
  scenario::ScenarioConfig config = campaign_config(args);
  const std::uint64_t corruption_seed = config.seed;
  config.seed = kDefaultSeed;
  config.apply_corruption = false;
  const auto setups = std::max<std::uint64_t>(1, args.u64("setups", 1));
  const double seconds = args.num("seconds", 10.0);
  constexpr double kScales[] = {0.5, 1.0, 2.0, 4.0};

  std::optional<scenario::ScenarioResult> clean;
  for (std::uint64_t i = 0; i < setups; ++i) {
    ledger.series("reference_ms", reference_ms());
    const double t = mono_s();
    clean.reset();
    clean = ledger.time("scenario.run_campaign", "scenario",
                        [&] { return scenario::run_campaign(config); });
    ledger.series("setup_ms", (mono_s() - t) * 1000.0);
  }
  record_campaign_stats(ledger, *clean);
  parallel::ThreadPool pool;

  // Per-layer values below are per pass over all scales.
  Ledger layers;
  RegistryDelta registry;
  std::size_t passes = 0;
  std::size_t matched_exact = 0;
  std::size_t considered = 0;
  // The passes fill what the setups left of the `seconds` budget.
  while (passes == 0 || mono_s() - process_start < seconds) {
    ledger.series("reference_ms", reference_ms());
    double pass_ms = 0.0;
    for (std::size_t k = 0; k < std::size(kScales); ++k) {
      const double t0 = mono_s();
      const telemetry::MetadataStore store =
          layers.time("telemetry.corrupt", "telemetry", [&] {
            telemetry::MetadataStore copy = clean->store;
            telemetry::inject_corruption(
                copy, scaled(config.corruption, kScales[k]),
                util::Rng(util::hash_mix(corruption_seed, 0xc0de, k)));
            return copy;
          });
      const auto matcher = layers.time("core.index_build", "core", [&] {
        return std::make_unique<core::Matcher>(store);
      });
      const auto pool_matcher = layers.time("core.index_build_pool", "core", [&] {
        return std::make_unique<core::Matcher>(store, pool);
      });
      const core::TriMatchResult tri = match_serial(layers, *matcher);
      const core::TriMatchResult par =
          match_parallel(layers, *pool_matcher, pool);
      const std::size_t diagnosed_matched =
          layers.time("core.diagnose", "core", [&] {
            std::size_t n = 0;
            for (std::size_t j = 0; j < store.jobs().size(); ++j) {
              n += matcher->diagnose_job(j, core::MatchOptions::exact())
                           .outcome == core::MatchOutcome::kMatched;
            }
            return n;
          });
      pass_ms += (mono_s() - t0) * 1000.0;

      check_matches(ledger, tri, par);
      ledger.check(diagnosed_matched == tri.exact.matched_job_count(),
                   "diagnose kMatched count == exact matched jobs");
      matched_exact += tri.exact.matched_job_count();
      considered += tri.exact.jobs_considered;
    }
    ledger.series("wall_ms", pass_ms);
    ++passes;
  }
  // Closes the bracket of the last pass: reference_ms[i] and [i + 1]
  // surround setup i, then pass i - setups.
  ledger.series("reference_ms", reference_ms());
  registry.finish();
  for (const char* key :
       {"telemetry.corrupt_ms", "core.index_build_ms", "core.index_build_pool_ms",
        "core.match_exact_ms", "core.match_rm1_ms", "core.match_rm2_ms",
        "core.match_parallel_ms", "core.diagnose_ms"}) {
    ledger.set(key, layers.get(key) / static_cast<double>(passes));
  }
  const auto per_pass = [&](double v) { return v / static_cast<double>(passes); };
  ledger.set("core.candidates_scanned",
             per_pass(registry.counter("pandarus_match_candidates_scanned_total")));
  ledger.set("core.match_yield", considered == 0
                                     ? 0.0
                                     : static_cast<double>(matched_exact) /
                                           static_cast<double>(considered));
  ledger.set("parallel.pool_tasks",
             per_pass(registry.counter("pandarus_pool_tasks_executed_total")));
  ledger.set("parallel.pool_wait_ms",
             per_pass(1000.0 * registry.histogram_sum(
                                   "pandarus_pool_task_wait_seconds")));
  ledger.set("passes", static_cast<double>(passes));
  ledger.print("sweep");
  return 0;
}

// --- record: one campaign with the event sinks armed by the environment ------

double g_record_start = 0.0;
double g_campaign_end = 0.0;

/// Runs after the hooks' exit dumps: both event files are complete on
/// disk by now.  The reference loop after the record closes its bracket.
void print_record_exit() {
  const double done = mono_s();
  const double reference_after = reference_ms();
  std::printf(
      "{\"mode\":\"record_exit\",\"values\":{\"record_ms\":%.17g,"
      "\"obs.sink_close_ms\":%.17g,\"reference_after_ms\":%.17g}}\n",
      (done - g_record_start) * 1000.0, (done - g_campaign_end) * 1000.0,
      reference_after);
  std::fflush(stdout);
}

int run_record(const Args& args) {
  Ledger ledger;
  const scenario::ScenarioConfig config = campaign_config(args);
  start_timed_phase(ledger);
  g_record_start = mono_s();
  const scenario::ScenarioResult result = ledger.time(
      "scenario.run_campaign", "scenario",
      [&] { return scenario::run_campaign(config); });
  g_campaign_end = mono_s();
  record_campaign_stats(ledger, result);
  ledger.print("record");
  return 0;
}

// --- report: the pandarus-report path over one recorded file -----------------

int run_report(const Args& args) {
  Ledger ledger;
  const std::string file = args.str("file");
  const std::string html = args.str("html");
  start_timed_phase(ledger);
  const double t0 = mono_s();

  const analysis::ReplayResult replay = ledger.time(
      "analysis.replay", "analysis",
      [&] { return analysis::replay_events_file(file); });
  const std::unique_ptr<obs::HealthEngine> health =
      ledger.time("analysis.derive_health", "analysis",
                  [&] { return analysis::derive_health_file(file); });
  const bool html_ok = ledger.time("analysis.html_report", "analysis", [&] {
    std::ofstream out(html);
    analysis::HtmlReportOptions options;
    options.health = health.get();
    analysis::write_html_report(out, replay, options);
    out.close();
    return out.good();
  });
  ledger.set("wall_ms", (mono_s() - t0) * 1000.0);
  ledger.series("reference_ms", reference_ms());

  ledger.check(replay.lines_parsed > 0 && replay.lines_skipped == 0,
               "replay parsed every event");
  ledger.check(health != nullptr, "health derived");
  ledger.check(html_ok, "html report written");
  ledger.check(replay.log_stats.present && replay.log_stats.dropped == 0,
               "stream closed by log_stats, nothing dropped");
  ledger.set("replay_events", static_cast<double>(replay.lines_parsed));
  ledger.set("obs.events_written", static_cast<double>(replay.log_stats.events));
  ledger.set("obs.events_dropped", static_cast<double>(replay.log_stats.dropped));

  if (args.u64("query", 0) != 0) {
    // One out-of-core query: events per kind per simulated day.
    const analysis::MetricQueryResult query =
        ledger.time("analysis.metric_query", "analysis", [&] {
          analysis::MetricQuerySpec spec;
          spec.bucket_ms = util::days(1);
          spec.group_by = {"kind"};
          const auto source = analysis::open_event_source(file);
          return source == nullptr ? analysis::MetricQueryResult{}
                                   : analysis::run_metric_query(*source, spec);
        });
    ledger.check(query.source_error.empty() &&
                     query.events_scanned == replay.lines_parsed,
                 "metric query scanned every replayed event");
  }

  if (obs::is_colstore_file(file)) {
    // Kind-filtered scan: how much of the file the footer index skips.
    obs::ColFilter filter;
    filter.kinds = {"transfer_record"};
    obs::ColReader reader(file, filter);
    obs::DecodedEvent event;
    std::size_t rows = 0;
    while (reader.next(event)) ++rows;
    const auto& stats = reader.stats();
    ledger.check(reader.ok() && rows == replay.store.transfers().size(),
                 "colstore kind scan finds every transfer_record");
    const double chunks =
        static_cast<double>(stats.chunks_read + stats.chunks_skipped);
    ledger.set("obs.colstore_chunks_skipped_ratio",
               chunks == 0.0 ? 0.0
                             : static_cast<double>(stats.chunks_skipped) / chunks);
  }

  const core::Matcher matcher(replay.store);
  record_match_counts(ledger, core::run_all_methods(matcher));
  ledger.print("report");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const Args args(argc, argv);
  // The record timer goes first: exit handlers run in reverse order, so
  // it fires after the hooks' exit dumps have closed the event files.
  if (mode == "record") std::atexit(print_record_exit);
  obs::install_env_hooks();
  if (mode == "batch") return run_batch(args);
  if (mode == "sweep") return run_sweep(args);
  if (mode == "record") return run_record(args);
  if (mode == "report") return run_report(args);
  std::fprintf(stderr,
               "usage: perfbench batch|sweep|record|report [--key value]...\n");
  return 2;
}
