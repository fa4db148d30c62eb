// Performance microbenchmarks (google-benchmark) for the library's hot
// paths: index construction, per-method matching (serial and parallel),
// metrics, redundancy scanning and the simulation itself.
//
// Motivated by the paper's §5.5: metadata volume "imposes the need for
// efficient computing for scalability ... such as parallelization".
#include <benchmark/benchmark.h>

#include <fstream>

#include "bench_common.hpp"
#include "pandarus.hpp"

namespace {

using namespace pandarus;

/// Console output plus a machine-readable record per run, written to
/// BENCH_perf.json at exit (override the path with PANDARUS_BENCH_JSON)
/// so CI can archive and diff wall times and matched-job counts.  A
/// process that ran no benchmark (--benchmark_list_tests, a filter that
/// matches nothing) leaves an earlier file in place.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      if (run.iterations > 0) {
        rec.wall_ms = run.real_accumulated_time /
                      static_cast<double>(run.iterations) * 1e3;
      }
      for (const auto& [name, counter] : run.counters) {
        if (name == "matched_jobs") {
          rec.matched_jobs = counter.value;
        } else {
          rec.counters.emplace_back(name, counter.value);
        }
      }
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<bench::BenchRecord> records_;
};

const scenario::ScenarioResult& snapshot() {
  static const scenario::ScenarioResult result = [] {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 1.0;
    config.seed = 7;
    return scenario::run_campaign(config);
  }();
  return result;
}

void BM_MatcherIndexBuild(benchmark::State& state) {
  const auto& store = snapshot().store;
  for (auto _ : state) {
    core::Matcher matcher(store);
    benchmark::DoNotOptimize(&matcher);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(store.transfers().size()));
}
BENCHMARK(BM_MatcherIndexBuild);

void BM_MatcherIndexBuildParallel(benchmark::State& state) {
  const auto& store = snapshot().store;
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::Matcher matcher(store, pool);
    benchmark::DoNotOptimize(&matcher);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(store.transfers().size()));
}
BENCHMARK(BM_MatcherIndexBuildParallel)->Arg(2)->Arg(4);

void BM_MatchRun(benchmark::State& state) {
  const auto& store = snapshot().store;
  const core::Matcher matcher(store);
  const auto options = core::MatchOptions::for_method(
      static_cast<core::MatchMethod>(state.range(0)));
  std::size_t matched = 0;
  for (auto _ : state) {
    const auto result = matcher.run(options);
    matched = result.matched_job_count();
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.jobs().size()));
  state.counters["matched_jobs"] = static_cast<double>(matched);
}
BENCHMARK(BM_MatchRun)->Arg(0)->Arg(1)->Arg(2);

void BM_MatchRunParallel(benchmark::State& state) {
  const auto& store = snapshot().store;
  const core::Matcher matcher(store);
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const core::ParallelMatchDriver driver(matcher, pool);
  for (auto _ : state) {
    const auto result = driver.run(core::MatchOptions::rm2());
    benchmark::DoNotOptimize(result.matched_job_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.jobs().size()));
}
BENCHMARK(BM_MatchRunParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_DiagnoseAllJobs(benchmark::State& state) {
  const auto& store = snapshot().store;
  const core::Matcher matcher(store);
  for (auto _ : state) {
    std::size_t matched = 0;
    for (std::size_t i = 0; i < store.jobs().size(); ++i) {
      matched += matcher.diagnose_job(i, core::MatchOptions::exact())
                     .outcome == core::MatchOutcome::kMatched;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.jobs().size()));
}
BENCHMARK(BM_DiagnoseAllJobs);

void BM_ComputeMetrics(benchmark::State& state) {
  const auto& store = snapshot().store;
  const core::Matcher matcher(store);
  const auto result = matcher.run(core::MatchOptions::rm2());
  for (auto _ : state) {
    util::SimDuration total = 0;
    for (const auto& m : result.jobs) {
      total += core::compute_metrics(store, m).transfer_time_in_queue;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ComputeMetrics);

void BM_GlobalRedundancyScan(benchmark::State& state) {
  const auto& store = snapshot().store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::scan_global_redundancy(store));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(store.transfers().size()));
}
BENCHMARK(BM_GlobalRedundancyScan);

void BM_HeatmapBuild(benchmark::State& state) {
  const auto& result = snapshot();
  for (auto _ : state) {
    const analysis::TransferHeatmap heatmap(result.store, result.topology);
    benchmark::DoNotOptimize(heatmap.summary().total_bytes);
  }
}
BENCHMARK(BM_HeatmapBuild);

/// One fixed campaign per iteration, so the mean does not depend on how
/// many iterations ran.  Hooks off: an empty session keeps these runs
/// out of the env-armed stream, which holds the snapshot campaign only.
void BM_CampaignSimulation(benchmark::State& state) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.1;
  config.seed = 7;
  for (auto _ : state) {
    const auto result = scenario::run_campaign(config, obs::Session{});
    benchmark::DoNotOptimize(result.events_processed);
  }
}
BENCHMARK(BM_CampaignSimulation)->Unit(benchmark::kMillisecond);

// --- colstore: the ROADMAP's telemetry-at-scale path --------------------

/// NDJSON event stream of a small recorded campaign, captured once.
/// The recording runs in a session of its own, so it never pollutes the
/// env-armed stream (PANDARUS_EVENTS/_COL hooks) CI replays and gates
/// on.
const std::string& recorded_ndjson() {
  static const std::string text = [] {
    obs::EventLog log;
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 0.5;
    config.seed = 7;
    const auto result = scenario::run_campaign(config, {.events = &log});
    benchmark::DoNotOptimize(result.events_processed);
    log.close();
    return log.to_ndjson();
  }();
  return text;
}

std::uint64_t ndjson_line_count(const std::string& text) {
  std::uint64_t n = 0;
  for (const char c : text) n += c == '\n';
  return n;
}

void BM_ColstoreEncode(benchmark::State& state) {
  const std::string& text = recorded_ndjson();
  const std::uint64_t events = ndjson_line_count(text);
  const std::string path = "bench-colstore-encode.tmp";
  std::uint64_t col_bytes = 0;
  for (auto _ : state) {
    obs::ColWriter writer(path);
    std::size_t start = 0;
    while (start < text.size()) {
      const std::size_t nl = text.find('\n', start);
      writer.append_ndjson_line(
          std::string_view(text).substr(start, nl - start));
      start = nl + 1;
    }
    writer.close();
    col_bytes = writer.stats().bytes_written;
    benchmark::DoNotOptimize(col_bytes);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate);
  const auto per_event = [events](std::uint64_t bytes) {
    return events != 0
               ? static_cast<double>(bytes) / static_cast<double>(events)
               : 0.0;
  };
  state.counters["col_bytes_per_event"] = per_event(col_bytes);
  state.counters["ndjson_bytes_per_event"] = per_event(text.size());
  state.counters["col_size_ratio"] =
      text.empty() ? 0.0
                   : static_cast<double>(col_bytes) /
                         static_cast<double>(text.size());
}
BENCHMARK(BM_ColstoreEncode)->Unit(benchmark::kMillisecond);

/// Records the 0.5-day `small` campaign through a log whose only sink is
/// colstore: the live encode path, from the Event builder's typed
/// records and with lines freed once written.  The campaign runs in a
/// session of its own, like recorded_ndjson(); events_per_sec counts
/// every line of the stream over the whole record, campaign included.
void BM_ColstoreSinkRecord(benchmark::State& state) {
  const std::string path = "bench-colstore-sink.tmp";
  std::uint64_t events = 0;
  for (auto _ : state) {
    obs::EventSinks sinks;
    sinks.colstore_path = path;
    obs::EventLog log(sinks);
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 0.5;
    config.seed = 7;
    const auto result = scenario::run_campaign(config, {.events = &log});
    benchmark::DoNotOptimize(result.events_processed);
    log.close();
    events = log.watermark();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ColstoreSinkRecord)->Unit(benchmark::kMillisecond);

/// Encoded-once colstore file shared by the scan benches; removed by
/// the last bench registration's teardown (process exit).
const std::string& encoded_colstore() {
  static const std::string path = [] {
    const std::string p = "bench-colstore-scan.tmp";
    obs::ColWriter writer(p);
    const std::string& text = recorded_ndjson();
    std::size_t start = 0;
    while (start < text.size()) {
      const std::size_t nl = text.find('\n', start);
      writer.append_ndjson_line(
          std::string_view(text).substr(start, nl - start));
      start = nl + 1;
    }
    writer.close();
    return p;
  }();
  return path;
}

void BM_ColstoreScan(benchmark::State& state) {
  const std::string& path = encoded_colstore();
  std::uint64_t rows = 0;
  for (auto _ : state) {
    obs::ColReader reader(path);
    obs::DecodedEvent event;
    rows = 0;
    while (reader.next(event)) ++rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ColstoreScan)->Unit(benchmark::kMillisecond);

void BM_ColstoreScanFiltered(benchmark::State& state) {
  const std::string& path = encoded_colstore();
  const std::uint64_t total = ndjson_line_count(recorded_ndjson());
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    obs::ColFilter filter;
    filter.kinds = {"transfer_record"};
    obs::ColReader reader(path, filter);
    obs::DecodedEvent event;
    std::uint64_t rows = 0;
    while (reader.next(event)) ++rows;
    skipped = reader.stats().chunks_skipped;
    benchmark::DoNotOptimize(rows);
  }
  // Throughput counts the events the filter scanned *past*, which is
  // what chunk skipping accelerates.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
  state.counters["chunks_skipped"] = static_cast<double>(skipped);
}
BENCHMARK(BM_ColstoreScanFiltered)->Unit(benchmark::kMillisecond);

// --- report path: replay and health derivation ----------------------------

/// recorded_ndjson() written once to a file, for the sources that open
/// a path.
const std::string& recorded_ndjson_file() {
  static const std::string path = [] {
    const std::string p = "bench-ndjson-replay.tmp";
    std::ofstream(p, std::ios::binary) << recorded_ndjson();
    return p;
  }();
  return path;
}

/// The recorded campaign's NDJSON (Arg 0) or colstore (Arg 1) file.
const std::string& report_input(const benchmark::State& state) {
  return state.range(0) == 0 ? recorded_ndjson_file() : encoded_colstore();
}

/// pandarus-report's replay over the recorded campaign: every event
/// folded into the store, the series and the flows.
void BM_ReplayEvents(benchmark::State& state) {
  const std::string& path = report_input(state);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const analysis::ReplayResult replay = analysis::replay_events_file(path);
    events = replay.lines_parsed;
    benchmark::DoNotOptimize(replay.store.counts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayEvents)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The health-only pass (`pandarus-query alerts`): the kinds the engine
/// reads, out of every event in the file.  events_per_sec counts the
/// whole stream, which is what the kind pre-filter scans past.
void BM_DeriveHealth(benchmark::State& state) {
  const std::string& path = report_input(state);
  const std::uint64_t events = ndjson_line_count(recorded_ndjson());
  std::uint64_t observations = 0;
  for (auto _ : state) {
    const auto engine = analysis::derive_health_file(path);
    observations = engine->counts().observations;
    benchmark::DoNotOptimize(observations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate);
  state.counters["observations"] = static_cast<double>(observations);
}
BENCHMARK(BM_DeriveHealth)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- health detectors + metric query ------------------------------------

/// Synthetic feed through every typed detector path: sampler rows,
/// link probes, breaker transitions, terminal transfers.  Each
/// iteration is one fresh epoch (the ts regression at iteration start
/// exercises the reset path exactly like repeated campaigns do).
void BM_HealthDetectors(benchmark::State& state) {
  constexpr int kTicks = 1000;
  const std::vector<std::string> names = {"jobs_queued", "events_dropped"};
  std::uint64_t fired = 0;
  std::uint64_t observations = 0;
  for (auto _ : state) {
    obs::HealthEngine engine;
    for (int i = 0; i < kTicks; ++i) {
      const std::int64_t ts = 1000 + 1800 * i;
      // Queue depth spikes every 100 ticks.
      const std::int64_t depth = i % 100 == 7 ? 5000 : 40 + i % 5;
      engine.on_sample(ts, names, {depth, 0});
      engine.on_link_sample(ts, i % 8, (i + 1) % 8, i % 4,
                            i % 50 == 3 ? 1.0 : (i % 10) / 20.0);
      engine.on_transfer_terminal(
          ts, i % 7 != 0, i % 21 == 0 ? "stalled_terminal" : "none",
          100 + (i % 1000) * 10);
      if (i % 200 == 0) engine.on_breaker(ts, 0, 1, i % 400 == 0);
    }
    const auto counts = engine.counts();
    fired = counts.fired;
    observations = counts.observations;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(observations));
  state.counters["observations_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(observations),
      benchmark::Counter::kIsRate);
  state.counters["alerts_fired"] = static_cast<double>(fired);
}
BENCHMARK(BM_HealthDetectors)->Unit(benchmark::kMillisecond);

/// Out-of-core metric query scan throughput over the recorded
/// campaign's colstore encoding: filter + bucket + group + quantile,
/// the pandarus-query hot path.
void BM_MetricQueryScan(benchmark::State& state) {
  const std::string& path = encoded_colstore();
  analysis::MetricQuerySpec spec;
  spec.kinds = {"transfer_done"};
  spec.bucket_ms = 3'600'000;
  spec.group_by = {"dst"};
  spec.value_field = "bytes";
  spec.aggregates = {analysis::MetricAggregate::kCount,
                     analysis::MetricAggregate::kSum,
                     analysis::MetricAggregate::kP95};
  std::uint64_t scanned = 0;
  std::uint64_t rows = 0;
  for (auto _ : state) {
    auto source = analysis::open_event_source(path);
    const analysis::MetricQueryResult result =
        analysis::run_metric_query(*source, spec);
    scanned = result.events_scanned;
    rows = result.rows.size();
    benchmark::DoNotOptimize(result.rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scanned));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(scanned),
      benchmark::Counter::kIsRate);
  state.counters["result_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_MetricQueryScan)->Unit(benchmark::kMillisecond);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler scheduler;
    for (int i = 0; i < 10'000; ++i) {
      scheduler.schedule_at((i * 7919) % 100'000, [] {});
    }
    scheduler.run();
    benchmark::DoNotOptimize(scheduler.processed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_SchedulerThroughput);

/// Finish-time churn as the transfer engine makes it: 10,000 live events,
/// each moved three times before it fires, so three of every four pushed
/// entries end up cancelled (the paper-scale campaign: 1.57M of 2.05M).
void BM_SchedulerRescheduleChurn(benchmark::State& state) {
  constexpr int kEvents = 10'000;
  constexpr int kMoves = 3;
  const auto counter = [](const char* name) {
    return obs::Registry::global().snapshot().counter_value(name);
  };
  const std::uint64_t pushed_before =
      counter("pandarus_sim_events_scheduled_total");
  const std::uint64_t cancelled_before =
      counter("pandarus_sim_events_cancelled_total");
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    std::vector<sim::Scheduler::EventHandle> handles;
    handles.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      handles.push_back(
          scheduler.schedule_at((i * 7919) % 100'000, [&fired] { ++fired; }));
    }
    for (int move = 1; move <= kMoves; ++move) {
      for (int i = 0; i < kEvents; ++i) {
        scheduler.reschedule(handles[static_cast<std::size_t>(i)],
                             ((i + move) * 7919) % 100'000);
      }
    }
    scheduler.run();
  }
  benchmark::DoNotOptimize(fired);
  const auto pushed = static_cast<double>(
      counter("pandarus_sim_events_scheduled_total") - pushed_before);
  const auto cancelled = static_cast<double>(
      counter("pandarus_sim_events_cancelled_total") - cancelled_before);
  state.SetItemsProcessed(static_cast<std::int64_t>(pushed));
  state.counters["cancelled_share"] = pushed > 0 ? cancelled / pushed : 0.0;
}
BENCHMARK(BM_SchedulerRescheduleChurn);

}  // namespace

// Expanded BENCHMARK_MAIN so the PANDARUS_METRICS / PANDARUS_TRACE env
// hooks cover the microbenchmarks too (snapshot + Chrome trace at exit).
int main(int argc, char** argv) {
  pandarus::obs::install_env_hooks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!reporter.records().empty()) {
    const char* json_path = std::getenv("PANDARUS_BENCH_JSON");
    pandarus::bench::write_bench_json(
        json_path != nullptr ? json_path : "BENCH_perf.json",
        reporter.records());
  }
  benchmark::Shutdown();
  return 0;
}
