// Event-log and replay tests: NDJSON round-trip (multi-threaded emit,
// overflow), sampler/event-stream determinism (a traced run must produce
// byte-identical NDJSON to an untraced one), the replay cross-check
// (analyses on an events-rebuilt store must equal the in-memory ones),
// one-pass replay + health parity with the two-pass path, the health
// pass's kind pre-filter and damage reporting, and the report's flag on
// a stream cut where its format shows no damage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "analysis/breakdown.hpp"
#include "analysis/casestudy.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "analysis/report_html.hpp"
#include "analysis/summary.hpp"
#include "core/parallel_driver.hpp"
#include "core/relaxed.hpp"
#include "json_validator.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/campaign.hpp"
#include "telemetry/io.hpp"
#include "util/json.hpp"

namespace {

using namespace pandarus;
using JsonValidator = pandarus::testing::JsonValidator;

std::vector<std::string> split_lines(const std::string& ndjson) {
  std::vector<std::string> lines;
  std::istringstream in(ndjson);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- round trip -------------------------------------------------------------

TEST(EventLog, RoundTripsThroughJsonParser) {
  obs::EventLog log;
  log.emit(obs::Event("unit", 1234, std::int64_t{42})
               .field("count", std::uint64_t{7})
               .field("ratio", 0.25)
               .field("ok", true)
               .field("name", "alpha \"quoted\"\n\ttab")
               .field("big", std::int64_t{1} << 60));

  ASSERT_EQ(log.event_count(), 1u);
  const auto lines = split_lines(log.to_ndjson());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonValidator(lines[0]).valid()) << lines[0];

  const auto value = util::json::parse(lines[0]);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->get_string("kind"), "unit");
  EXPECT_EQ(value->get_int("ts"), 1234);
  EXPECT_EQ(value->get_int("entity"), 42);
  EXPECT_EQ(value->get_int("count"), 7);
  EXPECT_DOUBLE_EQ(value->get_double("ratio"), 0.25);
  EXPECT_TRUE(value->get_bool("ok"));
  EXPECT_EQ(value->get_string("name"), "alpha \"quoted\"\n\ttab");
  // SimTime-scale integers must round-trip losslessly (past double's
  // 2^53 mantissa).
  EXPECT_EQ(value->get_int("big"), std::int64_t{1} << 60);
}

TEST(EventLog, MultiThreadedEmitKeepsEveryLineWellFormed) {
  obs::EventLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;  // crosses the drain-batch boundary
  {
    parallel::ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&log, t] {
        for (int i = 0; i < kPerThread; ++i) {
          log.emit(
              obs::Event("mt", i, std::int64_t{t}).field("i", std::int64_t{i}));
        }
      }));
    }
    for (auto& f : futures) f.get();
    pool.wait_idle();
  }

  EXPECT_EQ(log.event_count(), std::size_t{kThreads} * kPerThread);
  EXPECT_EQ(log.dropped(), 0u);
  const auto lines = split_lines(log.to_ndjson());
  ASSERT_EQ(lines.size(), std::size_t{kThreads} * kPerThread);
  for (const std::string& line : lines) {
    ASSERT_TRUE(JsonValidator(line).valid()) << line;
  }
}

TEST(EventLog, OverflowDropsCountedAndStreamStaysValid) {
  obs::EventLog log(/*max_events=*/8);
  for (int i = 0; i < 20; ++i) {
    log.emit(obs::Event("tiny", i, std::int64_t{i}));
  }
  EXPECT_EQ(log.event_count(), 8u);
  EXPECT_EQ(log.dropped(), 12u);
  for (const std::string& line : split_lines(log.to_ndjson())) {
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
  }
}

TEST(EventLog, DisabledMeansNoRecording) {
  obs::EventLog log;
  EXPECT_EQ(log.event_count(), 0u);
  EXPECT_EQ(log.to_ndjson(), "");
}

// --- sampler ----------------------------------------------------------------

TEST(Sampler, ColumnsAndEmittedRowsAgree)
{
  obs::EventLog log;
  obs::Sampler sampler(1000, &log);
  std::int64_t tick = 0;
  sampler.add_column("tick", [&tick] { return tick; });
  sampler.add_column("twice", [&tick] { return 2 * tick; });
  for (tick = 1; tick <= 3; ++tick) sampler.sample_at(tick * 1000);

  EXPECT_EQ(sampler.ticks(), 3);
  EXPECT_EQ(sampler.columns(), (std::vector<std::string>{"tick", "twice"}));

  const auto lines = split_lines(log.to_ndjson());
  ASSERT_EQ(lines.size(), 3u);
  const auto value = util::json::parse(lines[1]);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->get_string("kind"), "sample");
  EXPECT_EQ(value->get_int("ts"), 2000);
  EXPECT_EQ(value->get_int("entity"), 1);  // tick index
  EXPECT_EQ(value->get_int("tick"), 2);
  EXPECT_EQ(value->get_int("twice"), 4);
  const auto last = util::json::parse(lines[2]);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->get_int("ts"), 3000);
  EXPECT_EQ(last->get_int("tick"), 3);
  EXPECT_EQ(last->get_int("twice"), 6);
}

// --- determinism ------------------------------------------------------------

// A wall-clock-traced run must emit byte-identical NDJSON to an
// untraced one: events carry simulated time only, probes are read-only,
// and the ParallelMatchDriver post-pass must not perturb the stream.
TEST(EventsDeterminism, TracedAndUntracedRunsEmitIdenticalNdjson) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.5;
  config.seed = 20250401;

  const auto run_once = [&config](bool traced) {
    // The sampler snapshots global registry counters; zero them so the
    // second run starts from the same baseline as the first.
    obs::Registry::global().reset_for_test();
    obs::TraceRecorder recorder;
    if (traced) recorder.install();
    obs::EventLog log;
    const scenario::ScenarioResult result =
        scenario::run_campaign(config, {.events = &log});
    parallel::ThreadPool pool(4);
    const core::Matcher matcher(result.store, pool);
    const core::MatchResult exact =
        core::ParallelMatchDriver(matcher, pool).run(core::MatchOptions::exact());
    if (traced) recorder.uninstall();
    return std::tuple{log.to_ndjson(), exact.matched_job_count()};
  };

  const auto [plain_ndjson, plain_matched] = run_once(false);
  const auto [traced_ndjson, traced_matched] = run_once(true);

  EXPECT_GT(plain_ndjson.size(), 0u);
  EXPECT_EQ(plain_matched, traced_matched);
  EXPECT_EQ(plain_ndjson, traced_ndjson);
}

// --- replay cross-check -----------------------------------------------------

TEST(EventsReplay, ReplayedStoreReproducesInMemoryAnalyses) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.5;
  config.seed = 20250401;

  obs::EventLog log;
  const scenario::ScenarioResult result =
      scenario::run_campaign(config, {.events = &log});

  std::istringstream stream(log.to_ndjson());
  const analysis::ReplayResult replay = analysis::replay_events(stream);
  EXPECT_EQ(replay.lines_skipped, 0u);
  EXPECT_EQ(replay.seed, config.seed);
  EXPECT_EQ(replay.window_end, result.window_end);
  EXPECT_FALSE(replay.samples.empty());
  EXPECT_EQ(replay.site_names.size(), result.topology.site_count());

  // Store contents: identical record streams, family by family.
  const auto mem_counts = result.store.counts();
  const auto rep_counts = replay.store.counts();
  ASSERT_EQ(rep_counts.jobs, mem_counts.jobs);
  ASSERT_EQ(rep_counts.files, mem_counts.files);
  ASSERT_EQ(rep_counts.transfers, mem_counts.transfers);
  EXPECT_EQ(rep_counts.transfers_with_taskid,
            mem_counts.transfers_with_taskid);
  EXPECT_EQ(telemetry::store_digest(replay.store),
            telemetry::store_digest(result.store));

  // Matching: all three methods agree job-for-job.
  const core::Matcher mem_matcher(result.store);
  const core::Matcher rep_matcher(replay.store);
  const core::TriMatchResult mem_tri = core::run_all_methods(mem_matcher);
  const core::TriMatchResult rep_tri = core::run_all_methods(rep_matcher);
  for (const auto method : {core::MatchMethod::kExact, core::MatchMethod::kRM1,
                            core::MatchMethod::kRM2}) {
    const core::MatchResult& mem = mem_tri.by_method(method);
    const core::MatchResult& rep = rep_tri.by_method(method);
    ASSERT_EQ(rep.matched_job_count(), mem.matched_job_count());
    ASSERT_EQ(rep.matched_transfer_count(), mem.matched_transfer_count());
    for (std::size_t i = 0; i < mem.jobs.size(); ++i) {
      ASSERT_EQ(rep.jobs[i].job_index, mem.jobs[i].job_index);
      ASSERT_EQ(rep.jobs[i].transfer_indices, mem.jobs[i].transfer_indices);
    }
  }

  // Fig. 7/8 bandwidth series on the top matched pairs, point by point.
  for (const bool local : {false, true}) {
    const auto mem_pairs =
        analysis::top_matched_pairs(result.store, mem_tri.exact, local, 3);
    const auto rep_pairs =
        analysis::top_matched_pairs(replay.store, rep_tri.exact, local, 3);
    ASSERT_EQ(rep_pairs.size(), mem_pairs.size());
    for (std::size_t i = 0; i < mem_pairs.size(); ++i) {
      EXPECT_EQ(rep_pairs[i].src, mem_pairs[i].src);
      EXPECT_EQ(rep_pairs[i].dst, mem_pairs[i].dst);
      EXPECT_EQ(rep_pairs[i].bytes, mem_pairs[i].bytes);
      const auto mem_series =
          analysis::bandwidth_series(result.store, &mem_tri.exact,
                                     mem_pairs[i].src, mem_pairs[i].dst,
                                     util::hours(1));
      const auto rep_series =
          analysis::bandwidth_series(replay.store, &rep_tri.exact,
                                     rep_pairs[i].src, rep_pairs[i].dst,
                                     util::hours(1));
      ASSERT_EQ(rep_series.size(), mem_series.size());
      for (std::size_t b = 0; b < mem_series.size(); ++b) {
        EXPECT_EQ(rep_series[b].bin_start, mem_series[b].bin_start);
        EXPECT_DOUBLE_EQ(rep_series[b].mbps, mem_series[b].mbps);
      }
    }
  }

  // Fig. 5/6 queuing breakdown aggregates.
  const auto mem_rows = analysis::build_breakdown(result.store, mem_tri.exact);
  const auto rep_rows = analysis::build_breakdown(replay.store, rep_tri.exact);
  ASSERT_EQ(rep_rows.size(), mem_rows.size());
  const auto mem_agg = analysis::aggregate(mem_rows);
  const auto rep_agg = analysis::aggregate(rep_rows);
  EXPECT_DOUBLE_EQ(rep_agg.mean_queue_fraction, mem_agg.mean_queue_fraction);
  EXPECT_DOUBLE_EQ(rep_agg.geomean_queue_fraction,
                   mem_agg.geomean_queue_fraction);
  EXPECT_EQ(rep_agg.zero_fraction_jobs, mem_agg.zero_fraction_jobs);

  // Figs. 10-12 case-study timelines render identically.
  const analysis::CaseStudyExtractor mem_cases(result.store, mem_tri);
  const analysis::CaseStudyExtractor rep_cases(replay.store, rep_tri);
  const auto compare_case =
      [&](const std::optional<analysis::CaseStudy>& mem,
          const std::optional<analysis::CaseStudy>& rep) {
        ASSERT_EQ(rep.has_value(), mem.has_value());
        if (!mem) return;
        EXPECT_EQ(rep->match.job_index, mem->match.job_index);
        EXPECT_EQ(analysis::render_timeline(replay.store, rep->match),
                  analysis::render_timeline(result.store, mem->match));
      };
  compare_case(mem_cases.sequential_staging_case(),
               rep_cases.sequential_staging_case());
  compare_case(mem_cases.failed_spanning_case(),
               rep_cases.failed_spanning_case());
  compare_case(mem_cases.rm2_redundant_case(),
               rep_cases.rm2_redundant_case());
}

// --- flows ------------------------------------------------------------------

// With a FlowTracker in the session the NDJSON stream must be the flows-off
// stream plus flow_* lines and nothing else: observers consume no
// simulation RNG and carry simulated time only.
TEST(EventsFlows, FlowsOnStreamIsFlowsOffStreamPlusFlowLines) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.5;
  config.seed = 20250401;

  const auto run_once = [&config](bool flows) {
    obs::Registry::global().reset_for_test();
    obs::FlowTracker tracker;
    obs::EventLog log;
    std::ignore = scenario::run_campaign(
        config, {.events = &log, .flows = flows ? &tracker : nullptr});
    return log.to_ndjson();
  };

  const std::string off = run_once(false);
  const std::string on = run_once(true);
  ASSERT_GT(on.size(), off.size());

  std::string stripped;
  stripped.reserve(off.size());
  std::size_t flow_lines = 0;
  for (const std::string& line : split_lines(on)) {
    if (line.find("\"kind\":\"flow_") != std::string::npos) {
      ++flow_lines;
      continue;
    }
    stripped += line;
    stripped += '\n';
  }
  EXPECT_GT(flow_lines, 0u);
  EXPECT_EQ(stripped, off);
}

// The offline rebuild engine IS the online analyzer (a detached
// FlowTracker replay feeds in stream order), so a replayed stream must
// reproduce the live tracker's analysis bit for bit.
TEST(EventsFlows, RebuiltFlowsMatchLiveTrackerBitForBit) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.5;
  config.seed = 20250401;

  obs::FlowTracker tracker;
  obs::EventLog log;
  const scenario::ScenarioResult result =
      scenario::run_campaign(config, {.events = &log, .flows = &tracker});

  std::map<std::int64_t, std::string> names;
  for (const grid::Site& s : result.topology.sites()) {
    names[static_cast<std::int64_t>(s.id)] = s.name;
  }
  const analysis::FlowAnalysis live =
      analysis::analyze_flows(tracker, names);

  std::istringstream stream(log.to_ndjson());
  const analysis::ReplayResult replay = analysis::replay_events(stream);
  EXPECT_GT(replay.kind_counts.at("flow_begin"), 0u);
  const analysis::FlowAnalysis rebuilt = analysis::analyze_flows(replay);

  ASSERT_EQ(rebuilt.flows.size(), live.flows.size());
  ASSERT_GT(live.flows.size(), 0u);
  for (std::size_t i = 0; i < live.flows.size(); ++i) {
    const obs::FlowSummary& a = live.flows[i];
    const obs::FlowSummary& b = rebuilt.flows[i];
    ASSERT_EQ(b.pandaid, a.pandaid);
    ASSERT_EQ(b.taskid, a.taskid);
    ASSERT_EQ(b.site, a.site);
    ASSERT_EQ(b.attempt, a.attempt);
    ASSERT_EQ(b.failed, a.failed);
    ASSERT_EQ(b.error, a.error);
    ASSERT_EQ(b.watchdog_release, a.watchdog_release);
    ASSERT_EQ(b.shared_hits, a.shared_hits);
    ASSERT_EQ(b.phases.broker_ms, a.phases.broker_ms);
    ASSERT_EQ(b.phases.stage_in_ms, a.phases.stage_in_ms);
    ASSERT_EQ(b.phases.queue_ms, a.phases.queue_ms);
    ASSERT_EQ(b.phases.run_ms, a.phases.run_ms);
    ASSERT_EQ(b.phases.stage_out_ms, a.phases.stage_out_ms);
    ASSERT_EQ(b.phases.wall_ms, a.phases.wall_ms);
    ASSERT_EQ(b.phases.stage_in_serialized_ms,
              a.phases.stage_in_serialized_ms);
    ASSERT_EQ(b.phases.stage_in_busy_ms, a.phases.stage_in_busy_ms);
    ASSERT_EQ(b.phases.sequential_staging, a.phases.sequential_staging);
    ASSERT_EQ(b.phases.stage_in_transfers, a.phases.stage_in_transfers);
    ASSERT_EQ(b.phases.stage_in_attempts, a.phases.stage_in_attempts);
    ASSERT_EQ(b.phases.reroutes, a.phases.reroutes);
    ASSERT_EQ(b.phases.redundant_transfers, a.phases.redundant_transfers);
    ASSERT_EQ(b.phases.unregistered, a.phases.unregistered);
    ASSERT_EQ(b.link_shares.size(), a.link_shares.size());
    for (std::size_t l = 0; l < a.link_shares.size(); ++l) {
      ASSERT_EQ(b.link_shares[l].src, a.link_shares[l].src);
      ASSERT_EQ(b.link_shares[l].dst, a.link_shares[l].dst);
      ASSERT_EQ(b.link_shares[l].ms, a.link_shares[l].ms);
    }
  }

  EXPECT_EQ(rebuilt.totals.flows, live.totals.flows);
  EXPECT_EQ(rebuilt.totals.failed, live.totals.failed);
  EXPECT_EQ(rebuilt.totals.sequential_staging,
            live.totals.sequential_staging);
  EXPECT_EQ(rebuilt.totals.redundant_transfers,
            live.totals.redundant_transfers);
  EXPECT_EQ(rebuilt.totals.watchdog_releases, live.totals.watchdog_releases);
  EXPECT_EQ(rebuilt.totals.reroutes, live.totals.reroutes);

  ASSERT_EQ(rebuilt.link_ranking.size(), live.link_ranking.size());
  for (std::size_t i = 0; i < live.link_ranking.size(); ++i) {
    EXPECT_EQ(rebuilt.link_ranking[i].src, live.link_ranking[i].src);
    EXPECT_EQ(rebuilt.link_ranking[i].dst, live.link_ranking[i].dst);
    EXPECT_EQ(rebuilt.link_ranking[i].critical_ms,
              live.link_ranking[i].critical_ms);
    EXPECT_EQ(rebuilt.link_ranking[i].flows, live.link_ranking[i].flows);
  }

  // Replay's site names come from the stream, so the rendered report
  // and flamegraph stacks are byte-identical too.
  EXPECT_EQ(rebuilt.collapsed, live.collapsed);
  EXPECT_EQ(analysis::render_attribution(rebuilt),
            analysis::render_attribution(live));
}

// --- one pass ---------------------------------------------------------------

// Feeding the health engine inside the replay loop must give the same
// bytes as the two-pass path (replay, then a health-only pass), over
// both container formats.
TEST(EventsReplay, OnePassEqualsReplayPlusDeriveHealth) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  config.faults.intensity = 2.0;
  config.with_self_healing();

  obs::FlowTracker tracker;
  obs::HealthEngine engine;
  const std::string ndjson_path = "events_replay_one_pass.ndjson";
  const std::string col_path = "events_replay_one_pass.colstore";
  obs::EventSinks sinks;
  sinks.ndjson_path = ndjson_path;
  sinks.colstore_path = col_path;
  obs::EventLog log(sinks);
  std::ignore = scenario::run_campaign(
      config, {.events = &log, .flows = &tracker, .health = &engine});
  log.close();
  ASSERT_EQ(log.io_errors(), 0u);

  const auto report = [](const analysis::ReplayResult& replay,
                         const obs::HealthEngine& health) {
    analysis::HtmlReportOptions options;
    options.health = &health;
    std::ostringstream html;
    analysis::write_html_report(html, replay, options);
    return html.str();
  };
  std::vector<std::string> one_pass_reports;
  for (const std::string& path : {ndjson_path, col_path}) {
    const analysis::ReplayResult two_pass =
        analysis::replay_events_file(path);
    const auto derived = analysis::derive_health_file(path);
    ASSERT_NE(derived, nullptr);

    obs::HealthEngine health;
    const auto source = analysis::open_event_source(path);
    ASSERT_NE(source, nullptr);
    const analysis::ReplayResult one_pass =
        analysis::replay_events(*source, &health);

    EXPECT_GT(derived->counts().fired, 0u) << path;
    EXPECT_EQ(health.status_json(), derived->status_json()) << path;
    const std::string html = report(one_pass, health);
    EXPECT_NE(html.find("Critical-path wait attribution"), std::string::npos);
    EXPECT_EQ(html, report(two_pass, *derived)) << path;
    one_pass_reports.push_back(html);
  }
  EXPECT_EQ(one_pass_reports[0], one_pass_reports[1]);
  std::remove(ndjson_path.c_str());
  std::remove(col_path.c_str());
}

// --- health derivation's kind pre-filter -----------------------------------

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// derive_health_file drops a line of another kind unparsed when the
// canonical `{"ts":<int>,"kind":"<k>"` prefix names its kind; any other
// line is parsed and its kind checked after.  The engine must end
// exactly where an unfiltered engine fed every line that parses ends.
TEST(EventsReplay, DeriveHealthPrefilterKeepsEveryHealthLine) {
  const std::vector<std::string> lines = {
      R"({"ts":1000,"kind":"sample","entity":0,"jobs_queued":10})",
      R"({"ts":1800,"kind":"link_sample","entity":1,"src":0,"dst":1,)"
      R"("queued":5,"utilization":0.97})",
      // Written with spaces: no canonical prefix, so the parser decides.
      R"({ "ts": 2500, "kind": "transfer_fail", "entity": 8, )"
      R"("submitted": 500, "error": "stalled_terminal" })",
      // An escaped kind: the prefix check stops at the backslash.
      R"({"ts":3000,"kind":"transfer\u005ffail","entity":9,)"
      R"("submitted":1000,"error":"stalled_terminal"})",
      // Other kinds, malformed after their prefix: dropped unparsed.
      R"({"ts":3100,"kind":"alert","entity":"link:0->1",)",
      R"({"ts":3200,"kind":"job_state","entity":3,"state":runn})",
      R"({"ts":3300,"kind":"job_state","entity":3,"state":"running"})",
      R"({"ts":4000,"kind":"transfer_done","entity":10,"submitted":2500})",
      R"({"ts":4500,"kind":"breaker_state","entity":7,"src":0,"dst":1,)"
      R"("state":"open"})",
  };
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  const std::string path = "events_replay_prefilter.ndjson";
  write_file(path, text);

  obs::HealthEngine unfiltered;
  util::json::FlatObject event;
  std::size_t unparsed = 0;
  for (const std::string& line : lines) {
    if (util::json::parse_flat(line, event)) {
      unfiltered.observe_json(event);
    } else {
      ++unparsed;
    }
  }
  ASSERT_EQ(unparsed, 2u);

  analysis::SourceStatus status;
  const auto derived = analysis::derive_health_file(path, &status);
  ASSERT_NE(derived, nullptr);
  // sample, link_sample, both transfer_fail lines, transfer_done and
  // breaker_state reach the engine.
  EXPECT_EQ(derived->counts().observations, 6u);
  EXPECT_EQ(derived->status_json(), unfiltered.status_json());
  // The two malformed lines were ruled out by their prefix, unparsed.
  EXPECT_EQ(status.skipped, 0u);
  EXPECT_TRUE(status.error.empty());
  std::remove(path.c_str());
}

// A damaged stream is never silent: derive_health_file reports a torn
// colstore as an error and an NDJSON garbage line as skipped.
TEST(EventsReplay, DeriveHealthReportsDamagedStreams) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  config.faults.intensity = 2.0;
  config.with_self_healing();
  const std::string ndjson_path = "events_replay_damage.ndjson";
  const std::string col_path = "events_replay_damage.colstore";
  obs::HealthEngine live;
  obs::EventSinks sinks;
  sinks.ndjson_path = ndjson_path;
  sinks.colstore_path = col_path;
  obs::EventLog log(sinks);
  std::ignore =
      scenario::run_campaign(config, {.events = &log, .health = &live});
  log.close();
  ASSERT_EQ(log.io_errors(), 0u);

  for (const std::string& path : {ndjson_path, col_path}) {
    analysis::SourceStatus status;
    const auto derived = analysis::derive_health_file(path, &status);
    ASSERT_NE(derived, nullptr);
    EXPECT_EQ(derived->status_json(), live.status_json()) << path;
    EXPECT_EQ(status.skipped, 0u) << path;
    EXPECT_TRUE(status.error.empty()) << path;
  }

  // One garbage line in the middle: counted, and nothing else changes.
  const std::string ndjson = read_whole_file(ndjson_path);
  const std::size_t middle = ndjson.find('\n', ndjson.size() / 2) + 1;
  const std::string garbled_path = "events_replay_garbled.ndjson";
  write_file(garbled_path, ndjson.substr(0, middle) + "not an event\n" +
                               ndjson.substr(middle));
  {
    analysis::SourceStatus status;
    const auto derived = analysis::derive_health_file(garbled_path, &status);
    ASSERT_NE(derived, nullptr);
    EXPECT_EQ(status.skipped, 1u);
    EXPECT_TRUE(status.error.empty());
    EXPECT_EQ(derived->status_json(), live.status_json());
  }

  // A colstore torn inside its data: the partial engine comes back with
  // the reader's error.
  const std::string col = read_whole_file(col_path);
  const std::string torn_path = "events_replay_torn.colstore";
  write_file(torn_path, col.substr(0, col.size() - col.size() / 4));
  {
    analysis::SourceStatus status;
    const auto derived = analysis::derive_health_file(torn_path, &status);
    ASSERT_NE(derived, nullptr);
    EXPECT_FALSE(status.error.empty());
    EXPECT_NE(derived->status_json(), live.status_json());
  }
  for (const std::string& path :
       {ndjson_path, col_path, garbled_path, torn_path}) {
    std::remove(path.c_str());
  }
}

// --- truncation ---------------------------------------------------------------

// A stream cut where its format sees no damage (NDJSON at a line end, a
// colstore between two chunks) replays cleanly, so the missing terminal
// log_stats event is the only sign of the cut: the report flags both
// cuts, and not the uncut stream.
TEST(EventsReplay, ReportFlagsAStreamThatEndsEarly) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  obs::EventLog log;
  std::ignore = scenario::run_campaign(config, {.events = &log});
  log.close();
  const std::string ndjson = log.to_ndjson();

  const std::string path = "events_replay_ends_early.events";
  const auto report = [&path](const std::string& bytes) {
    write_file(path, bytes);
    const auto source = analysis::open_event_source(path);
    EXPECT_NE(source, nullptr);
    if (source == nullptr) return std::string();
    const analysis::ReplayResult replay = analysis::replay_events(*source);
    EXPECT_TRUE(source->error().empty()) << source->error();
    EXPECT_EQ(replay.lines_skipped, 0u);
    std::ostringstream html;
    analysis::write_html_report(html, replay);
    return html.str();
  };
  const auto ends_early = [](const std::string& html) {
    return html.find("stream ends early") != std::string::npos;
  };

  EXPECT_FALSE(ends_early(report(ndjson)));
  const std::size_t last_line = ndjson.rfind('\n', ndjson.size() - 2) + 1;
  ASSERT_NE(ndjson.find("\"kind\":\"log_stats\"", last_line),
            std::string::npos);
  const std::size_t middle = ndjson.find('\n', ndjson.size() / 2) + 1;
  for (const std::size_t cut : {last_line, middle}) {
    EXPECT_TRUE(ends_early(report(ndjson.substr(0, cut)))) << cut;
  }

  // The same stream as a colstore of many small chunks, cut between two
  // of them: the reader reports no error.
  const std::string col_path = "events_replay_ends_early.colstore";
  std::vector<std::size_t> chunk_ends;
  {
    obs::ColWriter writer(col_path, {.rows_per_chunk = 256});
    for (const std::string& line : split_lines(ndjson)) {
      ASSERT_TRUE(writer.append_ndjson_line(line));
      if (writer.stats().chunks > chunk_ends.size()) {
        chunk_ends.push_back(writer.stats().bytes_written);
      }
    }
    ASSERT_TRUE(writer.close()) << writer.error();
  }
  const std::string col = read_whole_file(col_path);
  ASSERT_GT(chunk_ends.size(), 2u);
  EXPECT_FALSE(ends_early(report(col)));
  EXPECT_TRUE(ends_early(report(col.substr(0, chunk_ends[1]))));
  std::remove(path.c_str());
  std::remove(col_path.c_str());
}

// --- harvest ----------------------------------------------------------------

TEST(EventsHarvest, EmitStoreEventsCountsEveryRecord) {
  telemetry::MetadataStore store;
  telemetry::JobRecord j;
  j.pandaid = 1;
  j.jeditaskid = 10;
  store.record_job(j);
  telemetry::FileRecord f;
  f.pandaid = 1;
  f.jeditaskid = 10;
  store.record_file(f, {"lfn-1", "", "", ""});

  EXPECT_EQ(telemetry::emit_store_events(store, 99, nullptr), 0u);  // no-op

  obs::EventLog log;
  EXPECT_EQ(telemetry::emit_store_events(store, 99, &log), 2u);
  EXPECT_EQ(log.event_count(), 2u);
}

}  // namespace
