// Tests for the obs layer: sharded counter aggregation under thread-pool
// contention, histogram bucket edges, exporter well-formedness (parsed
// back with a minimal JSON parser), trace-event recording, registry
// reset, env-hook idempotency, and the determinism guard (instrumented
// and uninstrumented campaigns must produce identical matched-job
// counts).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/relaxed.hpp"
#include "json_validator.hpp"
#include "obs/env.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/campaign.hpp"

namespace {

using namespace pandarus;
// Fully qualified: `testing` alone would be ambiguous with gtest's.
using JsonValidator = pandarus::testing::JsonValidator;

// --- registry -------------------------------------------------------------

TEST(ObsCounter, AggregatesUnderThreadPoolContention) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("test_contended_total");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIncrements = 20'000;

  parallel::ThreadPool pool(kThreads);
  std::vector<std::future<void>> futures;
  futures.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    futures.push_back(pool.submit([&counter] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) counter.inc();
    }));
  }
  for (auto& f : futures) f.get();

  EXPECT_EQ(counter.value(), kThreads * kIncrements);
  EXPECT_EQ(registry.snapshot().counter_value("test_contended_total"),
            kThreads * kIncrements);
}

TEST(ObsCounter, LookupByNameReturnsSameInstance) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("dup_total", "first help wins");
  obs::Counter& b = registry.counter("dup_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(a.help(), "first help wins");
}

TEST(ObsGauge, SetAndAdd) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.gauge("test_depth");
  gauge.set(10);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.set(-5);
  EXPECT_EQ(registry.snapshot().gauge_value("test_depth"), -5);
}

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("test_hist", {1.0, 2.0, 4.0});

  h.observe(0.5);  // <= 1       -> bucket 0
  h.observe(1.0);  // == edge    -> bucket 0 (le semantics)
  h.observe(1.5);  // <= 2       -> bucket 1
  h.observe(4.0);  // == edge    -> bucket 2
  h.observe(99.0);  // > last    -> +Inf bucket

  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0);

  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].buckets.size(), 4u);
  EXPECT_EQ(snap.histograms[0].count, 5u);
}

TEST(ObsSnapshot, SortedByNameAndMissingLookupsAreZero) {
  obs::Registry registry;
  registry.counter("zebra_total").inc();
  registry.counter("alpha_total").inc(2);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[1].name, "zebra_total");
  EXPECT_EQ(snap.counter_value("does_not_exist"), 0u);
  EXPECT_EQ(snap.gauge_value("does_not_exist"), 0);
}

// --- quantile sketches ------------------------------------------------------

TEST(ObsQuantile, EmptySketchEstimatesZero) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q_empty", {1.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p99, 0.0);
}

TEST(ObsQuantile, OneSampleIsExactForEveryQuantile) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q_one", {100.0});
  h.observe(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
}

TEST(ObsQuantile, TwoSamplesInterpolateLinearly) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q_two", {100.0});
  // Insertion order must not matter: the exact path sorts.
  h.observe(20.0);
  h.observe(10.0);
  // 0-based fractional rank q * (n - 1) over sorted {10, 20}.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 19.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 19.9);
}

TEST(ObsQuantile, UntrackedQuantileReturnsZero) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q_untracked", {100.0});
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 0.0);  // only p50/p95/p99 are sketched
}

TEST(ObsQuantile, MonotoneStreamStaysAccurate) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q_stream", {1e9});
  constexpr int kSamples = 10'000;
  for (int i = 1; i <= kSamples; ++i) h.observe(static_cast<double>(i));
  // P² on a uniform monotone stream should land within a few percent of
  // the true order statistics.
  EXPECT_NEAR(h.quantile(0.5), 5'000.0, 250.0);
  EXPECT_NEAR(h.quantile(0.95), 9'500.0, 475.0);
  EXPECT_NEAR(h.quantile(0.99), 9'900.0, 495.0);
  // Estimates surface in both exporters.
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, h.quantile(0.5));
  const std::string json = obs::export_json(snap);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string prom = obs::export_prometheus(snap);
  EXPECT_NE(prom.find("q_stream_p50 "), std::string::npos);
  EXPECT_NE(prom.find("q_stream_p95 "), std::string::npos);
  EXPECT_NE(prom.find("q_stream_p99 "), std::string::npos);
}

// --- timestamp contract -----------------------------------------------------

TEST(ObsTime, MicrosMillisRoundTrip) {
  EXPECT_EQ(obs::to_micros(0), 0);
  EXPECT_EQ(obs::to_micros(3), 3000);
  EXPECT_EQ(obs::to_micros(-2), -2000);
  EXPECT_EQ(obs::to_millis(4500), 4);  // truncation toward zero
  EXPECT_EQ(obs::to_millis(obs::to_micros(987'654)), 987'654);
}

// --- exporters ------------------------------------------------------------

TEST(ObsExport, JsonParsesBack) {
  obs::Registry registry;
  registry.counter("c_total", "a counter").inc(42);
  registry.gauge("g").set(-7);
  obs::Histogram& h = registry.histogram("h_seconds", {0.001, 0.1, 1.0});
  h.observe(0.05);
  h.observe(5.0);

  const std::string json = obs::export_json(registry.snapshot());
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"c_total\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"g\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos);
}

TEST(ObsExport, PrometheusShape) {
  obs::Registry registry;
  registry.counter("c_total", "help text").inc(3);
  registry.gauge("g").set(9);
  obs::Histogram& h = registry.histogram("h_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(10.0);

  const std::string text = obs::export_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# HELP c_total help text\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE c_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("c_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge\n"), std::string::npos);
  // Buckets are cumulative in the exposition format.
  EXPECT_NE(text.find("h_seconds_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("h_seconds_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("h_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("h_seconds_count 3\n"), std::string::npos);
}

// --- tracing --------------------------------------------------------------

TEST(ObsTrace, ChromeJsonIsWellFormedAcrossThreads) {
  obs::TraceRecorder recorder;
  recorder.install();
  {
    const obs::ScopedSpan outer("outer", "test", 42);
    parallel::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < 4; ++t) {
      futures.push_back(pool.submit([] {
        for (int i = 0; i < 50; ++i) {
          const obs::ScopedSpan span("worker_span", "test");
        }
      }));
    }
    for (auto& f : futures) f.get();
    pool.wait_idle();
  }
  recorder.uninstall();

  // 1 outer + 4*50 worker spans, plus the pool's own pool/task spans.
  EXPECT_GE(recorder.event_count(), 201u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const std::string json = recorder.to_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"v\": 42}"), std::string::npos);
}

TEST(ObsTrace, OverflowCountsDroppedAndJsonStaysValid) {
  obs::TraceRecorder recorder(/*max_events_per_thread=*/4);
  recorder.install();
  for (int i = 0; i < 10; ++i) {
    const obs::ScopedSpan span("tiny", "test");
  }
  recorder.uninstall();
  EXPECT_EQ(recorder.event_count(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_TRUE(JsonValidator(recorder.to_chrome_json()).valid());
}

TEST(ObsTrace, NoRecorderMeansNoRecording) {
  ASSERT_EQ(obs::TraceRecorder::installed(), nullptr);
  {
    const obs::ScopedSpan span("ignored", "test");
  }
  obs::TraceRecorder recorder;
  EXPECT_EQ(recorder.event_count(), 0u);
}

// --- registry reset ---------------------------------------------------------

TEST(ObsRegistry, ResetForTestZeroesValuesButKeepsRegistrations) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("r_total", "kept help");
  obs::Gauge& g = registry.gauge("r_depth");
  obs::Histogram& h = registry.histogram("r_hist", {1.0, 2.0});
  c.inc(41);
  g.set(-3);
  h.observe(1.5);
  h.observe(9.0);

  registry.reset_for_test();

  // Values are zero, but the addresses and metadata survive, so code
  // holding references keeps working.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(h.bucket(i), 0u);
  EXPECT_EQ(&registry.counter("r_total"), &c);
  EXPECT_EQ(registry.counter("r_total").help(), "kept help");
  c.inc(5);
  EXPECT_EQ(registry.snapshot().counter_value("r_total"), 5u);
}

// --- env hooks --------------------------------------------------------------

TEST(ObsEnv, InstallEnvHooksIsIdempotent) {
  // Without PANDARUS_METRICS/TRACE/EVENTS set this is a no-op; the
  // contract under test is that repeated calls are safe and agree.
  const bool first = obs::install_env_hooks();
  const bool second = obs::install_env_hooks();
  EXPECT_EQ(first, second);
}

// --- determinism guard ------------------------------------------------------

TEST(ObsDeterminism, InstrumentedRunMatchesUninstrumentedRun) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.5;
  config.seed = 20250401;

  const auto run_once = [&config] {
    const scenario::ScenarioResult result = scenario::run_campaign(config);
    const core::Matcher matcher(result.store);
    const core::TriMatchResult tri = core::run_all_methods(matcher);
    return std::tuple{result.events_processed,
                      tri.exact.matched_job_count(),
                      tri.rm1.matched_job_count(),
                      tri.rm2.matched_job_count()};
  };

  const auto plain = run_once();

  obs::TraceRecorder recorder;
  recorder.install();
  const auto traced = run_once();
  recorder.uninstall();

  EXPECT_EQ(plain, traced);
  EXPECT_GT(recorder.event_count(), 0u);
}

// --- campaign sampling -------------------------------------------------------

TEST(CampaignSampling, ZeroDayCampaignProducesNoRowsAndNoCrash) {
  obs::EventLog log;
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.0;
  const scenario::ScenarioResult result =
      scenario::run_campaign(config, {.events = &log});
  log.close();
  EXPECT_TRUE(result.drained);
  // A zero-length window schedules no sampling ticks: the stream holds
  // no "sample" events, but the envelope events are still there.
  const std::string ndjson = log.to_ndjson();
  EXPECT_EQ(ndjson.find("\"kind\":\"sample\""), std::string::npos);
  EXPECT_NE(ndjson.find("\"kind\":\"campaign_meta\""), std::string::npos);
}

}  // namespace
