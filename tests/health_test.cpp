// Health engine correctness: bucket-ring expiry, detector lifecycle
// hysteresis (pending → firing → resolved), instant detectors (breaker
// open/flap, transfer stall), SLO burn-rate evaluation, epoch reset on
// simulated-time regression, observe_json ↔ typed-feed parity, the
// campaign-level alert-strip byte-identity guarantee, live-vs-replay
// status_json parity, and concurrent feed/snapshot safety (TSan).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/events_replay.hpp"
#include "obs/event_log.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"

namespace pandarus {
namespace {

/// Temp file in the test's working directory, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One sampler row with a single jobs_queued column.
void feed_queue(obs::HealthEngine& engine, std::int64_t ts,
                std::int64_t depth) {
  engine.on_sample(ts, {"jobs_queued"}, {depth});
}

std::vector<obs::AlertTransition> transitions_for(
    const obs::HealthEngine& engine, std::string_view detector) {
  std::vector<obs::AlertTransition> out;
  for (const obs::AlertTransition& t : engine.transitions()) {
    if (t.detector == detector) out.push_back(t);
  }
  return out;
}

// --- BucketRing -------------------------------------------------------------

TEST(BucketRing, CountsWithinWindowAndExpires) {
  obs::BucketRing ring(/*bucket_ms=*/100, /*window_ms=*/1000);
  ring.add(0);
  ring.add(50);   // same bucket as ts=0
  ring.add(500);
  EXPECT_EQ(ring.total(500), 3u);
  // ts=0 bucket leaves the window once now reaches bucket 10.
  EXPECT_EQ(ring.total(1000), 1u);
  EXPECT_EQ(ring.total(10'000), 0u);
}

TEST(BucketRing, ResetClears) {
  obs::BucketRing ring(100, 1000);
  ring.add(0, 7);
  EXPECT_EQ(ring.total(0), 7u);
  ring.reset();
  EXPECT_EQ(ring.total(0), 0u);
}

TEST(BucketRing, DegenerateWidthsClampToOne) {
  obs::BucketRing ring(0, 0);  // must not divide by zero
  ring.add(5);
  EXPECT_EQ(ring.total(5), 1u);
}

TEST(AlertPhase, Names) {
  EXPECT_EQ(obs::alert_phase_name(obs::AlertPhase::kPending), "pending");
  EXPECT_EQ(obs::alert_phase_name(obs::AlertPhase::kFiring), "firing");
  EXPECT_EQ(obs::alert_phase_name(obs::AlertPhase::kResolved), "resolved");
}

// --- queue-depth lifecycle --------------------------------------------------

TEST(HealthDetectors, QueueSpikeWalksPendingFiringResolved) {
  obs::HealthEngine engine;

  // Flat baseline primes the EWMA (sd == 0 → any rise is a spike).
  feed_queue(engine, 1000, 10);
  feed_queue(engine, 2000, 10);
  EXPECT_EQ(engine.counts().active_pending, 0u);

  feed_queue(engine, 3000, 100);  // breach #1 → pending
  {
    const auto c = engine.counts();
    EXPECT_EQ(c.active_pending, 1u);
    EXPECT_EQ(c.fired, 0u);
  }
  // The EWMA adapted toward 100, so the second breach must outrun the
  // widened baseline to keep the streak alive.
  feed_queue(engine, 4000, 1000);  // breach #2 → firing
  {
    const auto c = engine.counts();
    EXPECT_EQ(c.active_firing, 1u);
    EXPECT_EQ(c.fired, 1u);
  }

  feed_queue(engine, 5000, 10);  // clear #1 — still firing (hysteresis)
  EXPECT_EQ(engine.counts().active_firing, 1u);
  feed_queue(engine, 6000, 10);  // clear #2 → resolved
  {
    const auto c = engine.counts();
    EXPECT_EQ(c.active_firing, 0u);
    EXPECT_EQ(c.active_pending, 0u);
    EXPECT_EQ(c.resolved, 1u);
  }

  const auto ts = transitions_for(engine, "queue_depth_spike");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].phase, obs::AlertPhase::kPending);
  EXPECT_EQ(ts[0].ts, 3000);
  EXPECT_EQ(ts[1].phase, obs::AlertPhase::kFiring);
  EXPECT_EQ(ts[1].ts, 4000);
  EXPECT_EQ(ts[2].phase, obs::AlertPhase::kResolved);
  EXPECT_EQ(ts[2].ts, 6000);
}

TEST(HealthDetectors, PendingBlipResolvesWithoutFiring) {
  obs::HealthEngine engine;
  feed_queue(engine, 1000, 10);
  feed_queue(engine, 2000, 10);
  feed_queue(engine, 3000, 100);  // one-tick blip → pending
  feed_queue(engine, 4000, 10);
  feed_queue(engine, 5000, 10);  // two clears → resolved, never fired
  const auto c = engine.counts();
  EXPECT_EQ(c.fired, 0u);
  EXPECT_EQ(c.resolved, 1u);
  const auto resolved = engine.alerts();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].fire_count, 0u);
  EXPECT_EQ(resolved[0].phase, obs::AlertPhase::kResolved);
}

TEST(HealthDetectors, SmallQueuesNeverAlert) {
  obs::HealthEngine engine;  // queue_min_value = 64 floor
  feed_queue(engine, 1000, 1);
  feed_queue(engine, 2000, 1);
  feed_queue(engine, 3000, 50);  // huge z but under the absolute floor
  EXPECT_EQ(engine.counts().active_pending, 0u);
  EXPECT_EQ(engine.counts().fired, 0u);
}

// --- link / breaker detectors -----------------------------------------------

TEST(HealthDetectors, SaturatedLinkFiresInstantlyAndResolves) {
  obs::HealthEngine engine;
  engine.on_link_sample(1000, 3, 7, /*queued=*/12, /*utilization=*/1.0);
  {
    const auto c = engine.counts();
    EXPECT_EQ(c.active_firing, 1u);
    EXPECT_EQ(c.fired, 1u);
  }
  const auto active = engine.alerts();
  ASSERT_FALSE(active.empty());
  EXPECT_EQ(active[0].detector, "link_util_spike");
  EXPECT_EQ(active[0].entity, "link:3->7");

  engine.on_link_sample(2000, 3, 7, 0, 0.01);
  EXPECT_EQ(engine.counts().resolved, 1u);
  EXPECT_EQ(engine.counts().active_firing, 0u);
}

TEST(HealthDetectors, QuietLinkStaysQuiet) {
  obs::HealthEngine engine;
  for (int i = 0; i < 10; ++i) {
    engine.on_link_sample(1000 * (i + 1), 0, 1, 0, 0.1);
  }
  EXPECT_EQ(engine.counts().fired, 0u);
}

TEST(HealthDetectors, BreakerOpenAndFlapEscalation) {
  obs::HealthEngine engine;
  engine.on_breaker(1000, 2, 5, /*open=*/true);
  {
    const auto ts = transitions_for(engine, "breaker_open");
    ASSERT_EQ(ts.size(), 2u);  // pending + firing at the same instant
    EXPECT_EQ(ts[0].ts, ts[1].ts);
    EXPECT_EQ(ts[1].phase, obs::AlertPhase::kFiring);
  }
  engine.on_breaker(2000, 2, 5, false);
  EXPECT_EQ(transitions_for(engine, "breaker_open").back().phase,
            obs::AlertPhase::kResolved);

  // Two more open/close cycles reach the flap threshold (4 transitions
  // inside the window) and escalate to the critical flap alert.
  engine.on_breaker(3000, 2, 5, true);
  EXPECT_TRUE(transitions_for(engine, "breaker_flap").empty());
  engine.on_breaker(4000, 2, 5, false);
  const auto flaps = transitions_for(engine, "breaker_flap");
  ASSERT_FALSE(flaps.empty());
  EXPECT_EQ(flaps.back().phase, obs::AlertPhase::kFiring);
  EXPECT_EQ(flaps.back().entity, "link:2->5");
  EXPECT_EQ(flaps.back().severity, "critical");
}

// --- transfer stall + SLOs --------------------------------------------------

TEST(HealthDetectors, TransferStallWindowFiresAndExpires) {
  obs::HealthEngine engine;
  engine.on_transfer_terminal(1000, false, "stalled_terminal", 500);
  engine.on_transfer_terminal(2000, false, "stalled_terminal", 500);
  EXPECT_EQ(engine.counts().fired, 0u);
  engine.on_transfer_terminal(3000, false, "stalled_terminal", 500);
  EXPECT_EQ(engine.counts().fired, 1u);  // threshold 3 in window

  // Far outside the stall window the ring is empty again; the next
  // terminal observation clears the (instant) alert.
  engine.on_transfer_terminal(3000 + 2 * obs::HealthEngine::kStallWindowMs,
                              true, "none", 500);
  EXPECT_EQ(engine.counts().resolved, 1u);
}

TEST(HealthDetectors, NonStallFailuresDoNotCountTowardStall) {
  obs::HealthEngine engine;
  for (int i = 0; i < 10; ++i) {
    engine.on_transfer_terminal(1000 * (i + 1), false, "checksum_mismatch",
                                500);
  }
  EXPECT_TRUE(transitions_for(engine, "transfer_stall").empty());
}

TEST(HealthSlo, TransferCountersAndBurnRates) {
  obs::HealthEngine engine;
  // 8 fast successes, 2 failures → success bad_frac 0.2 against a 0.90
  // target: burn = 0.2 / 0.1 = 2.0 on both windows.
  for (int i = 0; i < 8; ++i) {
    engine.on_transfer_terminal(1000 + i, true, "none", 500);
  }
  engine.on_transfer_terminal(2000, false, "link_blackout", 500);
  engine.on_transfer_terminal(2001, false, "link_blackout", 500);

  const auto slos = engine.slos();
  ASSERT_EQ(slos.size(), 3u);
  EXPECT_EQ(slos[0].name, "transfer_latency");
  EXPECT_EQ(slos[0].good, 8u);  // only successes feed latency
  EXPECT_EQ(slos[0].bad, 0u);
  EXPECT_EQ(slos[1].name, "transfer_success");
  EXPECT_EQ(slos[1].good, 8u);
  EXPECT_EQ(slos[1].bad, 2u);
  EXPECT_DOUBLE_EQ(slos[1].burn_fast,
                   0.2 / (1.0 - obs::HealthEngine::kTransferSuccessTarget));
  EXPECT_DOUBLE_EQ(slos[1].burn_slow, slos[1].burn_fast);
  EXPECT_EQ(slos[2].name, "event_integrity");
}

TEST(HealthSlo, SlowTransfersBurnTheLatencyBudget) {
  obs::HealthEngine engine;
  engine.on_transfer_terminal(1000, true, "none",
                              obs::HealthEngine::kTransferLatencyBoundMs + 1);
  const auto slos = engine.slos();
  EXPECT_EQ(slos[0].bad, 1u);
}

TEST(HealthSlo, BurnRateAlertFiresOnSustainedFailureStreak) {
  obs::HealthEngine engine;
  // All transfers fail: burn = 1.0 / 0.1 = 10 ≥ threshold 2 on both
  // windows.  slo_burn is evaluated on sampler ticks, with the default
  // 2-tick pending hysteresis.
  for (int i = 0; i < 20; ++i) {
    engine.on_transfer_terminal(1000 + i, false, "link_blackout", 500);
  }
  engine.on_sample(60'000, {}, {});
  {
    const auto c = engine.counts();
    EXPECT_EQ(c.active_pending, 1u);
    EXPECT_EQ(c.fired, 0u);
  }
  engine.on_sample(120'000, {}, {});
  const auto burns = transitions_for(engine, "slo_burn");
  ASSERT_FALSE(burns.empty());
  EXPECT_EQ(burns.back().phase, obs::AlertPhase::kFiring);
  EXPECT_EQ(burns.back().entity, "slo:transfer_success");
}

// --- sampler-column watchdogs -----------------------------------------------

TEST(HealthDetectors, EventDropDeltaIsInstantCritical) {
  obs::HealthEngine engine;
  const std::vector<std::string> names = {"events_dropped"};
  engine.on_sample(1000, names, {0});
  EXPECT_EQ(engine.counts().fired, 0u);
  engine.on_sample(2000, names, {3});  // delta > 0
  const auto drops = transitions_for(engine, "event_drop");
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops.back().phase, obs::AlertPhase::kFiring);
  EXPECT_EQ(drops.back().severity, "critical");
  engine.on_sample(3000, names, {3});  // flat again → resolve
  EXPECT_EQ(transitions_for(engine, "event_drop").back().phase,
            obs::AlertPhase::kResolved);
  // Integrity SLO saw one bad sampling interval.
  EXPECT_EQ(engine.slos()[2].bad, 1u);
}

// --- epoch reset ------------------------------------------------------------

TEST(HealthEngine, TimeRegressionResetsEpoch) {
  obs::HealthEngine engine;
  engine.on_breaker(50'000, 1, 2, true);
  EXPECT_EQ(engine.counts().active_firing, 1u);
  // A new campaign in the same process starts its clock over.
  engine.on_breaker(1000, 1, 2, false);
  const auto c = engine.counts();
  EXPECT_EQ(c.observations, 1u);  // reset, then this observation
  EXPECT_EQ(c.fired, 0u);
  EXPECT_EQ(c.active_firing, 0u);
  EXPECT_TRUE(engine.alerts().empty());
  EXPECT_TRUE(engine.transitions().empty());
}

// --- observe_json ↔ typed-feed parity ---------------------------------------

TEST(HealthEngine, ObserveJsonMatchesTypedFeeds) {
  obs::HealthEngine live;
  live.on_sample(1000, {"jobs_queued"}, {10});
  live.on_link_sample(1800, 0, 1, 5, 0.97);
  live.on_breaker(2000, 0, 1, true);
  live.on_transfer_terminal(3000, false, "stalled_terminal", 2000);
  live.on_transfer_terminal(4000, true, "none", 1500);

  const std::vector<std::string> lines = {
      R"({"ts":1000,"kind":"sample","entity":0,"jobs_queued":10})",
      R"({"ts":1800,"kind":"link_sample","entity":1,"src":0,"dst":1,)"
      R"("queued":5,"utilization":0.97})",
      R"({"ts":2000,"kind":"breaker_state","entity":7,"src":0,"dst":1,)"
      R"("state":"open"})",
      R"({"ts":3000,"kind":"transfer_fail","entity":9,"submitted":1000,)"
      R"("error":"stalled_terminal"})",
      R"({"ts":4000,"kind":"transfer_done","entity":10,"submitted":2500})",
      // Unknown kinds — including alert — must be ignored.
      R"({"ts":4100,"kind":"alert","entity":"link:0->1",)"
      R"("detector":"link_util_spike","phase":"resolved"})",
      R"({"ts":4200,"kind":"job_state","entity":3,"state":"running"})",
  };
  obs::HealthEngine replayed;
  for (const std::string& line : lines) {
    const auto parsed = util::json::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    replayed.observe_json(*parsed);
  }
  EXPECT_EQ(live.status_json(), replayed.status_json());
}

TEST(HealthEngine, StatusJsonIsWellFormed) {
  obs::HealthEngine engine;
  engine.on_link_sample(1000, 0, 1, 3, 1.0);
  engine.on_transfer_terminal(2000, true, "none", 100);
  const auto parsed = util::json::parse(engine.status_json());
  ASSERT_TRUE(parsed.has_value());
  const util::json::Value* counts = parsed->find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->get_int("observations"), 2);
  ASSERT_NE(parsed->find("alerts"), nullptr);
  ASSERT_NE(parsed->find("slos"), nullptr);
  EXPECT_EQ(parsed->find("slos")->arr.size(), 3u);
}

// --- gauges -----------------------------------------------------------------

TEST(HealthEngine, ExportsAlertAndBurnGauges) {
  obs::HealthEngine engine;
  engine.on_link_sample(1000, 4, 5, 2, 1.0);
  engine.on_sample(2000, {}, {});  // gauge export runs on sampler ticks
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(snapshot.gauge_value("pandarus_health_alerts_firing"), 1);
  EXPECT_EQ(snapshot.gauge_value("pandarus_health_alerts_resolved_total"), 0);
}

// --- campaign-level guarantees ----------------------------------------------

scenario::ScenarioConfig chaos_config() {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  config.faults.intensity = 2.0;
  config.with_self_healing();
  return config;
}

std::string strip_alert_lines(const std::string& ndjson) {
  std::string out;
  out.reserve(ndjson.size());
  std::istringstream in(ndjson);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"alert\"") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

TEST(HealthCampaign, AlertStripRestoresBaselineBytesAndReplayParity) {
  // Baseline: instrumented campaign without the health engine.
  obs::EventLog baseline_log;
  const auto baseline =
      scenario::run_campaign(chaos_config(), {.events = &baseline_log});
  baseline_log.close();

  // Same campaign with the engine armed and alert emission on.
  TempFile file("health_campaign.ndjson");
  obs::EventSinks sinks;
  sinks.ndjson_path = file.path();
  obs::EventLog health_log(sinks);
  obs::HealthEngine engine;
  const auto health_run = scenario::run_campaign(
      chaos_config(), {.events = &health_log, .health = &engine});
  health_log.close();

  // Armed detectors are read-only: the simulation is untouched.
  EXPECT_EQ(baseline.panda.finished, health_run.panda.finished);
  EXPECT_EQ(baseline.transfers.completed, health_run.transfers.completed);

  // The chaos campaign deterministically fires and resolves alerts.
  const auto counts = engine.counts();
  EXPECT_GE(counts.fired, 1u);
  EXPECT_GE(counts.resolved, 1u);

  // Stripping alert lines restores the baseline bytes exactly —
  // including the log_stats self-description (alerts ride sideband).
  // The health-on stream is read back from its sink file: a log with a
  // file sink frees its lines once written.
  std::ifstream in(file.path(), std::ios::binary);
  const std::string health_ndjson{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  EXPECT_EQ(strip_alert_lines(health_ndjson), baseline_log.to_ndjson());

  // Replaying the health-on stream derives the exact live state.
  ASSERT_EQ(health_log.io_errors(), 0u);
  const auto derived = analysis::derive_health_file(file.path());
  ASSERT_NE(derived, nullptr);
  EXPECT_EQ(derived->status_json(), engine.status_json());
}

TEST(HealthCampaign, SameSeedSameAlerts) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    obs::EventLog log;
    obs::HealthEngine engine;
    (void)scenario::run_campaign(chaos_config(),
                                 {.events = &log, .health = &engine});
    log.close();
    if (run == 0) {
      first = engine.status_json();
    } else {
      EXPECT_EQ(engine.status_json(), first);
    }
  }
}

// --- concurrency (exercised under TSan in CI) -------------------------------

TEST(HealthEngine, ConcurrentFeedsAndSnapshots) {
  obs::HealthEngine engine;
  constexpr int kOps = 2000;
  std::thread links([&engine] {
    for (int i = 0; i < kOps; ++i) {
      engine.on_link_sample(1000, i % 4, (i + 1) % 4, i % 3,
                            (i % 10) / 10.0);
    }
  });
  std::thread transfers([&engine] {
    for (int i = 0; i < kOps; ++i) {
      engine.on_transfer_terminal(1000, i % 5 != 0,
                                  i % 5 == 0 ? "stalled_terminal" : "none",
                                  100 + i);
    }
  });
  std::thread readers([&engine] {
    for (int i = 0; i < 200; ++i) {
      (void)engine.status_json();
      (void)engine.counts();
      (void)engine.alerts();
      (void)engine.slos();
    }
  });
  links.join();
  transfers.join();
  readers.join();
  EXPECT_EQ(engine.counts().observations,
            static_cast<std::uint64_t>(2 * kOps));
}

}  // namespace
}  // namespace pandarus
