// Fault injection and the self-healing transfer path: plan sampling,
// injector window activation, retry backoff, circuit breakers,
// alternate-source rerouting, and the campaign-level invariants
// (drain + transfer conservation + byte-identical replay) under chaos,
// including campaigns that share a process: beside a foreign injector
// and concurrently on two threads, each in its own obs::Session.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/events_replay.hpp"
#include "dms/catalog.hpp"
#include "dms/transfer.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "grid/builder.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "scenario/campaign.hpp"
#include "sim/scheduler.hpp"
#include "wms/panda_server.hpp"

namespace pandarus {
namespace {

/// Tiny 3-site world mirroring the dms_test fixture: T0 and T1 joined
/// by a fast link, a T2 behind slow ones.
struct World {
  grid::Topology topo;
  dms::RseRegistry rses;
  dms::FileCatalog catalog;
  dms::ReplicaCatalog replicas{catalog, rses};
  sim::Scheduler scheduler;

  grid::SiteId t0 = 0, t1 = 0, t2 = 0;
  dms::RseId t0_disk = dms::kNoRse, t1_disk = dms::kNoRse,
             t2_disk = dms::kNoRse;

  World() {
    auto add = [&](const char* name, grid::Tier tier) {
      grid::Site s;
      s.name = name;
      s.tier = tier;
      s.lan_bandwidth_bps = 1e9;
      s.max_parallel_streams = 4;
      return topo.add_site(s);
    };
    t0 = add("T0", grid::Tier::kT0);
    t1 = add("T1", grid::Tier::kT1);
    t2 = add("T2", grid::Tier::kT2);
    for (grid::SiteId i = 0; i < 3; ++i) {
      for (grid::SiteId j = 0; j < 3; ++j) {
        grid::NetworkLink link;
        link.key = {i, j};
        link.capacity_bps = i == j ? 1e9 : (i <= 1 && j <= 1 ? 500e6 : 50e6);
        link.latency_ms = 1.0;
        link.max_active = i == j ? 4 : 2;
        grid::LoadModel::Params load;
        load.mean_util = 0.0;
        load.diurnal_amplitude = 0.0;
        load.burst_prob = 0.0;
        link.load = grid::LoadModel(load);
        topo.add_link(link);
      }
    }
    auto add_rse = [&](const char* name, grid::SiteId site,
                       dms::RseKind kind) {
      dms::Rse r;
      r.name = name;
      r.site = site;
      r.kind = kind;
      return rses.add(std::move(r));
    };
    t0_disk = add_rse("T0_DISK", t0, dms::RseKind::kDisk);
    t1_disk = add_rse("T1_DISK", t1, dms::RseKind::kDisk);
    t2_disk = add_rse("T2_DISK", t2, dms::RseKind::kDisk);
  }

  dms::TransferEngine::Params quiet_params() {
    dms::TransferEngine::Params p;
    p.failure_prob = 0.0;
    p.stall_prob = 0.0;
    p.registration_failure_prob = 0.0;
    p.per_stream_cap_bps = 1e12;
    return p;
  }

  dms::FileId one_file(std::uint64_t bytes, dms::RseId at) {
    const dms::DatasetId ds = catalog.create_dataset("data", "data.test");
    const dms::FileId f = catalog.add_file(ds, bytes);
    replicas.add_replica(f, at);
    return f;
  }
};

TEST(FaultPlan, SampleIsDeterministicAndClamped) {
  World w;
  fault::Plan::SampleParams params;
  params.intensity = 3.0;
  const util::SimTime horizon = util::days(2);

  const fault::Plan a = fault::Plan::sample(params, w.topo, horizon, 99);
  const fault::Plan b = fault::Plan::sample(params, w.topo, horizon, 99);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  EXPECT_FALSE(a.windows.empty());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].kind, b.windows[i].kind);
    EXPECT_EQ(a.windows[i].begin, b.windows[i].begin);
    EXPECT_EQ(a.windows[i].end, b.windows[i].end);
    EXPECT_EQ(a.windows[i].site, b.windows[i].site);
    // Clamped to the horizon, non-empty, time-ordered.
    EXPECT_GE(a.windows[i].begin, 0);
    EXPECT_LE(a.windows[i].end, horizon);
    EXPECT_LT(a.windows[i].begin, a.windows[i].end);
    if (i > 0) {
      EXPECT_GE(a.windows[i].begin, a.windows[i - 1].begin);
    }
  }

  const fault::Plan other = fault::Plan::sample(params, w.topo, horizon, 100);
  ASSERT_FALSE(other.empty());
  EXPECT_TRUE(other.windows.size() != a.windows.size() ||
              other.windows[0].begin != a.windows[0].begin);

  params.intensity = 0.0;
  EXPECT_TRUE(fault::Plan::sample(params, w.topo, horizon, 99).empty());
}

TEST(FaultInjector, WindowsActivateAndExpire) {
  World w;
  fault::Injector injector(w.scheduler);

  fault::Plan plan;
  fault::FaultWindow outage;
  outage.kind = fault::FaultKind::kSiteOutage;
  outage.site = w.t1;
  outage.begin = 100;
  outage.end = 200;
  plan.add(outage);

  fault::FaultWindow blackout;
  blackout.kind = fault::FaultKind::kLinkBlackout;
  blackout.link = {w.t0, w.t2};
  blackout.begin = 150;
  blackout.end = 250;
  plan.add(blackout);

  fault::FaultWindow brownout;
  brownout.kind = fault::FaultKind::kLinkBrownout;
  brownout.link = {w.t0, w.t1};
  brownout.capacity_factor = 0.25;
  brownout.begin = 100;
  brownout.end = 300;
  plan.add(brownout);

  fault::FaultWindow service;
  service.kind = fault::FaultKind::kServiceBrownout;
  service.abort_boost = 0.2;
  service.begin = 50;
  service.end = 150;
  plan.add(service);

  injector.arm(plan);
  EXPECT_EQ(injector.stats().armed, 4u);

  EXPECT_FALSE(injector.site_down(w.t1));
  EXPECT_DOUBLE_EQ(injector.abort_boost(), 0.0);

  w.scheduler.run_until(120);
  EXPECT_TRUE(injector.site_down(w.t1));
  EXPECT_TRUE(injector.storage_down(w.t1));
  EXPECT_TRUE(injector.link_blocked(w.t0, w.t1));  // endpoint down
  EXPECT_FALSE(injector.link_blocked(w.t0, w.t2));
  EXPECT_DOUBLE_EQ(injector.link_capacity_factor(w.t0, w.t1), 0.25);
  EXPECT_DOUBLE_EQ(injector.link_capacity_factor(w.t1, w.t0), 1.0);
  EXPECT_DOUBLE_EQ(injector.abort_boost(), 0.2);
  EXPECT_EQ(injector.blocked_until(w.t0, w.t1), 200);

  w.scheduler.run_until(180);
  EXPECT_TRUE(injector.link_blocked(w.t0, w.t2));
  EXPECT_EQ(injector.blocked_until(w.t0, w.t2), 250);
  EXPECT_DOUBLE_EQ(injector.abort_boost(), 0.0);

  w.scheduler.run_until(1000);
  EXPECT_FALSE(injector.site_down(w.t1));
  EXPECT_FALSE(injector.link_blocked(w.t0, w.t2));
  EXPECT_DOUBLE_EQ(injector.link_capacity_factor(w.t0, w.t1), 1.0);
  EXPECT_EQ(injector.active_count(), 0u);
  EXPECT_EQ(injector.stats().begun, 4u);
  EXPECT_EQ(injector.stats().ended, 4u);
}

TEST(TransferEngine, RetryBackoffDelaysRequeue) {
  World w;
  auto params = w.quiet_params();
  params.failure_prob = 1.0;  // every attempt aborts
  params.max_attempts = 3;
  params.retry_backoff_base = util::seconds(10);

  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(7),
                             params);
  std::vector<dms::TransferOutcome> outcomes;
  engine.set_sink([&outcomes](const dms::TransferOutcome& o) {
    outcomes.push_back(o);
  });

  const dms::FileId f = w.one_file(1'000'000, w.t0_disk);
  dms::TransferRequest req;
  req.file = f;
  req.size_bytes = 1'000'000;
  req.src = w.t0;
  req.dst = w.t1;
  engine.submit(std::move(req));
  w.scheduler.run_until(util::days(1));

  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().backoff_delays, 2u);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_TRUE(w.scheduler.empty());
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].success);
  EXPECT_EQ(outcomes[0].attempts, 3u);
  EXPECT_EQ(outcomes[0].error, dms::TransferError::kAborted);
  // The two backoff delays (~10 s and ~20 s, jittered ±25%) must push
  // the terminal failure well past the no-backoff completion time.
  EXPECT_GT(outcomes[0].finished_at, util::seconds(20));
}

TEST(TransferEngine, BreakerOpensAndRejectsTerminally) {
  World w;
  auto params = w.quiet_params();
  params.failure_prob = 1.0;
  params.max_attempts = 2;
  params.breaker_enabled = true;
  params.breaker_threshold = 2;
  params.breaker_cooldown = util::minutes(10);

  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(7),
                             params);
  std::vector<dms::TransferOutcome> outcomes;
  engine.set_sink([&outcomes](const dms::TransferOutcome& o) {
    outcomes.push_back(o);
  });

  const dms::FileId f = w.one_file(1'000'000, w.t0_disk);
  for (int i = 0; i < 4; ++i) {
    dms::TransferRequest req;
    req.file = f;
    req.size_bytes = 1'000'000;
    req.src = w.t0;
    req.dst = w.t1;
    engine.submit(std::move(req));
  }
  w.scheduler.run_until(util::days(2));

  EXPECT_GE(engine.stats().breaker_opens, 1u);
  EXPECT_EQ(engine.stats().completed, 0u);
  EXPECT_EQ(engine.stats().failed, 4u);
  EXPECT_EQ(engine.stats().submitted,
            engine.stats().completed + engine.stats().failed +
                engine.stats().quota_rejections);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_TRUE(w.scheduler.empty());
  bool saw_breaker_rejection = false;
  for (const dms::TransferOutcome& o : outcomes) {
    if (o.error == dms::TransferError::kBreakerRejected) {
      saw_breaker_rejection = true;
    }
  }
  EXPECT_TRUE(saw_breaker_rejection);
}

TEST(TransferEngine, AlternateSourceRoutesAroundBlackout) {
  World w;
  auto params = w.quiet_params();
  params.alternate_source_retry = true;

  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(7),
                             params);
  engine.enable_alternate_sources(w.rses);
  fault::Injector injector(w.scheduler);
  engine.set_injector(injector);

  const dms::FileId f = w.one_file(1'000'000, w.t0_disk);
  w.replicas.add_replica(f, w.t1_disk);

  fault::Plan plan;
  fault::FaultWindow blackout;
  blackout.kind = fault::FaultKind::kLinkBlackout;
  blackout.link = {w.t0, w.t2};
  blackout.begin = 10;
  blackout.end = util::hours(2);
  plan.add(blackout);
  injector.arm(plan);

  std::vector<dms::TransferOutcome> outcomes;
  engine.set_sink([&outcomes](const dms::TransferOutcome& o) {
    outcomes.push_back(o);
  });
  w.scheduler.schedule_at(util::minutes(1), [&engine, &w, f] {
    dms::TransferRequest req;
    req.file = f;
    req.size_bytes = 1'000'000;
    req.src = w.t0;  // the blacked-out source
    req.dst = w.t2;
    engine.submit(std::move(req));
  });
  w.scheduler.run_until(util::days(1));

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success);
  EXPECT_EQ(outcomes[0].src, w.t1);  // rerouted to the healthy replica
  EXPECT_GE(engine.stats().alt_source_retries, 1u);
  // Rerouting beat waiting: done long before the blackout lifts.
  EXPECT_LT(outcomes[0].finished_at, util::hours(2));
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(TransferEngine, BlackoutAbortsActiveAndRecoversAfterWindow) {
  World w;
  auto params = w.quiet_params();
  params.max_attempts = 3;

  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(7),
                             params);
  fault::Injector injector(w.scheduler);
  engine.set_injector(injector);

  // 10 GB over 500e6 B/s needs ~20 s; the blackout hits mid-flight.
  const dms::FileId f = w.one_file(10'000'000'000ULL, w.t0_disk);
  fault::Plan plan;
  fault::FaultWindow blackout;
  blackout.kind = fault::FaultKind::kLinkBlackout;
  blackout.link = {w.t0, w.t1};
  blackout.begin = util::seconds(5);
  blackout.end = util::minutes(5);
  plan.add(blackout);
  injector.arm(plan);

  std::vector<dms::TransferOutcome> outcomes;
  engine.set_sink([&outcomes](const dms::TransferOutcome& o) {
    outcomes.push_back(o);
  });
  dms::TransferRequest req;
  req.file = f;
  req.size_bytes = 10'000'000'000ULL;
  req.src = w.t0;
  req.dst = w.t1;
  engine.submit(std::move(req));
  w.scheduler.run_until(util::days(1));

  // The in-flight attempt aborted at window begin, requeued, waited out
  // the blackout, and completed on a later attempt.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success);
  EXPECT_GE(outcomes[0].attempts, 2u);
  EXPECT_GT(outcomes[0].finished_at, util::minutes(5));
  EXPECT_GE(engine.stats().retries, 1u);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_TRUE(w.scheduler.empty());
}

TEST(TransferEngine, StalledTransferOutlivesWatchdogAndStillFinalizes) {
  World w;
  auto params = w.quiet_params();
  params.stall_prob = 1.0;
  params.stall_factor_min = 0.001;
  params.stall_factor_max = 0.001;

  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(7),
                             params);
  std::vector<dms::TransferOutcome> outcomes;
  engine.set_sink([&outcomes](const dms::TransferOutcome& o) {
    outcomes.push_back(o);
  });

  const dms::FileId f = w.one_file(5'000'000'000ULL, w.t0_disk);
  dms::TransferRequest req;
  req.file = f;
  req.size_bytes = 5'000'000'000ULL;
  req.src = w.t0;
  req.dst = w.t1;
  engine.submit(std::move(req));
  w.scheduler.run_until(util::days(7));

  // At 0.1% of fair share the transfer takes hours — far beyond the
  // PandaServer staging watchdog (stage_timeout defaults to 20 min) —
  // yet it must still finalize, release in_flight, and leave the
  // scheduler drainable rather than leak a pinned event.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success);
  EXPECT_GT(outcomes[0].finished_at,
            wms::PandaServer::Params{}.stage_timeout);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_TRUE(w.scheduler.empty());
}

TEST(TransferEngine, ProbeAdvancesByteProgressToProbeInstant) {
  World w;
  auto params = w.quiet_params();
  params.rerate_interval = util::hours(10);  // no rerate between probes

  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(7),
                             params);
  const dms::FileId f = w.one_file(10'000'000'000ULL, w.t0_disk);
  dms::TransferRequest req;
  req.file = f;
  req.size_bytes = 10'000'000'000ULL;
  req.src = w.t0;
  req.dst = w.t1;
  engine.submit(std::move(req));

  // ~20 s transfer at 500 MB/s; probe 10 s in: roughly half the bytes
  // must be gone even though no rate re-evaluation has run since start.
  w.scheduler.run_until(util::seconds(10));
  const auto probes = engine.probe_links();
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].active, 1u);
  EXPECT_LT(probes[0].bytes_in_flight, 6'000'000'000ULL);
  EXPECT_GT(probes[0].bytes_in_flight, 4'000'000'000ULL);

  w.scheduler.run_until(util::days(1));
  EXPECT_TRUE(engine.probe_links().empty());
}

TEST(CampaignFaults, DrainsAndConservesTransfersAcrossIntensities) {
  for (const double intensity : {0.5, 2.0, 5.0}) {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.faults.intensity = intensity;
    config.with_self_healing();
    const scenario::ScenarioResult r = scenario::run_campaign(config);

    SCOPED_TRACE(intensity);
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.transfers_in_flight, 0u);
    EXPECT_EQ(r.transfers.submitted,
              r.transfers.completed + r.transfers.failed +
                  r.transfers.quota_rejections);
  }
}

TEST(CampaignFaults, SiteOutageKillsRunningJobsAndBrokerageSkips) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.with_self_healing();
  // Take the three biggest sites down for most of the morning.
  for (grid::SiteId site = 0; site < 3; ++site) {
    fault::FaultWindow outage;
    outage.kind = fault::FaultKind::kSiteOutage;
    outage.site = site;
    outage.begin = util::hours(2);
    outage.end = util::hours(8);
    config.fault_windows.push_back(outage);
  }
  const scenario::ScenarioResult r = scenario::run_campaign(config);

  EXPECT_EQ(r.fault_windows, 3u);
  EXPECT_GT(r.panda.site_outage_kills, 0u);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.transfers.submitted,
            r.transfers.completed + r.transfers.failed +
                r.transfers.quota_rejections);
}

TEST(CampaignFaults, IdenticalSeedAndPlanGiveByteIdenticalEvents) {
  auto run = [] {
    obs::EventLog log;
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.faults.intensity = 2.0;
    config.with_self_healing();
    (void)scenario::run_campaign(config, {.events = &log});
    return log.to_ndjson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"kind\":\"fault_window\""), std::string::npos);

  // The stream replays, carrying the fault windows and failure causes.
  std::istringstream in(a);
  const analysis::ReplayResult replay = analysis::replay_events(in);
  EXPECT_FALSE(replay.fault_windows.empty());
  EXPECT_GT(replay.kind_counts.count("fault_window"), 0u);
}

TEST(CampaignFaults, ForeignInjectorLeavesAFaultFreeCampaignAlone) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 7;
  const auto record = [&config] {
    obs::EventLog log;
    (void)scenario::run_campaign(config, {.events = &log});
    log.close();
    return log.to_ndjson();
  };
  const std::string solo = record();

  // Another simulation in the process holds one fault window open.
  sim::Scheduler elsewhere;
  fault::Injector foreign(elsewhere);
  fault::FaultWindow blackout;
  blackout.kind = fault::FaultKind::kLinkBlackout;
  blackout.link = {0, 1};
  blackout.begin = 0;
  blackout.end = util::days(1);
  fault::Plan plan;
  plan.add(blackout);
  foreign.arm(plan);
  elsewhere.run_until(util::hours(1));
  ASSERT_EQ(foreign.active_count(), 1u);

  const std::string beside = record();
  EXPECT_EQ(beside, solo);
  // The sampled fault column counts this campaign's windows: none.
  const std::size_t sample = beside.find("\"kind\":\"sample\"");
  ASSERT_NE(sample, std::string::npos);
  const std::string row =
      beside.substr(sample, beside.find('\n', sample) - sample);
  EXPECT_NE(row.find("\"pandarus_fault_windows_active\":0,"),
            std::string::npos)
      << row;
}

/// What one chaos campaign leaves in its own session.
struct ChaosRun {
  std::string ndjson;
  std::string alerts;
  obs::FlowTotals flows;
  std::uint64_t fault_windows = 0;
};

ChaosRun run_chaos(std::uint64_t seed) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = seed;
  config.faults.intensity = 2.0;
  config.with_self_healing();
  obs::EventLog log;
  obs::FlowTracker flows;
  obs::HealthEngine health;
  const scenario::ScenarioResult result = scenario::run_campaign(
      config, {.events = &log, .flows = &flows, .health = &health});
  log.close();
  return {log.to_ndjson(), health.status_json(), flows.totals(),
          result.fault_windows};
}

void expect_same_run(const ChaosRun& got, const ChaosRun& want) {
  EXPECT_EQ(got.ndjson, want.ndjson);
  EXPECT_EQ(got.alerts, want.alerts);
  EXPECT_EQ(got.flows.flows, want.flows.flows);
  EXPECT_EQ(got.flows.failed, want.flows.failed);
  EXPECT_EQ(got.flows.sequential_staging, want.flows.sequential_staging);
  EXPECT_EQ(got.flows.redundant_transfers, want.flows.redundant_transfers);
  EXPECT_EQ(got.flows.watchdog_releases, want.flows.watchdog_releases);
  EXPECT_EQ(got.flows.reroutes, want.flows.reroutes);
  EXPECT_EQ(got.fault_windows, want.fault_windows);
}

TEST(CampaignFaults, TwoChaosCampaignsOnTwoThreadsMatchTheirSoloRuns) {
  const ChaosRun solo_a = run_chaos(7);
  const ChaosRun solo_b = run_chaos(11);
  ASSERT_GE(solo_a.fault_windows, 1u);
  ASSERT_GE(solo_b.fault_windows, 1u);
  ASSERT_GT(solo_a.flows.flows, 0u);
  ASSERT_NE(solo_a.ndjson, solo_b.ndjson);

  ChaosRun a;
  ChaosRun b;
  std::thread first([&a] { a = run_chaos(7); });
  std::thread second([&b] { b = run_chaos(11); });
  first.join();
  second.join();
  {
    SCOPED_TRACE("seed 7");
    expect_same_run(a, solo_a);
  }
  {
    SCOPED_TRACE("seed 11");
    expect_same_run(b, solo_b);
  }
}

}  // namespace
}  // namespace pandarus
