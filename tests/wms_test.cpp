// Unit/integration tests for the PanDA-like workload substrate:
// brokerage policies, site queues, the job lifecycle through the
// PandaServer, staging behaviour and error injection.
#include <gtest/gtest.h>

#include <set>

#include "dms/rule.hpp"
#include "fault/injector.hpp"
#include "grid/builder.hpp"
#include "sim/scheduler.hpp"
#include "wms/brokerage.hpp"
#include "wms/panda_server.hpp"
#include "wms/site_queue.hpp"
#include "wms/workload.hpp"

namespace pandarus::wms {
namespace {

struct World {
  grid::Topology topo;
  dms::RseRegistry rses;
  dms::FileCatalog catalog;
  dms::ReplicaCatalog replicas{catalog, rses};
  sim::Scheduler scheduler;

  grid::SiteId t0, t1, t2;
  dms::RseId t0_disk, t0_tape, t1_disk, t2_disk;

  World() {
    auto add = [&](const char* name, grid::Tier tier,
                   std::uint32_t slots) {
      grid::Site s;
      s.name = name;
      s.tier = tier;
      s.cpu_slots = slots;
      s.cpu_speed = 1.0;
      s.storage_bytes = 1'000'000'000'000ULL;
      s.lan_bandwidth_bps = 1e9;
      s.batch_delay_mean_ms = 1'000.0;
      s.base_failure_prob = 0.0;
      return topo.add_site(s);
    };
    t0 = add("T0", grid::Tier::kT0, 64);
    t1 = add("T1", grid::Tier::kT1, 32);
    t2 = add("T2", grid::Tier::kT2, 16);
    for (grid::SiteId i = 0; i < 3; ++i) {
      for (grid::SiteId j = 0; j < 3; ++j) {
        grid::NetworkLink link;
        link.key = {i, j};
        link.capacity_bps = i == j ? 1e9 : 200e6;
        link.latency_ms = 1.0;
        link.max_active = 4;
        grid::LoadModel::Params quiet;
        quiet.mean_util = 0.0;
        quiet.diurnal_amplitude = 0.0;
        quiet.burst_prob = 0.0;
        link.load = grid::LoadModel(quiet);
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
    t0_tape = add_rse("T0_TAPE", t0, dms::RseKind::kTape);
    t1_disk = add_rse("T1_DISK", t1, dms::RseKind::kDisk);
    t2_disk = add_rse("T2_DISK", t2, dms::RseKind::kDisk);
  }
};

TEST(Errors, MessagesExist) {
  EXPECT_STREQ(errors::message(errors::kOverlay),
               "Non-zero return code from Overlay (1)");
  EXPECT_STREQ(errors::message(errors::kNone), "OK");
  EXPECT_STREQ(errors::message(424242), "Unknown error");
}

TEST(Job, DerivedTimes) {
  Job j;
  j.creation_time = 100;
  j.start_time = 400;
  j.end_time = 1000;
  EXPECT_EQ(j.queuing_time(), 300);
  EXPECT_EQ(j.wall_time(), 600);
}

TEST(SiteQueues, AdmitsUpToSlots) {
  World w;
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  int started = 0;
  for (int i = 0; i < 20; ++i) {
    queues.request_slot(w.t2, [&] { ++started; });
  }
  // 16 slots at T2: 16 admitted (after pilot delay), 4 queued.
  EXPECT_EQ(queues.running(w.t2), 16u);
  EXPECT_EQ(queues.queued(w.t2), 4u);
  w.scheduler.run();
  EXPECT_EQ(started, 16);
  for (int i = 0; i < 4; ++i) queues.release_slot(w.t2);
  w.scheduler.run();
  EXPECT_EQ(started, 20);
}

TEST(SiteQueues, HigherPriorityAdmittedFirst) {
  World w;
  // One-slot site: admissions serialize.
  grid::Site tiny;
  tiny.name = "TINY";
  tiny.cpu_slots = 1;
  tiny.batch_delay_mean_ms = 10.0;
  const grid::SiteId site = w.topo.add_site(tiny);
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));

  std::vector<int> order;
  // Fill the slot, then enqueue mixed priorities while it is busy.
  queues.request_slot(site, [&] { order.push_back(0); }, 0);
  queues.request_slot(site, [&] { order.push_back(1); }, 100);
  queues.request_slot(site, [&] { order.push_back(2); }, 900);
  queues.request_slot(site, [&] { order.push_back(3); }, 100);
  // Drain: release after each start.
  for (int i = 0; i < 4; ++i) {
    w.scheduler.run();
    queues.release_slot(site);
  }
  // Highest priority first; FIFO within equal priority.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
}

TEST(SiteQueues, EstimatedWaitGrowsWithBacklog) {
  World w;
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  const double idle = queues.estimated_wait_ms(w.t2);
  for (int i = 0; i < 40; ++i) queues.request_slot(w.t2, [] {});
  EXPECT_GT(queues.estimated_wait_ms(w.t2), idle);
}

Job make_job(World& w, JobId id, TaskId task, std::uint32_t n_files,
             std::uint64_t file_size = 1'000'000) {
  Job j;
  j.pandaid = id;
  j.jeditaskid = task;
  j.kind = JobKind::kUserAnalysis;
  j.base_exec_ms = 60'000;
  const dms::DatasetId ds = w.catalog.create_dataset(
      "mc23", "wmstest." + std::to_string(id));
  for (std::uint32_t i = 0; i < n_files; ++i) {
    const dms::FileId f = w.catalog.add_file(ds, file_size);
    j.input_files.push_back(f);
    j.ninputfilebytes += file_size;
  }
  return j;
}

TEST(Brokerage, DataLocalityFollowsReplicas) {
  World w;
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  Brokerage broker(w.topo, w.catalog, w.replicas, Brokerage::Params{});
  util::Rng rng(3);
  Job j = make_job(w, 1, 10, 3);
  for (dms::FileId f : j.input_files) w.replicas.add_replica(f, w.t1_disk);
  EXPECT_EQ(broker.choose_site(j, queues, rng), w.t1);
}

TEST(Brokerage, TapeResidencyAttractsWithDiscount) {
  World w;
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  Brokerage broker(w.topo, w.catalog, w.replicas, Brokerage::Params{});
  util::Rng rng(3);
  Job j = make_job(w, 1, 10, 3);
  // Data only on tape at T0: T0 should still win (0.4 weight beats 0).
  for (dms::FileId f : j.input_files) w.replicas.add_replica(f, w.t0_tape);
  EXPECT_EQ(broker.choose_site(j, queues, rng), w.t0);
}

TEST(Brokerage, DiskBeatsTape) {
  World w;
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  Brokerage broker(w.topo, w.catalog, w.replicas, Brokerage::Params{});
  util::Rng rng(3);
  Job j = make_job(w, 1, 10, 3);
  for (dms::FileId f : j.input_files) {
    w.replicas.add_replica(f, w.t0_tape);
    w.replicas.add_replica(f, w.t2_disk);
  }
  EXPECT_EQ(broker.choose_site(j, queues, rng), w.t2);
}

TEST(Brokerage, LoadAwareAvoidsBusySite) {
  World w;
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  Brokerage::Params params;
  params.policy = BrokeragePolicy::kLoadAware;
  Brokerage broker(w.topo, w.catalog, w.replicas, params);
  util::Rng rng(3);
  // Flood T0 with queued work.
  for (int i = 0; i < 500; ++i) queues.request_slot(w.t0, [] {});
  Job j = make_job(w, 1, 10, 1);
  const grid::SiteId chosen = broker.choose_site(j, queues, rng);
  EXPECT_NE(chosen, w.t0);
}

TEST(Brokerage, ProductionExcludedFromT3) {
  World w;
  grid::Site t3;
  t3.name = "T3";
  t3.tier = grid::Tier::kT3;
  t3.cpu_slots = 1'000'000;  // hugely attractive by idle capacity
  const grid::SiteId t3_id = w.topo.add_site(t3);
  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  Brokerage broker(w.topo, w.catalog, w.replicas, Brokerage::Params{});
  util::Rng rng(3);
  Job j = make_job(w, 1, 10, 0);
  j.kind = JobKind::kProduction;
  EXPECT_NE(broker.choose_site(j, queues, rng), t3_id);
}

/// Brokerage as it scored sites before it built one resident-bytes
/// array per job: for every candidate site, a walk over every input
/// file's replicas.  Mirrors Brokerage::pick, jitter draws included.
grid::SiteId reference_pick(const World& w, const Brokerage::Params& params,
                            const Job& job, const SiteQueues& queues,
                            util::Rng& rng, const fault::Injector* injector) {
  const auto locality = [&](grid::SiteId site) {
    double bytes = 0.0;
    for (dms::FileId f : job.input_files) {
      const auto size = static_cast<double>(w.catalog.file(f).size_bytes);
      if (w.replicas.on_disk_at_site(f, site)) {
        bytes += size;
      } else if (w.replicas.resident_at_site(f, site)) {
        bytes += Brokerage::kTapeLocalityWeight * size;
      }
    }
    return bytes;
  };
  for (const bool skip_down : {true, false}) {
    grid::SiteId best = grid::kUnknownSite;
    double best_score = -1e300;
    for (const grid::Site& site : w.topo.sites()) {
      if (site.cpu_slots == 0) continue;
      if (job.kind == JobKind::kProduction && site.tier == grid::Tier::kT3) {
        continue;
      }
      if (skip_down && injector != nullptr && injector->site_down(site.id)) {
        continue;
      }
      double score = 0.0;
      switch (params.policy) {
        case BrokeragePolicy::kDataLocality:
          score = locality(site.id) +
                  (1.0 - std::min(1.0, static_cast<double>(
                                           queues.running(site.id) +
                                           queues.queued(site.id)) /
                                           static_cast<double>(
                                               site.cpu_slots))) *
                      1e3;
          break;
        case BrokeragePolicy::kLoadAware:
          score = -queues.estimated_wait_ms(site.id);
          break;
        case BrokeragePolicy::kHybrid:
          score = locality(site.id) / 1e9 * Brokerage::kWaitPerGbMs -
                  queues.estimated_wait_ms(site.id);
          break;
      }
      score += rng.next_double() * 1e-3;
      if (score > best_score) {
        best_score = score;
        best = site.id;
      }
    }
    if (best != grid::kUnknownSite) return best;
  }
  return grid::kUnknownSite;
}

TEST(Brokerage, ChoiceMatchesPerSiteReplicaWalkOnRandomCatalog) {
  World w;
  // Three more sites: a T1 with disk and tape, and two T3s.
  const auto add_site = [&](const char* name, grid::Tier tier,
                            std::uint32_t slots) {
    grid::Site s;
    s.name = name;
    s.tier = tier;
    s.cpu_slots = slots;
    s.cpu_speed = 1.0;
    s.batch_delay_mean_ms = 1'000.0;
    return w.topo.add_site(s);
  };
  const grid::SiteId t1b = add_site("T1B", grid::Tier::kT1, 24);
  add_site("T3A", grid::Tier::kT3, 8);
  add_site("T3B", grid::Tier::kT3, 0);  // no slots: never eligible
  std::vector<dms::RseId> rse_ids = {w.t0_disk, w.t0_tape, w.t1_disk,
                                     w.t2_disk};
  for (const auto& [name, kind] :
       {std::pair{"T1B_DISK", dms::RseKind::kDisk},
        std::pair{"T1B_TAPE", dms::RseKind::kTape}}) {
    dms::Rse r;
    r.name = name;
    r.site = t1b;
    r.kind = kind;
    rse_ids.push_back(w.rses.add(std::move(r)));
  }

  // Seeded catalog: odd sizes, so tape-weighted sums round, and each
  // file on 0-4 random RSEs.  File 0 has disk and tape copies at T0.
  util::Rng rng(20250917);
  const dms::DatasetId ds = w.catalog.create_dataset("mc23", "broker.ds");
  std::vector<dms::FileId> files;
  for (int i = 0; i < 48; ++i) {
    files.push_back(
        w.catalog.add_file(ds, 1'000'003 + rng.uniform_index(4'000'000'000)));
    for (std::size_t k = rng.uniform_index(5); k > 0; --k) {
      w.replicas.add_replica(files.back(),
                             rse_ids[rng.uniform_index(rse_ids.size())]);
    }
  }
  w.replicas.add_replica(files[0], w.t0_disk);
  w.replicas.add_replica(files[0], w.t0_tape);

  SiteQueues queues(w.scheduler, w.topo, util::Rng(1));
  for (const grid::Site& site : w.topo.sites()) {
    for (std::size_t k = rng.uniform_index(40); k > 0; --k) {
      queues.request_slot(site.id, [] {});
    }
  }
  // Outages: every site from 10 to 20, so choose_site falls back to
  // ignoring them, and every site but T1B from 20 to 30.
  fault::Injector injector(w.scheduler);
  fault::Plan plan;
  for (const grid::Site& site : w.topo.sites()) {
    fault::FaultWindow window;
    window.kind = fault::FaultKind::kSiteOutage;
    window.site = site.id;
    window.begin = 10;
    window.end = site.id == t1b ? 20 : 30;
    plan.add(window);
  }
  injector.arm(plan);

  // Up, all down (the fallback pick), all but T1B down, up again.
  std::set<grid::SiteId> chosen;
  for (const util::SimTime at : {0, 15, 25, 35}) {
    w.scheduler.run_until(at);
    for (const BrokeragePolicy policy :
         {BrokeragePolicy::kDataLocality, BrokeragePolicy::kLoadAware,
          BrokeragePolicy::kHybrid}) {
      Brokerage::Params params;
      params.policy = policy;
      Brokerage broker(w.topo, w.catalog, w.replicas, params);
      broker.set_injector(injector);
      for (JobId id = 1; id <= 100; ++id) {
        Job job;
        job.pandaid = id;
        job.kind =
            id % 5 == 0 ? JobKind::kProduction : JobKind::kUserAnalysis;
        for (std::size_t k = 1 + rng.uniform_index(8); k > 0; --k) {
          job.input_files.push_back(files[rng.uniform_index(files.size())]);
        }
        const std::uint64_t seed = rng.next_u64();
        util::Rng a(seed);
        util::Rng b(seed);
        const grid::SiteId site = broker.choose_site(job, queues, a);
        ASSERT_EQ(site, reference_pick(w, params, job, queues, b, &injector))
            << policy_name(policy) << " job " << id << " at " << at;
        ASSERT_EQ(a.next_u64(), b.next_u64());  // same number of draws
        chosen.insert(site);
      }
    }
  }
  EXPECT_GE(chosen.size(), 4u);
}

TEST(PolicyNames, AllDistinct) {
  EXPECT_STREQ(policy_name(BrokeragePolicy::kDataLocality), "data-locality");
  EXPECT_STREQ(policy_name(BrokeragePolicy::kLoadAware), "load-aware");
  EXPECT_STREQ(policy_name(BrokeragePolicy::kHybrid), "hybrid");
}

/// Full lifecycle harness around PandaServer.
struct ServerFixture {
  World w;
  dms::TransferEngine engine;
  Brokerage broker;
  SiteQueues queues;
  std::vector<Job> completed;
  std::vector<Task> completed_tasks;
  std::vector<dms::TransferOutcome> outcomes;
  PandaServer server;

  explicit ServerFixture(PandaServer::Params params = quiet_params(),
                         dms::TransferEngine::Params engine_params =
                             quiet_engine())
      : engine(w.scheduler, w.topo, w.replicas, util::Rng(1), engine_params),
        broker(w.topo, w.catalog, w.replicas, Brokerage::Params{}),
        queues(w.scheduler, w.topo, util::Rng(2)),
        server(w.scheduler, w.topo, w.catalog, w.replicas, w.rses, engine,
               broker, queues, util::Rng(3), params, make_hooks()) {
    engine.set_sink(
        [this](const dms::TransferOutcome& o) { outcomes.push_back(o); });
  }

  static PandaServer::Params quiet_params() {
    PandaServer::Params p;
    p.p_direct_io = 0.0;
    p.p_analysis_upload = 0.0;
    p.p_production_upload = 0.0;
    p.p_retry = 0.0;
    return p;
  }
  static dms::TransferEngine::Params quiet_engine() {
    dms::TransferEngine::Params p;
    p.failure_prob = 0.0;
    p.stall_prob = 0.0;
    p.registration_failure_prob = 0.0;
    return p;
  }
  PandaServer::Hooks make_hooks() {
    PandaServer::Hooks hooks;
    hooks.on_job_complete = [this](const Job& j) { completed.push_back(j); };
    hooks.on_task_complete = [this](const Task& t) {
      completed_tasks.push_back(t);
    };
    return hooks;
  }

  Task make_task(TaskId id, std::uint32_t total) {
    Task t;
    t.jeditaskid = id;
    t.total_jobs = total;
    return t;
  }
};

TEST(PandaServer, LocalJobRunsWithoutTransfers) {
  ServerFixture fx;
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 2);
  for (dms::FileId f : j.input_files) {
    fx.w.replicas.add_replica(f, fx.w.t1_disk);
  }
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  const Job& done = fx.completed[0];
  EXPECT_EQ(done.status, JobStatus::kFinished);
  EXPECT_EQ(done.computing_site, fx.w.t1);
  EXPECT_TRUE(fx.outcomes.empty());  // nothing to stage, no uploads
  EXPECT_GT(done.start_time, done.creation_time);  // pilot delay
  EXPECT_GT(done.end_time, done.start_time);
  ASSERT_EQ(fx.completed_tasks.size(), 1u);
  EXPECT_EQ(fx.completed_tasks[0].status, TaskStatus::kDone);
}

TEST(PandaServer, MissingInputsAreStagedBeforeStart) {
  ServerFixture fx;
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 2, 100'000'000);
  // Replicas only at T0 disk; brokerage sends the job there... unless we
  // force it remote by removing eligibility.  Instead put data at T0 and
  // watch the job stage nothing (local).  For a true staging test, give
  // the files replicas ONLY at t0 tape so even at T0 a local tape->disk
  // staging pass is required.
  for (dms::FileId f : j.input_files) {
    fx.w.replicas.add_replica(f, fx.w.t0_tape);
  }
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  const Job& done = fx.completed[0];
  EXPECT_EQ(done.computing_site, fx.w.t0);
  EXPECT_EQ(fx.server.stats().stage_in_transfers, 2u);
  ASSERT_EQ(fx.outcomes.size(), 2u);
  for (const auto& o : fx.outcomes) {
    EXPECT_EQ(o.activity, dms::Activity::kAnalysisDownload);
    EXPECT_TRUE(o.src == fx.w.t0 && o.dst == fx.w.t0);  // tape -> disk
    EXPECT_EQ(o.jeditaskid, 10);
    // Staging completed before the payload started.
    EXPECT_LE(o.finished_at, done.start_time);
  }
}

TEST(PandaServer, SharedStagingDeduplicates) {
  ServerFixture fx;
  fx.server.submit_task(fx.make_task(10, 2));
  Job a = make_job(fx.w, 1, 10, 2, 50'000'000);
  Job b;  // same files as a
  b.pandaid = 2;
  b.jeditaskid = 10;
  b.kind = JobKind::kUserAnalysis;
  b.base_exec_ms = 60'000;
  b.input_files = a.input_files;
  b.ninputfilebytes = a.ninputfilebytes;
  for (dms::FileId f : a.input_files) {
    fx.w.replicas.add_replica(f, fx.w.t0_tape);
  }
  fx.w.scheduler.schedule_at(0, [&, a = std::move(a)]() mutable {
    fx.server.submit_job(std::move(a));
  });
  fx.w.scheduler.schedule_at(10, [&, b = std::move(b)]() mutable {
    fx.server.submit_job(std::move(b));
  });
  fx.w.scheduler.run();

  EXPECT_EQ(fx.completed.size(), 2u);
  // Two files staged once each, second job joined as waiter.
  EXPECT_EQ(fx.server.stats().stage_in_transfers, 2u);
  EXPECT_EQ(fx.server.stats().shared_stage_hits, 2u);
}

TEST(PandaServer, DirectIoStreamsDuringExecution) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.p_direct_io = 1.0;
  ServerFixture fx(params);
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 2, 50'000'000);
  for (dms::FileId f : j.input_files) {
    fx.w.replicas.add_replica(f, fx.w.t1_disk);
  }
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  const Job& done = fx.completed[0];
  EXPECT_TRUE(done.direct_io);
  ASSERT_EQ(fx.outcomes.size(), 2u);
  for (const auto& o : fx.outcomes) {
    EXPECT_EQ(o.activity, dms::Activity::kAnalysisDownloadDirectIO);
    // Streams start with (or after) the payload.
    EXPECT_GE(o.started_at, done.start_time);
    EXPECT_EQ(o.pandaid, done.pandaid);
  }
  // Direct-IO streams do not create replicas.
  for (dms::FileId f : fx.completed[0].input_files) {
    EXPECT_FALSE(fx.w.replicas.has_replica(f, fx.w.t0_disk));
  }
}

TEST(PandaServer, UploadDelaysEndTimeUntilStageOut) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.p_analysis_upload = 1.0;
  ServerFixture fx(params);
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 1, 1'000'000);
  for (dms::FileId f : j.input_files) {
    fx.w.replicas.add_replica(f, fx.w.t1_disk);
  }
  const dms::FileId out =
      fx.w.catalog.add_file(fx.w.catalog.file(j.input_files[0]).dataset,
                            400'000'000);
  j.output_files.push_back(out);
  j.noutputfilebytes = 400'000'000;
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  ASSERT_EQ(fx.outcomes.size(), 1u);
  const auto& upload = fx.outcomes[0];
  EXPECT_EQ(upload.activity, dms::Activity::kAnalysisUpload);
  EXPECT_EQ(upload.src, fx.completed[0].computing_site);
  // The job record closes only after stage-out (paper: uploads start
  // before the recorded end time, which is why they match at 95%).
  EXPECT_LE(upload.started_at, fx.completed[0].end_time);
  EXPECT_LE(upload.finished_at, fx.completed[0].end_time);
  EXPECT_EQ(fx.server.stats().upload_transfers, 1u);
}

TEST(PandaServer, StageFailureFailsJobWithStageInError) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.stage_fail_job_prob = 1.0;
  dms::TransferEngine::Params engine_params = ServerFixture::quiet_engine();
  engine_params.failure_prob = 1.0;
  engine_params.max_attempts = 1;
  ServerFixture fx(params, engine_params);
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 1, 1'000'000);
  fx.w.replicas.add_replica(j.input_files[0], fx.w.t0_tape);
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  EXPECT_EQ(fx.completed[0].status, JobStatus::kFailed);
  EXPECT_EQ(fx.completed[0].error_code, errors::kStageInTimeout);
  ASSERT_EQ(fx.completed_tasks.size(), 1u);
  EXPECT_EQ(fx.completed_tasks[0].status, TaskStatus::kFailed);
}

TEST(PandaServer, WatchdogReleasesStuckStaging) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.stage_timeout = util::minutes(5);
  params.overlay_failure_prob = 0.0;  // survive to check the timing
  dms::TransferEngine::Params engine_params = ServerFixture::quiet_engine();
  engine_params.stall_prob = 1.0;
  engine_params.stall_factor_min = 0.001;  // crawling transfer
  engine_params.stall_factor_max = 0.001;
  ServerFixture fx(params, engine_params);
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 1, 2'000'000'000);
  fx.w.replicas.add_replica(j.input_files[0], fx.w.t0_tape);
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  EXPECT_EQ(fx.server.stats().stage_timeouts, 1u);
  // The transfer outlived the job's start: the Fig. 11 anomaly.
  ASSERT_FALSE(fx.outcomes.empty());
  EXPECT_GT(fx.outcomes[0].finished_at, fx.completed[0].start_time);
}

TEST(PandaServer, FailedJobIsRetriedAsFreshPandaid) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.p_retry = 1.0;
  params.max_job_attempts = 2;
  params.stage_fail_job_prob = 1.0;
  dms::TransferEngine::Params engine_params = ServerFixture::quiet_engine();
  engine_params.failure_prob = 1.0;  // staging always fails -> job fails
  engine_params.max_attempts = 1;
  ServerFixture fx(params, engine_params);
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 1, 1'000'000);
  fx.w.replicas.add_replica(j.input_files[0], fx.w.t0_tape);
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  // Two attempts recorded: the original and one retry, both failed.
  ASSERT_EQ(fx.completed.size(), 2u);
  EXPECT_EQ(fx.completed[0].pandaid, 1);
  EXPECT_EQ(fx.completed[0].attempt, 1u);
  EXPECT_GE(fx.completed[1].pandaid, 9'000'000'000);
  EXPECT_EQ(fx.completed[1].attempt, 2u);
  EXPECT_EQ(fx.server.stats().retries, 1u);
  // The task reached a terminal state exactly once (on the last attempt).
  ASSERT_EQ(fx.completed_tasks.size(), 1u);
  EXPECT_EQ(fx.completed_tasks[0].status, TaskStatus::kFailed);
}

TEST(PandaServer, RetrySuccessMakesTaskSucceed) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.p_retry = 1.0;
  params.max_job_attempts = 3;
  params.stage_fail_job_prob = 1.0;
  // First staging attempt fails terminally; the catalog never learns the
  // replica, but the retry re-stages and (with failure injection off for
  // the second engine attempt) succeeds.  Easiest deterministic setup:
  // transfers always succeed, but force failure via direct_io_failed
  // path being off and base failure 1.0 on one site... instead, fail via
  // stage: impossible to flip mid-run.  So emulate: first attempt fails
  // because the only replica is missing (no source), retry succeeds
  // after we add a replica at a scheduled time.
  ServerFixture fx(params);
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 1, 1'000'000);
  const dms::FileId file = j.input_files[0];
  // No replica at all: attempt 1 fails staging instantly.
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  // By the time the retry runs, the file exists on disk somewhere.
  // (Attempt 1's staging fails instantly at t=0: no replica anywhere.)
  fx.w.scheduler.schedule_at(util::seconds(1), [&] {
    fx.w.replicas.add_replica(file, fx.w.t1_disk);
  });
  fx.w.scheduler.run();

  ASSERT_GE(fx.completed.size(), 2u);
  EXPECT_TRUE(fx.completed[0].status == JobStatus::kFailed);
  EXPECT_EQ(fx.completed.back().status, JobStatus::kFinished);
  ASSERT_EQ(fx.completed_tasks.size(), 1u);
  EXPECT_EQ(fx.completed_tasks[0].status, TaskStatus::kDone);
}

TEST(PandaServer, SequentialPilotStagesFilesBackToBack) {
  ServerFixture fx;
  // Make T0 a sequential-pilot site.
  fx.w.topo.site_mutable(fx.w.t0).max_parallel_streams = 1;
  fx.server.submit_task(fx.make_task(10, 1));
  Job j = make_job(fx.w, 1, 10, 3, 100'000'000);
  for (dms::FileId f : j.input_files) {
    fx.w.replicas.add_replica(f, fx.w.t0_tape);
  }
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  ASSERT_EQ(fx.completed.size(), 1u);
  ASSERT_EQ(fx.outcomes.size(), 3u);
  // Back-to-back: each transfer starts only after the previous finished,
  // even though the local link admits several concurrent transfers.
  for (std::size_t i = 1; i < fx.outcomes.size(); ++i) {
    EXPECT_GE(fx.outcomes[i].started_at, fx.outcomes[i - 1].finished_at);
  }
  EXPECT_EQ(fx.completed[0].status, JobStatus::kFinished);
}

TEST(PandaServer, DatasetLevelPrefetchPullsSiblingsFiles) {
  PandaServer::Params params = ServerFixture::quiet_params();
  params.dataset_level_staging = true;
  ServerFixture fx(params);
  fx.server.submit_task(fx.make_task(10, 1));
  // Dataset with 5 files; the job needs only 2.
  const dms::DatasetId ds = fx.w.catalog.create_dataset("mc23", "prefetch");
  Job j;
  j.pandaid = 1;
  j.jeditaskid = 10;
  j.kind = JobKind::kUserAnalysis;
  j.base_exec_ms = 60'000;
  for (int i = 0; i < 5; ++i) {
    const dms::FileId f = fx.w.catalog.add_file(ds, 1'000'000);
    fx.w.replicas.add_replica(f, fx.w.t0_tape);
    if (i < 2) {
      j.input_files.push_back(f);
      j.ninputfilebytes += 1'000'000;
    }
  }
  fx.w.scheduler.schedule_at(0, [&, j = std::move(j)]() mutable {
    fx.server.submit_job(std::move(j));
  });
  fx.w.scheduler.run();

  EXPECT_EQ(fx.server.stats().stage_in_transfers, 2u);
  EXPECT_EQ(fx.server.stats().prefetch_transfers, 3u);
  EXPECT_EQ(fx.outcomes.size(), 5u);
}

TEST(WorkloadGenerator, BootstrapAndArrivals) {
  World w;
  sim::Scheduler& sched = w.scheduler;
  dms::TransferEngine engine(sched, w.topo, w.replicas, util::Rng(1),
                             ServerFixture::quiet_engine());
  Brokerage broker(w.topo, w.catalog, w.replicas, Brokerage::Params{});
  SiteQueues queues(sched, w.topo, util::Rng(2));
  PandaServer server(sched, w.topo, w.catalog, w.replicas, w.rses, engine,
                     broker, queues, util::Rng(3),
                     ServerFixture::quiet_params(), PandaServer::Hooks{});

  WorkloadParams params;
  params.n_input_datasets = 20;
  params.user_tasks_per_day = 100.0;
  params.prod_tasks_per_day = 40.0;
  WorkloadGenerator gen(sched, w.topo, w.catalog, w.replicas, w.rses, server,
                        util::Rng(4), params);
  gen.bootstrap_catalog();
  EXPECT_EQ(gen.input_datasets().size(), 20u);
  EXPECT_GT(w.catalog.file_count(), 0u);
  EXPECT_GT(w.replicas.replica_count(), 0u);
  EXPECT_FALSE(gen.tape_archives().empty());

  gen.start(util::hours(12));
  sched.run();
  EXPECT_GT(gen.stats().user_tasks, 0u);
  EXPECT_GT(gen.stats().user_jobs, gen.stats().user_tasks);
  EXPECT_GT(gen.stats().prod_tasks, 0u);
}

TEST(WorkloadGenerator, ColdDatasetsHaveNoDiskReplicas) {
  World w;
  dms::TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                             ServerFixture::quiet_engine());
  Brokerage broker(w.topo, w.catalog, w.replicas, Brokerage::Params{});
  SiteQueues queues(w.scheduler, w.topo, util::Rng(2));
  PandaServer server(w.scheduler, w.topo, w.catalog, w.replicas, w.rses,
                     engine, broker, queues, util::Rng(3),
                     ServerFixture::quiet_params(), PandaServer::Hooks{});
  WorkloadParams params;
  params.n_input_datasets = 40;
  params.cold_fraction = 0.5;
  params.tape_only_fraction = 1.0;
  WorkloadGenerator gen(w.scheduler, w.topo, w.catalog, w.replicas, w.rses,
                        server, util::Rng(4), params);
  gen.bootstrap_catalog();
  ASSERT_FALSE(gen.tape_only_datasets().empty());
  for (dms::DatasetId ds : gen.tape_only_datasets()) {
    for (dms::FileId f : w.catalog.files_of(ds)) {
      for (dms::RseId r : w.replicas.replicas(f)) {
        EXPECT_EQ(w.rses.rse(r).kind, dms::RseKind::kTape);
      }
    }
  }
}

}  // namespace
}  // namespace pandarus::wms
