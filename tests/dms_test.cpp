// Unit tests for the Rucio-like data management substrate: DIDs,
// RSEs, catalogs, replica selection, replication rules and the transfer
// engine's bandwidth sharing / failure injection.
#include <gtest/gtest.h>

#include "dms/catalog.hpp"
#include "dms/deletion.hpp"
#include "dms/rule.hpp"
#include "dms/selector.hpp"
#include "dms/transfer.hpp"
#include "grid/builder.hpp"
#include "sim/scheduler.hpp"

namespace pandarus::dms {
namespace {

/// Tiny 3-site world: one T0 with tape, one T1 with tape, one T2.
struct World {
  grid::Topology topo;
  RseRegistry rses;
  FileCatalog catalog;
  ReplicaCatalog replicas{catalog, rses};
  sim::Scheduler scheduler;

  grid::SiteId t0, t1, t2;
  RseId t0_disk, t0_tape, t1_disk, t1_tape, t2_disk;

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
    // Links: fast T0<->T1, slow toward T2.
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
    auto add_rse = [&](const char* name, grid::SiteId site, RseKind kind) {
      Rse r;
      r.name = name;
      r.site = site;
      r.kind = kind;
      return rses.add(std::move(r));
    };
    t0_disk = add_rse("T0_DISK", t0, RseKind::kDisk);
    t0_tape = add_rse("T0_TAPE", t0, RseKind::kTape);
    t1_disk = add_rse("T1_DISK", t1, RseKind::kDisk);
    t1_tape = add_rse("T1_TAPE", t1, RseKind::kTape);
    t2_disk = add_rse("T2_DISK", t2, RseKind::kDisk);
  }

  TransferEngine::Params quiet_params() {
    TransferEngine::Params p;
    p.failure_prob = 0.0;
    p.stall_prob = 0.0;
    p.registration_failure_prob = 0.0;
    p.per_stream_cap_bps = 1e12;  // not limiting
    return p;
  }
};

TEST(Activity, NamesAndDirections) {
  EXPECT_STREQ(activity_name(Activity::kAnalysisDownload),
               "Analysis Download");
  EXPECT_TRUE(is_download(Activity::kAnalysisDownload));
  EXPECT_TRUE(is_download(Activity::kAnalysisDownloadDirectIO));
  EXPECT_TRUE(is_download(Activity::kDataRebalance));
  EXPECT_TRUE(is_upload(Activity::kAnalysisUpload));
  EXPECT_TRUE(is_upload(Activity::kProductionUpload));
  EXPECT_FALSE(is_upload(Activity::kDataRebalance));
  EXPECT_FALSE(is_download(Activity::kProductionUpload));
}

TEST(RseRegistry, SiteIndexing) {
  World w;
  EXPECT_EQ(w.rses.disk_at(w.t0), w.t0_disk);
  EXPECT_EQ(w.rses.tape_at(w.t0), w.t0_tape);
  EXPECT_EQ(w.rses.tape_at(w.t2), kNoRse);
  EXPECT_EQ(w.rses.disk_at(grid::kUnknownSite), kNoRse);
}

TEST(FileCatalog, NamesAreStructured) {
  FileCatalog catalog;
  const DatasetId ds = catalog.create_dataset("mc23", "mc23.410000.DAOD");
  std::vector<FileId> files;
  for (int i = 0; i < 25; ++i) files.push_back(catalog.add_file(ds, 1000));
  EXPECT_EQ(catalog.lfn(files[4]), "AOD.000000._000004.pool.root");
  EXPECT_EQ(catalog.scope(files[0]), "mc23");
  EXPECT_EQ(catalog.dataset_name(files[0]), "mc23.410000.DAOD");
  // Files 0-9 share block 0, 10-19 block 1, ...
  EXPECT_EQ(catalog.proddblock(files[0]), catalog.proddblock(files[9]));
  EXPECT_NE(catalog.proddblock(files[9]), catalog.proddblock(files[10]));
  EXPECT_EQ(catalog.dataset_bytes(ds), 25'000u);
  EXPECT_EQ(catalog.files_of(ds).size(), 25u);
}

TEST(FileCatalog, ContainersAggregateAndNest) {
  FileCatalog catalog;
  const ContainerId top = catalog.create_container("mc23", "period.A");
  const ContainerId nested =
      catalog.create_container("mc23", "period.A.sub", top);
  const DatasetId ds1 = catalog.create_dataset("mc23", "d1", top);
  const DatasetId ds2 = catalog.create_dataset("mc23", "d2", nested);
  const FileId a = catalog.add_file(ds1, 100);
  const FileId b = catalog.add_file(ds2, 200);
  const FileId c = catalog.add_file(ds2, 300);

  EXPECT_EQ(catalog.container_count(), 2u);
  EXPECT_EQ(catalog.container(nested).parent, top);
  EXPECT_EQ(catalog.datasets_of(top).size(), 1u);
  EXPECT_EQ(catalog.datasets_of(nested).size(), 1u);
  // Top reaches everything through nesting.
  EXPECT_EQ(catalog.files_of_container(top),
            (std::vector<FileId>{a, b, c}));
  EXPECT_EQ(catalog.container_bytes(top), 600u);
  EXPECT_EQ(catalog.container_bytes(nested), 500u);
  EXPECT_EQ(catalog.files_of_container(nested),
            (std::vector<FileId>{b, c}));
}

TEST(FileCatalog, AttachDatasetMovesBetweenContainers) {
  FileCatalog catalog;
  const ContainerId c1 = catalog.create_container("mc23", "c1");
  const ContainerId c2 = catalog.create_container("mc23", "c2");
  const DatasetId ds = catalog.create_dataset("mc23", "d", c1);
  catalog.add_file(ds, 50);
  EXPECT_EQ(catalog.container_bytes(c1), 50u);
  catalog.attach_dataset(ds, c2);
  EXPECT_EQ(catalog.container_bytes(c1), 0u);
  EXPECT_EQ(catalog.container_bytes(c2), 50u);
  EXPECT_EQ(catalog.dataset(ds).container, c2);
}

TEST(ReplicaCatalog, AddRemoveQuery) {
  World w;
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 100);
  EXPECT_FALSE(w.replicas.has_replica(f, w.t0_disk));
  w.replicas.add_replica(f, w.t0_disk);
  w.replicas.add_replica(f, w.t0_disk);  // idempotent
  EXPECT_EQ(w.replicas.replica_count(), 1u);
  EXPECT_TRUE(w.replicas.on_disk_at_site(f, w.t0));
  EXPECT_FALSE(w.replicas.on_disk_at_site(f, w.t1));
  w.replicas.add_replica(f, w.t1_tape);
  EXPECT_TRUE(w.replicas.resident_at_site(f, w.t1));
  EXPECT_FALSE(w.replicas.on_disk_at_site(f, w.t1));  // tape is not disk
  EXPECT_TRUE(w.replicas.remove_replica(f, w.t0_disk));
  EXPECT_FALSE(w.replicas.remove_replica(f, w.t0_disk));
  EXPECT_FALSE(w.replicas.on_disk_at_site(f, w.t0));
}

/// The rule engine reads disk_copies() instead of walking the replica
/// list, so the count must follow every add and remove exactly.
TEST(ReplicaCatalog, DiskCopiesFollowAddAndRemove) {
  World w;
  w.rses.rse_mutable(w.t2_disk).capacity_bytes = 150;
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 100);
  const FileId big = w.catalog.add_file(ds, 200);
  const auto walked = [&](FileId file) {
    std::uint32_t n = 0;
    for (RseId r : w.replicas.replicas(file)) {
      n += w.rses.rse(r).kind == RseKind::kDisk;
    }
    return n;
  };
  EXPECT_EQ(w.replicas.disk_copies(f), 0u);
  EXPECT_EQ(w.replicas.disk_copies(9'999), 0u);  // never seen
  // A DISK and a TAPE RSE at one site: only the disk copy counts.
  EXPECT_TRUE(w.replicas.add_replica(f, w.t0_tape));
  EXPECT_EQ(w.replicas.disk_copies(f), 0u);
  EXPECT_TRUE(w.replicas.add_replica(f, w.t0_disk));
  EXPECT_EQ(w.replicas.disk_copies(f), 1u);
  EXPECT_TRUE(w.replicas.add_replica(f, w.t0_disk));  // idempotent
  EXPECT_EQ(w.replicas.disk_copies(f), 1u);
  EXPECT_TRUE(w.replicas.add_replica(f, w.t1_disk));
  EXPECT_EQ(w.replicas.disk_copies(f), 2u);
  // A quota-rejected add changes nothing.
  EXPECT_FALSE(w.replicas.add_replica(big, w.t2_disk));
  EXPECT_EQ(w.replicas.disk_copies(big), 0u);
  // Removing an absent replica changes nothing; a present one counts.
  EXPECT_FALSE(w.replicas.remove_replica(f, w.t2_disk));
  EXPECT_FALSE(w.replicas.remove_replica(9'999, w.t0_disk));
  EXPECT_EQ(w.replicas.disk_copies(f), 2u);
  EXPECT_TRUE(w.replicas.remove_replica(f, w.t0_tape));
  EXPECT_EQ(w.replicas.disk_copies(f), 2u);
  EXPECT_TRUE(w.replicas.remove_replica(f, w.t0_disk));
  EXPECT_EQ(w.replicas.disk_copies(f), 1u);
  EXPECT_FALSE(w.replicas.remove_replica(f, w.t0_disk));
  EXPECT_EQ(w.replicas.disk_copies(f), 1u);
  for (FileId file : {f, big, FileId{9'999}}) {
    EXPECT_EQ(w.replicas.disk_copies(file), walked(file)) << file;
  }
}

TEST(ReplicaCatalog, BytesOnDiskAtSite) {
  World w;
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId a = w.catalog.add_file(ds, 100);
  const FileId b = w.catalog.add_file(ds, 200);
  w.replicas.add_replica(a, w.t0_disk);
  w.replicas.add_replica(b, w.t1_disk);
  const std::vector<FileId> files{a, b};
  EXPECT_EQ(w.replicas.bytes_on_disk_at_site(files, w.catalog, w.t0), 100u);
  EXPECT_EQ(w.replicas.bytes_on_disk_at_site(files, w.catalog, w.t1), 200u);
  EXPECT_EQ(w.replicas.bytes_on_disk_at_site(files, w.catalog, w.t2), 0u);
}

TEST(ReplicaCatalog, SpaceAccountingAndQuota) {
  World w;
  // Cap T2's disk at 250 bytes.
  w.rses.rse_mutable(w.t2_disk).capacity_bytes = 250;
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId a = w.catalog.add_file(ds, 100);
  const FileId b = w.catalog.add_file(ds, 100);
  const FileId c = w.catalog.add_file(ds, 100);

  EXPECT_TRUE(w.replicas.add_replica(a, w.t2_disk));
  EXPECT_TRUE(w.replicas.add_replica(b, w.t2_disk));
  EXPECT_EQ(w.rses.rse(w.t2_disk).used_bytes, 200u);
  EXPECT_FALSE(w.replicas.has_space(w.t2_disk, 100));
  // Third copy overflows the quota and is rejected.
  EXPECT_FALSE(w.replicas.add_replica(c, w.t2_disk));
  EXPECT_FALSE(w.replicas.has_replica(c, w.t2_disk));
  // Removal frees the space again.
  EXPECT_TRUE(w.replicas.remove_replica(a, w.t2_disk));
  EXPECT_EQ(w.rses.rse(w.t2_disk).used_bytes, 100u);
  EXPECT_TRUE(w.replicas.add_replica(c, w.t2_disk));
  // Idempotent re-add does not double-count usage.
  EXPECT_TRUE(w.replicas.add_replica(c, w.t2_disk));
  EXPECT_EQ(w.rses.rse(w.t2_disk).used_bytes, 200u);
}

TEST(TransferEngine, QuotaRejectionCountsAndLeavesCatalogStale) {
  World w;
  w.rses.rse_mutable(w.t1_disk).capacity_bytes = 1;  // effectively full
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 1'000'000);
  TransferOutcome seen;
  TransferRequest req;
  req.file = f;
  req.size_bytes = 1'000'000;
  req.src = w.t0;
  req.dst = w.t1;
  req.dst_rse = w.t1_disk;
  req.on_complete = [&](const TransferOutcome& o) { seen = o; };
  engine.submit(std::move(req));
  w.scheduler.run();
  EXPECT_TRUE(seen.success);
  EXPECT_FALSE(seen.replica_registered);
  EXPECT_EQ(engine.stats().quota_rejections, 1u);
  EXPECT_FALSE(w.replicas.has_replica(f, w.t1_disk));
}

TEST(Selector, PrefersLocalDiskThenTapeThenRemote) {
  World w;
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 100);
  ReplicaSelector selector(w.topo, w.rses, w.replicas);

  EXPECT_EQ(selector.select_source(f, w.t0, 0), kNoRse);  // no replica

  w.replicas.add_replica(f, w.t1_disk);
  EXPECT_EQ(selector.select_source(f, w.t0, 0), w.t1_disk);  // remote disk

  w.replicas.add_replica(f, w.t0_tape);
  EXPECT_EQ(selector.select_source(f, w.t0, 0), w.t0_tape);  // local tape wins

  w.replicas.add_replica(f, w.t0_disk);
  EXPECT_EQ(selector.select_source(f, w.t0, 0), w.t0_disk);  // local disk wins
}

TEST(Selector, PicksFastestRemote) {
  World w;
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 100);
  // Replicas at T0 and T2; target T1.  T0->T1 is 500 MBps, T2->T1 50.
  w.replicas.add_replica(f, w.t0_disk);
  w.replicas.add_replica(f, w.t2_disk);
  ReplicaSelector selector(w.topo, w.rses, w.replicas);
  EXPECT_EQ(selector.select_source(f, w.t1, 0), w.t0_disk);
}

TEST(TransferEngine, CompletesAndRegistersReplica) {
  World w;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 500'000'000);  // 0.5 GB

  TransferOutcome seen;
  TransferRequest req;
  req.file = f;
  req.size_bytes = 500'000'000;
  req.src = w.t0;
  req.dst = w.t1;
  req.dst_rse = w.t1_disk;
  req.activity = Activity::kDataRebalance;
  req.on_complete = [&](const TransferOutcome& o) { seen = o; };
  engine.submit(std::move(req));
  w.scheduler.run();

  EXPECT_TRUE(seen.success);
  EXPECT_TRUE(seen.replica_registered);
  EXPECT_TRUE(w.replicas.has_replica(f, w.t1_disk));
  EXPECT_EQ(engine.stats().completed, 1u);
  EXPECT_EQ(engine.stats().bytes_moved, 500'000'000u);
  EXPECT_EQ(engine.in_flight(), 0u);
  // 0.5 GB at 500 MBps ~ 1 s (+ setup latency).
  EXPECT_NEAR(util::to_seconds(seen.finished_at - seen.started_at), 1.0, 0.3);
}

TEST(TransferEngine, FairSharingSlowsConcurrentTransfers) {
  World w;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  std::vector<util::SimTime> finish;
  for (int i = 0; i < 2; ++i) {
    const FileId f = w.catalog.add_file(ds, 500'000'000);
    TransferRequest req;
    req.file = f;
    req.size_bytes = 500'000'000;
    req.src = w.t0;
    req.dst = w.t1;
    req.on_complete = [&](const TransferOutcome& o) {
      finish.push_back(o.finished_at);
    };
    engine.submit(std::move(req));
  }
  w.scheduler.run();
  ASSERT_EQ(finish.size(), 2u);
  // Two transfers sharing 500 MBps take ~2 s each instead of ~1 s.
  EXPECT_GT(util::to_seconds(finish.back()), 1.7);
}

TEST(TransferEngine, QueueingBeyondMaxActive) {
  World w;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  // Link T0->T1 admits 2 concurrent; submit 4 and observe serialization.
  std::vector<double> durations;
  for (int i = 0; i < 4; ++i) {
    const FileId f = w.catalog.add_file(ds, 250'000'000);
    TransferRequest req;
    req.file = f;
    req.size_bytes = 250'000'000;
    req.src = w.t0;
    req.dst = w.t1;
    req.on_complete = [&](const TransferOutcome& o) {
      durations.push_back(util::to_seconds(o.finished_at));
    };
    engine.submit(std::move(req));
  }
  w.scheduler.run();
  ASSERT_EQ(durations.size(), 4u);
  // The last pair finishes roughly twice as late as the first pair.
  EXPECT_GT(durations[3], durations[0] * 1.5);
  EXPECT_EQ(engine.stats().completed, 4u);
}

TEST(TransferEngine, SequentialSiteStagesOneAtATime) {
  World w;
  // Local link with max_active = 1 (sequential staging, Fig. 10).
  grid::NetworkLink link;
  link.key = {w.t2, w.t2};
  link.capacity_bps = 100e6;
  link.max_active = 1;
  grid::LoadModel::Params quiet;
  quiet.mean_util = 0.0;
  quiet.diurnal_amplitude = 0.0;
  quiet.burst_prob = 0.0;
  link.load = grid::LoadModel(quiet);
  w.topo.add_link(link);

  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  std::vector<std::pair<util::SimTime, util::SimTime>> spans;
  for (int i = 0; i < 3; ++i) {
    const FileId f = w.catalog.add_file(ds, 100'000'000);
    TransferRequest req;
    req.file = f;
    req.size_bytes = 100'000'000;
    req.src = w.t2;
    req.dst = w.t2;
    req.on_complete = [&](const TransferOutcome& o) {
      spans.emplace_back(o.started_at, o.finished_at);
    };
    engine.submit(std::move(req));
  }
  w.scheduler.run();
  ASSERT_EQ(spans.size(), 3u);
  // Back-to-back, never overlapping.
  EXPECT_LE(spans[0].second, spans[1].first + 1);
  EXPECT_LE(spans[1].second, spans[2].first + 1);
}

TEST(TransferEngine, FailureRetriesThenFails) {
  World w;
  TransferEngine::Params params = w.quiet_params();
  params.failure_prob = 1.0;  // every attempt fails
  params.max_attempts = 3;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        params);
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 1'000'000);
  TransferOutcome seen;
  TransferRequest req;
  req.file = f;
  req.size_bytes = 1'000'000;
  req.src = w.t0;
  req.dst = w.t1;
  req.dst_rse = w.t1_disk;
  req.on_complete = [&](const TransferOutcome& o) { seen = o; };
  engine.submit(std::move(req));
  w.scheduler.run();
  EXPECT_FALSE(seen.success);
  EXPECT_EQ(seen.attempts, 3u);
  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_FALSE(w.replicas.has_replica(f, w.t1_disk));
}

TEST(TransferEngine, StallsSlowTransfersDown) {
  World w;
  TransferEngine::Params stall = w.quiet_params();
  stall.stall_prob = 1.0;
  stall.stall_factor_min = 0.1;
  stall.stall_factor_max = 0.1;
  TransferEngine fast_engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                             w.quiet_params());
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");

  util::SimTime fast_done = 0;
  {
    const FileId f = w.catalog.add_file(ds, 500'000'000);
    TransferRequest req;
    req.file = f;
    req.size_bytes = 500'000'000;
    req.src = w.t0;
    req.dst = w.t1;
    req.on_complete = [&](const TransferOutcome& o) {
      fast_done = o.finished_at - o.started_at;
    };
    fast_engine.submit(std::move(req));
  }
  w.scheduler.run();

  sim::Scheduler s2;
  TransferEngine slow_engine(s2, w.topo, w.replicas, util::Rng(1), stall);
  util::SimTime slow_done = 0;
  {
    const FileId f = w.catalog.add_file(ds, 500'000'000);
    TransferRequest req;
    req.file = f;
    req.size_bytes = 500'000'000;
    req.src = w.t0;
    req.dst = w.t1;
    req.on_complete = [&](const TransferOutcome& o) {
      slow_done = o.finished_at - o.started_at;
    };
    slow_engine.submit(std::move(req));
  }
  s2.run();
  EXPECT_GT(static_cast<double>(slow_done),
            static_cast<double>(fast_done) * 5.0);
}

TEST(TransferEngine, RegistrationFailureLeavesCatalogStale) {
  World w;
  TransferEngine::Params params = w.quiet_params();
  params.registration_failure_prob = 1.0;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        params);
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId f = w.catalog.add_file(ds, 1'000'000);
  TransferOutcome seen;
  TransferRequest req;
  req.file = f;
  req.size_bytes = 1'000'000;
  req.src = w.t0;
  req.dst = w.t1;
  req.dst_rse = w.t1_disk;
  req.on_complete = [&](const TransferOutcome& o) { seen = o; };
  engine.submit(std::move(req));
  w.scheduler.run();
  EXPECT_TRUE(seen.success);
  EXPECT_FALSE(seen.replica_registered);  // the Fig. 12 seed
  EXPECT_FALSE(w.replicas.has_replica(f, w.t1_disk));
  EXPECT_EQ(engine.stats().registration_failures, 1u);
}

TEST(RuleEngine, SatisfiesCopyDeficit) {
  World w;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  RuleEngine::Params params;
  RuleEngine rules(w.scheduler, w.topo, w.catalog, w.replicas, w.rses,
                   engine, util::Rng(2), params);
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  std::vector<FileId> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(w.catalog.add_file(ds, 1'000'000));
    w.replicas.add_replica(files.back(), w.t0_disk);
  }
  rules.add_rule({ds, 2, grid::Tier::kT1});
  const std::uint32_t submitted = rules.evaluate_once();
  EXPECT_EQ(submitted, 5u);
  w.scheduler.run();
  for (FileId f : files) {
    EXPECT_TRUE(w.replicas.has_replica(f, w.t1_disk));
  }
  // Second pass: rule satisfied, nothing to do.
  EXPECT_EQ(rules.evaluate_once(), 0u);
}

TEST(RuleEngine, RespectsPerPassCap) {
  World w;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  RuleEngine::Params params;
  params.max_transfers_per_pass = 3;
  RuleEngine rules(w.scheduler, w.topo, w.catalog, w.replicas, w.rses,
                   engine, util::Rng(2), params);
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  for (int i = 0; i < 10; ++i) {
    w.replicas.add_replica(w.catalog.add_file(ds, 1'000'000), w.t0_disk);
  }
  rules.add_rule({ds, 2, grid::Tier::kT1});
  EXPECT_EQ(rules.evaluate_once(), 3u);
}

TEST(DeletionDaemon, ExpiresOnlyTransientDiskReplicas) {
  World w;
  DeletionDaemon::Params params;
  params.expiry_prob = 1.0;  // deterministic expiry
  DeletionDaemon daemon(w.scheduler, w.catalog, w.replicas, w.rses,
                        util::Rng(5), params);
  const DatasetId transient = w.catalog.create_dataset("mc23", "cold");
  const DatasetId pinned = w.catalog.create_dataset("mc23", "hot");
  const FileId cold_file = w.catalog.add_file(transient, 1'000);
  const FileId hot_file = w.catalog.add_file(pinned, 1'000);
  w.replicas.add_replica(cold_file, w.t0_disk);
  w.replicas.add_replica(cold_file, w.t0_tape);
  w.replicas.add_replica(hot_file, w.t0_disk);
  daemon.add_transient(transient);

  EXPECT_EQ(daemon.sweep_once(), 1u);
  EXPECT_FALSE(w.replicas.has_replica(cold_file, w.t0_disk));
  EXPECT_TRUE(w.replicas.has_replica(cold_file, w.t0_tape));  // tape kept
  EXPECT_TRUE(w.replicas.has_replica(hot_file, w.t0_disk));   // not managed
  EXPECT_EQ(daemon.stats().replicas_deleted, 1u);
  EXPECT_EQ(daemon.stats().bytes_deleted, 1'000u);

  // Nothing left to expire.
  EXPECT_EQ(daemon.sweep_once(), 0u);
}

TEST(DeletionDaemon, PeriodicSweepsRunUntilDeadline) {
  World w;
  DeletionDaemon::Params params;
  params.sweep_interval = util::hours(1);
  params.expiry_prob = 0.0;  // count sweeps only
  DeletionDaemon daemon(w.scheduler, w.catalog, w.replicas, w.rses,
                        util::Rng(5), params);
  daemon.start(util::hours(5) + util::minutes(30));
  w.scheduler.run();
  EXPECT_EQ(daemon.stats().sweeps, 5u);
}

TEST(RuleEngine, StageFromTapeIsLocalAndSkipsPresent) {
  World w;
  TransferEngine engine(w.scheduler, w.topo, w.replicas, util::Rng(1),
                        w.quiet_params());
  RuleEngine rules(w.scheduler, w.topo, w.catalog, w.replicas, w.rses,
                   engine, util::Rng(2), RuleEngine::Params{});
  const DatasetId ds = w.catalog.create_dataset("mc23", "d");
  const FileId a = w.catalog.add_file(ds, 1'000'000);
  const FileId b = w.catalog.add_file(ds, 1'000'000);
  w.replicas.add_replica(a, w.t0_tape);
  w.replicas.add_replica(b, w.t0_tape);
  w.replicas.add_replica(b, w.t0_disk);  // already staged

  EXPECT_EQ(rules.stage_from_tape(ds, w.t0), 1u);
  EXPECT_EQ(rules.stage_from_tape(ds, w.t2), 0u);  // no tape at T2
  w.scheduler.run();
  EXPECT_TRUE(w.replicas.has_replica(a, w.t0_disk));
}

}  // namespace
}  // namespace pandarus::dms
