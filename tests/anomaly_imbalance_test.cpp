// Unit tests for the anomaly detector (core) and the imbalance / error
// distribution analyses.
#include <gtest/gtest.h>

#include "analysis/imbalance.hpp"
#include "core/anomaly.hpp"

namespace pandarus {
namespace {

using telemetry::FileRecord;
using telemetry::JobRecord;
using telemetry::MetadataStore;
using telemetry::TransferRecord;

JobRecord job(std::int64_t pandaid, grid::SiteId site, bool failed = false,
              std::int32_t error = 0) {
  JobRecord j;
  j.pandaid = pandaid;
  j.jeditaskid = 100;
  j.computing_site = site;
  j.creation_time = 0;
  j.start_time = 1000;
  j.end_time = 2000;
  j.ninputfilebytes = 500;
  j.failed = failed;
  j.error_code = error;
  return j;
}

/// Every fixture row's attributes, under its own lfn.
telemetry::FileAttributes names(std::string_view lfn) {
  return {lfn, "ds", "blk", "mc23"};
}

void add_transfer(MetadataStore& store, std::uint64_t id,
                  std::string_view lfn, std::uint64_t size, grid::SiteId src,
                  grid::SiteId dst, util::SimTime t0, util::SimTime t1,
                  std::int64_t taskid = 100) {
  TransferRecord t;
  t.transfer_id = id;
  t.jeditaskid = taskid;
  t.file_size = size;
  t.source_site = src;
  t.destination_site = dst;
  t.activity = dms::Activity::kAnalysisDownload;
  t.started_at = t0;
  t.finished_at = t1;
  t.success = true;
  store.record_transfer(t, names(lfn));
}

// --- gini ---------------------------------------------------------------

TEST(Gini, EvenDistributionIsZero) {
  const double even[] = {5, 5, 5, 5};
  EXPECT_NEAR(analysis::gini_coefficient(even), 0.0, 1e-12);
}

TEST(Gini, ConcentrationApproachesOne) {
  std::vector<double> values(100, 0.0);
  values[0] = 1e9;
  EXPECT_GT(analysis::gini_coefficient(values), 0.95);
}

TEST(Gini, KnownValue) {
  // For {1, 3}: gini = 0.25.
  const double v[] = {1.0, 3.0};
  EXPECT_NEAR(analysis::gini_coefficient(v), 0.25, 1e-12);
}

TEST(Gini, EmptyAndZeroSafe) {
  EXPECT_EQ(analysis::gini_coefficient({}), 0.0);
  const double zeros[] = {0.0, 0.0};
  EXPECT_EQ(analysis::gini_coefficient(zeros), 0.0);
}

// --- spatial / temporal imbalance ---------------------------------------

TEST(SpatialImbalance, AggregatesPerSite) {
  grid::Topology topo;
  for (const char* name : {"A", "B", "C"}) {
    grid::Site s;
    s.name = name;
    topo.add_site(s);
  }
  MetadataStore store;
  add_transfer(store, 1, "f1", 1000, 0, 1, 0, 10);
  add_transfer(store, 2, "f2", 500, 0, 0, 0, 10);  // local
  store.record_job(job(1, 0));
  store.record_job(job(2, 0, true, 1305));
  store.record_job(job(3, 1));

  const auto imbalance = analysis::spatial_imbalance(store, topo);
  ASSERT_EQ(imbalance.sites.size(), 3u);
  // Site 0 leads: out 1500, in 500.
  EXPECT_EQ(imbalance.sites[0].site, 0u);
  EXPECT_EQ(imbalance.sites[0].bytes_out, 1500u);
  EXPECT_EQ(imbalance.sites[0].bytes_in, 500u);
  EXPECT_EQ(imbalance.sites[0].jobs, 2u);
  EXPECT_EQ(imbalance.sites[0].failed_jobs, 1u);
  EXPECT_NEAR(imbalance.sites[0].failure_rate(), 0.5, 1e-12);
  EXPECT_GT(imbalance.gini_bytes, 0.3);  // site C idle
  EXPECT_GT(imbalance.top1_byte_share, 0.6);
}

TEST(TemporalImbalance, BinsAndPeak) {
  MetadataStore store;
  // Three transfers in bin 0, one in bin 2.
  for (std::uint64_t i = 0; i < 3; ++i) {
    add_transfer(store, i, "f", 1000, 0, 1, 100, 200);
  }
  add_transfer(store, 9, "f", 500, 0, 1, util::hours(13), util::hours(14));
  const auto temporal =
      analysis::temporal_imbalance(store, util::hours(6));
  ASSERT_EQ(temporal.series.size(), 2u);
  EXPECT_EQ(temporal.series[0].transfers, 3u);
  EXPECT_DOUBLE_EQ(temporal.peak_bytes, 3000.0);
  EXPECT_NEAR(temporal.peak_to_mean(), 3000.0 / 1750.0, 1e-9);
}

// --- error distribution --------------------------------------------------

TEST(ErrorDistribution, CountsAndShares) {
  MetadataStore store;
  store.record_job(job(1, 0, true, 1305));
  store.record_job(job(2, 0, true, 1305));
  store.record_job(job(3, 0, true, 1099));
  store.record_job(job(4, 0, false));
  store.record_job(job(5, 1, true, 1187));

  const auto all = analysis::error_distribution(store);
  EXPECT_EQ(all.total_jobs, 5u);
  EXPECT_EQ(all.total_failed, 4u);
  EXPECT_NEAR(all.share(1305), 0.5, 1e-12);
  EXPECT_NEAR(all.share(9999), 0.0, 1e-12);

  const auto site0 = analysis::error_distribution(store, 0);
  EXPECT_EQ(site0.total_failed, 3u);
  EXPECT_NEAR(site0.share(1305), 2.0 / 3.0, 1e-12);
}

TEST(ErrorDistribution, ShiftMetric) {
  analysis::ErrorDistribution a;
  a.total_failed = 10;
  a.by_code = {{1305, 5}, {1099, 5}};
  analysis::ErrorDistribution b;
  b.total_failed = 10;
  b.by_code = {{1305, 5}, {1099, 5}};
  EXPECT_NEAR(analysis::error_shift(a, b), 0.0, 1e-12);
  b.by_code = {{1187, 10}};
  EXPECT_NEAR(analysis::error_shift(a, b), 2.0, 1e-12);  // disjoint
}

// --- anomaly detector ---------------------------------------------------

struct DetectorFixture {
  MetadataStore store;

  core::MatchResult matched() {
    const core::Matcher matcher(store);
    return matcher.run(core::MatchOptions::rm2());
  }

  void add_job_with_transfer(std::int64_t pandaid, const std::string& lfn,
                             std::uint64_t size, util::SimTime t0,
                             util::SimTime t1, bool failed = false) {
    JobRecord j = job(pandaid, 0, failed);
    j.ninputfilebytes = size;
    store.record_job(j);
    FileRecord f;
    f.pandaid = pandaid;
    f.jeditaskid = 100;
    f.file_size = size;
    store.record_file(f, names(lfn));
    add_transfer(store, static_cast<std::uint64_t>(pandaid) * 10, lfn, size,
                 0, 0, t0, t1);
  }
};

TEST(AnomalyDetector, FlagsExcessiveTransferShare) {
  DetectorFixture fx;
  // Transfer occupies [0, 900) of the [0, 1000) queue: 90% > 75%.
  fx.add_job_with_transfer(1, "f1", 500, 0, 900);
  const auto report =
      core::AnomalyDetector().scan(fx.store, fx.matched());
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                core::AnomalyType::kExcessiveTransferShare)],
            1u);
  EXPECT_EQ(report.jobs_flagged, 1u);
}

TEST(AnomalyDetector, FlagsSpanningTransfer) {
  DetectorFixture fx;
  // Crosses start_time = 1000.
  fx.add_job_with_transfer(1, "f1", 500, 500, 1500, /*failed=*/true);
  const auto report =
      core::AnomalyDetector().scan(fx.store, fx.matched());
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                core::AnomalyType::kSpanningTransfer)],
            1u);
  EXPECT_NEAR(report.flagged_failure_rate, 1.0, 1e-12);
}

TEST(AnomalyDetector, FlagsRedundantDelivery) {
  DetectorFixture fx;
  fx.add_job_with_transfer(1, "f1", 500, 0, 100);
  // Same file delivered again to the same site within the matched set.
  add_transfer(fx.store, 99, "f1", 500, 1, 0, 200, 300);
  const auto report =
      core::AnomalyDetector().scan(fx.store, fx.matched());
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                core::AnomalyType::kRedundantDelivery)],
            1u);
}

TEST(AnomalyDetector, FlagsStalledThroughput) {
  DetectorFixture fx;
  // Six fast background transfers set the link median...
  for (std::uint64_t i = 0; i < 6; ++i) {
    add_transfer(fx.store, 900 + i, "bg" + std::to_string(i), 1'000'000, 0,
                 0, static_cast<util::SimTime>(i * 10),
                 static_cast<util::SimTime>(i * 10 + 1), /*taskid=*/-1);
  }
  // ... and the matched transfer crawls 1000x slower.
  fx.add_job_with_transfer(1, "f1", 1'000'000, 0, 1000);
  const auto report =
      core::AnomalyDetector().scan(fx.store, fx.matched());
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                core::AnomalyType::kStalledThroughput)],
            1u);
  bool found = false;
  for (const auto& a : report.anomalies) {
    if (a.type == core::AnomalyType::kStalledThroughput) {
      EXPECT_GT(a.severity, 100.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnomalyDetector, FlagsUnknownEndpoint) {
  DetectorFixture fx;
  fx.add_job_with_transfer(1, "f1", 500, 0, 100);
  fx.store.transfers_mutable()[0].destination_site = grid::kUnknownSite;
  const auto report =
      core::AnomalyDetector().scan(fx.store, fx.matched());
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                core::AnomalyType::kUnknownEndpoint)],
            1u);
}

TEST(AnomalyDetector, CleanJobsUnflagged) {
  DetectorFixture fx;
  // 10% of queue, nothing else wrong.
  fx.add_job_with_transfer(1, "f1", 500, 0, 100);
  const auto report =
      core::AnomalyDetector().scan(fx.store, fx.matched());
  EXPECT_EQ(report.jobs_flagged, 0u);
  EXPECT_EQ(report.jobs_scanned, 1u);
  EXPECT_TRUE(report.anomalies.empty());
}

TEST(AnomalyNames, AllDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < core::kAnomalyTypeCount; ++i) {
    names.insert(core::anomaly_name(static_cast<core::AnomalyType>(i)));
  }
  EXPECT_EQ(names.size(), core::kAnomalyTypeCount);
}

}  // namespace
}  // namespace pandarus
