// Unit tests for the analysis layer: heatmap, queuing breakdowns,
// bandwidth series, threshold sweeps, summaries, case-study extraction
// and the volume-growth model.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/bandwidth.hpp"
#include "analysis/breakdown.hpp"
#include "analysis/casestudy.hpp"
#include "analysis/heatmap.hpp"
#include "analysis/summary.hpp"
#include "analysis/threshold.hpp"
#include "analysis/volume_growth.hpp"

namespace pandarus::analysis {
namespace {

using telemetry::FileDirection;
using telemetry::FileRecord;
using telemetry::JobRecord;
using telemetry::MetadataStore;
using telemetry::TransferRecord;

grid::Topology three_sites() {
  grid::Topology topo;
  for (const char* name : {"A", "B", "C"}) {
    grid::Site s;
    s.name = name;
    topo.add_site(s);
  }
  return topo;
}

/// Every fixture row's attributes, under its own lfn.
telemetry::FileAttributes names(std::string_view lfn) {
  return {lfn, "ds", "blk", "mc23"};
}

TransferRecord transfer(std::uint64_t id, grid::SiteId src, grid::SiteId dst,
                        std::uint64_t size, util::SimTime t0,
                        util::SimTime t1, std::int64_t taskid = -1,
                        dms::Activity activity =
                            dms::Activity::kDataRebalance) {
  TransferRecord t;
  t.transfer_id = id;
  t.jeditaskid = taskid;
  t.file_size = size;
  t.source_site = src;
  t.destination_site = dst;
  t.activity = activity;
  t.started_at = t0;
  t.finished_at = t1;
  t.success = true;
  return t;
}

/// Records `t` under lfn "f<transfer_id>".
void record(MetadataStore& store, const TransferRecord& t) {
  store.record_transfer(t, names("f" + std::to_string(t.transfer_id)));
}

TEST(Heatmap, CellsAndSummary) {
  MetadataStore store;
  record(store, transfer(1, 0, 0, 1000, 0, 10));  // local
  record(store, transfer(2, 0, 1, 500, 0, 10));   // remote
  record(store, transfer(3, 0, grid::kUnknownSite, 200, 0, 10));
  TransferRecord failed = transfer(4, 1, 2, 999, 0, 10);
  failed.success = false;  // excluded
  record(store, failed);

  const grid::Topology topo = three_sites();
  TransferHeatmap hm(store, topo);
  EXPECT_EQ(hm.dimension(), 4u);
  EXPECT_DOUBLE_EQ(hm.cell(0, 0), 1000.0);
  EXPECT_DOUBLE_EQ(hm.cell(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(hm.cell(0, hm.unknown_index()), 200.0);
  EXPECT_DOUBLE_EQ(hm.cell(1, 2), 0.0);

  const auto s = hm.summary();
  EXPECT_DOUBLE_EQ(s.total_bytes, 1700.0);
  EXPECT_DOUBLE_EQ(s.local_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(s.unknown_bytes, 200.0);
  EXPECT_EQ(s.nonzero_pairs, 3u);
  EXPECT_NEAR(s.local_fraction(), 1000.0 / 1700.0, 1e-12);
  // Heavy-tail signature: arithmetic mean over all pairs far below the
  // geometric mean over nonzero pairs is possible; both must be positive.
  EXPECT_GT(s.geomean_pair_bytes, 0.0);
  EXPECT_GT(s.mean_pair_bytes, 0.0);

  const auto top = hm.top_cells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].bytes, 1000.0);
  EXPECT_TRUE(top[0].local);
  EXPECT_EQ(top[1].src_name, "A");
  EXPECT_EQ(top[1].dst_name, "B");

  std::ostringstream csv;
  hm.write_csv(csv);
  EXPECT_NE(csv.str().find("unknown"), std::string::npos);
  EXPECT_FALSE(hm.to_ascii().empty());
}

/// Store with one matched job whose numbers are easy to verify.
struct MatchedFixture {
  MetadataStore store;
  core::MatchResult result;

  explicit MatchedFixture(bool failed_job = false,
                          bool failed_task = false) {
    JobRecord j;
    j.pandaid = 1;
    j.jeditaskid = 7;
    j.computing_site = 0;
    j.creation_time = 0;
    j.start_time = 1000;
    j.end_time = 3000;
    j.ninputfilebytes = 600;
    j.failed = failed_job;
    j.task_status =
        failed_task ? wms::TaskStatus::kFailed : wms::TaskStatus::kDone;
    store.record_job(j);

    FileRecord f;
    f.pandaid = 1;
    f.jeditaskid = 7;
    f.file_size = 600;
    store.record_file(f, names("f10"));

    record(store, transfer(10, 0, 0, 600, 100, 500, 7,
                           dms::Activity::kAnalysisDownload));

    core::Matcher matcher(store);
    result = matcher.run(core::MatchOptions::exact());
  }
};

TEST(Breakdown, RowsCarryMetrics) {
  MatchedFixture fx;
  const auto rows = build_breakdown(fx.store, fx.result);
  ASSERT_EQ(rows.size(), 1u);
  const BreakdownRow& row = rows[0];
  EXPECT_EQ(row.pandaid, 1);
  EXPECT_EQ(row.queuing_time, 1000);
  EXPECT_EQ(row.transfer_time_in_queue, 400);
  EXPECT_NEAR(row.queue_fraction, 0.4, 1e-12);
  EXPECT_EQ(row.transferred_bytes, 600u);
  EXPECT_EQ(row.locality, core::LocalityClass::kAllLocal);
  EXPECT_FALSE(row.job_failed);
}

TEST(Breakdown, TopByQueuingFiltersAndSorts) {
  std::vector<BreakdownRow> rows;
  for (int i = 0; i < 100; ++i) {
    BreakdownRow r;
    r.pandaid = i;
    r.locality = i % 2 == 0 ? core::LocalityClass::kAllLocal
                            : core::LocalityClass::kAllRemote;
    r.queuing_time = 1000 * (i + 1);
    r.queue_fraction = i % 4 == 0 ? 0.5 : 0.01;  // only some pass 10%
    rows.push_back(r);
  }
  const auto top =
      top_by_queuing(rows, core::LocalityClass::kAllLocal, 0.10, 10);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].queuing_time, top[i].queuing_time);
  }
  for (const auto& r : top) {
    EXPECT_EQ(r.locality, core::LocalityClass::kAllLocal);
    EXPECT_GE(r.queue_fraction, 0.10);
  }
}

TEST(Breakdown, AggregatesSeparateZeroFractions) {
  std::vector<BreakdownRow> rows(4);
  rows[0].queue_fraction = 0.1;
  rows[1].queue_fraction = 0.4;
  rows[2].queue_fraction = 0.0;
  rows[3].queue_fraction = 0.0;
  const auto agg = aggregate(rows);
  EXPECT_NEAR(agg.mean_queue_fraction, 0.25, 1e-12);
  EXPECT_NEAR(agg.geomean_queue_fraction, 0.2, 1e-12);
  EXPECT_EQ(agg.zero_fraction_jobs, 2u);
}

TEST(Bandwidth, SeriesSpreadsBytesUniformly) {
  MetadataStore store;
  // 1 GB over [0, 10 s) on link A->B: 100 MBps in each 1-s bin.
  record(store, transfer(1, 0, 1, 1'000'000'000, 0, util::seconds(10)));
  const auto series =
      bandwidth_series(store, nullptr, 0, 1, util::seconds(1));
  ASSERT_EQ(series.size(), 10u);
  for (const auto& p : series) EXPECT_NEAR(p.mbps, 100.0, 1.0);
  const auto stats = series_stats(series);
  EXPECT_NEAR(stats.peak_mbps, 100.0, 1.0);
  EXPECT_NEAR(stats.burstiness(), 1.0, 0.05);
}

TEST(Bandwidth, SeriesRestrictedToMatchedSet) {
  MatchedFixture fx;
  // Unmatched traffic on the same pair must not contribute.
  record(fx.store, transfer(99, 0, 0, 1'000'000'000, 100, 500));
  const auto matched_series =
      bandwidth_series(fx.store, &fx.result, 0, 0, util::msec(100));
  const auto all_series =
      bandwidth_series(fx.store, nullptr, 0, 0, util::msec(100));
  double matched_total = 0.0;
  for (const auto& p : matched_series) matched_total += p.mbps;
  double all_total = 0.0;
  for (const auto& p : all_series) all_total += p.mbps;
  EXPECT_LT(matched_total, all_total / 100.0);
}

TEST(Bandwidth, TopPairsSplitsLocalAndRemote) {
  MatchedFixture fx;
  const auto local = top_matched_pairs(fx.store, fx.result, true, 5);
  const auto remote = top_matched_pairs(fx.store, fx.result, false, 5);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0].src, 0u);
  EXPECT_EQ(local[0].bytes, 600u);
  EXPECT_TRUE(remote.empty());
}

TEST(Threshold, ClassifiesFourWays) {
  EXPECT_EQ(classify(false, false), StatusClass::kJobOkTaskOk);
  EXPECT_EQ(classify(true, false), StatusClass::kJobFailTaskOk);
  EXPECT_EQ(classify(false, true), StatusClass::kJobOkTaskFail);
  EXPECT_EQ(classify(true, true), StatusClass::kJobFailTaskFail);
}

TEST(Threshold, SweepCountsCumulatively) {
  std::vector<BreakdownRow> rows;
  auto add = [&](double fraction, bool jf, bool tf) {
    BreakdownRow r;
    r.queue_fraction = fraction;
    r.job_failed = jf;
    r.task_failed = tf;
    rows.push_back(r);
  };
  add(0.005, false, false);
  add(0.015, false, false);
  add(0.80, true, true);
  add(0.90, true, false);

  const double thresholds[] = {0.01, 0.02, 0.75, 1.0};
  const ThresholdSweep sweep = run_threshold_sweep(rows, thresholds);
  EXPECT_EQ(sweep.total_jobs, 4u);
  EXPECT_EQ(sweep.rows[0].counts[0], 1u);  // <= 1%
  EXPECT_EQ(sweep.rows[1].counts[0], 2u);  // <= 2%
  EXPECT_EQ(sweep.rows[3].total(), 4u);    // <= 100%
  // Jobs above 75%: one fail/fail and one fail/ok (the paper's "most of
  // these extreme cases correspond to failed jobs").
  const auto above = sweep.above(0.75);
  EXPECT_EQ(above[static_cast<std::size_t>(StatusClass::kJobFailTaskFail)],
            1u);
  EXPECT_EQ(above[static_cast<std::size_t>(StatusClass::kJobFailTaskOk)], 1u);
  EXPECT_EQ(above[static_cast<std::size_t>(StatusClass::kJobOkTaskOk)], 0u);
  EXPECT_EQ(sweep.successful_jobs(), 2u);
}

TEST(Threshold, DefaultThresholdsSpanPercents) {
  const auto t = default_thresholds();
  ASSERT_EQ(t.size(), 100u);
  EXPECT_DOUBLE_EQ(t.front(), 0.01);
  EXPECT_DOUBLE_EQ(t.back(), 1.0);
}

TEST(Summary, OverallAndTables) {
  MatchedFixture fx;
  const OverallSummary s = overall_summary(fx.store, fx.result);
  EXPECT_EQ(s.total_jobs, 1u);
  EXPECT_EQ(s.total_transfers, 1u);
  EXPECT_EQ(s.transfers_with_taskid, 1u);
  EXPECT_EQ(s.matched_transfers, 1u);
  EXPECT_EQ(s.matched_jobs, 1u);
  EXPECT_NEAR(s.matched_job_pct, 1.0, 1e-12);

  const ActivityBreakdown b = activity_breakdown(fx.store, fx.result);
  const auto& dl =
      b.rows[static_cast<std::size_t>(dms::Activity::kAnalysisDownload)];
  EXPECT_EQ(dl.matched, 1u);
  EXPECT_EQ(dl.total, 1u);
  EXPECT_NEAR(dl.percentage(), 1.0, 1e-12);

  core::Matcher matcher(fx.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);
  const MethodComparison cmp = compare_methods(fx.store, tri);
  EXPECT_EQ(cmp.transfers[0].local, 1u);
  EXPECT_EQ(cmp.jobs[0].all_local, 1u);
  // Monotone inclusion across methods.
  EXPECT_LE(cmp.transfers[0].total(), cmp.transfers[1].total());
  EXPECT_LE(cmp.transfers[1].total(), cmp.transfers[2].total());

  std::ostringstream os;
  print_overall(os, s);
  print_table1(os, b);
  print_table2(os, cmp);
  EXPECT_NE(os.str().find("Analysis Download"), std::string::npos);
  EXPECT_NE(os.str().find("RM2"), std::string::npos);
}

TEST(Summary, SharedTransferCountedOnce) {
  // Two jobs of one task matched to the same transfer: the unique count
  // must be 1 (the paper counts transfers, not (job, transfer) pairs).
  MatchedFixture fx;
  JobRecord j2 = fx.store.jobs()[0];
  j2.pandaid = 2;
  fx.store.record_job(j2);
  FileRecord f2 = fx.store.files()[0];
  f2.pandaid = 2;
  fx.store.record_file(f2, names("f10"));
  core::Matcher matcher(fx.store);
  const auto result = matcher.run(core::MatchOptions::exact());
  ASSERT_EQ(result.matched_job_count(), 2u);
  const OverallSummary s = overall_summary(fx.store, result);
  EXPECT_EQ(s.matched_transfers, 1u);
}

TEST(CaseStudy, SequentialStagingPicksHighestFraction) {
  MatchedFixture fx;
  // Add a second matched transfer so the spread is defined.
  TransferRecord t2 =
      transfer(11, 0, 0, 0, 500, 900, 7, dms::Activity::kAnalysisDownload);
  t2.file_size = 300;
  fx.store.record_transfer(t2, names("f11"));
  FileRecord f2 = fx.store.files()[0];
  f2.file_size = 300;
  fx.store.record_file(f2, names("f11"));
  // ninputfilebytes must match the new sum.
  fx.store.jobs_mutable()[0].ninputfilebytes = 900;

  core::Matcher matcher(fx.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);
  CaseStudyExtractor extractor(fx.store, tri);
  const auto cs = extractor.sequential_staging_case();
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(cs->match.transfer_indices.size(), 2u);
  EXPECT_GT(cs->throughput_spread, 1.0);
  const grid::Topology topo = three_sites();
  EXPECT_FALSE(render_timeline(fx.store, cs->match).empty());
  EXPECT_NE(render_transfer_table(fx.store, topo, cs->match)
                .find("Analysis Download"),
            std::string::npos);
}

TEST(CaseStudy, FailedSpanningCaseRequiresFailure) {
  MatchedFixture fx;  // successful job only
  core::Matcher matcher(fx.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);
  CaseStudyExtractor extractor(fx.store, tri);
  EXPECT_FALSE(extractor.failed_spanning_case().has_value());
}

TEST(CaseStudy, Rm2RedundantCaseFindsDuplicates) {
  MatchedFixture fx;
  // Duplicate of f10 with UNKNOWN destination before job creation.
  TransferRecord dup =
      transfer(12, 1, grid::kUnknownSite, 600, -500, -100, 7,
               dms::Activity::kAnalysisDownload);
  fx.store.record_transfer(dup, names("f10"));
  core::Matcher matcher(fx.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);
  CaseStudyExtractor extractor(fx.store, tri);
  const auto cs = extractor.rm2_redundant_case();
  ASSERT_TRUE(cs.has_value());
  ASSERT_EQ(cs->redundant.size(), 1u);
  EXPECT_EQ(cs->redundant[0].wasted_bytes(), 600u);
  ASSERT_EQ(cs->inferred_sites.size(), 1u);
  EXPECT_EQ(cs->inferred_sites[0].inferred_destination, 0u);
}

TEST(VolumeGrowth, ReachesExabyteByLastYear) {
  const auto years = simulate_volume_growth();
  ASSERT_EQ(years.size(), 16u);
  EXPECT_EQ(years.front().year, 2009);
  EXPECT_EQ(years.back().year, 2024);
  // Fig. 2's headline: ~1 EB by 2024, more than doubled since 2018.
  EXPECT_NEAR(years.back().total_pb, 1000.0, 120.0);
  double v2018 = 0.0;
  for (const auto& y : years) {
    if (y.year == 2018) v2018 = y.total_pb;
  }
  EXPECT_GT(years.back().total_pb, 2.0 * v2018);
  // Monotone growth with slower shutdown years.
  for (std::size_t i = 1; i < years.size(); ++i) {
    EXPECT_GT(years[i].total_pb, years[i - 1].total_pb);
  }
  EXPECT_LT(years[4].added_pb, years[5].added_pb * 2.0);  // sanity
  EXPECT_TRUE(is_shutdown_year(2013));
  EXPECT_TRUE(is_shutdown_year(2020));
  EXPECT_FALSE(is_shutdown_year(2016));
}

}  // namespace
}  // namespace pandarus::analysis
