// Integration tests: full campaigns through scenario::run_campaign, with
// cross-module invariants (determinism, method inclusion, conservation,
// paper-shape properties) checked on the resulting telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "analysis/breakdown.hpp"
#include "analysis/heatmap.hpp"
#include "analysis/summary.hpp"
#include "core/parallel_driver.hpp"
#include "core/relaxed.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "scenario/campaign.hpp"
#include "telemetry/io.hpp"
#include "util/crc32.hpp"

namespace pandarus::scenario {
namespace {

/// One shared small campaign for the read-only checks (building it per
/// test would dominate runtime).
const ScenarioResult& shared_result() {
  static const ScenarioResult result = [] {
    ScenarioConfig config = ScenarioConfig::small();
    config.seed = 20250401;
    return run_campaign(config);
  }();
  return result;
}

const core::TriMatchResult& shared_tri() {
  static const core::Matcher matcher(shared_result().store);
  static const core::TriMatchResult tri = core::run_all_methods(matcher);
  return tri;
}

TEST(Campaign, ProducesWork) {
  const ScenarioResult& r = shared_result();
  EXPECT_GT(r.workload.user_jobs, 100u);
  EXPECT_GT(r.workload.prod_jobs, 10u);
  EXPECT_GT(r.transfers.completed, 500u);
  EXPECT_GT(r.store.counts().jobs, 100u);
  EXPECT_GT(r.store.counts().transfers, 500u);
  EXPECT_GT(r.events_processed, 1000u);
}

TEST(Campaign, OnlyUserJobsRecorded) {
  const ScenarioResult& r = shared_result();
  // Job records cover user jobs plus resubmitted attempts (every attempt
  // leaves a record), minus corruption drops; never production jobs.
  EXPECT_LE(r.store.counts().jobs, r.workload.user_jobs + r.panda.retries);
  EXPECT_GT(r.store.counts().jobs, r.workload.user_jobs / 2);
  EXPECT_GT(r.panda.retries, 0u);
}

TEST(Campaign, JobRecordsHaveSaneTimes) {
  const ScenarioResult& r = shared_result();
  for (const auto& j : r.store.jobs()) {
    EXPECT_LE(j.creation_time, j.start_time);
    EXPECT_LE(j.start_time, j.end_time);
    EXPECT_GE(j.creation_time, 0);
    EXPECT_NE(j.computing_site, grid::kUnknownSite);
  }
}

TEST(Campaign, TransferRecordsHaveSaneSpans) {
  const ScenarioResult& r = shared_result();
  for (const auto& t : r.store.transfers()) {
    EXPECT_LT(t.started_at, t.finished_at);
    EXPECT_GT(t.file_size, 0u);
  }
}

TEST(Campaign, MostTasksReachTerminalStatus) {
  const ScenarioResult& r = shared_result();
  std::size_t finalized = 0;
  for (const auto& j : r.store.jobs()) {
    finalized += j.task_status != wms::TaskStatus::kRunning;
  }
  EXPECT_GT(finalized, r.store.jobs().size() * 9 / 10);
}

TEST(Campaign, JobRowsCarryTheirTasksFinalStatus) {
  // run_campaign copies each task's final status onto its job rows.
  const ScenarioResult& r = shared_result();
  struct Task {
    wms::TaskStatus status;
    bool any_failed;
  };
  std::map<std::int64_t, Task> tasks;
  for (const auto& j : r.store.jobs()) {
    Task& task =
        tasks.try_emplace(j.jeditaskid, Task{j.task_status, false})
            .first->second;
    EXPECT_EQ(task.status, j.task_status) << j.jeditaskid;
    task.any_failed |= j.failed;
  }
  std::size_t failed_tasks = 0;
  for (const auto& [id, task] : tasks) {
    if (task.status != wms::TaskStatus::kFailed) continue;
    ++failed_tasks;
    EXPECT_TRUE(task.any_failed) << id;
  }
  EXPECT_GT(failed_tasks, 0u);
}

TEST(Campaign, DeterministicForSeed) {
  ScenarioConfig config = ScenarioConfig::small();
  config.days = 0.2;
  config.seed = 77;
  const ScenarioResult a = run_campaign(config);
  const ScenarioResult b = run_campaign(config);
  ASSERT_EQ(a.store.counts().jobs, b.store.counts().jobs);
  ASSERT_EQ(a.store.counts().transfers, b.store.counts().transfers);
  EXPECT_EQ(a.events_processed, b.events_processed);
  for (std::size_t i = 0; i < a.store.jobs().size(); ++i) {
    EXPECT_EQ(a.store.jobs()[i].pandaid, b.store.jobs()[i].pandaid);
    EXPECT_EQ(a.store.jobs()[i].end_time, b.store.jobs()[i].end_time);
    EXPECT_EQ(a.store.jobs()[i].error_code, b.store.jobs()[i].error_code);
  }
  for (std::size_t i = 0; i < a.store.transfers().size(); ++i) {
    EXPECT_EQ(a.store.transfers()[i].file_size,
              b.store.transfers()[i].file_size);
    EXPECT_EQ(a.store.transfers()[i].finished_at,
              b.store.transfers()[i].finished_at);
  }
}

TEST(Campaign, DifferentSeedsDiffer) {
  ScenarioConfig config = ScenarioConfig::small();
  config.days = 0.2;
  config.seed = 1;
  const auto a = run_campaign(config);
  config.seed = 2;
  const auto b = run_campaign(config);
  EXPECT_NE(a.events_processed, b.events_processed);
}

/// The 1-day seed-7 small campaign that CI, the crash harness and the
/// microbenchmarks pin at 115/250/274 matched jobs.  The scheduler-work
/// counters make any change to how much the simulator pushes, fires or
/// cancels show up here, not only in CI's downstream steps.
TEST(Campaign, SmallCampaignPinsMatchedJobsAndSchedulerWork) {
  const auto counters = [] {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    return std::array<std::uint64_t, 3>{
        snap.counter_value("pandarus_sim_events_scheduled_total"),
        snap.counter_value("pandarus_sim_events_cancelled_total"),
        snap.counter_value("pandarus_dms_transfer_reschedules_total")};
  };
  ScenarioConfig config = ScenarioConfig::small();
  config.days = 1.0;
  config.seed = 7;
  const auto before = counters();
  const ScenarioResult r = run_campaign(config, obs::Session{});
  const auto after = counters();

  // Algorithm 1's funnel over the three methods, stage by stage: a
  // matcher that skips part of a candidate group must still count it.
  static constexpr const char* kFunnel[] = {
      "pandarus_match_candidates_scanned_total",
      "pandarus_match_reject_taskid_total",
      "pandarus_match_reject_attr_key_total",
      "pandarus_match_reject_time_total",
      "pandarus_match_candidates_accepted_total",
      "pandarus_match_reject_size_sum_total",
      "pandarus_match_reject_site_total",
      "pandarus_match_jobs_no_file_rows_total",
      "pandarus_match_jobs_no_candidates_total",
      "pandarus_match_jobs_site_eliminated_total",
      "pandarus_match_jobs_matched_total"};
  const auto funnel = [] {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    std::array<std::uint64_t, std::size(kFunnel)> values{};
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = snap.counter_value(kFunnel[i]);
    }
    return values;
  };
  const auto funnel_before = funnel();
  const core::Matcher matcher(r.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);
  const auto funnel_after = funnel();
  EXPECT_EQ(tri.exact.matched_job_count(), 115u);
  EXPECT_EQ(tri.rm1.matched_job_count(), 250u);
  EXPECT_EQ(tri.rm2.matched_job_count(), 274u);
  constexpr std::array<std::uint64_t, std::size(kFunnel)> kFunnelDeltas = {
      240'033, 193'512, 43'464, 384, 2'673, 201, 370, 6, 4'602, 129, 639};
  for (std::size_t i = 0; i < kFunnelDeltas.size(); ++i) {
    EXPECT_EQ(funnel_after[i] - funnel_before[i], kFunnelDeltas[i])
        << kFunnel[i];
  }

  EXPECT_EQ(r.events_processed, 25'451u);
  EXPECT_EQ(after[0] - before[0], 80'992u);  // scheduled
  EXPECT_EQ(after[1] - before[1], 55'541u);  // cancelled
  EXPECT_EQ(after[2] - before[2], 62'809u);  // finish-time updates
}

/// The simulator's output, byte for byte: the same 1-day seed-7 campaign
/// recorded into an in-memory event log, and its store.  A change that
/// only makes the simulator faster leaves all four values alone.  A
/// deliberate behaviour change re-pins them, and its CHANGES.md entry
/// says why they moved.
TEST(Campaign, SmallCampaignPinsStreamAndStoreBytes) {
  ScenarioConfig config = ScenarioConfig::small();
  config.days = 1.0;
  config.seed = 7;
  obs::EventLog log;
  const ScenarioResult r = run_campaign(config, {.events = &log});
  log.close();
  const std::string ndjson = log.to_ndjson();
  EXPECT_EQ(std::count(ndjson.begin(), ndjson.end(), '\n'), 63'224);
  EXPECT_EQ(ndjson.size(), 12'011'957u);
  EXPECT_EQ(util::crc32(ndjson), 1'435'153'810u);
  EXPECT_EQ(telemetry::store_digest(r.store), 11'016'172'846'698'577'215u);
}

/// A campaign's stream depends on its config alone.  Matching advances
/// process-wide registry counters; the next campaign in the process
/// must not carry them into its bytes.
TEST(Campaign, StreamIsIndependentOfEarlierMatchingInTheProcess) {
  ScenarioConfig config = ScenarioConfig::small();
  config.days = 1.0;
  config.seed = 7;
  obs::EventLog first_log;
  const ScenarioResult first = run_campaign(config, {.events = &first_log});
  first_log.close();

  const auto scanned = [] {
    return obs::Registry::global().snapshot().counter_value(
        "pandarus_match_candidates_scanned_total");
  };
  const std::uint64_t before = scanned();
  const core::Matcher matcher(first.store);
  EXPECT_EQ(core::run_all_methods(matcher).exact.matched_job_count(), 115u);
  ASSERT_GT(scanned(), before);

  obs::EventLog second_log;
  (void)run_campaign(config, {.events = &second_log});
  second_log.close();
  // Not EXPECT_EQ on the texts: gtest's diff of two multi-megabyte
  // strings needs quadratic memory.  Report the first differing bytes.
  const std::string a = first_log.to_ndjson();
  const std::string b = second_log.to_ndjson();
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
  EXPECT_TRUE(at == a.size() && a.size() == b.size())
      << "streams differ at byte " << at << ":\n"
      << a.substr(at, 160) << "\nvs\n" << b.substr(at, 160);
}

TEST(Matching, MethodInclusionHoldsCampaignWide) {
  const core::TriMatchResult& tri = shared_tri();
  EXPECT_LE(tri.exact.matched_job_count(), tri.rm1.matched_job_count());
  EXPECT_LE(tri.rm1.matched_job_count(), tri.rm2.matched_job_count());
  EXPECT_LE(tri.exact.matched_transfer_count(),
            tri.rm1.matched_transfer_count());
  EXPECT_LE(tri.rm1.matched_transfer_count(),
            tri.rm2.matched_transfer_count());
}

TEST(Matching, PerJobInclusionHolds) {
  const ScenarioResult& r = shared_result();
  const core::Matcher matcher(r.store);
  for (std::size_t i = 0; i < r.store.jobs().size(); i += 7) {
    const auto exact = matcher.match_job(i, core::MatchOptions::exact());
    const auto rm1 = matcher.match_job(i, core::MatchOptions::rm1());
    const auto rm2 = matcher.match_job(i, core::MatchOptions::rm2());
    EXPECT_TRUE(std::includes(rm1.transfer_indices.begin(),
                              rm1.transfer_indices.end(),
                              exact.transfer_indices.begin(),
                              exact.transfer_indices.end()));
    EXPECT_TRUE(std::includes(rm2.transfer_indices.begin(),
                              rm2.transfer_indices.end(),
                              rm1.transfer_indices.begin(),
                              rm1.transfer_indices.end()));
  }
}

TEST(Matching, ExactMatchedSetsSatisfyAlgorithmPredicate) {
  // Every exact-matched transfer must satisfy the per-transfer clauses
  // of Algorithm 1 against its job.
  const ScenarioResult& r = shared_result();
  for (const auto& m : shared_tri().exact.jobs) {
    const auto& job = r.store.jobs()[m.job_index];
    for (std::size_t ti : m.transfer_indices) {
      const auto& t = r.store.transfers()[ti];
      EXPECT_LT(t.started_at, job.end_time);
      EXPECT_EQ(t.jeditaskid, job.jeditaskid);
      if (t.is_download()) {
        EXPECT_EQ(t.destination_site, job.computing_site);
      } else {
        EXPECT_EQ(t.source_site, job.computing_site);
      }
    }
  }
}

TEST(Matching, ParallelDriverMatchesSerial) {
  const ScenarioResult& r = shared_result();
  const core::Matcher matcher(r.store);
  parallel::ThreadPool pool(4);
  const core::ParallelMatchDriver driver(matcher, pool);
  for (const auto options :
       {core::MatchOptions::exact(), core::MatchOptions::rm2()}) {
    const auto serial = matcher.run(options);
    const auto parallel_result = driver.run(options);
    ASSERT_EQ(serial.matched_job_count(), parallel_result.matched_job_count());
    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
      EXPECT_EQ(serial.jobs[i].job_index, parallel_result.jobs[i].job_index);
      EXPECT_EQ(serial.jobs[i].transfer_indices,
                parallel_result.jobs[i].transfer_indices);
    }
  }
}

TEST(PaperShape, ExactMatchesAreMostlyLocal) {
  const ScenarioResult& r = shared_result();
  const auto cmp = analysis::compare_methods(r.store, shared_tri());
  // Only statistically meaningful on a large enough matched population;
  // the half-day small campaign sometimes matches only a few dozen.
  if (cmp.transfers[0].total() > 100) {
    EXPECT_GT(static_cast<double>(cmp.transfers[0].local),
              0.6 * static_cast<double>(cmp.transfers[0].total()));
  } else {
    EXPECT_GT(cmp.transfers[0].local, 0u);
  }
}

TEST(PaperShape, ProductionActivitiesNeverMatch) {
  const ScenarioResult& r = shared_result();
  const auto b = analysis::activity_breakdown(r.store, shared_tri().exact);
  EXPECT_EQ(
      b.rows[static_cast<std::size_t>(dms::Activity::kProductionUpload)]
          .matched,
      0u);
  EXPECT_EQ(
      b.rows[static_cast<std::size_t>(dms::Activity::kProductionDownload)]
          .matched,
      0u);
  EXPECT_GT(
      b.rows[static_cast<std::size_t>(dms::Activity::kProductionUpload)]
          .total,
      0u);
}

TEST(PaperShape, MatchedFractionIsSmall) {
  const ScenarioResult& r = shared_result();
  const auto s = analysis::overall_summary(r.store, shared_tri().exact);
  EXPECT_GT(s.matched_jobs, 0u);
  EXPECT_LT(s.matched_job_pct, 0.25);
  EXPECT_LT(s.matched_transfer_pct, 0.25);
}

TEST(PaperShape, LocalVolumeDominatesHeatmap) {
  const ScenarioResult& r = shared_result();
  const analysis::TransferHeatmap hm(r.store, r.topology);
  const auto s = hm.summary();
  EXPECT_GT(s.local_fraction(), 0.4);
  // Extreme spatial imbalance (paper §3.2): the largest cell dwarfs the
  // typical (geometric-mean) pair, and it sits on the diagonal.
  const auto top = hm.top_cells(1);
  ASSERT_FALSE(top.empty());
  EXPECT_GT(top[0].bytes, 20.0 * s.geomean_pair_bytes);
  EXPECT_TRUE(top[0].local);
}

TEST(PaperShape, FailedJobsExistWithPaperErrorCodes) {
  const ScenarioResult& r = shared_result();
  std::size_t failed = 0;
  bool any_known_code = false;
  for (const auto& j : r.store.jobs()) {
    if (!j.failed) continue;
    ++failed;
    if (j.error_code == wms::errors::kOverlay ||
        j.error_code == wms::errors::kStageInTimeout ||
        j.error_code == wms::errors::kExecutionFailure ||
        j.error_code == wms::errors::kLostHeartbeat ||
        j.error_code == wms::errors::kSiteServiceError ||
        j.error_code == wms::errors::kStageOutFailure) {
      any_known_code = true;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_TRUE(any_known_code);
  // The success rate should be high but not perfect (paper: 80.5% of
  // matched jobs successful; overall ATLAS success higher).
  EXPECT_LT(failed, r.store.jobs().size() / 2);
}

TEST(PaperShape, CorruptionReportNonTrivial) {
  const ScenarioResult& r = shared_result();
  EXPECT_GT(r.corruption.transfers_size_jittered, 0u);
  EXPECT_GT(r.corruption.transfers_destination_unknown, 0u);
  EXPECT_GT(r.corruption.file_records_dropped, 0u);
}

TEST(PaperShape, UnknownEndpointsFeedTheUnknownPseudoSite) {
  const ScenarioResult& r = shared_result();
  const analysis::TransferHeatmap hm(r.store, r.topology);
  const auto s = hm.summary();
  EXPECT_GT(s.unknown_bytes, 0.0);
}

TEST(Config, PresetsDiffer) {
  const auto small = ScenarioConfig::small();
  const auto paper = ScenarioConfig::paper_scale();
  const auto heatmap = ScenarioConfig::heatmap_campaign();
  EXPECT_LT(small.days, paper.days);
  EXPECT_GT(heatmap.days, paper.days);
  EXPECT_LT(small.topology.n_tier2, paper.topology.n_tier2);
}

}  // namespace
}  // namespace pandarus::scenario
