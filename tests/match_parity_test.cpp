// Parity tests for the matching core: the parallel driver and the
// pool-assisted index build must be identical to their serial
// counterparts, deterministically, for every matching method.  Any
// divergence in group contents, group order or merge order shows up
// here as a differing candidate set, tally or MatchedJob set.  The
// funnel counters are counted per query, the same on every repeat.
#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "pandarus.hpp"

namespace {

using namespace pandarus;

const telemetry::MetadataStore& seeded_store() {
  static const scenario::ScenarioResult result = [] {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 0.5;
    config.seed = 20260805;
    return scenario::run_campaign(config);
  }();
  return result.store;
}

const core::MatchOptions kMethods[] = {
    core::MatchOptions::exact(),
    core::MatchOptions::rm1(),
    core::MatchOptions::rm2(),
};

void expect_identical(const core::MatchResult& a, const core::MatchResult& b,
                      const char* label) {
  EXPECT_EQ(a.jobs_considered, b.jobs_considered) << label;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const core::MatchedJob& x = a.jobs[i];
    const core::MatchedJob& y = b.jobs[i];
    EXPECT_EQ(x.job_index, y.job_index) << label << " job " << i;
    EXPECT_EQ(x.transfer_indices, y.transfer_indices)
        << label << " job_index " << x.job_index;
    EXPECT_EQ(x.local_transfers, y.local_transfers) << label;
    EXPECT_EQ(x.remote_transfers, y.remote_transfers) << label;
  }
}

TEST(MatchParity, ScenarioProducesWork) {
  const auto& store = seeded_store();
  ASSERT_GT(store.jobs().size(), 100u);
  ASSERT_GT(store.transfers().size(), 100u);
  // A parity test over an empty matched set would be vacuous.
  const core::Matcher matcher(store);
  EXPECT_GT(matcher.run(core::MatchOptions::rm2()).matched_job_count(), 0u);
}

TEST(MatchParity, ParallelDriverMatchesSerialRun) {
  const core::Matcher matcher(seeded_store());
  parallel::ThreadPool pool(4);
  const core::ParallelMatchDriver driver(matcher, pool);
  for (const auto& options : kMethods) {
    const auto serial = matcher.run(options);
    const auto parallel_result = driver.run(options);
    expect_identical(serial, parallel_result,
                     core::method_name(options.method));
  }
}

TEST(MatchParity, ParallelDriverIsDeterministicAcrossRuns) {
  const core::Matcher matcher(seeded_store());
  parallel::ThreadPool pool(4);
  const core::ParallelMatchDriver driver(matcher, pool);
  const auto first = driver.run(core::MatchOptions::rm2());
  for (int run = 0; run < 3; ++run) {
    expect_identical(first, driver.run(core::MatchOptions::rm2()),
                     "repeat parallel run");
  }
}

/// Everything the matcher reads of an index, job by job: the candidate
/// rows and the join's tally (file rows, the four funnel tallies, S_j).
void expect_same_index(const core::MatchIndex& a, const core::MatchIndex& b,
                       const std::string& label) {
  for (std::size_t j = 0; j < a.store().jobs().size(); ++j) {
    EXPECT_TRUE(std::ranges::equal(a.candidates(j), b.candidates(j)))
        << label << " job " << j;
    const core::MatchIndex::JobTally& x = a.tally(j);
    const core::MatchIndex::JobTally& y = b.tally(j);
    EXPECT_EQ(x.file_rows, y.file_rows) << label << " job " << j;
    EXPECT_EQ(x.scanned, y.scanned) << label << " job " << j;
    EXPECT_EQ(x.reject_taskid, y.reject_taskid) << label << " job " << j;
    EXPECT_EQ(x.reject_attr, y.reject_attr) << label << " job " << j;
    EXPECT_EQ(x.reject_time, y.reject_time) << label << " job " << j;
    EXPECT_EQ(x.candidate_sum, y.candidate_sum) << label << " job " << j;
  }
}

TEST(MatchParity, PoolBuiltIndexMatchesSerialBuild) {
  const auto& store = seeded_store();
  const core::Matcher serial_built(store);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    const std::string label = std::to_string(threads) + "-thread pool";
    parallel::ThreadPool pool(threads);
    const core::Matcher pool_built(store, pool);
    expect_same_index(*serial_built.index(), *pool_built.index(), label);
    for (const auto& options : kMethods) {
      const std::string method =
          label + " " + core::method_name(options.method);
      expect_identical(serial_built.run(options), pool_built.run(options),
                       method.c_str());
    }
  }
}

/// Every `pandarus_match_*` counter in the registry, by name.
std::map<std::string, std::uint64_t> match_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : obs::Registry::global().snapshot().counters) {
    if (c.name.starts_with("pandarus_match_")) out[c.name] = c.value;
  }
  return out;
}

constexpr const char* kBuilds = "pandarus_match_index_builds_total";

TEST(MatchFunnel, BuildingAnIndexCountsOnlyTheBuild) {
  const auto& store = seeded_store();
  // Registers every funnel counter, so that they are compared below.
  (void)core::Matcher(store).run(core::MatchOptions::exact());
  parallel::ThreadPool pool(2);
  parallel::ThreadPool* const builds_on[] = {nullptr, &pool};
  for (parallel::ThreadPool* build_pool : builds_on) {
    auto before = match_counters();
    for (const char* name :
         {"pandarus_match_candidates_scanned_total",
          "pandarus_match_reject_taskid_total",
          "pandarus_match_reject_attr_key_total",
          "pandarus_match_reject_time_total",
          "pandarus_match_candidates_accepted_total",
          "pandarus_match_reject_size_sum_total",
          "pandarus_match_reject_site_total",
          "pandarus_match_jobs_no_file_rows_total",
          "pandarus_match_jobs_no_candidates_total",
          "pandarus_match_jobs_site_eliminated_total",
          "pandarus_match_jobs_matched_total", kBuilds}) {
      EXPECT_TRUE(before.contains(name)) << name;
    }
    const core::MatchIndex index(store, build_pool);
    ++before[kBuilds];
    EXPECT_EQ(match_counters(), before)
        << (build_pool != nullptr ? "pool build" : "serial build");
  }
}

TEST(MatchFunnel, EachQueryAddsTheSameTallies) {
  const core::Matcher matcher(seeded_store());
  const std::size_t n_jobs = matcher.store().jobs().size();
  const auto delta = [](const auto& work) {
    auto before = match_counters();
    work();
    auto after = match_counters();
    for (auto& [name, value] : after) value -= before[name];
    after.erase("pandarus_match_run_wall_us_total");
    return after;
  };
  for (const auto& options : kMethods) {
    const char* method = core::method_name(options.method);
    const auto run = [&] { (void)matcher.run(options); };
    const auto first = delta(run);
    EXPECT_GT(first.at("pandarus_match_candidates_scanned_total"), 0u);
    EXPECT_EQ(delta(run), first) << method;

    // Diagnosing every job adds the candidate stage a run adds, and no
    // job stage.
    const auto diagnosed = delta([&] {
      for (std::size_t j = 0; j < n_jobs; ++j) {
        (void)matcher.diagnose_job(j, options);
      }
    });
    for (const auto& [name, value] : diagnosed) {
      const bool candidate_stage =
          name == "pandarus_match_candidates_scanned_total" ||
          name == "pandarus_match_reject_taskid_total" ||
          name == "pandarus_match_reject_attr_key_total" ||
          name == "pandarus_match_reject_time_total" ||
          name == "pandarus_match_candidates_accepted_total";
      EXPECT_EQ(value, candidate_stage ? first.at(name) : 0u)
          << method << " " << name;
    }
  }
}

TEST(MatchParity, SharedIndexAcrossMatchers) {
  // Matchers constructed over the same shared index agree with a
  // matcher that built its own.
  const auto& store = seeded_store();
  const auto index = std::make_shared<const core::MatchIndex>(store);
  const core::Matcher a{index};
  const core::Matcher own(store);
  expect_identical(own.run(core::MatchOptions::exact()),
                   a.run(core::MatchOptions::exact()), "shared index");
}

}  // namespace
