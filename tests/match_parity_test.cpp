// Parity tests for the matching core: the parallel driver and the
// pool-assisted index build must be identical to their serial
// counterparts, deterministically, for every matching method.  Any
// divergence in group contents, group order or merge order shows up
// here as a differing index query or MatchedJob set.
#include <algorithm>
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

/// Every query the matcher makes of an index: each job's file rows,
/// and each file row's task range and group size (a bridged row's
/// jeditaskid is its job's task).
void expect_same_index(const core::MatchIndex& a, const core::MatchIndex& b,
                       const std::string& label) {
  const auto& store = a.store();
  for (std::size_t j = 0; j < store.jobs().size(); ++j) {
    EXPECT_TRUE(std::ranges::equal(a.files_of_job(j), b.files_of_job(j)))
        << label << " job " << j;
  }
  const auto files = store.files();
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& f = files[fi];
    const auto x = a.transfers_with_lfn(f.lfn_sym, f.jeditaskid);
    const auto y = b.transfers_with_lfn(f.lfn_sym, f.jeditaskid);
    EXPECT_TRUE(std::ranges::equal(x.transfers, y.transfers))
        << label << " file row " << fi;
    EXPECT_EQ(x.group_size, y.group_size) << label << " file row " << fi;
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
