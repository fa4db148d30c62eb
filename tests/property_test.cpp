// Property-based / parameterized tests (TEST_P): invariants that must
// hold across seeds, corruption intensities and topology shapes.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/summary.hpp"
#include "core/metrics.hpp"
#include "core/relaxed.hpp"
#include "scenario/campaign.hpp"
#include "util/interner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pandarus {
namespace {

// --- RNG distribution properties over many seeds -------------------------

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMomentsInRange) {
  util::Rng rng(GetParam());
  util::OnlineStats stats;
  for (int i = 0; i < 20'000; ++i) stats.add(rng.next_double());
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.2887, 0.02);
}

TEST_P(RngSeedSweep, WeightedIndexUnbiasedTwoWay) {
  util::Rng rng(GetParam());
  const double weights[] = {2.0, 1.0};
  int first = 0;
  for (int i = 0; i < 12'000; ++i) first += rng.weighted_index(weights) == 0;
  EXPECT_NEAR(static_cast<double>(first) / 12'000.0, 2.0 / 3.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

// --- interval-union properties ----------------------------------------

class UnionMeasureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionMeasureSweep, BoundedBySumAndSpan) {
  util::Rng rng(GetParam());
  std::vector<core::Interval> spans;
  util::SimTime lo = util::kNever;
  util::SimTime hi = 0;
  util::SimDuration total = 0;
  for (int i = 0; i < 40; ++i) {
    const util::SimTime b = rng.uniform_int(0, 10'000);
    const util::SimTime e = b + rng.uniform_int(0, 2'000);
    spans.push_back({b, e});
    lo = std::min(lo, b);
    hi = std::max(hi, e);
    total += e - b;
  }
  const util::SimDuration u = core::union_measure(spans);
  EXPECT_LE(u, total);      // union never exceeds the sum
  EXPECT_LE(u, hi - lo);    // nor the covering span
  EXPECT_GE(u, 0);
  // Adding an interval never shrinks the union.
  auto grown = spans;
  grown.push_back({0, 12'000});
  EXPECT_GE(core::union_measure(grown), u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionMeasureSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- campaign-level properties across seeds ------------------------------

struct CampaignCase {
  std::uint64_t seed;
  double corruption_scale;  // scales every corruption probability
};

class CampaignSweep : public ::testing::TestWithParam<CampaignCase> {
 protected:
  static scenario::ScenarioConfig config_for(const CampaignCase& c) {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 0.25;
    config.seed = c.seed;
    auto& corruption = config.corruption;
    corruption.p_drop_transfer_taskid *= c.corruption_scale;
    corruption.p_unknown_source *= c.corruption_scale;
    corruption.p_unknown_destination *= c.corruption_scale;
    corruption.p_size_jitter *= c.corruption_scale;
    corruption.p_drop_file_record *= c.corruption_scale;
    corruption.p_drop_job_record *= c.corruption_scale;
    corruption.p_size_jitter_bad_site =
        std::min(1.0, corruption.p_size_jitter_bad_site * c.corruption_scale);
    corruption.p_unknown_endpoint_bad_site_tasked = std::min(
        1.0,
        corruption.p_unknown_endpoint_bad_site_tasked * c.corruption_scale);
    corruption.p_unknown_endpoint_bad_site_anonymous = std::min(
        1.0, corruption.p_unknown_endpoint_bad_site_anonymous *
                 c.corruption_scale);
    return config;
  }
};

TEST_P(CampaignSweep, CoreInvariantsHold) {
  const auto result = scenario::run_campaign(config_for(GetParam()));
  const core::Matcher matcher(result.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);

  // Inclusion ordering across methods.
  EXPECT_LE(tri.exact.matched_job_count(), tri.rm1.matched_job_count());
  EXPECT_LE(tri.rm1.matched_job_count(), tri.rm2.matched_job_count());

  // Matched transfer sets reference valid indices, at most once per job.
  for (const auto& m : tri.rm2.jobs) {
    EXPECT_LT(m.job_index, result.store.jobs().size());
    for (std::size_t k = 1; k < m.transfer_indices.size(); ++k) {
      EXPECT_LT(m.transfer_indices[k - 1], m.transfer_indices[k]);
    }
    for (std::size_t ti : m.transfer_indices) {
      EXPECT_LT(ti, result.store.transfers().size());
    }
    EXPECT_EQ(m.local_transfers + m.remote_transfers,
              m.transfer_indices.size());
  }

  // Metrics are bounded.
  for (const auto& m : tri.exact.jobs) {
    const auto metrics = core::compute_metrics(result.store, m);
    EXPECT_GE(metrics.queuing_time, 0);
    EXPECT_GE(metrics.transfer_time_in_queue, 0);
    EXPECT_LE(metrics.transfer_time_in_queue, metrics.queuing_time);
    EXPECT_LE(metrics.transfer_time_in_wall, metrics.wall_time);
  }

  // Production activities never match (they have no file-table rows).
  const auto breakdown =
      analysis::activity_breakdown(result.store, tri.exact);
  EXPECT_EQ(breakdown
                .rows[static_cast<std::size_t>(
                    dms::Activity::kProductionUpload)]
                .matched,
            0u);
}

TEST_P(CampaignSweep, EnergyConservation) {
  // Bytes recorded as successfully transferred equal the engine's moved
  // bytes, modulo jitter introduced *after* the simulation by the
  // corruption layer (compare against an uncorrupted run).
  scenario::ScenarioConfig config = config_for(GetParam());
  config.apply_corruption = false;
  const auto result = scenario::run_campaign(config);
  std::uint64_t recorded = 0;
  for (const auto& t : result.store.transfers()) {
    if (t.success && t.activity != dms::Activity::kAnalysisDownloadDirectIO) {
      recorded += t.file_size;
    }
  }
  std::uint64_t direct_io = 0;
  for (const auto& t : result.store.transfers()) {
    if (t.success && t.activity == dms::Activity::kAnalysisDownloadDirectIO) {
      direct_io += t.file_size;
    }
  }
  // Direct-IO records bytes *read* (<= moved); everything else exact.
  EXPECT_LE(recorded + direct_io, result.transfers.bytes_moved);
  EXPECT_GE(recorded + direct_io, result.transfers.bytes_moved / 2);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCorruption, CampaignSweep,
    ::testing::Values(CampaignCase{11, 1.0}, CampaignCase{12, 1.0},
                      CampaignCase{13, 0.0}, CampaignCase{14, 2.0},
                      CampaignCase{15, 0.5}));

// --- interner and attribute-symbol properties --------------------------

class InternerSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A pool of strings with deliberate near-collisions (shared prefixes,
  /// single-character differences) drawn with repetition.
  static std::vector<std::string> random_strings(util::Rng& rng,
                                                 std::size_t n) {
    std::vector<std::string> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string s = "lfn." + std::to_string(rng.uniform_int(0, 40));
      if (rng.next_double() < 0.5) s += "." + std::to_string(i % 7);
      out.push_back(std::move(s));
    }
    return out;
  }

  /// Owning strings behind one row's attributes.
  struct Names {
    std::string lfn;
    std::string dataset;
    std::string proddblock;
    std::string scope;

    [[nodiscard]] telemetry::FileAttributes view() const {
      return {lfn, dataset, proddblock, scope};
    }
  };
};

TEST_P(InternerSweep, IdsAreCollisionFreeAndStable) {
  util::Rng rng(GetParam());
  const auto strings = random_strings(rng, 300);
  util::StringInterner interner;
  std::vector<util::Symbol> first_pass;
  first_pass.reserve(strings.size());
  for (const auto& s : strings) first_pass.push_back(interner.intern(s));

  for (std::size_t i = 0; i < strings.size(); ++i) {
    // Roundtrip and idempotence.
    EXPECT_EQ(interner.view(first_pass[i]), strings[i]);
    EXPECT_EQ(interner.intern(strings[i]), first_pass[i]);
    // Equal ids exactly for equal strings (no collisions, no splits).
    for (std::size_t j = i + 1; j < strings.size(); ++j) {
      EXPECT_EQ(first_pass[i] == first_pass[j], strings[i] == strings[j]);
    }
  }
}

TEST_P(InternerSweep, CopyOutlivesItsSource) {
  // The copy owns its strings: views and lookups stay valid after the
  // source interner is destroyed.
  util::Rng rng(GetParam());
  const auto strings = random_strings(rng, 300);
  auto source = std::make_unique<util::StringInterner>();
  std::vector<util::Symbol> ids;
  ids.reserve(strings.size());
  for (const auto& s : strings) ids.push_back(source->intern(s));
  util::StringInterner copy = *source;
  source.reset();

  const std::size_t size = copy.size();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(copy.view(ids[i]), strings[i]);
    EXPECT_EQ(copy.intern(strings[i]), ids[i]);
  }
  EXPECT_EQ(copy.size(), size);
  const util::Symbol fresh = copy.intern("fresh");  // no pool string
  EXPECT_EQ(fresh, size);
  EXPECT_EQ(copy.view(fresh), "fresh");
}

TEST_P(InternerSweep, StoreSymbolsConsistentAcrossIngestOrder) {
  // Two stores ingest the same file records in opposite orders.  The
  // numeric ids may differ, but each store's symbols must resolve back
  // to the record's strings in both.
  util::Rng rng(GetParam());
  const auto lfns = random_strings(rng, 60);
  std::vector<telemetry::FileRecord> records;
  std::vector<Names> names;  // names[i] belongs to the row with pandaid i
  for (std::size_t i = 0; i < lfns.size(); ++i) {
    telemetry::FileRecord f;
    f.pandaid = static_cast<std::int64_t>(i);
    f.jeditaskid = 1;
    Names n;
    n.lfn = lfns[i];
    n.dataset = "ds." + std::to_string(rng.uniform_int(0, 5));
    n.proddblock = "blk." + std::to_string(rng.uniform_int(0, 5));
    n.scope = rng.next_double() < 0.5 ? "mc23" : "data24";
    f.file_size = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
    records.push_back(f);
    names.push_back(std::move(n));
  }

  telemetry::MetadataStore forward;
  telemetry::MetadataStore backward;
  for (std::size_t i = 0; i < records.size(); ++i) {
    forward.record_file(records[i], names[i].view());
  }
  for (std::size_t i = records.size(); i-- > 0;) {
    backward.record_file(records[i], names[i].view());
  }

  const auto check = [&](const telemetry::MetadataStore& store) {
    for (const telemetry::FileRecord& f : store.files()) {
      const Names& n = names[static_cast<std::size_t>(f.pandaid)];
      EXPECT_EQ(store.symbols().view(f.lfn_sym), n.lfn);
      EXPECT_EQ(store.symbols().view(f.dataset_sym), n.dataset);
      EXPECT_EQ(store.symbols().view(f.proddblock_sym), n.proddblock);
      EXPECT_EQ(store.symbols().view(f.scope_sym), n.scope);
    }
  };
  check(forward);
  check(backward);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternerSweep,
                         ::testing::Values(3u, 17u, 2026u, 80526u));

// --- corruption monotonicity ------------------------------------------

TEST(CorruptionMonotonicity, MoreCorruptionNeverHelpsExactMatching) {
  scenario::ScenarioConfig clean = scenario::ScenarioConfig::small();
  clean.days = 0.25;
  clean.seed = 4242;
  clean.apply_corruption = false;

  scenario::ScenarioConfig dirty = clean;
  dirty.apply_corruption = true;
  dirty.corruption.p_drop_file_record = 0.4;
  dirty.corruption.p_drop_transfer_taskid = 0.4;

  const auto clean_result = scenario::run_campaign(clean);
  const auto dirty_result = scenario::run_campaign(dirty);

  const core::Matcher clean_matcher(clean_result.store);
  const core::Matcher dirty_matcher(dirty_result.store);
  const auto clean_exact = clean_matcher.run(core::MatchOptions::exact());
  const auto dirty_exact = dirty_matcher.run(core::MatchOptions::exact());
  // Same simulation (corruption is post-hoc), fewer matches after damage.
  EXPECT_LE(dirty_exact.matched_job_count(), clean_exact.matched_job_count());
}

}  // namespace
}  // namespace pandarus
