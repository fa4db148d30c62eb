// Unit tests for the util module: RNG determinism and distribution
// sanity, statistics accumulators, time/format helpers, CSV.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace pandarus::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.fork(1);
  Rng parent2(7);
  Rng child2 = parent2.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
  // Different tags give different streams.
  Rng parent3(7);
  Rng other = parent3.fork(2);
  int equal = 0;
  Rng child3 = Rng(7).fork(1);
  for (int i = 0; i < 100; ++i) equal += other.next_u64() == child3.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.exponential(42.0));
  EXPECT_NEAR(stats.mean(), 42.0, 1.0);
}

TEST(Rng, LognormalMedianApproximatelyCorrect) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 50'000; ++i) xs.push_back(rng.lognormal_median(10.0, 0.5));
  EXPECT_NEAR(quantile(xs, 0.5), 10.0, 0.3);
}

TEST(Rng, ParetoBoundedStaysInRange) {
  Rng rng(19);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.pareto_bounded(1.0, 100.0, 1.2);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0 + 1e-9);
  }
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(23);
  OnlineStats small;
  OnlineStats large;
  for (int i = 0; i < 20'000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.5)));
    large.add(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  EXPECT_NEAR(large.mean(), 200.0, 2.0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const double weights[] = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30'000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.2);
}

TEST(HashMix, DeterministicAndSpread) {
  EXPECT_EQ(hash_mix(1, 2, 3), hash_mix(1, 2, 3));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(1, 2, 4));
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
  const double u = hash_unit(hash_mix(99, 100));
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(GeometricMean, MatchesClosedForm) {
  GeometricMean g;
  g.add(1.0);
  g.add(10.0);
  g.add(100.0);
  EXPECT_NEAR(g.value(), 10.0, 1e-9);
}

TEST(GeometricMean, SkipsNonPositive) {
  GeometricMean g;
  g.add(4.0);
  g.add(0.0);
  g.add(-3.0);
  g.add(9.0);
  EXPECT_EQ(g.count(), 2u);
  EXPECT_EQ(g.skipped(), 2u);
  EXPECT_NEAR(g.value(), 6.0, 1e-9);
}

TEST(GeometricMean, HeavyTailBelowArithmeticMean) {
  // The paper's Fig. 3 observation: mean 77.75 TB vs geomean 1.11 TB.
  Rng rng(37);
  OnlineStats arith;
  GeometricMean geo;
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.pareto_bounded(1.0, 1e6, 0.6);
    arith.add(x);
    geo.add(x);
  }
  EXPECT_GT(arith.mean(), 10.0 * geo.value());
}

TEST(Quantiles, InterpolatesBetweenOrderStatistics) {
  Quantiles q({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q(1.0), 4.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.5);
  EXPECT_DOUBLE_EQ(q(1.0 / 3.0), 2.0);
}

TEST(PearsonCorrelation, PerfectAndNone) {
  const double x[] = {1, 2, 3, 4, 5};
  const double y[] = {2, 4, 6, 8, 10};
  const double z[] = {5, 5, 5, 5, 5};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_EQ(pearson_correlation(x, z), 0.0);  // zero variance side
}

TEST(Time, FormatAnchorsToAprilFirst) {
  EXPECT_EQ(format_time(0), "04-01 00:00:00");
  EXPECT_EQ(format_time(hours(25) + minutes(1) + seconds(2)),
            "04-02 01:01:02");
  // Month rollover: April has 30 days.
  EXPECT_EQ(format_time(days(30)), "05-01 00:00:00");
}

TEST(Time, DurationsCompose) {
  EXPECT_EQ(seconds(1.5), 1500);
  EXPECT_EQ(minutes(2), 120'000);
  EXPECT_EQ(hours(1), 3'600'000);
  EXPECT_EQ(days(1), 86'400'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(to_days(days(3)), 3.0);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(seconds(42.5)), "42.5s");
  EXPECT_EQ(format_duration(minutes(90)), "1h 30m 00s");
  EXPECT_EQ(format_duration(days(2) + hours(3)), "2d 03h 00m 00s");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(4.6e9), "4.60 GB");
  EXPECT_EQ(format_bytes(957.98e15), "957.98 PB");
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(-2e3, 1), "-2.0 KB");
}

TEST(Format, RateAndCountsAndPercent) {
  EXPECT_EQ(format_rate(163.9e6), "163.9 MBps");
  EXPECT_EQ(format_rate(2.5e9), "2.5 GBps");
  EXPECT_EQ(format_count(std::uint64_t{1'585'229}), "1,585,229");
  EXPECT_EQ(format_count(std::int64_t{-12'345}), "-12,345");
  EXPECT_EQ(format_percent(0.0843), "8.43%");
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "bbb"});
  t.set_align(1, Align::kRight);
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"long", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a    | bbb |"), std::string::npos);
  EXPECT_NE(s.find("| x    |   1 |"), std::string::npos);
  EXPECT_NE(s.find("| long |  22 |"), std::string::npos);
}

TEST(Csv, RoundTripsQuoting) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row("plain", "with,comma", "with\"quote", 42);
  const auto rows = [&] {
    std::istringstream is(os.str());
    return read_csv(is);
  }();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0], "plain");
  EXPECT_EQ(rows[0][1], "with,comma");
  EXPECT_EQ(rows[0][2], "with\"quote");
  EXPECT_EQ(rows[0][3], "42");
}

TEST(Csv, ParsesEmptyFields) {
  const auto fields = parse_csv_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Json, ParsesFlatEventObject) {
  const auto v = json::parse(
      R"({"ts":1800000,"kind":"sample","entity":0,"rate":2.5,)"
      R"("ok":true,"name":"a\"b\n","none":null})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, json::Value::Kind::kObject);
  EXPECT_EQ(v->get_int("ts"), 1800000);
  EXPECT_EQ(v->get_string("kind"), "sample");
  EXPECT_DOUBLE_EQ(v->get_double("rate"), 2.5);
  EXPECT_TRUE(v->get_bool("ok"));
  EXPECT_EQ(v->get_string("name"), "a\"b\n");
  ASSERT_NE(v->find("none"), nullptr);
  EXPECT_EQ(v->find("none")->kind, json::Value::Kind::kNull);
  EXPECT_EQ(v->get_int("missing", -7), -7);
}

TEST(Json, Int64RoundTripsLosslessly) {
  // 2^60 is not representable in a double; the parser must keep the
  // integer path (is_int) for SimTime-scale values.
  const auto v = json::parse("{\"big\":1152921504606846976,\"neg\":-5}");
  ASSERT_TRUE(v.has_value());
  ASSERT_NE(v->find("big"), nullptr);
  EXPECT_TRUE(v->find("big")->is_int);
  EXPECT_EQ(v->get_int("big"), std::int64_t{1} << 60);
  EXPECT_EQ(v->get_int("neg"), -5);
  // Doubles stay doubles.
  const auto d = json::parse("3.25e2");
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->is_int);
  EXPECT_DOUBLE_EQ(d->as_double(), 325.0);
}

TEST(Json, ArraysAndNestingAndSourceOrder) {
  const auto v = json::parse(R"({"b":[1,2,3],"a":{"x":"y"}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->obj.size(), 2u);
  EXPECT_EQ(v->obj[0].first, "b");  // source order preserved
  EXPECT_EQ(v->obj[1].first, "a");
  ASSERT_EQ(v->obj[0].second.arr.size(), 3u);
  EXPECT_EQ(v->obj[0].second.arr[2].as_int(), 3);
  EXPECT_EQ(v->obj[1].second.get_string("x"), "y");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::parse("[1,2").has_value());
}

TEST(Log, ParseLogLevelNamesAndFallback) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn", LogLevel::kInfo), LogLevel::kWarning);
  EXPECT_EQ(parse_log_level("warning", LogLevel::kInfo), LogLevel::kWarning);
  EXPECT_EQ(parse_log_level("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kWarning),
            LogLevel::kWarning);
  EXPECT_EQ(parse_log_level("", LogLevel::kInfo), LogLevel::kInfo);
}

}  // namespace
}  // namespace pandarus::util
