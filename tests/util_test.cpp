// Unit tests for the util module: RNG determinism and distribution
// sanity, statistics accumulators, time/format helpers, CSV, and the
// JSON reader's two faces (parse_flat against parse).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/event_log.hpp"
#include "scenario/campaign.hpp"

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

TEST(Csv, WriterQuotesOnlyFieldsThatNeedIt) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row("plain", "with,comma", "with\"quote", "two\nlines", "", 42);
  EXPECT_EQ(os.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"two\nlines\",,42\n");
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

TEST(Json, OutOfRangeNumbersSaturateTheIntView) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  // An Event's uint64 field can render 2^64 - 1: past INT64_MAX the
  // token reads as a double, and its int view clamps instead of
  // overflowing (a plain cast is undefined there).
  const auto v = json::parse(
      R"({"u":18446744073709551615,"top":9223372036854775808,)"
      R"("min":-9223372036854775808,"huge":1e300,"tiny":-1e300,)"
      R"("inf":1e400,"frac":-2.75})");
  ASSERT_TRUE(v.has_value());
  const json::Value* u = v->find("u");
  ASSERT_NE(u, nullptr);
  EXPECT_FALSE(u->is_int);
  EXPECT_EQ(u->as_double(), 18446744073709551615.0);
  EXPECT_EQ(u->int_v, kMax);
  EXPECT_EQ(u->as_int(), kMax);
  EXPECT_EQ(v->get_int("top"), kMax);
  EXPECT_TRUE(v->find("min")->is_int);
  EXPECT_EQ(v->get_int("min"), kMin);
  EXPECT_EQ(v->get_int("huge"), kMax);
  EXPECT_EQ(v->get_int("tiny"), kMin);
  EXPECT_EQ(v->get_int("inf"), kMax);
  EXPECT_EQ(v->get_int("frac"), -2);  // truncates toward zero

  EXPECT_EQ(json::saturating_int(std::nan("")), 0);
  EXPECT_EQ(json::saturating_int(-0.0), 0);
  EXPECT_EQ(json::saturating_int(1.99), 1);
  EXPECT_EQ(json::saturating_int(-9223372036854775808.0), kMin);
  EXPECT_EQ(json::saturating_int(9223372036854775807.0), kMax);  // = 2^63
  EXPECT_EQ(json::saturating_int(9223372036854774784.0),  // 2^63 - 1024
            std::int64_t{9223372036854774784});
  EXPECT_EQ(json::saturating_int(-std::numeric_limits<double>::infinity()),
            kMin);
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

// --- parse_flat reads exactly what parse reads ------------------------------

/// parse_flat accepts `text` exactly when parse() reads it as an object,
/// and then gives the same members in the same order, bit for bit.
::testing::AssertionResult flat_matches_dom(std::string_view text) {
  const std::optional<json::Value> dom = json::parse(text);
  const bool object = dom && dom->kind == json::Kind::kObject;
  json::FlatObject flat;
  if (json::parse_flat(text, flat) != object) {
    return ::testing::AssertionFailure()
           << (object ? "parse_flat rejects " : "parse_flat accepts ")
           << '"' << text << '"';
  }
  if (!object) return ::testing::AssertionSuccess();
  if (flat.members.size() != dom->obj.size()) {
    return ::testing::AssertionFailure()
           << flat.members.size() << " members, not " << dom->obj.size()
           << ", in \"" << text << '"';
  }
  for (std::size_t i = 0; i < flat.members.size(); ++i) {
    const json::FlatMember& f = flat.members[i];
    const auto& [key, v] = dom->obj[i];
    if (f.key != key || f.kind != v.kind || f.is_int != v.is_int ||
        f.int_v != v.int_v ||
        std::bit_cast<std::uint64_t>(f.num_v) !=
            std::bit_cast<std::uint64_t>(v.num_v) ||
        f.bool_v != v.bool_v || f.str_v != v.str_v) {
      return ::testing::AssertionFailure()
             << "member " << i << " (\"" << key << "\") differs in \""
             << text << '"';
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(JsonFlat, MatchesParseOnHandCorpus) {
  const std::vector<std::string> corpus = {
      // Every escape, in a value and in a key.
      R"({"s":"\"\\\/\b\f\n\r\t"})",
      R"({"u":"\u00e9\u20ac\u0001","U":"\u00E9x"})",
      R"({"k\u0065y":1,"plain":"a\"b"})",
      R"({"s":"\x"})",
      R"({"s":"\u12"})",
      R"({"s":"\u12G4"})",
      R"({"s":"tail\)",
      std::string("{\"raw\":\"tab\there\"}"),
      std::string("{\"nul\":\"a\0b\"}", 13),
      // Numbers.
      R"({"n":-0})",
      R"({"n":9223372036854775807})",
      R"({"n":9223372036854775808})",
      R"({"n":-9223372036854775808})",
      R"({"n":-9223372036854775809})",
      R"({"n":18446744073709551615})",
      R"({"n":1e400})",
      R"({"n":-1e400})",
      R"({"n":1e-400})",
      R"({"n":1.5e-3})",
      R"({"n":2.5E+2,"m":-7.25e0})",
      R"({"n":0.1000000000000000055511151231257827021181583404541015625})",
      R"({"n":007,"m":-00.5,"z":00})",
      R"({"n":1.})",
      R"({"n":.5})",
      R"({"n":-})",
      R"({"n":1e})",
      R"({"n":+1})",
      // Literals.
      R"({"t":true,"f":false,"z":null})",
      R"({"t":tru})",
      R"({"z":nul})",
      // Whitespace between every token.
      " \t\r\n{ \"a\" : 1 ,\n\"b\"\t:\r\"x\" , \"c\" : [ 1 , 2 ] } \n",
      // Duplicate keys, nested members, empty object and key.
      R"({"a":1,"a":"two","a":3.5})",
      R"({"arr":[1,{"x":[]}],"obj":{"y":null,"w":"\u00e9"},"z":true})",
      R"({"arr":[1,})",
      R"({"obj":{"y":}})",
      "{}",
      R"({"":1})",
      R"({"":""})",
      // Not one object.
      "",
      " ",
      "[]",
      "[1,2]",
      "1",
      R"("s")",
      "true",
      "null",
      R"({"a":1} x)",
      R"({"a":1}})",
      R"({"a":1},)",
      R"({"a":1}{"b":2})",
      R"({"a":1,})",
      R"({"a" 1})",
      R"({a:1})",
      R"({"a":1)",
      R"({"a")",
      "{",
  };
  for (const std::string& text : corpus) EXPECT_TRUE(flat_matches_dom(text));

  json::FlatObject flat;
  ASSERT_TRUE(json::parse_flat(R"({"a":1,"a":"two","a":3.5})", flat));
  EXPECT_EQ(flat.get_int("a"), 1);  // the first member of a name wins
  EXPECT_EQ(flat.get_string("a", "fallback"), "fallback");
  ASSERT_TRUE(json::parse_flat(R"({"u":"\u00e9\u20ac","n":1e400})", flat));
  EXPECT_EQ(flat.get_string("u"), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(flat.get_int("n"), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(flat.get_double("u", -1.0), -1.0);
  EXPECT_FALSE(flat.get_bool("missing"));
}

/// Every line of the recorded `small` seed-7 campaign, then seeded byte
/// flips, truncations and splices of those lines: the two parsers must
/// agree on each, and the sanitizer build runs the flat parser over
/// every malformed input.
TEST(JsonFlat, MatchesParseOnCampaignLinesAndMutations) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;
  obs::EventLog log;
  std::ignore = scenario::run_campaign(config, {.events = &log});
  log.close();
  std::vector<std::string> lines;
  std::istringstream in(log.to_ndjson());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 1000u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(flat_matches_dom(line));
  }

  Rng rng(20251018);
  const auto pick = [&]() -> const std::string& {
    return lines[rng.uniform_index(lines.size())];
  };
  std::size_t rejected = 0;
  for (int i = 0; i < 6000; ++i) {
    std::string text = pick();
    switch (i % 3) {
      case 0:  // flip one byte
        text[rng.uniform_index(text.size())] =
            static_cast<char>(rng.uniform_index(256));
        break;
      case 1:  // truncate
        text.resize(rng.uniform_index(text.size()));
        break;
      default: {  // splice a prefix onto another line's suffix
        const std::string& other = pick();
        text = text.substr(0, rng.uniform_index(text.size() + 1)) +
               other.substr(rng.uniform_index(other.size() + 1));
        break;
      }
    }
    const std::optional<json::Value> dom = json::parse(text);
    if (!dom || dom->kind != json::Kind::kObject) ++rejected;
    ASSERT_TRUE(flat_matches_dom(text));
  }
  // The mutations reach both the accept and the reject paths.
  EXPECT_GT(rejected, 1000u);
  EXPECT_LT(rejected, 6000u);
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
