// Metric query engine: aggregate parsing, hand-computed aggregates,
// kind/time filters, bucketing and group-by ordering, quantile sketches,
// missing-field handling, deterministic JSON rendering, and the
// NDJSON-vs-colstore byte-parity guarantee over a recorded campaign.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/event_source.hpp"
#include "analysis/metric_query.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"

namespace pandarus {
namespace {

/// Temp file in the test's working directory, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

analysis::MetricQueryResult query_file(const std::string& path,
                                       const analysis::MetricQuerySpec& spec) {
  auto source = analysis::open_event_source(path);
  EXPECT_NE(source, nullptr) << path;
  return analysis::run_metric_query(*source, spec);
}

const char kSmallStream[] =
    R"({"ts":1000,"kind":"transfer_done","entity":1,"bytes":100})"
    "\n"
    R"({"ts":1500,"kind":"transfer_done","entity":2,"bytes":300})"
    "\n"
    R"({"ts":2500,"kind":"transfer_done","entity":3,"bytes":200})"
    "\n"
    R"({"ts":3500,"kind":"transfer_fail","entity":4,"bytes":50})"
    "\n"
    R"({"ts":4500,"kind":"job_state","entity":5,"state":"running"})"
    "\n";

TEST(MetricAggregate, ParsesAllNamesAndRejectsUnknown) {
  using analysis::MetricAggregate;
  const std::vector<std::pair<std::string, MetricAggregate>> cases = {
      {"count", MetricAggregate::kCount}, {"sum", MetricAggregate::kSum},
      {"min", MetricAggregate::kMin},     {"max", MetricAggregate::kMax},
      {"mean", MetricAggregate::kMean},   {"p50", MetricAggregate::kP50},
      {"p95", MetricAggregate::kP95},     {"p99", MetricAggregate::kP99},
  };
  for (const auto& [name, expected] : cases) {
    MetricAggregate out;
    EXPECT_TRUE(analysis::parse_metric_aggregate(name, out)) << name;
    EXPECT_EQ(out, expected);
    EXPECT_EQ(analysis::metric_aggregate_name(expected), name);
  }
  MetricAggregate out;
  EXPECT_FALSE(analysis::parse_metric_aggregate("p42", out));
  EXPECT_FALSE(analysis::parse_metric_aggregate("", out));
}

TEST(MetricQuery, HandComputedAggregates) {
  TempFile file("mq_small.ndjson");
  write_file(file.path(), kSmallStream);

  analysis::MetricQuerySpec spec;
  spec.kinds = {"transfer_done"};
  spec.value_field = "bytes";
  spec.aggregates = {
      analysis::MetricAggregate::kCount, analysis::MetricAggregate::kSum,
      analysis::MetricAggregate::kMin,   analysis::MetricAggregate::kMax,
      analysis::MetricAggregate::kMean};
  const auto result = query_file(file.path(), spec);
  EXPECT_EQ(result.events_scanned, 5u);
  EXPECT_EQ(result.events_matched, 3u);
  ASSERT_EQ(result.rows.size(), 1u);
  const auto& row = result.rows[0];
  EXPECT_EQ(row.events, 3u);
  ASSERT_EQ(row.values.size(), 5u);
  EXPECT_DOUBLE_EQ(row.values[0], 3.0);    // count
  EXPECT_DOUBLE_EQ(row.values[1], 600.0);  // sum
  EXPECT_DOUBLE_EQ(row.values[2], 100.0);  // min
  EXPECT_DOUBLE_EQ(row.values[3], 300.0);  // max
  EXPECT_DOUBLE_EQ(row.values[4], 200.0);  // mean
}

TEST(MetricQuery, TimeRangeAndBucketing) {
  TempFile file("mq_buckets.ndjson");
  write_file(file.path(), kSmallStream);

  analysis::MetricQuerySpec spec;
  spec.kinds = {"transfer_done", "transfer_fail"};
  spec.ts_from = 1500;
  spec.bucket_ms = 1000;
  const auto result = query_file(file.path(), spec);
  // ts 1000 is filtered out; 1500 → bucket 1000, 2500 → 2000, 3500 → 3000.
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].bucket_start, 1000);
  EXPECT_EQ(result.rows[1].bucket_start, 2000);
  EXPECT_EQ(result.rows[2].bucket_start, 3000);
  for (const auto& row : result.rows) EXPECT_EQ(row.events, 1u);
}

TEST(MetricQuery, GroupByKindAndMissingFields) {
  TempFile file("mq_groups.ndjson");
  write_file(file.path(), kSmallStream);

  analysis::MetricQuerySpec spec;
  spec.group_by = {"kind", "state"};
  const auto result = query_file(file.path(), spec);
  // Groups sort lexicographically; events without "state" group as "".
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].group,
            (std::vector<std::string>{"job_state", "running"}));
  EXPECT_EQ(result.rows[1].group,
            (std::vector<std::string>{"transfer_done", ""}));
  EXPECT_EQ(result.rows[1].events, 3u);
  EXPECT_EQ(result.rows[2].group,
            (std::vector<std::string>{"transfer_fail", ""}));
}

TEST(MetricQuery, CountWithValueFieldCountsOnlyEventsCarryingIt) {
  TempFile file("mq_count_field.ndjson");
  write_file(file.path(), kSmallStream);

  analysis::MetricQuerySpec spec;
  spec.value_field = "bytes";  // job_state has no bytes field
  spec.aggregates = {analysis::MetricAggregate::kCount};
  const auto result = query_file(file.path(), spec);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].events, 5u);          // all events landed
  EXPECT_DOUBLE_EQ(result.rows[0].values[0], 4.0);  // but 4 carried bytes
}

TEST(MetricQuery, QuantilesExactForSmallCells) {
  // The P² sketch is exact for up to five observations per cell.
  std::string stream;
  for (int v : {10, 20, 30, 40, 50}) {
    stream += R"({"ts":1000,"kind":"m","entity":0,"v":)";
    stream += std::to_string(v);
    stream += "}\n";
  }
  TempFile file("mq_quantiles.ndjson");
  write_file(file.path(), stream);

  analysis::MetricQuerySpec spec;
  spec.value_field = "v";
  spec.aggregates = {analysis::MetricAggregate::kP50};
  const auto result = query_file(file.path(), spec);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0].values[0], 30.0);
}

TEST(MetricQuery, EmptyStreamYieldsNoRows) {
  TempFile file("mq_empty.ndjson");
  write_file(file.path(), "");
  analysis::MetricQuerySpec spec;
  const auto result = query_file(file.path(), spec);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.events_scanned, 0u);
}

TEST(MetricQuery, JsonRenderingIsDeterministic) {
  TempFile file("mq_json.ndjson");
  write_file(file.path(), kSmallStream);
  analysis::MetricQuerySpec spec;
  spec.kinds = {"transfer_done"};
  spec.value_field = "bytes";
  spec.aggregates = {analysis::MetricAggregate::kMean};
  const auto result = query_file(file.path(), spec);
  std::ostringstream a;
  std::ostringstream b;
  analysis::write_metric_query_json(a, spec, result);
  analysis::write_metric_query_json(b, spec, result);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"mean\":200"), std::string::npos) << a.str();
  EXPECT_EQ(a.str().back(), '\n');
}

TEST(MetricQuery, NdjsonAndColstoreProduceIdenticalJson) {
  // Record a small campaign, encode it both ways, and require the query
  // engine to render byte-identical results from either container.
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  TempFile ndjson_file("mq_campaign.ndjson");
  TempFile col_file("mq_campaign.colstore");
  obs::EventSinks sinks;
  sinks.ndjson_path = ndjson_file.path();
  sinks.colstore_path = col_file.path();
  obs::EventLog log(sinks);
  log.install();
  (void)scenario::run_campaign(config);
  log.uninstall();
  log.close();
  ASSERT_EQ(log.io_errors(), 0u);

  const std::vector<analysis::MetricQuerySpec> specs = [] {
    std::vector<analysis::MetricQuerySpec> out;
    analysis::MetricQuerySpec bytes;
    bytes.kinds = {"transfer_done"};
    bytes.bucket_ms = 3'600'000;
    bytes.value_field = "bytes";
    bytes.aggregates = {analysis::MetricAggregate::kCount,
                        analysis::MetricAggregate::kSum,
                        analysis::MetricAggregate::kP95};
    out.push_back(std::move(bytes));
    analysis::MetricQuerySpec kinds;
    kinds.group_by = {"kind"};
    out.push_back(std::move(kinds));
    return out;
  }();

  for (const auto& spec : specs) {
    const auto from_text = query_file(ndjson_file.path(), spec);
    const auto from_col = query_file(col_file.path(), spec);
    EXPECT_TRUE(from_text.source_error.empty()) << from_text.source_error;
    EXPECT_TRUE(from_col.source_error.empty()) << from_col.source_error;
    EXPECT_GT(from_text.events_matched, 0u);
    std::ostringstream text_json;
    std::ostringstream col_json;
    analysis::write_metric_query_json(text_json, spec, from_text);
    analysis::write_metric_query_json(col_json, spec, from_col);
    EXPECT_EQ(text_json.str(), col_json.str());
  }
}

}  // namespace
}  // namespace pandarus
