// pandarus-query: out-of-core metric queries and replay-derived health
// over a recorded campaign (NDJSON or colstore; the format is sniffed).
//
//   pandarus-query agg <events-file> [options]
//     --kind k[,k...]     keep only these event kinds
//     --from MS --to MS   simulated-time range (inclusive)
//     --bucket MS         time-bucket width (0 = whole stream)
//     --group f[,f...]    group-by fields ("kind", "src", "dst", ...)
//     --value FIELD       field the value aggregates read
//     --agg a[,a...]      count,sum,min,max,mean,p50,p95,p99
//
//   pandarus-query alerts <events-file>
//     Streams the file through the health detectors (the same engine a
//     live run arms with PANDARUS_ALERTS) and prints status_json —
//     bit-identical to the live /api/alerts for the same stream.
//
// Both subcommands stream one event at a time: a campaign never has to
// fit in memory, which is the point of querying the colstore at all.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "analysis/metric_query.hpp"

namespace {

using pandarus::analysis::MetricQuerySpec;

int usage() {
  std::cerr <<
      "usage: pandarus-query agg <events-file> [--kind k,...] [--from ms]\n"
      "           [--to ms] [--bucket ms] [--group field,...]\n"
      "           [--value field] [--agg count,sum,min,max,mean,p50,p95,p99]\n"
      "       pandarus-query alerts <events-file>\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int cmd_agg(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[2];
  MetricQuerySpec spec;
  spec.aggregates.clear();
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--kind" && has_value) {
      spec.kinds = split_csv(argv[++i]);
    } else if (arg == "--from" && has_value) {
      spec.ts_from = std::atoll(argv[++i]);
    } else if (arg == "--to" && has_value) {
      spec.ts_to = std::atoll(argv[++i]);
    } else if (arg == "--bucket" && has_value) {
      spec.bucket_ms = std::atoll(argv[++i]);
    } else if (arg == "--group" && has_value) {
      spec.group_by = split_csv(argv[++i]);
    } else if (arg == "--value" && has_value) {
      spec.value_field = argv[++i];
    } else if (arg == "--agg" && has_value) {
      for (const std::string& name : split_csv(argv[++i])) {
        pandarus::analysis::MetricAggregate agg;
        if (!pandarus::analysis::parse_metric_aggregate(name, agg)) {
          std::cerr << "pandarus-query: unknown aggregate " << name << '\n';
          return 2;
        }
        spec.aggregates.push_back(agg);
      }
    } else {
      std::cerr << "pandarus-query: unknown option " << arg << '\n';
      return usage();
    }
  }
  if (spec.aggregates.empty()) {
    spec.aggregates.push_back(pandarus::analysis::MetricAggregate::kCount);
  }
  auto source = pandarus::analysis::open_event_source(path);
  if (source == nullptr) {
    std::cerr << "pandarus-query: cannot open " << path << '\n';
    return 1;
  }
  const pandarus::analysis::MetricQueryResult result =
      pandarus::analysis::run_metric_query(*source, spec);
  if (!result.source_error.empty()) {
    std::cerr << "pandarus-query: stream error: " << result.source_error
              << '\n';
    return 1;
  }
  pandarus::analysis::write_metric_query_json(std::cout, spec, result);
  return 0;
}

int cmd_alerts(int argc, char** argv) {
  if (argc != 3) return usage();
  auto engine = pandarus::analysis::derive_health_file(argv[2]);
  if (engine == nullptr) {
    std::cerr << "pandarus-query: cannot open " << argv[2] << '\n';
    return 1;
  }
  std::cout << engine->status_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "agg") return cmd_agg(argc, argv);
  if (command == "alerts") return cmd_alerts(argc, argv);
  return usage();
}
