#include "analysis/metric_query.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace pandarus::analysis {
namespace {

struct Accumulator {
  std::uint64_t events = 0;
  std::uint64_t count = 0;  ///< events that carried the value field
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Sketches are allocated lazily per requested quantile; one P² state
  // is five markers, so a cell stays O(1) no matter the event volume.
  std::vector<std::pair<double, obs::P2Quantile>> quantiles;

  void observe(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum += v;
    for (auto& [q, sketch] : quantiles) sketch.observe(v);
  }
};

double quantile_for(MetricAggregate agg) {
  switch (agg) {
    case MetricAggregate::kP50:
      return 0.50;
    case MetricAggregate::kP95:
      return 0.95;
    case MetricAggregate::kP99:
      return 0.99;
    default:
      return -1.0;
  }
}

}  // namespace

bool parse_metric_aggregate(std::string_view name, MetricAggregate& out) {
  if (name == "count") {
    out = MetricAggregate::kCount;
  } else if (name == "sum") {
    out = MetricAggregate::kSum;
  } else if (name == "min") {
    out = MetricAggregate::kMin;
  } else if (name == "max") {
    out = MetricAggregate::kMax;
  } else if (name == "mean") {
    out = MetricAggregate::kMean;
  } else if (name == "p50") {
    out = MetricAggregate::kP50;
  } else if (name == "p95") {
    out = MetricAggregate::kP95;
  } else if (name == "p99") {
    out = MetricAggregate::kP99;
  } else {
    return false;
  }
  return true;
}

std::string_view metric_aggregate_name(MetricAggregate agg) {
  switch (agg) {
    case MetricAggregate::kCount:
      return "count";
    case MetricAggregate::kSum:
      return "sum";
    case MetricAggregate::kMin:
      return "min";
    case MetricAggregate::kMax:
      return "max";
    case MetricAggregate::kMean:
      return "mean";
    case MetricAggregate::kP50:
      return "p50";
    case MetricAggregate::kP95:
      return "p95";
    case MetricAggregate::kP99:
      return "p99";
  }
  return "count";
}

MetricQueryResult run_metric_query(EventSource& source,
                                   const MetricQuerySpec& spec) {
  MetricQueryResult result;

  std::vector<double> wanted_quantiles;
  for (const MetricAggregate agg : spec.aggregates) {
    const double q = quantile_for(agg);
    if (q >= 0.0 &&
        std::find(wanted_quantiles.begin(), wanted_quantiles.end(), q) ==
            wanted_quantiles.end()) {
      wanted_quantiles.push_back(q);
    }
  }

  // std::map keeps cells sorted by (bucket, group), so the output order
  // is a pure function of the matched events — identical across
  // container formats.
  using Key = std::pair<std::int64_t, std::vector<std::string>>;
  std::map<Key, Accumulator> cells;

  while (const util::json::FlatObject* event = source.next()) {
    ++result.events_scanned;
    const std::int64_t ts = event->get_int("ts");
    if (ts < spec.ts_from || ts > spec.ts_to) continue;
    const std::string_view kind = event->get_string("kind");
    if (!spec.kinds.empty() &&
        std::find(spec.kinds.begin(), spec.kinds.end(), kind) ==
            spec.kinds.end()) {
      continue;
    }
    ++result.events_matched;

    Key key;
    key.first = spec.bucket_ms > 0 ? (ts / spec.bucket_ms) * spec.bucket_ms
                                   : 0;
    key.second.reserve(spec.group_by.size());
    for (const std::string& field : spec.group_by) {
      if (field == "kind") {
        key.second.emplace_back(kind);
        continue;
      }
      const util::json::FlatMember* member = event->find(field);
      if (member == nullptr) {
        key.second.emplace_back();
      } else if (member->kind == util::json::Kind::kString) {
        key.second.emplace_back(member->str_v);
      } else if (member->kind == util::json::Kind::kNumber &&
                 member->is_int) {
        key.second.emplace_back(std::to_string(member->int_v));
      } else if (member->kind == util::json::Kind::kNumber) {
        std::string text;
        obs::detail::append_json_double(text, member->num_v);
        key.second.emplace_back(std::move(text));
      } else if (member->kind == util::json::Kind::kBool) {
        key.second.emplace_back(member->bool_v ? "true" : "false");
      } else {
        key.second.emplace_back();
      }
    }

    auto it = cells.find(key);
    if (it == cells.end()) {
      Accumulator acc;
      for (const double q : wanted_quantiles) {
        acc.quantiles.emplace_back(q, obs::P2Quantile(q));
      }
      it = cells.emplace(std::move(key), std::move(acc)).first;
    }
    Accumulator& acc = it->second;
    ++acc.events;
    if (!spec.value_field.empty()) {
      if (const util::json::FlatMember* member =
              event->find(spec.value_field);
          member != nullptr && member->kind == util::json::Kind::kNumber) {
        acc.observe(member->is_int ? static_cast<double>(member->int_v)
                                   : member->num_v);
      }
    }
  }

  result.rows.reserve(cells.size());
  for (auto& [key, acc] : cells) {
    MetricQueryRow row;
    row.bucket_start = key.first;
    row.group = key.second;
    row.events = acc.events;
    row.values.reserve(spec.aggregates.size());
    for (const MetricAggregate agg : spec.aggregates) {
      double v = 0.0;
      switch (agg) {
        case MetricAggregate::kCount:
          v = spec.value_field.empty() ? static_cast<double>(acc.events)
                                       : static_cast<double>(acc.count);
          break;
        case MetricAggregate::kSum:
          v = acc.sum;
          break;
        case MetricAggregate::kMin:
          v = acc.count > 0 ? acc.min : 0.0;
          break;
        case MetricAggregate::kMax:
          v = acc.count > 0 ? acc.max : 0.0;
          break;
        case MetricAggregate::kMean:
          v = acc.count > 0
                  ? acc.sum / static_cast<double>(acc.count)
                  : 0.0;
          break;
        case MetricAggregate::kP50:
        case MetricAggregate::kP95:
        case MetricAggregate::kP99: {
          const double q = quantile_for(agg);
          for (auto& [cq, sketch] : acc.quantiles) {
            if (cq == q) {
              v = sketch.count() > 0 ? sketch.estimate() : 0.0;
              break;
            }
          }
          break;
        }
      }
      row.values.push_back(v);
    }
    result.rows.push_back(std::move(row));
  }
  result.source_skipped = source.skipped();
  result.source_error = source.error();
  return result;
}

void write_metric_query_json(std::ostream& out, const MetricQuerySpec& spec,
                             const MetricQueryResult& result) {
  std::string text;
  text.reserve(4096);
  text += "{\"query\":{\"kinds\":[";
  for (std::size_t i = 0; i < spec.kinds.size(); ++i) {
    if (i != 0) text += ',';
    text += '"';
    obs::detail::append_json_escaped(text, spec.kinds[i]);
    text += '"';
  }
  text += "],\"bucket_ms\":";
  text += std::to_string(spec.bucket_ms);
  text += ",\"group_by\":[";
  for (std::size_t i = 0; i < spec.group_by.size(); ++i) {
    if (i != 0) text += ',';
    text += '"';
    obs::detail::append_json_escaped(text, spec.group_by[i]);
    text += '"';
  }
  text += "],\"value_field\":\"";
  obs::detail::append_json_escaped(text, spec.value_field);
  text += "\",\"aggregates\":[";
  for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
    if (i != 0) text += ',';
    text += '"';
    text += metric_aggregate_name(spec.aggregates[i]);
    text += '"';
  }
  text += "]},\"events_scanned\":";
  text += std::to_string(result.events_scanned);
  text += ",\"events_matched\":";
  text += std::to_string(result.events_matched);
  text += ",\"skipped\":";
  text += std::to_string(result.source_skipped);
  text += ",\"rows\":[";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const MetricQueryRow& row = result.rows[i];
    if (i != 0) text += ',';
    text += "{\"bucket\":";
    text += std::to_string(row.bucket_start);
    text += ",\"group\":[";
    for (std::size_t g = 0; g < row.group.size(); ++g) {
      if (g != 0) text += ',';
      text += '"';
      obs::detail::append_json_escaped(text, row.group[g]);
      text += '"';
    }
    text += "],\"events\":";
    text += std::to_string(row.events);
    for (std::size_t a = 0; a < spec.aggregates.size(); ++a) {
      text += ",\"";
      text += metric_aggregate_name(spec.aggregates[a]);
      text += "\":";
      obs::detail::append_json_double(text, row.values[a]);
    }
    text += '}';
  }
  text += "]}";
  out << text << '\n';
}

}  // namespace pandarus::analysis
