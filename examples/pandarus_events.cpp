// pandarus-events: query and convert recorded event streams.
//
//   pandarus-events convert <in> <out>
//       NDJSON -> colstore or colstore -> NDJSON (direction sniffed
//       from the input's magic bytes).
//   pandarus-events stats <file>
//       One JSON object on stdout: event/chunk counts, byte sizes,
//       sim-time span, per-kind counts.  Colstore stats walk only the
//       chunk headers and dictionary deltas — no column data decoded.
//   pandarus-events cat <colstore> [--type <kind>]... [--from <ms>]
//                    [--to <ms>] [--site <id>] [--limit <n>] [--tail <n>]
//       Filtered scan, NDJSON lines on stdout.  Kind and time-window
//       predicates skip whole chunks via the footer index; --limit
//       stops after the first N matches, --tail keeps only the last N
//       (ring buffer — bounded memory on any file size).
//   pandarus-events match <file>
//       Replays the stream (either format), rebuilds the MetadataStore
//       and runs the three matching methods; JSON counts on stdout.
//   pandarus-events recover <in> [<out>]
//       Salvages the longest valid prefix of a crash-truncated stream
//       (whole NDJSON lines / CRC-valid colstore chunks).  Without
//       <out> the file is repaired in place; a JSON recovery report
//       goes to stdout either way.
//
// Record a stream with PANDARUS_EVENTS=<path> (NDJSON) and/or
// PANDARUS_EVENTS_COL=<path> (colstore) on any campaign binary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "core/relaxed.hpp"
#include "obs/colstore.hpp"
#include "obs/recover.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: pandarus-events convert <in> <out>\n"
         "       pandarus-events stats <file>\n"
         "       pandarus-events cat <colstore> [--type <kind>]...\n"
         "                       [--from <ms>] [--to <ms>] [--site <id>]\n"
         "                       [--limit <n>] [--tail <n>]\n"
         "       pandarus-events match <file>\n"
         "       pandarus-events recover <in> [<out>]\n"
         "         (a 0-byte <in> is taken as NDJSON: it holds no byte that\n"
         "          tells the formats apart)\n";
  return 2;
}

int cmd_convert(const std::string& in_path, const std::string& out_path) {
  using pandarus::obs::ColReader;
  using pandarus::obs::ColWriter;
  if (pandarus::obs::is_colstore_file(in_path)) {
    ColReader reader(in_path);
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    pandarus::obs::DecodedEvent event;
    std::string line;
    std::uint64_t rows = 0;
    while (reader.next(event)) {
      line.clear();
      pandarus::obs::append_ndjson(event, line);
      line += '\n';
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
      ++rows;
    }
    if (!reader.ok()) {
      std::cerr << "convert stopped early: " << reader.error() << "\n";
      return 1;
    }
    out.flush();
    if (!out) {
      std::cerr << "short write to " << out_path << "\n";
      return 1;
    }
    std::cerr << "wrote " << rows << " events (ndjson) to " << out_path
              << "\n";
    return 0;
  }
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << in_path << "\n";
    return 1;
  }
  ColWriter writer(out_path);
  std::string line;
  while (std::getline(in, line)) writer.append_ndjson_line(line);
  if (!writer.close()) {
    std::cerr << "convert failed: " << writer.error() << "\n";
    return 1;
  }
  const auto& s = writer.stats();
  std::cerr << "wrote " << s.rows << " events in " << s.chunks
            << " chunk(s), " << s.bytes_written << " bytes";
  if (s.rejected != 0) std::cerr << ", " << s.rejected << " line(s) rejected";
  std::cerr << " to " << out_path << "\n";
  return 0;
}

void print_stats_json(const char* format, std::uint64_t events,
                      std::uint64_t chunks, std::uint64_t file_bytes,
                      std::int64_t min_ts, std::int64_t max_ts,
                      const std::map<std::string, std::uint64_t>& kinds) {
  std::printf("{\"format\":\"%s\",\"events\":%llu,\"chunks\":%llu,"
              "\"file_bytes\":%llu,\"bytes_per_event\":%.2f,"
              "\"min_ts\":%lld,\"max_ts\":%lld,\"kinds\":{",
              format, static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(chunks),
              static_cast<unsigned long long>(file_bytes),
              events != 0 ? static_cast<double>(file_bytes) /
                                static_cast<double>(events)
                          : 0.0,
              static_cast<long long>(min_ts), static_cast<long long>(max_ts));
  bool first = true;
  for (const auto& [kind, count] : kinds) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", kind.c_str(),
                static_cast<unsigned long long>(count));
    first = false;
  }
  std::printf("}}\n");
}

int cmd_stats(const std::string& path) {
  if (pandarus::obs::is_colstore_file(path)) {
    std::string error;
    const auto stats = pandarus::obs::colstore_stats(path, &error);
    if (!stats) {
      std::cerr << "stats failed: " << error << "\n";
      return 1;
    }
    print_stats_json("colstore", stats->events, stats->chunks,
                     stats->file_bytes, stats->min_ts, stats->max_ts,
                     stats->kind_counts);
    return 0;
  }
  const auto source = pandarus::analysis::open_event_source(path);
  if (!source) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::map<std::string, std::uint64_t> kinds;
  std::uint64_t events = 0;
  std::int64_t min_ts = 0;
  std::int64_t max_ts = 0;
  while (const auto* v = source->next()) {
    const std::int64_t ts = v->get_int("ts");
    if (events == 0) {
      min_ts = max_ts = ts;
    } else {
      min_ts = std::min(min_ts, ts);
      max_ts = std::max(max_ts, ts);
    }
    ++events;
    ++kinds[std::string(v->get_string("kind"))];
  }
  std::uint64_t file_bytes = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    if (size > 0) file_bytes = static_cast<std::uint64_t>(size);
    std::fclose(f);
  }
  print_stats_json("ndjson", events, 0, file_bytes, min_ts, max_ts, kinds);
  return 0;
}

int cmd_cat(int argc, char** argv) {
  const std::string path = argv[2];
  pandarus::obs::ColFilter filter;
  std::int64_t limit = -1;  // emit at most N matching rows, then stop
  std::int64_t tail = -1;   // emit only the last N matching rows
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto int_arg = [&](std::optional<std::int64_t>& slot) -> bool {
      if (i + 1 >= argc) return false;
      slot = std::strtoll(argv[++i], nullptr, 10);
      return true;
    };
    bool ok = true;
    if (arg == "--type" && i + 1 < argc) {
      filter.kinds.emplace_back(argv[++i]);
    } else if (arg == "--from") {
      ok = int_arg(filter.ts_from);
    } else if (arg == "--to") {
      ok = int_arg(filter.ts_to);
    } else if (arg == "--site") {
      ok = int_arg(filter.site);
    } else if (arg == "--limit" && i + 1 < argc) {
      limit = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--tail" && i + 1 < argc) {
      tail = std::strtoll(argv[++i], nullptr, 10);
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  if (limit >= 0 && tail >= 0) {
    std::cerr << "--limit and --tail are mutually exclusive\n";
    return usage();
  }
  pandarus::obs::ColReader reader(path, filter);
  pandarus::obs::DecodedEvent event;
  std::string line;
  std::uint64_t emitted = 0;
  // --tail keeps a ring of the last N rendered lines (bounded memory),
  // so inspecting the end of a large file never prints the whole scan.
  std::vector<std::string> ring;
  std::size_t ring_next = 0;
  if (tail > 0) ring.resize(static_cast<std::size_t>(tail));
  while (reader.next(event)) {
    line.clear();
    pandarus::obs::append_ndjson(event, line);
    line += '\n';
    if (tail >= 0) {
      if (tail > 0) {
        ring[ring_next] = line;
        ring_next = (ring_next + 1) % ring.size();
      }
      ++emitted;
      continue;
    }
    if (limit >= 0 && emitted >= static_cast<std::uint64_t>(limit)) break;
    std::fwrite(line.data(), 1, line.size(), stdout);
    ++emitted;
  }
  std::uint64_t printed = emitted;
  if (tail >= 0) {
    printed = 0;
    if (tail > 0) {
      const std::uint64_t have =
          std::min<std::uint64_t>(emitted, ring.size());
      // Oldest retained line sits at ring_next once the ring has wrapped.
      std::size_t at = emitted >= ring.size() ? ring_next : 0;
      for (std::uint64_t n = 0; n < have; ++n) {
        const std::string& kept = ring[at];
        std::fwrite(kept.data(), 1, kept.size(), stdout);
        at = (at + 1) % ring.size();
      }
      printed = have;
    }
  }
  if (!reader.ok()) {
    std::cerr << "scan stopped early: " << reader.error() << "\n";
    return 1;
  }
  const auto& s = reader.stats();
  std::cerr << "emitted " << printed << " of " << s.rows_emitted
            << " matching rows (" << s.rows_decoded << " decoded); "
            << s.chunks_read << " chunk(s) read, " << s.chunks_skipped
            << " skipped\n";
  return 0;
}

int cmd_match(const std::string& path) {
  const auto replay = pandarus::analysis::replay_events_file(path);
  if (replay.lines_parsed == 0) {
    std::cerr << "no events replayed from " << path << "\n";
    return 1;
  }
  const auto counts = replay.store.counts();
  const pandarus::core::Matcher matcher(replay.store);
  const pandarus::core::TriMatchResult tri =
      pandarus::core::run_all_methods(matcher);
  const auto method = [](const char* name,
                         const pandarus::core::MatchResult& r,
                         bool last = false) {
    std::printf("\"%s\":{\"matched_jobs\":%zu,\"matched_transfers\":%zu}%s",
                name, r.matched_job_count(), r.matched_transfer_count(),
                last ? "" : ",");
  };
  std::printf("{\"jobs\":%zu,\"transfers\":%zu,", counts.jobs,
              counts.transfers);
  method("exact", tri.exact);
  method("rm1", tri.rm1);
  method("rm2", tri.rm2, /*last=*/true);
  std::printf("}\n");
  return 0;
}

int cmd_recover(const std::string& in_path, const std::string& out_path) {
  using pandarus::obs::RecoveryReport;
  const RecoveryReport report =
      pandarus::obs::starts_like_colstore_file(in_path)
          ? pandarus::obs::recover_colstore_file(in_path, out_path)
          : pandarus::obs::recover_ndjson_file(in_path, out_path);
  std::printf("{\"ok\":%s,\"truncated\":%s,\"salvaged_events\":%llu,"
              "\"salvaged_chunks\":%llu,\"salvaged_bytes\":%llu,"
              "\"dropped_bytes\":%llu,\"detail\":\"%s\"}\n",
              report.ok ? "true" : "false",
              report.truncated ? "true" : "false",
              static_cast<unsigned long long>(report.salvaged_events),
              static_cast<unsigned long long>(report.salvaged_chunks),
              static_cast<unsigned long long>(report.salvaged_bytes),
              static_cast<unsigned long long>(report.dropped_bytes),
              report.detail.c_str());
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view cmd = argv[1];
  if (cmd == "convert" && argc == 4) return cmd_convert(argv[2], argv[3]);
  if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
  if (cmd == "cat" && argc >= 3) return cmd_cat(argc, argv);
  if (cmd == "match" && argc == 3) return cmd_match(argv[2]);
  if (cmd == "recover" && (argc == 3 || argc == 4)) {
    return cmd_recover(argv[2], argc == 4 ? argv[3] : argv[2]);
  }
  return usage();
}
