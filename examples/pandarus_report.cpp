// pandarus-report: offline campaign report generator.
//
//   pandarus-report <events.ndjson> [report.html]
//
// Reads a PANDARUS_EVENTS stream (produced by any binary run with that
// environment variable set), replays it into a fresh metadata store,
// re-runs the matching methods, and writes a single self-contained HTML
// file with the paper-shaped tables, bandwidth/sampler sparklines, and
// the transfer heatmap.
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/events_replay.hpp"
#include "analysis/report_html.hpp"

int main(int argc, char** argv) {
  using namespace pandarus;

  if (argc < 2 || argc > 3) {
    std::cerr << "usage: pandarus-report <events.ndjson> [report.html]\n";
    return 2;
  }
  const std::string events_path = argv[1];
  const std::string html_path = argc == 3 ? argv[2] : "report.html";

  // One streaming pass also feeds the health detectors: the report's
  // alert timeline and SLO table come from the same engine /api/alerts
  // serves, derived out-of-core from the file.
  obs::HealthEngine health;
  const analysis::ReplayResult replay =
      analysis::replay_events_file(events_path, &health);
  if (replay.lines_parsed == 0) {
    std::cerr << "pandarus-report: no events parsed from " << events_path
              << '\n';
    return 1;
  }
  std::cout << "replayed " << replay.lines_parsed << " events ("
            << replay.lines_skipped << " skipped), "
            << replay.store.jobs().size() << " jobs, "
            << replay.store.transfers().size() << " transfers, "
            << replay.samples.size() << " sampler ticks\n";

  std::ofstream out(html_path);
  if (!out) {
    std::cerr << "pandarus-report: cannot write " << html_path << '\n';
    return 1;
  }
  analysis::HtmlReportOptions options;
  options.health = &health;
  analysis::write_html_report(out, replay, options);
  std::cout << "wrote " << html_path << '\n';
  return 0;
}
