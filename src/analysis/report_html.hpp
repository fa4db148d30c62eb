// Single-file HTML campaign report, generated offline from a replayed
// event stream (no live simulator state).  Everything is inline — plain
// tables, SVG sparklines for the bandwidth and sampler series, an SVG
// site-by-site transfer heatmap — so the file can be archived or
// attached to CI runs as one artifact.
#pragma once

#include <iosfwd>

#include "analysis/events_replay.hpp"

namespace pandarus::obs {
class HealthEngine;
}

namespace pandarus::analysis {

struct HtmlReportOptions {
  /// Replay-derived health engine (fed by analysis::replay_events or
  /// derive_health_file) for the alert-timeline and SLO sections; both
  /// are skipped when null.
  const obs::HealthEngine* health = nullptr;
};

/// Re-runs the three matching methods on the replayed store and writes
/// the full report.  A replay with no harvest records still produces a
/// valid (mostly empty) document.
void write_html_report(std::ostream& os, const ReplayResult& replay,
                       const HtmlReportOptions& options = {});

}  // namespace pandarus::analysis
