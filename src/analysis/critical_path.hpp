// Offline critical-path analysis over causal flows (obs::flow).
//
// Two entry points produce the same FlowAnalysis:
//
//   * analyze_flows(tracker)  — read a live obs::FlowTracker after a
//     campaign (the online path already ran the decomposition; this
//     just harvests and ranks);
//   * analyze_flows(replay)   — read the detached (silent) FlowTracker
//     that analysis::replay_events fed the stream's flow/transfer
//     lifecycle lines, in stream order.  Because the rebuild engine
//     *is* the live analyzer, a replayed stream — NDJSON text or a
//     binary colstore file, both arrive through analysis::EventSource —
//     yields bit-identical phase breakdowns, flags and link
//     attributions; the cross-check test in
//     tests/events_replay_test.cpp asserts exactly that.
//
// On top of the per-flow summaries this module computes exact per-phase
// quantiles (the offline path can afford to sort; the online path uses
// P² sketches in obs::Registry), renders the wait-attribution table
// used by examples/pandarus-flow and analysis::report_html, and
// re-exports flamegraph collapsed stacks with site names resolved.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/events_replay.hpp"
#include "obs/flow.hpp"

namespace pandarus::analysis {

/// Exact quantiles of one phase over all completed flows, in ms.
struct PhaseQuantiles {
  std::string phase;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
  std::int64_t max = 0;
  std::int64_t total_ms = 0;  ///< sum over flows
};

struct FlowAnalysis {
  std::vector<obs::FlowSummary> flows;
  obs::FlowTotals totals{};
  /// Campaign-wide links by critical stage-in ms, descending.
  std::vector<obs::LinkCritical> link_ranking;
  /// broker, stage_in, stage_in_serialized, queue, run, stage_out, wall.
  std::vector<PhaseQuantiles> quantiles;
  std::map<std::int64_t, std::string> site_names;
  /// Flamegraph collapsed stacks with site names resolved (same format
  /// as obs::FlowTracker::to_collapsed).
  std::string collapsed;

  [[nodiscard]] std::string site_label(std::int64_t site) const;
};

/// Exact per-phase quantiles (nearest-rank on sorted values).
[[nodiscard]] std::vector<PhaseQuantiles> flow_phase_quantiles(
    const std::vector<obs::FlowSummary>& flows);

/// Harvests a tracker the simulation populated.  `site_names` labels
/// sites in the collapsed stacks and rendered tables (numeric fallback).
[[nodiscard]] FlowAnalysis analyze_flows(
    const obs::FlowTracker& tracker,
    std::map<std::int64_t, std::string> site_names = {});

/// Harvests the tracker a replay rebuilt, labelling sites from the
/// stream's site_record events.
[[nodiscard]] FlowAnalysis analyze_flows(const ReplayResult& replay);

/// Fixed-width wait-attribution report: phase quantiles, campaign
/// totals, the top-offending links, and the flagged sequential-staging
/// case-study flows with their bottleneck link.
[[nodiscard]] std::string render_attribution(const FlowAnalysis& analysis,
                                             std::size_t top_links = 10);

}  // namespace pandarus::analysis
