// Offline event replay: rebuilds an analyzable MetadataStore — plus the
// sampled time series and the causal flows — from a PANDARUS_EVENTS
// stream, without touching any live simulator state.
//
// The campaign closes its event stream with a harvest (campaign_meta,
// site_record, then one job_record / file_record / transfer_record per
// store row, in store order).  Replaying those records through a fresh
// MetadataStore re-interns every string attribute, and because per-family
// order is preserved the rebuilt store is index-compatible with the
// in-memory one: matching and every downstream analysis produce
// identical numbers.  The replay cross-check test asserts exactly that.
//
// Live lifecycle events (job_state, transfer_submit, sample, ...) are
// tallied by kind and — for sample / link_sample — decoded into columnar
// series for the report generator.  flow_* / transfer_* lines drive a
// silent obs::FlowTracker in stream order, and replay_events can feed
// an obs::HealthEngine in the same loop, so one pass over the file
// yields the store, the flows and the alert state together.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "grid/site.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "telemetry/store.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace pandarus::analysis {

class EventSource;

struct ReplayResult {
  /// Rebuilt from the harvest events; empty if the stream held none.
  telemetry::MetadataStore store;

  /// From site_record events: id -> display name / tier.
  std::map<grid::SiteId, std::string> site_names;
  std::map<grid::SiteId, std::int32_t> site_tiers;

  /// From the campaign_meta event (zeros when absent).
  std::uint64_t seed = 0;
  double days = 0.0;
  util::SimTime window_begin = 0;
  util::SimTime window_end = 0;
  std::int64_t sample_interval_ms = 0;

  /// Columnar "sample" series: one row per tick, columns in emission
  /// order (taken from the first sample event seen).
  std::vector<std::string> sample_columns;
  struct Sample {
    std::int64_t ts = 0;
    std::vector<std::int64_t> values;
  };
  std::vector<Sample> samples;

  /// Per-link load samples, in stream order.
  struct LinkSample {
    std::int64_t ts = 0;
    grid::SiteId src = grid::kUnknownSite;
    grid::SiteId dst = grid::kUnknownSite;
    std::int64_t active = 0;
    std::int64_t queued = 0;
    std::int64_t bytes_in_flight = 0;
    double rate_bps = 0.0;
    double utilization = 0.0;
  };
  std::vector<LinkSample> link_samples;

  /// Fault-window transitions (kind == "fault_window"), in stream order.
  struct FaultWindowEvent {
    std::int64_t ts = 0;
    std::string fault_kind;  ///< site_outage, link_blackout, ...
    bool begin = true;
    grid::SiteId site = grid::kUnknownSite;
    grid::SiteId src = grid::kUnknownSite;
    grid::SiteId dst = grid::kUnknownSite;
    std::int64_t window_begin = 0;
    std::int64_t window_end = 0;
  };
  std::vector<FaultWindowEvent> fault_windows;

  /// Terminal-failure attribution from transfer_record events, indexed
  /// by dms::TransferError value (aborted, stalled_terminal, ...).
  std::map<std::int32_t, std::size_t> failure_causes;

  /// A silent (never wired) tracker fed each flow_* / transfer_* line
  /// as it is replayed: exactly the calls the live simulation made, so
  /// it ends in the live tracker's state and analysis::analyze_flows
  /// reproduces the online critical-path analysis verbatim.  It
  /// completes flows only when the stream was recorded with flows armed
  /// (PANDARUS_FLOWS).
  std::unique_ptr<obs::FlowTracker> flows =
      std::make_unique<obs::FlowTracker>();

  /// The terminal log_stats event the EventLog appends on close():
  /// what the producing process actually wrote and dropped.  A nonzero
  /// `dropped` means the stream is truncated by max_events and every
  /// downstream count is a floor, not a total.
  struct LogStats {
    bool present = false;
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bytes = 0;
  };
  LogStats log_stats;

  /// Every event kind seen, with its line count (sorted by kind).
  std::map<std::string, std::size_t> kind_counts;
  std::size_t lines_parsed = 0;
  std::size_t lines_skipped = 0;  ///< unparsable or missing kind/ts

  /// Folds one event into the result.  Events missing `kind` or `ts`
  /// count as skipped; the rest are tallied and decoded by kind.
  void observe(const util::json::Value& event);

  [[nodiscard]] std::string site_name(grid::SiteId id) const;
};

/// Replays any event source (NDJSON or colstore) with bounded memory;
/// malformed events are counted and skipped, never fatal (a truncated
/// tail must not lose the whole stream).  A non-null `health` is fed
/// every event the source yields, in the same pass.
ReplayResult replay_events(EventSource& source,
                           obs::HealthEngine* health = nullptr);

/// Line-streaming NDJSON convenience wrapper over the same replay.
ReplayResult replay_events(std::istream& in);

/// Opens `path` via open_event_source (format sniffed: colstore magic
/// or NDJSON text) and replays it; returns a result with lines_parsed
/// == 0 and a warning log when the file cannot be opened.
ReplayResult replay_events_file(const std::string& path,
                                obs::HealthEngine* health = nullptr);

/// Health-only pass: streams `path` into a fresh engine and nothing
/// else.  The engine is never wired to a log, so deriving health from a
/// stream never re-emits that stream's own alerts.  nullptr when the
/// file cannot be opened.
std::unique_ptr<obs::HealthEngine> derive_health_file(
    const std::string& path);

}  // namespace pandarus::analysis
