// End-to-end campaign driver: builds the grid, seeds the catalog, runs
// the coupled WMS/DMS simulation for the configured window, applies
// metadata corruption, and returns the telemetry snapshot ready for
// matching and analysis.  This is the single entry point used by the
// examples and every bench binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dms/catalog.hpp"
#include "dms/deletion.hpp"
#include "dms/rse.hpp"
#include "grid/topology.hpp"
#include "obs/env.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/session.hpp"
#include "scenario/config.hpp"
#include "telemetry/corruption.hpp"
#include "telemetry/store.hpp"

namespace pandarus::scenario {

struct ScenarioResult {
  grid::Topology topology;
  dms::RseRegistry rses;
  dms::FileCatalog catalog;
  telemetry::MetadataStore store;  ///< after corruption injection
  telemetry::CorruptionReport corruption{};

  util::SimTime window_begin = 0;
  util::SimTime window_end = 0;

  // Run statistics from the live components.
  wms::PandaServer::Stats panda{};
  dms::DeletionDaemon::Stats deletion{};
  dms::TransferEngine::Stats transfers{};
  dms::RuleEngine::Stats rules{};
  wms::WorkloadGenerator::Stats workload{};
  std::uint64_t events_processed = 0;

  /// Drain health: whether the scheduler emptied inside the grace
  /// period, and what the transfer engine still held if it did not.
  bool drained = true;
  std::size_t transfers_in_flight = 0;
  /// Fault windows that began during the run (0 on fault-free runs).
  std::uint64_t fault_windows = 0;

  /// Causal-flow aggregates, harvested when the session had a
  /// FlowTracker (all-zero / empty otherwise).  Purely in-memory: flow
  /// tracking never alters the campaign's non-flow_* event stream.
  obs::FlowTotals flow_totals{};
  std::vector<obs::LinkCritical> flow_link_ranking;
};

/// Runs one deterministic campaign, reporting to `session` (default:
/// the session the PANDARUS_* variables describe, empty unless the
/// binary called obs::install_env_hooks).  Equal configs (including
/// seed) produce bit-identical results; campaigns with disjoint
/// sessions may run concurrently.
[[nodiscard]] ScenarioResult run_campaign(
    const ScenarioConfig& config,
    const obs::Session& session = obs::env_session());

/// Result of resume_campaign().
struct ResumeOutcome {
  bool ok = false;
  /// On failure: the salvaged file and its first byte that differs from
  /// the re-run's file (or an I/O failure on either).
  std::string error;
  /// Salvaged bytes found equal to the re-run's, over every file
  /// checked; on a mismatch, up to its first differing byte.
  std::uint64_t verified_bytes = 0;
  ScenarioResult result;
};

/// Resumes a crashed campaign.  Closures cannot be serialized, so the
/// campaign re-runs from day 0; what resume adds is the proof that the
/// re-run is the crashed run.  It runs `config` in `session` and closes
/// the session's log, then checks that each file of `crashed` (NDJSON
/// and/or colstore, already cut to its valid prefix by
/// obs::recover_*_file; an empty path is skipped) is a byte prefix of
/// the re-run's file of the same format.  Both are read in fixed-size
/// blocks.  The re-run's files are the result: nothing is spliced.
///
/// The caller shapes `session` like the crashed run's: a log writing
/// fresh sink files (same fsync policy, or a salvaged terminal
/// log_stats line can differ in its `fsyncs` count), plus the flow
/// tracker and health engine the crashed run had, since both write
/// into the stream.  A stream's first line carries config_digest(), so
/// a resume under another config fails within that line.
[[nodiscard]] ResumeOutcome resume_campaign(const ScenarioConfig& config,
                                            const obs::Session& session,
                                            const obs::EventSinks& crashed);

}  // namespace pandarus::scenario
