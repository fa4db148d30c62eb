// End-to-end campaign driver: builds the grid, seeds the catalog, runs
// the coupled WMS/DMS simulation for the configured window, applies
// metadata corruption, and returns the telemetry snapshot ready for
// matching and analysis.  This is the single entry point used by the
// examples and every bench binary.
#pragma once

#include <vector>

#include "dms/catalog.hpp"
#include "dms/deletion.hpp"
#include "dms/rse.hpp"
#include "grid/topology.hpp"
#include "obs/env.hpp"
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

}  // namespace pandarus::scenario
