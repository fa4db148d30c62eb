// Campaign configuration: one struct bundling the knobs a caller varies
// in the simulated ATLAS-like environment (window, seed, task and churn
// rates, corruption, brokerage policy, faults), with presets for the
// paper's studies.  What no caller varies is a constant where it is
// used.
#pragma once

#include <cstdint>
#include <vector>

#include "dms/rule.hpp"
#include "dms/transfer.hpp"
#include "fault/fault.hpp"
#include "grid/builder.hpp"
#include "telemetry/corruption.hpp"
#include "telemetry/recorder.hpp"
#include "wms/brokerage.hpp"
#include "wms/panda_server.hpp"
#include "wms/workload.hpp"

namespace pandarus::scenario {

/// Share of background churn that is intra-site consolidation
/// (src == dst): disk pool rebalancing inside one facility, part of the
/// local volume that dominates the Fig. 3 diagonal.
inline constexpr double kChurnLocalFraction = 0.8;

/// Simulated-clock period of run_campaign's sampled time series (one
/// "sample" row of queue depths, in-flight and transfer totals, drops,
/// faults and breakers, then one "link_sample" per active link).  Only
/// sampled when the campaign's obs::Session has an event log or health
/// engine.
inline constexpr std::int64_t kSampleIntervalMs = 30 * 60 * 1000;

struct ScenarioConfig {
  std::uint64_t seed = 42;
  /// Observation window length; the paper's main study spans 8 days
  /// (04/01/2025-04/09/2025), the Fig. 3 heatmap 92 days.
  double days = 8.0;
  /// New tasks stop arriving this long before the window ends so most
  /// jobs reach a terminal state inside the window.
  double arrival_tail_days = 0.75;

  grid::TopologyParams topology{};
  /// CPU slots are scaled down with the workload (we simulate a fixed
  /// fraction of ATLAS's job rate, so sites keep realistic utilization
  /// and the hot-site queuing of Fig. 5 emerges).
  double slot_scale = 0.02;

  wms::WorkloadParams workload{};
  wms::Brokerage::Params brokerage{};
  wms::PandaServer::Params panda{};
  dms::TransferEngine::Params transfer{};
  dms::RuleEngine::Params rules{};
  telemetry::Recorder::Params recorder{};
  telemetry::CorruptionParams corruption{};
  bool apply_corruption = true;

  /// Input datasets placed under a 2-copy Tier-1 replication rule.
  /// Production output datasets get the same rule as they appear.
  std::uint32_t replicated_datasets = 150;

  /// Data-Carousel tape staging: waves per day, datasets per wave.
  /// These local TAPE->DISK flows dominate the Fig. 3 diagonal.
  double carousel_waves_per_day = 48.0;
  std::uint32_t datasets_per_wave = 10;

  /// Background consolidation churn: individual files moved between
  /// disk RSEs per day, with no task provenance.  This is the dominant
  /// share of the event stream (the paper's 5.2M no-jeditaskid events).
  /// kChurnLocalFraction of it stays inside one site.
  double churn_files_per_day = 14'000.0;

  /// Infrastructure faults.  `faults.intensity > 0` samples a seeded
  /// fault plan over the observation window (site/link/storage/service
  /// windows, see fault::Plan::sample); `fault_windows` adds explicit
  /// windows on top.  Both empty (the default) leaves every run
  /// bit-identical to a fault-free build.
  fault::Plan::SampleParams faults{};
  std::vector<fault::FaultWindow> fault_windows;

  /// Turns on the transfer engine's recovery stack (exponential backoff,
  /// per-link circuit breaker, alternate-source retry, deeper retry
  /// budget).  Off by default so existing presets keep their legacy
  /// instant-requeue behavior.
  ScenarioConfig& with_self_healing();

  /// Presets -----------------------------------------------------------
  /// Fast, small: unit/integration tests (half a day, small grid).
  [[nodiscard]] static ScenarioConfig small();
  /// The paper's 8-day §5 study at ~1/20 of ATLAS's job rate.
  [[nodiscard]] static ScenarioConfig paper_scale();
  /// Longer, heavier campaign for the Fig. 3 transfer-pattern heatmap.
  [[nodiscard]] static ScenarioConfig heatmap_campaign();
};

/// Digest of the knobs that shape a campaign's stream, including those
/// that act only at the harvest (recorder, corruption) or only when a
/// fault window begins.  run_campaign writes it into the stream's first
/// line (`campaign_config`), so a resume under another config fails on
/// that line instead of verifying a prefix the knob has not reached.
[[nodiscard]] std::uint64_t config_digest(const ScenarioConfig& config);

}  // namespace pandarus::scenario
