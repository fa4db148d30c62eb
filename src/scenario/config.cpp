#include "scenario/config.hpp"

#include <cstring>

#include "dms/deletion.hpp"
#include "util/rng.hpp"

namespace pandarus::scenario {

std::uint64_t config_digest(const ScenarioConfig& c) {
  const auto dbits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const auto u = [](auto v) { return static_cast<std::uint64_t>(v); };
  std::uint64_t h = util::hash_mix(0x70636b7074ull, c.seed, dbits(c.days));
  h = util::hash_mix(h, dbits(c.arrival_tail_days), dbits(c.slot_scale));
  // 1u: production output datasets always get their replication rule;
  // the slot keeps digests stable.
  h = util::hash_mix(h, c.replicated_datasets, 1u);
  h = util::hash_mix(h, dbits(c.carousel_waves_per_day), c.datasets_per_wave);
  h = util::hash_mix(h, dbits(c.churn_files_per_day),
                     dbits(kChurnLocalFraction));
  // The deletion daemon's defaults, in the sweeps-per-day form the slot
  // has always held.
  const dms::DeletionDaemon::Params eviction{};
  h = util::hash_mix(h,
                     dbits(static_cast<double>(util::days(1)) /
                           static_cast<double>(eviction.sweep_interval)),
                     dbits(eviction.expiry_prob));
  h = util::hash_mix(h, u(kSampleIntervalMs), c.apply_corruption ? 1u : 0u);

  // Harvest-time knobs: they change only the *_record rows.
  const telemetry::Recorder::Params& r = c.recorder;
  // 0u: production jobs are never recorded; the slot keeps digests stable.
  h = util::hash_mix(h, 0u, dbits(r.p_unknown_dst_on_registration_failure));
  h = util::hash_mix(h, dbits(r.p_partial_read_job));
  const telemetry::CorruptionParams& k = c.corruption;
  h = util::hash_mix(h, dbits(k.p_drop_transfer_taskid),
                     dbits(k.p_unknown_source));
  h = util::hash_mix(h, dbits(k.p_unknown_destination),
                     dbits(k.p_size_jitter));
  h = util::hash_mix(h, dbits(telemetry::kSizeJitterFrac),
                     dbits(k.p_drop_file_record));
  h = util::hash_mix(h, dbits(k.p_drop_job_record),
                     dbits(k.bad_site_fraction));
  h = util::hash_mix(h, dbits(k.p_size_jitter_bad_site),
                     dbits(k.p_unknown_endpoint_bad_site_tasked));
  h = util::hash_mix(h, dbits(k.p_unknown_endpoint_bad_site_anonymous),
                     telemetry::kSiteQualitySeed);

  // Fault knobs: a window's first line appears only when it begins.
  const fault::Plan::SampleParams& f = c.faults;
  h = util::hash_mix(h, dbits(f.intensity), dbits(fault::kSiteOutagesPerDay));
  h = util::hash_mix(h, dbits(f.link_blackouts_per_day),
                     dbits(fault::kLinkBrownoutsPerDay));
  h = util::hash_mix(h, dbits(fault::kStorageOutagesPerDay),
                     dbits(fault::kServiceBrownoutsPerDay));
  h = util::hash_mix(h, u(fault::kOutageMean), u(fault::kBrownoutMean));
  h = util::hash_mix(h, dbits(fault::kBrownoutFactorMin),
                     dbits(fault::kBrownoutFactorMax));
  h = util::hash_mix(h, dbits(fault::kServiceAbortBoost),
                     c.fault_windows.size());
  for (const fault::FaultWindow& w : c.fault_windows) {
    h = util::hash_mix(h, u(w.kind), u(w.begin));
    h = util::hash_mix(h, u(w.end), u(w.site));
    h = util::hash_mix(h, (u(w.link.src) << 32) | w.link.dst,
                       dbits(w.capacity_factor));
    h = util::hash_mix(h, dbits(w.abort_boost));
  }
  return h;
}

ScenarioConfig ScenarioConfig::small() {
  ScenarioConfig cfg;
  cfg.days = 0.5;
  cfg.arrival_tail_days = 0.15;
  cfg.topology.n_tier1 = 4;
  cfg.topology.n_tier2 = 8;
  cfg.topology.n_tier3 = 2;
  cfg.workload.n_input_datasets = 60;
  cfg.workload.user_tasks_per_day = 120.0;
  cfg.workload.prod_tasks_per_day = 30.0;
  cfg.replicated_datasets = 30;
  cfg.carousel_waves_per_day = 16.0;
  cfg.datasets_per_wave = 2;
  cfg.churn_files_per_day = 3'000.0;
  return cfg;
}

ScenarioConfig ScenarioConfig::paper_scale() {
  ScenarioConfig cfg;
  cfg.days = 8.0;
  return cfg;
}

ScenarioConfig& ScenarioConfig::with_self_healing() {
  transfer.retry_backoff_base = util::seconds(20);
  transfer.breaker_enabled = true;
  transfer.alternate_source_retry = true;
  transfer.max_attempts = 4;
  return *this;
}

ScenarioConfig ScenarioConfig::heatmap_campaign() {
  ScenarioConfig cfg;
  cfg.days = 20.0;
  cfg.arrival_tail_days = 1.0;
  cfg.workload.user_tasks_per_day = 180.0;
  cfg.workload.prod_tasks_per_day = 60.0;
  cfg.carousel_waves_per_day = 20.0;
  cfg.datasets_per_wave = 6;
  return cfg;
}

}  // namespace pandarus::scenario
