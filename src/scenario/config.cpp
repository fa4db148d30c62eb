#include "scenario/config.hpp"

#include <cstring>

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
  h = util::hash_mix(h, c.replicated_datasets,
                     c.replicate_production_output ? 1u : 0u);
  h = util::hash_mix(h, dbits(c.carousel_waves_per_day), c.datasets_per_wave);
  h = util::hash_mix(h, dbits(c.churn_files_per_day),
                     dbits(c.churn_local_fraction));
  h = util::hash_mix(h, dbits(c.eviction_sweeps_per_day),
                     dbits(c.eviction_probability));
  h = util::hash_mix(h, u(c.sample_interval_ms), c.apply_corruption ? 1u : 0u);

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
  h = util::hash_mix(h, dbits(k.size_jitter_frac),
                     dbits(k.p_drop_file_record));
  h = util::hash_mix(h, dbits(k.p_drop_job_record),
                     dbits(k.bad_site_fraction));
  h = util::hash_mix(h, dbits(k.p_size_jitter_bad_site),
                     dbits(k.p_unknown_endpoint_bad_site_tasked));
  h = util::hash_mix(h, dbits(k.p_unknown_endpoint_bad_site_anonymous),
                     k.site_quality_seed);

  // Fault knobs: a window's first line appears only when it begins.
  const fault::Plan::SampleParams& f = c.faults;
  h = util::hash_mix(h, dbits(f.intensity), dbits(f.site_outages_per_day));
  h = util::hash_mix(h, dbits(f.link_blackouts_per_day),
                     dbits(f.link_brownouts_per_day));
  h = util::hash_mix(h, dbits(f.storage_outages_per_day),
                     dbits(f.service_brownouts_per_day));
  h = util::hash_mix(h, u(f.outage_mean), u(f.brownout_mean));
  h = util::hash_mix(h, dbits(f.brownout_factor_min),
                     dbits(f.brownout_factor_max));
  h = util::hash_mix(h, dbits(f.service_abort_boost), c.fault_windows.size());
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
  transfer.breaker_threshold = 4;
  transfer.breaker_cooldown = util::minutes(10);
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
