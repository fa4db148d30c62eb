#include "scenario/campaign.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "analysis/serve_endpoints.hpp"
#include "dms/deletion.hpp"
#include "dms/rule.hpp"
#include "dms/selector.hpp"
#include "dms/transfer.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "scenario/checkpoint.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/io.hpp"
#include "telemetry/recorder.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "wms/panda_server.hpp"
#include "wms/workload.hpp"

namespace pandarus::scenario {
namespace {

/// Creates one DISK RSE per site plus TAPE RSEs at T0/T1 sites.
void create_rses(const grid::Topology& topology, dms::RseRegistry& rses) {
  for (const grid::Site& site : topology.sites()) {
    dms::Rse disk;
    disk.name = site.name + "_DATADISK";
    disk.site = site.id;
    disk.kind = dms::RseKind::kDisk;
    disk.capacity_bytes = site.storage_bytes;
    rses.add(std::move(disk));
    if (site.tier == grid::Tier::kT0 || site.tier == grid::Tier::kT1) {
      dms::Rse tape;
      tape.name = site.name + "_MCTAPE";
      tape.site = site.id;
      tape.kind = dms::RseKind::kTape;
      tape.capacity_bytes = site.storage_bytes * 4;
      rses.add(std::move(tape));
    }
  }
}

}  // namespace

ScenarioResult run_campaign(const ScenarioConfig& config,
                            const obs::Session& session) {
  return detail::run_campaign(config, session, {});
}

namespace detail {

ScenarioResult run_campaign(const ScenarioConfig& config,
                            const obs::Session& session,
                            const DayBoundaryHook& on_day) {
  const obs::ScopedSpan campaign_span("campaign/run", "scenario");
  const std::int64_t wall_start_us = obs::TraceRecorder::now_us();
  obs::Registry::global()
      .counter("pandarus_campaign_runs_total", "Campaigns simulated")
      .inc();

  // Wire the session once, before the first event: the tracker and the
  // health engine mirror into the session's log, and the session's
  // server (PANDARUS_SERVE) reports on this campaign — its /api
  // providers read only the log's published prefix and mutex-guarded
  // aggregates, never live simulator state.
  obs::EventLog* const log = session.events;
  obs::FlowTracker* const flows = session.flows;
  obs::HealthEngine* const health = session.health;
  if (flows != nullptr) flows->wire(log);
  if (health != nullptr) health->wire(log);
  if (session.server != nullptr) {
    analysis::attach_live_status(*session.server, session);
  }
  // Like the live /api cache, the checkpoint writer reads the published
  // stream through a registered reader, so it exists before any event.
  CheckpointWriter checkpoints(config, session.checkpoint_dir, log);

  ScenarioResult result;
  util::Rng rng(config.seed);

  std::optional<obs::ScopedSpan> phase_span;
  phase_span.emplace("campaign/setup", "scenario");

  // --- substrate construction -------------------------------------------
  grid::TopologyParams topo_params = config.topology;
  topo_params.seed = util::hash_mix(config.seed, 0x7090);
  result.topology = grid::build_wlcg_like(topo_params);
  for (const grid::Site& s : result.topology.sites()) {
    auto& site = result.topology.site_mutable(s.id);
    site.cpu_slots = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(static_cast<double>(site.cpu_slots) *
                                      config.slot_scale));
  }
  create_rses(result.topology, result.rses);

  dms::ReplicaCatalog replicas(result.catalog, result.rses);
  sim::Scheduler scheduler(session);

  dms::TransferEngine engine(scheduler, result.topology, replicas,
                             rng.fork(0x7e), config.transfer);
  telemetry::Recorder recorder(result.store, result.catalog, rng.fork(0x2ec),
                               config.recorder);
  engine.set_sink(
      [&recorder](const dms::TransferOutcome& o) { recorder.on_transfer(o); });

  dms::RuleEngine rule_engine(scheduler, result.topology, result.catalog,
                              replicas, result.rses, engine, rng.fork(0x21e),
                              config.rules);

  wms::Brokerage brokerage(result.topology, result.catalog, replicas,
                           config.brokerage);
  wms::SiteQueues queues(scheduler, result.topology, rng.fork(0x51));

  wms::PandaServer::Hooks hooks;
  hooks.on_job_complete = [&recorder](const wms::Job& job) {
    recorder.on_job_complete(job);
  };
  hooks.on_task_complete = [&recorder, &rule_engine,
                            &config](const wms::Task& task) {
    recorder.on_task_complete(task);
    // Production output datasets fall under the standard 2-copy T1 rule
    // as they appear, sustaining rule-driven WAN traffic all campaign.
    if (config.replicate_production_output &&
        task.kind == wms::JobKind::kProduction &&
        task.output_dataset != dms::kNoDataset) {
      rule_engine.add_rule({task.output_dataset, 2, grid::Tier::kT1});
    }
  };

  wms::PandaServer server(scheduler, result.topology, result.catalog,
                          replicas, result.rses, engine, brokerage, queues,
                          rng.fork(0x9a17da), config.panda, hooks);

  wms::WorkloadGenerator workload(scheduler, result.topology, result.catalog,
                                  replicas, result.rses, server,
                                  rng.fork(0x303), config.workload);
  workload.bootstrap_catalog();

  // --- background data management ---------------------------------------
  result.window_begin = 0;
  result.window_end = util::days(config.days);
  const util::SimTime arrivals_until =
      result.window_end - util::days(config.arrival_tail_days);

  // --- infrastructure faults --------------------------------------------
  // Alternate-source resolution is always available; whether retries use
  // it is governed by config.transfer.alternate_source_retry.
  engine.enable_alternate_sources(result.rses);
  fault::Plan fault_plan;
  for (const fault::FaultWindow& w : config.fault_windows) {
    fault_plan.add(w);
  }
  if (config.faults.intensity > 0.0) {
    const fault::Plan sampled = fault::Plan::sample(
        config.faults, result.topology, result.window_end,
        util::hash_mix(config.seed, 0xfa177));
    for (const fault::FaultWindow& w : sampled.windows) {
      fault_plan.add(w);
    }
  }
  std::optional<fault::Injector> injector;
  if (!fault_plan.empty()) {
    injector.emplace(scheduler);
    engine.set_injector(*injector);
    brokerage.set_injector(*injector);
    server.set_injector(*injector);
    injector->arm(fault_plan);
  }

  // Replication rules over the most popular input datasets.
  const auto& datasets = workload.input_datasets();
  const std::size_t n_rules = std::min<std::size_t>(
      config.replicated_datasets, datasets.size());
  for (std::size_t i = 0; i < n_rules; ++i) {
    rule_engine.add_rule({datasets[i], 2, grid::Tier::kT1});
  }
  rule_engine.start_periodic(result.window_end);

  // Data-Carousel staging waves (paper §6, iDDS/Data Carousel): whole
  // archived datasets are staged from a site's TAPE RSE to its DISK RSE.
  // These local flows are what makes the Fig. 3 diagonal dominate, with
  // the largest cells at the tape-heavy sites (CERN-like T0 first).
  // All wave times are pre-scheduled, so no event outlives this scope.
  const auto& archives = workload.tape_archives();
  if (config.carousel_waves_per_day > 0.0 && !archives.empty()) {
    util::Rng wave_rng = rng.fork(0xca0);
    const auto wave_gap = static_cast<util::SimDuration>(
        24.0 * 3600.0 * 1000.0 / config.carousel_waves_per_day);
    for (util::SimTime at = wave_gap / 2; at < result.window_end;
         at += wave_gap) {
      std::vector<std::pair<dms::DatasetId, grid::SiteId>> picks;
      for (std::uint32_t d = 0; d < config.datasets_per_wave; ++d) {
        picks.push_back(archives[wave_rng.uniform_index(archives.size())]);
      }
      scheduler.schedule_at(at, [&rule_engine, picks = std::move(picks)] {
        for (const auto& [ds, site] : picks) {
          rule_engine.stage_from_tape(ds, site);
        }
      });
    }
  }

  // Background churn: Rucio-style consolidation/pre-placement moving
  // individual files between disk RSEs.  This rule-less traffic carries
  // no jeditaskid and makes up the bulk of the event stream, as in the
  // paper's window (5.2M of 6.78M transfers had no task identifier).
  if (config.churn_files_per_day > 0.0 && !datasets.empty()) {
    struct ChurnState {
      util::Rng rng;
      std::vector<grid::SiteId> disk_sites;
      dms::ReplicaSelector selector;
    };
    auto churn = std::make_shared<ChurnState>(ChurnState{
        rng.fork(0xc4),
        {},
        dms::ReplicaSelector(result.topology, result.rses, replicas)});
    for (const grid::Site& s : result.topology.sites()) {
      if (s.tier != grid::Tier::kT3 &&
          result.rses.disk_at(s.id) != dms::kNoRse) {
        churn->disk_sites.push_back(s.id);
      }
    }
    const auto churn_gap = static_cast<util::SimDuration>(
        24.0 * 3600.0 * 1000.0 / config.churn_files_per_day);
    for (util::SimTime at = churn_gap; at < result.window_end;
         at += churn_gap) {
      scheduler.schedule_at(at, [churn, &scheduler, &engine, &replicas,
                                 &result, &datasets, &config] {
        const dms::DatasetId ds =
            datasets[churn->rng.uniform_index(datasets.size())];
        const auto files = result.catalog.files_of(ds);
        if (files.empty() || churn->disk_sites.empty()) return;
        const dms::FileId file =
            files[churn->rng.uniform_index(files.size())];
        dms::TransferRequest req;
        req.file = file;
        req.size_bytes = result.catalog.file(file).size_bytes;
        req.activity = dms::Activity::kDataRebalance;
        if (churn->rng.bernoulli(config.churn_local_fraction)) {
          // Intra-site consolidation: move the file between pools of one
          // facility that already holds it.
          dms::RseId holder = dms::kNoRse;
          for (dms::RseId r : replicas.replicas(file)) {
            if (result.rses.rse(r).kind == dms::RseKind::kDisk) {
              holder = r;
              break;
            }
          }
          if (holder == dms::kNoRse) return;
          const grid::SiteId site = result.rses.rse(holder).site;
          req.src = site;
          req.dst = site;
          req.dst_rse = holder;
        } else {
          const grid::SiteId dst =
              churn->disk_sites[churn->rng.uniform_index(
                  churn->disk_sites.size())];
          if (replicas.on_disk_at_site(file, dst)) return;
          const dms::RseId src_rse =
              churn->selector.select_source(file, dst, scheduler.now());
          if (src_rse == dms::kNoRse) return;
          req.src = result.rses.rse(src_rse).site;
          req.dst = dst;
          req.dst_rse = result.rses.disk_at(dst);
        }
        engine.submit(std::move(req));
      });
    }
  }

  // Lifetime eviction (Rucio's deletion daemon): transient disk replicas
  // of tape-only datasets expire periodically, so cold data goes cold
  // again and later jobs must re-stage — sustaining the Analysis/
  // Production Download populations instead of a one-shot warm-up.
  dms::DeletionDaemon::Params deletion_params;
  if (config.eviction_sweeps_per_day > 0.0) {
    deletion_params.sweep_interval = static_cast<util::SimDuration>(
        24.0 * 3600.0 * 1000.0 / config.eviction_sweeps_per_day);
  }
  deletion_params.expiry_prob = config.eviction_probability;
  dms::DeletionDaemon deletion(scheduler, result.catalog, replicas,
                               result.rses, rng.fork(0xe71c),
                               deletion_params);
  for (dms::DatasetId ds : workload.tape_only_datasets()) {
    deletion.add_transient(ds);
  }
  if (config.eviction_sweeps_per_day > 0.0) {
    deletion.start(result.window_end);
  }

  // Periodic time-series sampling, only when the session has an event
  // log or health engine: probes are read-only and consume no simulation
  // RNG, so a sampled run is bit-identical to an unsampled one.  Ticks
  // are pre-scheduled like the carousel waves, so no event outlives
  // this scope.
  std::optional<obs::Sampler> sampler;
  if ((log != nullptr || health != nullptr) &&
      config.sample_interval_ms > 0) {
    sampler.emplace(config.sample_interval_ms, log);
    sampler->add_column("jobs_queued", [&queues] {
      return static_cast<std::int64_t>(queues.total_queued());
    });
    sampler->add_column("jobs_running", [&queues] {
      return static_cast<std::int64_t>(queues.total_running());
    });
    sampler->add_column("transfers_in_flight", [&engine] {
      return static_cast<std::int64_t>(engine.in_flight());
    });
    sampler->add_column("transfers_submitted", [&engine] {
      return static_cast<std::int64_t>(engine.stats().submitted);
    });
    sampler->add_column("transfers_completed", [&engine] {
      return static_cast<std::int64_t>(engine.stats().completed);
    });
    sampler->add_column("transfers_retried", [&engine] {
      return static_cast<std::int64_t>(engine.stats().retries);
    });
    sampler->add_column("bytes_moved", [&engine] {
      return static_cast<std::int64_t>(engine.stats().bytes_moved);
    });
    sampler->add_column("sim_events_processed", [&scheduler] {
      return static_cast<std::int64_t>(scheduler.processed_count());
    });
    // Telemetry self-audit: the stream's own drop counter rides in the
    // stream, so the health engine's event-drop watchdog works from
    // the sampled series alone (live and in replay).
    sampler->add_column("events_dropped", [log] {
      return log != nullptr ? static_cast<std::int64_t>(log->dropped())
                            : std::int64_t{0};
    });
    // Fault/recovery health: this campaign's live fault windows and open
    // breakers show up alongside queue depth in the sampled series,
    // whatever other campaigns in the process are doing.
    sampler->add_column("pandarus_fault_windows_active", [&injector] {
      return injector ? static_cast<std::int64_t>(injector->active_count())
                      : std::int64_t{0};
    });
    sampler->add_column("pandarus_dms_breakers_open", [&engine] {
      return static_cast<std::int64_t>(engine.open_breakers());
    });
    // The health engine consumes the same row the "sample" event
    // carries, at the same stream position, so its detectors see
    // identical sequences live and in replay.
    if (health != nullptr) {
      sampler->set_row_observer(
          [health](std::int64_t ts, const std::vector<std::string>& names,
                   const std::vector<std::int64_t>& values) {
            health->on_sample(ts, names, values);
          });
    }
    // Per-link load: one link_sample event per currently active link,
    // mirrored into the health engine's link-utilization detector.
    sampler->add_emitter([&engine, &result, log, health](std::int64_t ts) {
      for (const dms::TransferEngine::LinkProbe& p : engine.probe_links()) {
        const double cap =
            result.topology.link(p.key.src, p.key.dst).effective_capacity(ts);
        const double utilization = cap > 0.0 ? p.rate_bps / cap : 0.0;
        if (log != nullptr) {
          log->emit(
              obs::Event("link_sample", ts,
                         static_cast<std::int64_t>(
                             (static_cast<std::uint64_t>(p.key.src) << 32) |
                             p.key.dst))
                  .field("src", p.key.src)
                  .field("dst", p.key.dst)
                  .field("active", p.active)
                  .field("queued", p.queued)
                  .field("bytes_in_flight", p.bytes_in_flight)
                  .field("rate_bps", p.rate_bps)
                  .field("utilization", utilization));
        }
        if (health != nullptr) {
          health->on_link_sample(ts, p.key.src, p.key.dst,
                                 static_cast<std::int64_t>(p.queued),
                                 utilization);
        }
      }
    });
    obs::Sampler& ticks = *sampler;
    for (std::int64_t at = config.sample_interval_ms;
         at <= result.window_end; at += config.sample_interval_ms) {
      scheduler.schedule_at(at, [&ticks, at] { ticks.sample_at(at); });
    }
  }

  workload.start(arrivals_until);
  phase_span.reset();

  // Per-day checkpointing (session.checkpoint_dir, PANDARUS_CHECKPOINT
  // in the env session) and the resume verifier `on_day` share one
  // observation point: the day boundary, right after that day's
  // publish().  Assembling the fingerprints costs a few container walks
  // and one pass over the store per simulated day (the store digest is
  // recomputed in full, because finalize_task() backfills job rows), and
  // is skipped entirely when neither consumer is armed, so default runs
  // stay byte- and cost-identical.
  const auto day_boundary = [&](std::int64_t day) {
    if (!checkpoints.active() && !on_day) return;
    DayBoundary boundary;
    boundary.day = day;
    boundary.sim_now = scheduler.now();
    boundary.log = log;
    boundary.flows_tracked = flows != nullptr;
    Fingerprint& f = boundary.fingerprint;
    f.scheduler_processed = scheduler.processed_count();
    f.scheduler_queued = scheduler.queued_count();
    f.transfer_digest = engine.state_digest();
    f.injector_digest = injector ? injector->state_digest() : 0;
    f.flow_digest = flows != nullptr ? flows->state_digest() : 0;
    const telemetry::MetadataStore::Counts counts = result.store.counts();
    f.store_jobs = counts.jobs;
    f.store_files = counts.files;
    f.store_transfers = counts.transfers;
    f.store_digest = telemetry::store_digest(result.store);
    checkpoints.on_day_boundary(boundary);
    if (on_day) on_day(boundary);
  };

  // The drain loop is segmented at simulated-day boundaries purely for
  // observability: run_until over consecutive prefixes fires the same
  // events in the same order as one call, and each segment becomes a
  // "campaign/day" span (arg = day index) in the trace.
  {
    const obs::ScopedSpan simulate_span("campaign/simulate", "scenario");
    // Live-progress gauges for obs::serve's SSE stream; gauges never
    // touch the event stream, so they are determinism-neutral.
    obs::Gauge& sim_now = obs::Registry::global().gauge(
        "pandarus_campaign_sim_now_ms",
        "Simulated time reached by the running campaign");
    obs::Registry::global()
        .gauge("pandarus_campaign_window_end_ms",
               "Observation-window end of the running campaign")
        .set(result.window_end);
    const util::SimTime horizon = result.window_end + util::days(3);
    std::int64_t day = 0;
    for (util::SimTime t = 0; t < horizon; ++day) {
      t = std::min(horizon, t + util::days(1));
      const obs::ScopedSpan day_span("campaign/day", "scenario", day);
      scheduler.run_until(t);
      sim_now.set(t);
      // Publish this day's events so snapshot readers (serve, the sink
      // files) can see a consistent prefix while the campaign runs.
      if (log != nullptr) log->publish();
      day_boundary(day);
    }
  }
  phase_span.emplace("campaign/post_process", "scenario");

  result.drained = scheduler.empty();
  result.transfers_in_flight = engine.in_flight();
  if (injector.has_value()) {
    result.fault_windows = injector->stats().begun;
  }
  if (!result.drained) {
    util::log_warning() << "campaign drained incompletely: events remain "
                           "after the grace window";
  }

  // --- post-processing ----------------------------------------------------
  if (config.apply_corruption) {
    result.corruption = telemetry::inject_corruption(
        result.store, config.corruption, rng.fork(0xc0de));
  }

  // Harvest: with an event log in the session, close the stream with
  // the campaign header, the site table, and one *_record event per
  // store row.  This runs after corruption injection, so a replay of
  // the NDJSON rebuilds exactly the store the analyses see.
  if (log != nullptr) {
    log->emit(
        obs::Event("campaign_meta", scheduler.now(), std::int64_t{0})
            .field("seed", config.seed)
            .field("days", config.days)
            .field("window_begin", result.window_begin)
            .field("window_end", result.window_end)
            .field("sites",
                   static_cast<std::uint64_t>(result.topology.site_count()))
            .field("sample_interval_ms", config.sample_interval_ms)
            .field("samples", sampler ? sampler->ticks() : std::int64_t{0}));
    for (const grid::Site& s : result.topology.sites()) {
      log->emit(obs::Event("site_record", scheduler.now(),
                           static_cast<std::int64_t>(s.id))
                    .field("name", s.name)
                    .field("country", s.country)
                    .field("tier", static_cast<std::int32_t>(s.tier))
                    .field("cpu_slots", s.cpu_slots));
    }
    telemetry::emit_store_events(result.store, scheduler.now(), log);
    // Harvest published immediately: a live /api/summary scrape from
    // here on replays the full record set and equals the post-hoc
    // analysis::report numbers.
    log->publish();
  }

  result.panda = server.stats();
  result.deletion = deletion.stats();
  result.transfers = engine.stats();
  result.rules = rule_engine.stats();
  result.workload = workload.stats();
  result.events_processed = scheduler.processed_count();

  // Causal-flow harvest: aggregates only — flow tracking must leave the
  // non-flow_* event stream byte-identical, so nothing is emitted here.
  if (flows != nullptr) {
    result.flow_totals = flows->totals();
    result.flow_link_ranking = flows->link_ranking();
  }

  phase_span.reset();
  obs::Registry::global()
      .gauge("pandarus_campaign_last_wall_ms",
             "Wall-clock milliseconds of the most recent run_campaign")
      .set(obs::to_millis(obs::TraceRecorder::now_us() - wall_start_us));
  return result;
}

}  // namespace detail
}  // namespace pandarus::scenario
