#include "wms/panda_server.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "obs/event_log.hpp"
#include "obs/flow.hpp"

namespace pandarus::wms {
namespace {

/// Composite (file, site) key for the shared-staging ledger.  FileIds are
/// sequential and stay far below 2^44 even in the largest campaigns.
std::uint64_t staging_key(dms::FileId file, grid::SiteId site) {
  return (file << 20) | (site & 0xFFFFFu);
}

/// One job_state event per lifecycle transition (the PanDA status-change
/// stream the paper's job records are distilled from).
void emit_job_state(const sim::Scheduler& scheduler, const Job& job,
                    const char* state) {
  if (obs::EventLog* log = scheduler.session().events) {
    log->emit(obs::Event("job_state", scheduler.now(),
                         static_cast<std::int64_t>(job.pandaid))
                  .field("state", state)
                  .field("task", job.jeditaskid)
                  .field("site", job.computing_site)
                  .field("attempt", job.attempt));
  }
}

}  // namespace

struct PandaServer::JobRuntime {
  Job job;
  std::uint32_t pending_stage = 0;
  /// Sequential-pilot sites: files not yet requested, staged one by one.
  std::deque<dms::FileId> stage_queue;
  dms::Activity stage_activity = dms::Activity::kAnalysisDownload;
  std::vector<dms::FileId> direct_io_files;
  bool stage_failed = false;
  bool direct_io_failed = false;
  bool released_by_watchdog = false;
  util::SimTime staging_completed_at = util::kNever;
  bool queued_or_later = false;
  std::uint32_t pending_uploads = 0;
  bool upload_failed = false;
  sim::Scheduler::EventHandle watchdog;
};

PandaServer::PandaServer(sim::Scheduler& scheduler,
                         const grid::Topology& topology,
                         const dms::FileCatalog& catalog,
                         dms::ReplicaCatalog& replicas,
                         const dms::RseRegistry& rses,
                         dms::TransferEngine& engine,
                         const Brokerage& brokerage, SiteQueues& queues,
                         util::Rng rng, Params params, Hooks hooks)
    : scheduler_(scheduler),
      topology_(topology),
      catalog_(catalog),
      replicas_(replicas),
      rses_(rses),
      engine_(engine),
      brokerage_(brokerage),
      queues_(queues),
      selector_(topology, rses, replicas),
      rng_(rng),
      params_(params),
      hooks_(std::move(hooks)) {}

PandaServer::~PandaServer() = default;

void PandaServer::submit_task(Task task) {
  tasks_.emplace(task.jeditaskid, std::move(task));
}

void PandaServer::submit_job(Job job) {
  assert(tasks_.contains(job.jeditaskid));
  job.creation_time = scheduler_.now();
  job.status = JobStatus::kPending;
  if (job.kind == JobKind::kUserAnalysis) {
    job.direct_io = rng_.bernoulli(params_.p_direct_io);
  }
  ++stats_.submitted;

  auto rt = std::make_unique<JobRuntime>();
  rt->job = std::move(job);
  // The flow root opens before brokerage so the brokerage hook can
  // annotate it with the number of candidates it scored.
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->begin_flow(static_cast<std::int64_t>(rt->job.pandaid),
                      rt->job.jeditaskid,
                      static_cast<std::int32_t>(rt->job.attempt),
                      scheduler_.now());
  }
  rt->job.computing_site = brokerage_.choose_site(rt->job, queues_, rng_,
                                                  scheduler_.session().flows);
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->broker_decision(static_cast<std::int64_t>(rt->job.pandaid),
                           rt->job.computing_site, scheduler_.now());
  }
  JobRuntime& ref = *rt;
  jobs_.emplace(ref.job.pandaid, std::move(rt));
  emit_job_state(scheduler_, ref.job, "submitted");
  begin_staging(ref);
}

void PandaServer::begin_staging(JobRuntime& rt) {
  rt.job.status = JobStatus::kStaging;
  emit_job_state(scheduler_, rt.job, "staging");
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->stage_begin(static_cast<std::int64_t>(rt.job.pandaid),
                       scheduler_.now());
  }
  const grid::SiteId site = rt.job.computing_site;

  std::vector<dms::FileId> missing;
  for (dms::FileId f : rt.job.input_files) {
    if (!replicas_.on_disk_at_site(f, site)) missing.push_back(f);
  }

  if (rt.job.direct_io) {
    // Direct IO streams *every* input during execution (reads through the
    // storage frontend are recorded as transfer events whether the
    // replica is local or remote); no pre-staging.
    rt.direct_io_files = rt.job.input_files;
    proceed_to_queue(rt);
    return;
  }

  if (missing.empty()) {
    proceed_to_queue(rt);
    return;
  }

  const dms::Activity activity = rt.job.kind == JobKind::kUserAnalysis
                                     ? dms::Activity::kAnalysisDownload
                                     : dms::Activity::kProductionDownload;
  rt.stage_activity = activity;
  rt.pending_stage = static_cast<std::uint32_t>(missing.size());
  if (topology_.site(site).max_parallel_streams <= 1) {
    // Sequential pilot (Fig. 10): download the inputs one at a time.
    rt.stage_queue.assign(missing.begin(), missing.end());
    const dms::FileId first = rt.stage_queue.front();
    rt.stage_queue.pop_front();
    request_file(rt, first, activity);
  } else {
    for (dms::FileId f : missing) request_file(rt, f, activity);
  }

  // Dataset-level prefetch: pull the rest of each touched dataset to the
  // site under the same task id.  The shared-staging ledger deduplicates
  // against in-flight requests; the job itself only waits on its own
  // files.  Sequential-pilot sites use the dumb one-file-at-a-time path
  // with no prefetch — which is exactly why their matched transfer sets
  // appear back-to-back (Fig. 10).
  if (params_.dataset_level_staging &&
      topology_.site(site).max_parallel_streams > 1) {
    std::vector<dms::DatasetId> touched;
    for (dms::FileId f : missing) {
      const dms::DatasetId ds = catalog_.file(f).dataset;
      if (std::find(touched.begin(), touched.end(), ds) == touched.end()) {
        touched.push_back(ds);
      }
    }
    for (dms::DatasetId ds : touched) {
      for (dms::FileId f : catalog_.files_of(ds)) {
        if (replicas_.on_disk_at_site(f, site)) continue;
        if (std::find(missing.begin(), missing.end(), f) != missing.end()) {
          continue;  // already requested with this job as waiter
        }
        prefetch_file(rt.job, f, activity);
      }
    }
  }

  const JobId id = rt.job.pandaid;
  rt.watchdog = scheduler_.schedule_after(params_.stage_timeout, [this, id] {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    JobRuntime& runtime = *it->second;
    if (runtime.queued_or_later) return;
    ++stats_.stage_timeouts;
    runtime.released_by_watchdog = true;
    proceed_to_queue(runtime);
  });
}

void PandaServer::request_file(JobRuntime& rt, dms::FileId file,
                               dms::Activity activity) {
  const grid::SiteId site = rt.job.computing_site;
  const std::uint64_t key = staging_key(file, site);

  auto it = staging_waiters_.find(key);
  if (it != staging_waiters_.end()) {
    // Another job already requested this file to this site: share the
    // in-flight transfer instead of duplicating it.
    it->second.waiters.push_back(rt.job.pandaid);
    ++stats_.shared_stage_hits;
    if (it->second.transfer_id != 0) {
      if (obs::FlowTracker* flows = scheduler_.session().flows) {
        flows->link_transfer(static_cast<std::int64_t>(rt.job.pandaid),
                             it->second.transfer_id, scheduler_.now(),
                             /*shared=*/true);
      }
    }
    return;
  }
  staging_waiters_.emplace(key, StagingEntry{0, {rt.job.pandaid}});

  const dms::RseId source =
      selector_.select_source(file, site, scheduler_.now());
  if (source == dms::kNoRse) {
    // No replica anywhere: resolve immediately as a staging failure.
    scheduler_.schedule_after(0, [this, key, file] {
      auto waiters_it = staging_waiters_.find(key);
      if (waiters_it == staging_waiters_.end()) return;
      std::vector<JobId> waiters = std::move(waiters_it->second.waiters);
      staging_waiters_.erase(waiters_it);
      for (JobId id : waiters) on_stage_done(id, file, /*success=*/false);
    });
    return;
  }

  dms::TransferRequest req;
  req.file = file;
  req.size_bytes = catalog_.file(file).size_bytes;
  req.src = rses_.rse(source).site;
  req.dst = site;
  req.dst_rse = rses_.disk_at(site);
  req.activity = activity;
  req.jeditaskid = rt.job.jeditaskid;
  req.pandaid = rt.job.pandaid;
  req.on_complete = [this, key, file](const dms::TransferOutcome& outcome) {
    auto waiters_it = staging_waiters_.find(key);
    if (waiters_it == staging_waiters_.end()) return;
    std::vector<JobId> waiters = std::move(waiters_it->second.waiters);
    staging_waiters_.erase(waiters_it);
    for (JobId id : waiters) on_stage_done(id, file, outcome.success);
  };
  const std::uint64_t transfer_id = engine_.submit(std::move(req));
  if (auto entry = staging_waiters_.find(key); entry != staging_waiters_.end()) {
    entry->second.transfer_id = transfer_id;
  }
  ++stats_.stage_in_transfers;
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->link_transfer(static_cast<std::int64_t>(rt.job.pandaid),
                         transfer_id, scheduler_.now(), /*shared=*/false);
  }
}

void PandaServer::prefetch_file(const Job& job, dms::FileId file,
                                dms::Activity activity) {
  const grid::SiteId site = job.computing_site;
  const std::uint64_t key = staging_key(file, site);
  if (staging_waiters_.contains(key)) return;  // already in flight
  staging_waiters_.emplace(key, StagingEntry{});

  const dms::RseId source =
      selector_.select_source(file, site, scheduler_.now());
  if (source == dms::kNoRse) {
    staging_waiters_.erase(key);
    return;
  }

  dms::TransferRequest req;
  req.file = file;
  req.size_bytes = catalog_.file(file).size_bytes;
  req.src = rses_.rse(source).site;
  req.dst = site;
  req.dst_rse = rses_.disk_at(site);
  req.activity = activity;
  req.jeditaskid = job.jeditaskid;  // Harvester acts for the task
  req.pandaid = -1;
  req.on_complete = [this, key, file](const dms::TransferOutcome& outcome) {
    auto waiters_it = staging_waiters_.find(key);
    if (waiters_it == staging_waiters_.end()) return;
    std::vector<JobId> waiters = std::move(waiters_it->second.waiters);
    staging_waiters_.erase(waiters_it);
    // Jobs submitted after the prefetch began may have joined as waiters.
    for (JobId id : waiters) on_stage_done(id, file, outcome.success);
  };
  const std::uint64_t transfer_id = engine_.submit(std::move(req));
  if (auto entry = staging_waiters_.find(key); entry != staging_waiters_.end()) {
    entry->second.transfer_id = transfer_id;
  }
  ++stats_.prefetch_transfers;
}

void PandaServer::on_stage_done(JobId job, dms::FileId /*file*/,
                                bool success) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  JobRuntime& rt = *it->second;
  if (rt.pending_stage > 0) --rt.pending_stage;
  if (!success) rt.stage_failed = true;
  // Sequential pilot: chain the next download.  The watchdog may have
  // already released the job; the pilot keeps pulling the remaining
  // files regardless (they overlap execution — the Fig. 11 pattern).
  if (!rt.stage_queue.empty()) {
    const dms::FileId next = rt.stage_queue.front();
    rt.stage_queue.pop_front();
    request_file(rt, next, rt.stage_activity);
    return;
  }
  if (rt.pending_stage == 0 && !rt.queued_or_later) {
    rt.watchdog.cancel();
    rt.staging_completed_at = scheduler_.now();
    proceed_to_queue(rt);
  }
}

void PandaServer::proceed_to_queue(JobRuntime& rt) {
  rt.queued_or_later = true;
  rt.job.status = JobStatus::kQueued;
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("job_state", scheduler_.now(),
                         static_cast<std::int64_t>(rt.job.pandaid))
                  .field("state", "queued")
                  .field("task", rt.job.jeditaskid)
                  .field("site", rt.job.computing_site)
                  .field("attempt", rt.job.attempt)
                  .field("watchdog_release", rt.released_by_watchdog));
  }
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->queue_enter(static_cast<std::int64_t>(rt.job.pandaid),
                       scheduler_.now(), rt.released_by_watchdog);
  }
  const JobId id = rt.job.pandaid;
  queues_.request_slot(
      rt.job.computing_site,
      [this, id] {
        auto it = jobs_.find(id);
        if (it == jobs_.end()) return;
        start_execution(*it->second);
      },
      rt.job.priority);
}

void PandaServer::start_execution(JobRuntime& rt) {
  rt.job.status = JobStatus::kRunning;
  rt.job.start_time = scheduler_.now();
  emit_job_state(scheduler_, rt.job, "running");
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->run_begin(static_cast<std::int64_t>(rt.job.pandaid),
                     scheduler_.now());
  }

  // Direct IO: open the streams now; they run concurrently with the
  // payload (Table 1's "Analysis Download Direct IO" activity).  The
  // streams do not create replicas.
  for (dms::FileId f : rt.direct_io_files) {
    const dms::RseId source =
        selector_.select_source(f, rt.job.computing_site, scheduler_.now());
    if (source == dms::kNoRse) {
      rt.direct_io_failed = true;
      continue;
    }
    dms::TransferRequest req;
    req.file = f;
    req.size_bytes = catalog_.file(f).size_bytes;
    req.src = rses_.rse(source).site;
    req.dst = rt.job.computing_site;
    req.dst_rse = dms::kNoRse;
    req.activity = dms::Activity::kAnalysisDownloadDirectIO;
    req.jeditaskid = rt.job.jeditaskid;
    req.pandaid = rt.job.pandaid;
    const JobId id = rt.job.pandaid;
    req.on_complete = [this, id](const dms::TransferOutcome& outcome) {
      if (outcome.success) return;
      auto it = jobs_.find(id);
      if (it != jobs_.end()) it->second->direct_io_failed = true;
    };
    const std::uint64_t transfer_id = engine_.submit(std::move(req));
    if (obs::FlowTracker* flows = scheduler_.session().flows) {
      flows->link_transfer(static_cast<std::int64_t>(id), transfer_id,
                           scheduler_.now(), /*shared=*/false);
    }
  }

  const grid::Site& site = topology_.site(rt.job.computing_site);
  double exec_ms = static_cast<double>(rt.job.base_exec_ms) /
                   std::max(site.cpu_speed, 0.1) *
                   rng_.lognormal_median(1.0, params_.walltime_sigma);
  // Payloads with failed stage-ins abort early.
  if (rt.stage_failed) exec_ms *= 0.1;
  const JobId id = rt.job.pandaid;
  scheduler_.schedule_after(static_cast<util::SimDuration>(exec_ms),
                            [this, id] {
                              auto it = jobs_.find(id);
                              if (it == jobs_.end()) return;
                              finish_execution(*it->second);
                            });
}

void PandaServer::finish_execution(JobRuntime& rt) {
  const grid::Site& site = topology_.site(rt.job.computing_site);
  double failure_prob = site.base_failure_prob;
  std::int32_t error_code = errors::kExecutionFailure;

  if (rt.stage_failed) {
    failure_prob += params_.stage_fail_job_prob;
    error_code = errors::kStageInTimeout;
  } else if (rt.released_by_watchdog) {
    // Staging spanned into execution (Fig. 11): the payload raced its
    // own inputs; Overlay-style failures dominate this population.
    failure_prob += params_.overlay_failure_prob;
    error_code = errors::kOverlay;
  } else if (rt.direct_io_failed) {
    failure_prob += 0.5;
    error_code = errors::kOverlay;
  } else {
    // Routine failures draw a generic grid error.
    static constexpr std::int32_t kRoutine[] = {
        errors::kExecutionFailure, errors::kLostHeartbeat,
        errors::kSiteServiceError};
    error_code = kRoutine[rng_.uniform_index(3)];
  }

  // Staging-stress hazard: slow staging relative to the queue wait marks
  // a stressed storage path that also endangers the payload.
  const util::SimDuration queuing = rt.job.queuing_time();
  if (rt.staging_completed_at != util::kNever &&
      queuing > params_.stress_min_queue) {
    const double share =
        static_cast<double>(rt.staging_completed_at - rt.job.creation_time) /
        static_cast<double>(queuing);
    if (share > params_.stress_share_threshold) {
      failure_prob += params_.stress_failure_prob;
      if (error_code == errors::kExecutionFailure ||
          error_code == errors::kSiteServiceError) {
        error_code = errors::kLostHeartbeat;
      }
    }
  }

  const bool failed = rng_.bernoulli(std::min(failure_prob, 0.95));
  begin_stage_out(rt, failed, failed ? error_code : errors::kNone);
}

void PandaServer::begin_stage_out(JobRuntime& rt, bool payload_failed,
                                  std::int32_t error_code) {
  const grid::SiteId site = rt.job.computing_site;
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->stage_out_begin(static_cast<std::int64_t>(rt.job.pandaid),
                           scheduler_.now());
  }

  if (!payload_failed) {
    // Outputs land on the local RSE first; local writes are storage
    // operations, not Rucio transfer events.
    const dms::RseId local = rses_.disk_at(site);
    if (local != dms::kNoRse) {
      for (dms::FileId f : rt.job.output_files) {
        replicas_.add_replica(f, local);
      }
    }

    const double p_upload = rt.job.kind == JobKind::kUserAnalysis
                                ? params_.p_analysis_upload
                                : params_.p_production_upload;
    if (!rt.job.output_files.empty() && rng_.bernoulli(p_upload)) {
      // Export destination: a Tier-1 (production aggregation) or, for
      // analysis, any T1/T2 "home" site distinct from the computing one.
      std::vector<grid::SiteId> candidates =
          topology_.sites_of_tier(grid::Tier::kT1);
      if (rt.job.kind == JobKind::kUserAnalysis) {
        auto t2 = topology_.sites_of_tier(grid::Tier::kT2);
        candidates.insert(candidates.end(), t2.begin(), t2.end());
      }
      std::erase(candidates, site);
      if (!candidates.empty()) {
        const grid::SiteId dst =
            candidates[rng_.uniform_index(candidates.size())];
        const dms::Activity activity =
            rt.job.kind == JobKind::kUserAnalysis
                ? dms::Activity::kAnalysisUpload
                : dms::Activity::kProductionUpload;
        const JobId id = rt.job.pandaid;
        for (dms::FileId f : rt.job.output_files) {
          dms::TransferRequest req;
          req.file = f;
          req.size_bytes = catalog_.file(f).size_bytes;
          req.src = site;
          req.dst = dst;
          req.dst_rse = rses_.disk_at(dst);
          req.activity = activity;
          req.jeditaskid = rt.job.jeditaskid;
          req.pandaid = rt.job.pandaid;
          req.on_complete = [this, id](const dms::TransferOutcome& outcome) {
            auto it = jobs_.find(id);
            if (it == jobs_.end()) return;
            JobRuntime& runtime = *it->second;
            if (!outcome.success) runtime.upload_failed = true;
            if (runtime.pending_uploads > 0) --runtime.pending_uploads;
            if (runtime.pending_uploads == 0) {
              finalize_job(runtime, runtime.upload_failed,
                           runtime.upload_failed ? errors::kStageOutFailure
                                                 : errors::kNone);
            }
          };
          const std::uint64_t transfer_id = engine_.submit(std::move(req));
          if (obs::FlowTracker* flows = scheduler_.session().flows) {
            flows->link_transfer(static_cast<std::int64_t>(id), transfer_id,
                                 scheduler_.now(), /*shared=*/false);
          }
          ++rt.pending_uploads;
          ++stats_.upload_transfers;
        }
        if (rt.pending_uploads > 0) return;  // finalize after stage-out
      }
    }
  }

  // No stage-out transfers: close the record after a bookkeeping delay.
  const JobId id = rt.job.pandaid;
  scheduler_.schedule_after(
      params_.finalize_delay, [this, id, payload_failed, error_code] {
        auto it = jobs_.find(id);
        if (it == jobs_.end()) return;
        finalize_job(*it->second, payload_failed, error_code);
      });
}

void PandaServer::finalize_job(JobRuntime& rt, bool failed,
                               std::int32_t error_code) {
  rt.job.end_time = scheduler_.now();
  rt.job.status = failed ? JobStatus::kFailed : JobStatus::kFinished;
  rt.job.error_code = failed ? error_code : errors::kNone;
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("job_state", scheduler_.now(),
                         static_cast<std::int64_t>(rt.job.pandaid))
                  .field("state", failed ? "failed" : "finished")
                  .field("task", rt.job.jeditaskid)
                  .field("site", rt.job.computing_site)
                  .field("attempt", rt.job.attempt)
                  .field("error", rt.job.error_code));
  }
  if (obs::FlowTracker* flows = scheduler_.session().flows) {
    flows->end_flow(static_cast<std::int64_t>(rt.job.pandaid),
                    scheduler_.now(), failed, rt.job.error_code);
  }
  queues_.release_slot(rt.job.computing_site);

  if (failed) {
    ++stats_.failed;
  } else {
    ++stats_.finished;
  }

  // Every attempt leaves a job record, retried or not.
  if (hooks_.on_job_complete) hooks_.on_job_complete(rt.job);

  const bool retry = failed && rt.job.attempt < params_.max_job_attempts &&
                     rng_.bernoulli(params_.p_retry);
  if (retry) {
    // Resubmit as a fresh pandaid; brokerage runs again, so the retry
    // may land at a different site — "transfer-related error patterns
    // may shift when alternative sites are used" (paper §5.3).
    Job resubmit = rt.job;
    resubmit.pandaid = next_retry_id_++;
    resubmit.attempt = rt.job.attempt + 1;
    resubmit.status = JobStatus::kPending;
    resubmit.error_code = errors::kNone;
    resubmit.start_time = util::kNever;
    resubmit.end_time = util::kNever;
    ++stats_.retries;
    jobs_.erase(rt.job.pandaid);
    submit_job(std::move(resubmit));
    return;  // the task outcome rides on the retry
  }

  Task& task = tasks_.at(rt.job.jeditaskid);
  if (failed) {
    ++task.failed_jobs;
  } else {
    ++task.completed_jobs;
  }
  if (task.all_jobs_done()) {
    task.status =
        task.failed_jobs > 0 ? TaskStatus::kFailed : TaskStatus::kDone;
    if (hooks_.on_task_complete) hooks_.on_task_complete(task);
  }

  jobs_.erase(rt.job.pandaid);
}

void PandaServer::set_injector(fault::Injector& injector) {
  injector.subscribe([this](const fault::FaultWindow& window, bool begin) {
    if (begin && window.kind == fault::FaultKind::kSiteOutage) {
      on_site_outage(window.site);
    }
  });
}

void PandaServer::on_site_outage(grid::SiteId site) {
  // Running jobs at the dead site lose their pilot.  Collect ids first
  // (finalize_job mutates jobs_), sorted so the kill order — and the
  // RNG draws of the retry path — is deterministic.
  std::vector<JobId> doomed;
  for (const auto& [id, rt] : jobs_) {
    if (rt->job.computing_site == site &&
        rt->job.status == JobStatus::kRunning) {
      doomed.push_back(id);
    }
  }
  std::sort(doomed.begin(), doomed.end());
  for (JobId id : doomed) {
    // Deferred a tick: the injector's transition hook chain should not
    // reenter brokerage/transfer state mid-update.
    scheduler_.schedule_after(0, [this, id] {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) return;
      JobRuntime& rt = *it->second;
      if (rt.job.status != JobStatus::kRunning) return;
      ++stats_.site_outage_kills;
      finalize_job(rt, /*failed=*/true, errors::kSiteOutage);
    });
  }
}

}  // namespace pandarus::wms
