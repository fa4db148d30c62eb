// The PanDA server: global job orchestration (paper §2.1).
//
// Lifecycle of a job, matching the phases the paper measures:
//
//   creation ──► brokerage ──► staging ──► site queue ──► running ──► done
//   |<──────────────── queuing time ────────────────►|<─ wall time ─►|
//
// * Brokerage picks the computing site (data-locality by default).
// * Staging: missing input files are transferred to the site's DISK RSE
//   via the DMS.  Staging is *shared*: if another job already requested
//   the same file to the same site, the new job waits on the in-flight
//   transfer instead of duplicating it — which is exactly why a single
//   job's matched transfer set rarely sums to its ninputfilebytes and
//   the paper's exact matching only links 0.82% of jobs.
// * A staging watchdog releases the job to the batch queue after
//   `stage_timeout` even if transfers are still running; such transfers
//   span queuing *and* execution, reproducing the anomalous pattern of
//   Fig. 11 (and its elevated "Overlay" failures).
// * Direct-IO jobs skip pre-staging; their transfers start with the
//   payload and overlap execution (the "Analysis Download Direct IO"
//   activity of Table 1).
// * Output handling: outputs are registered at the local RSE; a subset
//   of jobs additionally exports outputs via an Upload transfer, and the
//   job's end time is recorded *after* stage-out completes — the reason
//   Analysis Upload transfers match at 95% in Table 1.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "dms/rule.hpp"
#include "dms/selector.hpp"
#include "dms/transfer.hpp"
#include "fault/injector.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "wms/brokerage.hpp"
#include "wms/job.hpp"
#include "wms/site_queue.hpp"

namespace pandarus::wms {

class PandaServer {
 public:
  struct Params {
    /// Fraction of user-analysis jobs reading inputs via direct IO.
    /// Direct-IO jobs emit one stream event per input file, so the
    /// Table 1 Direct-IO : Download event ratio (~3:1) emerges from this
    /// together with the staging-miss rate.
    double p_direct_io = 0.25;
    /// Probability an analysis job exports its outputs off-site.
    double p_analysis_upload = 0.01;
    /// Probability a production job uploads outputs to a Tier-1.
    double p_production_upload = 0.95;
    /// Harvester stages at *dataset* granularity: the first job of a
    /// task needing a dataset at a site triggers transfers for every
    /// missing file of that dataset there (tagged with the task's
    /// jeditaskid), not just the job's own chunk.  When a task spreads
    /// over several sites, sibling staging of the same files elsewhere
    /// pollutes each job's byte-sum gate — the main reason the paper's
    /// exact matching links only 8.38% of Analysis Download events
    /// while RM1 recovers them (Table 1 / Table 2).
    bool dataset_level_staging = true;
    /// Staging watchdog: release the job to the batch queue after this
    /// long even if stage-in transfers are still running.
    util::SimDuration stage_timeout = util::minutes(20);
    /// Extra failure probability when staging dragged into execution.
    double overlay_failure_prob = 0.6;
    /// Failure probability when a stage-in transfer terminally failed.
    double stage_fail_job_prob = 0.75;
    /// Failed jobs are resubmitted (new pandaid, fresh brokerage) with
    /// this probability, up to max_job_attempts total attempts.  The
    /// failed attempt still leaves a job record — PanDA's job table
    /// keeps every attempt — which is how "job failed within a
    /// successful task" (Fig. 9) arises.
    double p_retry = 0.6;
    std::uint32_t max_job_attempts = 2;
  };

  /// Completion hooks; both fire at job/task terminal states.
  struct Hooks {
    std::function<void(const Job&)> on_job_complete;
    std::function<void(const Task&)> on_task_complete;
  };

  PandaServer(sim::Scheduler& scheduler, const grid::Topology& topology,
              const dms::FileCatalog& catalog, dms::ReplicaCatalog& replicas,
              const dms::RseRegistry& rses, dms::TransferEngine& engine,
              const Brokerage& brokerage, SiteQueues& queues, util::Rng rng,
              Params params, Hooks hooks);

  PandaServer(const PandaServer&) = delete;
  PandaServer& operator=(const PandaServer&) = delete;
  ~PandaServer();

  /// Registers a task; its jobs are submitted separately.
  void submit_task(Task task);

  /// Submits a job (creation time = now).  The task must already exist.
  void submit_job(Job job);

  /// Subscribes to site-outage fault windows: jobs running at a site
  /// when it goes down are failed with errors::kSiteOutage (and retried
  /// through the normal resubmission path).
  void set_injector(fault::Injector& injector);

  [[nodiscard]] const Task& task(TaskId id) const { return tasks_.at(id); }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t finished = 0;
    std::uint64_t failed = 0;
    std::uint64_t stage_in_transfers = 0;
    std::uint64_t prefetch_transfers = 0;
    std::uint64_t shared_stage_hits = 0;
    std::uint64_t stage_timeouts = 0;
    std::uint64_t upload_transfers = 0;
    std::uint64_t retries = 0;
    std::uint64_t site_outage_kills = 0;  ///< running jobs killed by outages
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct JobRuntime;
  struct StagingKeyHash;

  void begin_staging(JobRuntime& rt);
  void request_file(JobRuntime& rt, dms::FileId file, dms::Activity activity);
  /// Task-level prefetch: submits a transfer through the shared-staging
  /// ledger without registering the job as a waiter.
  void prefetch_file(const Job& job, dms::FileId file, dms::Activity activity);
  void on_stage_done(JobId job, dms::FileId file, bool success);
  void proceed_to_queue(JobRuntime& rt);
  void start_execution(JobRuntime& rt);
  void finish_execution(JobRuntime& rt);
  void begin_stage_out(JobRuntime& rt, bool payload_failed,
                       std::int32_t error_code);
  void finalize_job(JobRuntime& rt, bool failed, std::int32_t error_code);
  void on_site_outage(grid::SiteId site);

  sim::Scheduler& scheduler_;
  const grid::Topology& topology_;
  const dms::FileCatalog& catalog_;
  dms::ReplicaCatalog& replicas_;
  const dms::RseRegistry& rses_;
  dms::TransferEngine& engine_;
  const Brokerage& brokerage_;
  SiteQueues& queues_;
  dms::ReplicaSelector selector_;
  util::Rng rng_;
  Params params_;
  Hooks hooks_;
  Stats stats_;

  std::unordered_map<TaskId, Task> tasks_;
  std::unordered_map<JobId, std::unique_ptr<JobRuntime>> jobs_;
  /// pandaid space for resubmitted attempts, disjoint from the
  /// workload generator's ids.
  JobId next_retry_id_ = 9'000'000'000;

  /// Shared staging ledger: (file, site) -> the in-flight transfer and
  /// the jobs waiting on it.  The transfer id lets a late joiner link
  /// its causal flow to the transfer another job (or a task prefetch)
  /// already started; 0 means no transfer exists (no-replica failures
  /// resolve through the ledger without one).
  struct StagingEntry {
    std::uint64_t transfer_id = 0;
    std::vector<JobId> waiters;
  };
  std::unordered_map<std::uint64_t, StagingEntry> staging_waiters_;
};

}  // namespace pandarus::wms
