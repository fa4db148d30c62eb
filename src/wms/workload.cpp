#include "wms/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace pandarus::wms {
namespace {

// -- catalog bootstrap ----------------------------------------------------
constexpr std::uint32_t kFilesPerDatasetMin = 4;
constexpr std::uint32_t kFilesPerDatasetMax = 40;
/// Bytes; heavy-tailed (Fig. 10: 2-5 GB).
constexpr double kFileSizeMedian = 2.5e9;
constexpr double kFileSizeSigma = 0.8;
/// Initial DISK replicas per dataset (all files at the same sites).
constexpr std::uint32_t kMinDiskReplicas = 1;
constexpr std::uint32_t kMaxDiskReplicas = 3;
/// Fraction of datasets that also have a TAPE copy at a T0/T1 site
/// (the Data Carousel population).  Tape placement is biased toward
/// Tier-0, which is why the biggest staging diagonals sit there.
constexpr double kTapeFraction = 0.5;
/// Zipf exponent for dataset popularity.
constexpr double kZipfS = 1.1;

// -- arrivals ---------------------------------------------------------------
constexpr double kUserJobsPerTaskMedian = 10.0;
constexpr double kUserJobsPerTaskSigma = 1.0;
constexpr std::uint32_t kMaxJobsPerTask = 400;
constexpr double kProdJobsPerTaskMedian = 20.0;
constexpr double kProdJobsPerTaskSigma = 0.8;
/// Mean gap between successive job submissions within one task.
constexpr util::SimDuration kJobStaggerMean = util::minutes(2);
/// Batch priorities: production holds a fixed elevated share; each
/// user task draws uniformly from [kUserPriorityMin, kUserPriorityMax].
constexpr std::int32_t kProductionPriority = 500;
constexpr std::int32_t kUserPriorityMin = 100;
constexpr std::int32_t kUserPriorityMax = 900;

// -- per-job shape ----------------------------------------------------------
constexpr std::uint32_t kFilesPerJobMin = 1;
constexpr std::uint32_t kFilesPerJobMax = 6;
constexpr std::uint32_t kOutputsPerAnalysisJob = 1;
constexpr std::uint32_t kOutputsPerProdJob = 3;
constexpr double kOutputSizeMedian = 400e6;
constexpr double kOutputSizeSigma = 0.8;
/// Execution time: lognormal base plus input-proportional term.
constexpr double kExecMedianMs = 12.0 * 60.0 * 1000.0;
constexpr double kExecSigma = 0.9;
constexpr double kExecBytesPerMs = 30e3;  ///< 30 MB/s nominal processing rate

}  // namespace

WorkloadGenerator::WorkloadGenerator(
    sim::Scheduler& scheduler, const grid::Topology& topology,
    dms::FileCatalog& catalog, dms::ReplicaCatalog& replicas,
    const dms::RseRegistry& rses, PandaServer& server, util::Rng rng,
    WorkloadParams params)
    : scheduler_(scheduler),
      topology_(topology),
      catalog_(catalog),
      replicas_(replicas),
      rses_(rses),
      server_(server),
      rng_(rng),
      params_(params) {}

void WorkloadGenerator::bootstrap_catalog() {
  // Sites eligible to host initial replicas, weighted by storage size so
  // T0/T1 hold most data (as on the real grid).
  std::vector<grid::SiteId> hosts;
  std::vector<double> host_weights;
  for (const grid::Site& s : topology_.sites()) {
    if (rses_.disk_at(s.id) == dms::kNoRse) continue;
    hosts.push_back(s.id);
    host_weights.push_back(static_cast<double>(s.storage_bytes));
  }

  // Tape hosts, heavily biased toward Tier-0 (CERN castor/CTA holds the
  // master archive) so the biggest carousel diagonals land there.
  // Tier-1s with single-stream storage frontends get extra weight: their
  // constrained tape systems hold a disproportionate share of archives
  // relative to their disk, which is how the sequential-staging jobs of
  // Fig. 10 arise.
  std::vector<grid::SiteId> tape_sites;
  std::vector<double> tape_weights;
  for (const grid::Site& s : topology_.sites()) {
    if (rses_.tape_at(s.id) == dms::kNoRse) continue;
    tape_sites.push_back(s.id);
    tape_weights.push_back(s.tier == grid::Tier::kT0      ? 8.0
                           : s.max_parallel_streams == 1 ? 3.0
                                                         : 1.0);
  }

  char name[80];
  for (std::uint32_t d = 0; d < params_.n_input_datasets; ++d) {
    std::snprintf(name, sizeof name,
                  "mc23_13p6TeV.%08u.PhPy8EG.DAOD_PHYS.e%04u", 410'000 + d,
                  8'000 + d % 100);
    const dms::DatasetId ds =
        catalog_.create_dataset("mc23_13p6TeV", name);
    const auto n_files = static_cast<std::uint32_t>(rng_.uniform_int(
        kFilesPerDatasetMin, kFilesPerDatasetMax));
    for (std::uint32_t f = 0; f < n_files; ++f) {
      const auto size = static_cast<std::uint64_t>(rng_.lognormal_median(
          kFileSizeMedian, kFileSizeSigma));
      catalog_.add_file(ds, std::max<std::uint64_t>(size, 1'000'000));
    }

    // Cold datasets (unpopular by Zipf rank == creation order) may live
    // on tape only; everything else gets 1..max disk replicas.
    const bool cold =
        d >= static_cast<std::uint32_t>(
                 static_cast<double>(params_.n_input_datasets) *
                 (1.0 - params_.cold_fraction));
    const bool tape_only = cold && !tape_sites.empty() &&
                           rng_.bernoulli(params_.tape_only_fraction);

    if (!tape_only) {
      const auto copies = static_cast<std::uint32_t>(rng_.uniform_int(
          kMinDiskReplicas, kMaxDiskReplicas));
      // Sample without replacement: remove each chosen host from a local
      // copy (weights of zero-storage sites are floored so every disk
      // host remains selectable).
      std::vector<grid::SiteId> pool = hosts;
      std::vector<double> pool_weights = host_weights;
      for (double& w : pool_weights) w = std::max(w, 1.0);
      for (std::uint32_t c = 0; c < copies && !pool.empty(); ++c) {
        const std::size_t pick = rng_.weighted_index(pool_weights);
        const grid::SiteId site = pool[pick];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        pool_weights.erase(pool_weights.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        const dms::RseId rse = rses_.disk_at(site);
        for (dms::FileId f : catalog_.files_of(ds)) {
          replicas_.add_replica(f, rse);
        }
      }
    }

    // Tape archive copy (Data Carousel source); mandatory for tape-only
    // datasets.
    if (!tape_sites.empty() &&
        (tape_only || rng_.bernoulli(kTapeFraction))) {
      const grid::SiteId site = tape_sites[rng_.weighted_index(tape_weights)];
      const dms::RseId tape = rses_.tape_at(site);
      for (dms::FileId f : catalog_.files_of(ds)) {
        replicas_.add_replica(f, tape);
      }
      tape_archives_.emplace_back(ds, site);
    }
    if (tape_only) tape_only_datasets_.push_back(ds);

    input_datasets_.push_back(ds);
  }

  // Zipf popularity over datasets: weight(rank k) = 1 / k^s.
  popularity_.resize(input_datasets_.size());
  for (std::size_t k = 0; k < popularity_.size(); ++k) {
    popularity_[k] =
        1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
  }
}

void WorkloadGenerator::start(util::SimTime until) {
  schedule_next_arrival(JobKind::kUserAnalysis, until);
  schedule_next_arrival(JobKind::kProduction, until);
}

void WorkloadGenerator::schedule_next_arrival(JobKind kind,
                                              util::SimTime until) {
  const double per_day = kind == JobKind::kUserAnalysis
                             ? params_.user_tasks_per_day
                             : params_.prod_tasks_per_day;
  if (per_day <= 0.0) return;
  const double mean_gap_ms = 24.0 * 3600.0 * 1000.0 / per_day;
  const auto gap =
      static_cast<util::SimDuration>(rng_.exponential(mean_gap_ms));
  const util::SimTime at = scheduler_.now() + gap;
  if (at >= until) return;
  scheduler_.schedule_at(at, [this, kind, until] {
    spawn_task(kind, until);
    schedule_next_arrival(kind, until);
  });
}

dms::DatasetId WorkloadGenerator::pick_dataset() {
  return input_datasets_[rng_.weighted_index(popularity_)];
}

void WorkloadGenerator::spawn_task(JobKind kind, util::SimTime until) {
  const bool user = kind == JobKind::kUserAnalysis;
  Task task;
  task.jeditaskid = next_task_id_++;
  task.kind = kind;
  char buf[64];
  std::snprintf(buf, sizeof buf, user ? "user.aphys%03u" : "prodsys",
                static_cast<unsigned>(rng_.uniform_int(0, 199)));
  task.user = buf;

  // One or two input datasets, Zipf-popular.
  task.input_datasets.push_back(pick_dataset());
  if (rng_.bernoulli(0.3)) {
    const dms::DatasetId second = pick_dataset();
    if (second != task.input_datasets.front()) {
      task.input_datasets.push_back(second);
    }
  }

  // Output dataset for the whole task.
  std::snprintf(buf, sizeof buf, "%s.%09u.out.%08u",
                user ? "user" : "mc23_prod", next_output_dataset_++,
                static_cast<unsigned>(task.jeditaskid % 100'000'000));
  task.output_dataset =
      catalog_.create_dataset(user ? "user" : "mc23_prod", buf);

  // Production runs at a fixed elevated share; user tasks draw a
  // per-task priority so heavy users do not starve light ones.
  const std::int32_t task_priority =
      user ? static_cast<std::int32_t>(rng_.uniform_int(
                 kUserPriorityMin, kUserPriorityMax))
           : kProductionPriority;

  const double jobs_median =
      user ? kUserJobsPerTaskMedian : kProdJobsPerTaskMedian;
  const double jobs_sigma =
      user ? kUserJobsPerTaskSigma : kProdJobsPerTaskSigma;
  const auto n_jobs = static_cast<std::uint32_t>(
      std::clamp(rng_.lognormal_median(jobs_median, jobs_sigma), 1.0,
                 static_cast<double>(kMaxJobsPerTask)));

  // Jobs arrive staggered; submissions falling outside the window are
  // dropped, and total_jobs reflects only the jobs actually submitted so
  // the task reaches a terminal state before the campaign ends.
  std::vector<std::pair<util::SimTime, Job>> scheduled;
  util::SimTime at = scheduler_.now();
  for (std::uint32_t j = 0; j < n_jobs; ++j) {
    Job job;
    job.pandaid = next_panda_id_++;
    job.jeditaskid = task.jeditaskid;
    job.kind = kind;
    job.priority = task_priority;

    // Input files: contiguous disjoint chunks of the dataset, as JEDI's
    // job splitting produces (each job processes distinct files; chunks
    // only wrap and overlap once a task outgrows its dataset).
    const auto want = static_cast<std::uint32_t>(rng_.uniform_int(
        kFilesPerJobMin, kFilesPerJobMax));
    std::unordered_set<dms::FileId> inputs;
    const dms::DatasetId ds =
        task.input_datasets[j % task.input_datasets.size()];
    const auto files = catalog_.files_of(ds);
    if (!files.empty()) {
      const std::size_t start =
          (static_cast<std::size_t>(j) * want) % files.size();
      for (std::uint32_t k = 0; k < want; ++k) {
        inputs.insert(files[(start + k) % files.size()]);
      }
    }
    job.input_files.assign(inputs.begin(), inputs.end());
    std::sort(job.input_files.begin(), job.input_files.end());
    for (dms::FileId f : job.input_files) {
      job.ninputfilebytes += catalog_.file(f).size_bytes;
    }

    // Output files are registered in the catalog up front; replicas
    // appear when the job completes.
    const std::uint32_t n_out =
        user ? kOutputsPerAnalysisJob : kOutputsPerProdJob;
    for (std::uint32_t k = 0; k < n_out; ++k) {
      const auto size = static_cast<std::uint64_t>(rng_.lognormal_median(
          kOutputSizeMedian, kOutputSizeSigma));
      const dms::FileId f = catalog_.add_file(
          task.output_dataset, std::max<std::uint64_t>(size, 100'000));
      job.output_files.push_back(f);
      job.noutputfilebytes += catalog_.file(f).size_bytes;
    }

    job.base_exec_ms = static_cast<util::SimDuration>(
        rng_.lognormal_median(kExecMedianMs, kExecSigma) +
        static_cast<double>(job.ninputfilebytes) / kExecBytesPerMs);

    at += static_cast<util::SimDuration>(
        rng_.exponential(static_cast<double>(kJobStaggerMean)));
    if (at >= until) break;
    scheduled.emplace_back(at, std::move(job));
  }

  if (scheduled.empty()) return;
  task.total_jobs = static_cast<std::uint32_t>(scheduled.size());
  if (user) {
    ++stats_.user_tasks;
    stats_.user_jobs += task.total_jobs;
  } else {
    ++stats_.prod_tasks;
    stats_.prod_jobs += task.total_jobs;
  }
  server_.submit_task(task);
  for (auto& [when, job] : scheduled) {
    scheduler_.schedule_at(when, [this, j = std::move(job)]() mutable {
      server_.submit_job(std::move(j));
    });
  }
}

}  // namespace pandarus::wms
