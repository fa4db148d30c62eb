// Workload generation: the task/job population of an ATLAS-like campaign.
//
// User-analysis tasks (the paper's 966,453-job study population) and
// production tasks arrive as Poisson processes.  Each task reads one or
// two input datasets chosen by a Zipf popularity law — the skew is what
// concentrates load on the sites hosting hot data under data-locality
// brokerage (§3.1).  Jobs of a task sample overlapping file subsets, so
// concurrently submitted jobs share staging transfers.
#pragma once

#include <cstdint>
#include <vector>

#include "dms/catalog.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "wms/panda_server.hpp"

namespace pandarus::wms {

/// The workload settings a caller varies; the rest of the campaign's
/// shape (file sizes, replica counts, Zipf skew, per-task and per-job
/// draws) is constants in workload.cpp.
struct WorkloadParams {
  // -- catalog bootstrap --------------------------------------------------
  std::uint32_t n_input_datasets = 400;
  /// The coldest `cold_fraction` of datasets (by Zipf rank) are
  /// tape-eligible; of those, `tape_only_fraction` live on tape only,
  /// with no permanent disk replica: jobs touching them must stage,
  /// producing the Analysis/Production Download populations of Table 1.
  double cold_fraction = 0.6;
  double tape_only_fraction = 0.75;

  // -- arrivals -------------------------------------------------------------
  double user_tasks_per_day = 250.0;
  double prod_tasks_per_day = 50.0;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(sim::Scheduler& scheduler, const grid::Topology& topology,
                    dms::FileCatalog& catalog, dms::ReplicaCatalog& replicas,
                    const dms::RseRegistry& rses, PandaServer& server,
                    util::Rng rng, WorkloadParams params);

  /// Creates the input datasets, their files, initial disk replicas and
  /// tape copies.  Must run before start().
  void bootstrap_catalog();

  /// Schedules Poisson task arrivals on [now, until).
  void start(util::SimTime until);

  struct Stats {
    std::uint64_t user_tasks = 0;
    std::uint64_t prod_tasks = 0;
    std::uint64_t user_jobs = 0;
    std::uint64_t prod_jobs = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<dms::DatasetId>& input_datasets()
      const noexcept {
    return input_datasets_;
  }
  /// Datasets with a tape archive and the site holding it — the Data
  /// Carousel staging population.
  [[nodiscard]] const std::vector<std::pair<dms::DatasetId, grid::SiteId>>&
  tape_archives() const noexcept {
    return tape_archives_;
  }
  /// Cold datasets whose only permanent copy is on tape; disk replicas
  /// of these are transient (carousel staging + lifetime eviction).
  [[nodiscard]] const std::vector<dms::DatasetId>& tape_only_datasets()
      const noexcept {
    return tape_only_datasets_;
  }

 private:
  void schedule_next_arrival(JobKind kind, util::SimTime until);
  void spawn_task(JobKind kind, util::SimTime until);
  dms::DatasetId pick_dataset();

  sim::Scheduler& scheduler_;
  const grid::Topology& topology_;
  dms::FileCatalog& catalog_;
  dms::ReplicaCatalog& replicas_;
  const dms::RseRegistry& rses_;
  PandaServer& server_;
  util::Rng rng_;
  WorkloadParams params_;
  Stats stats_;

  std::vector<dms::DatasetId> input_datasets_;
  std::vector<std::pair<dms::DatasetId, grid::SiteId>> tape_archives_;
  std::vector<dms::DatasetId> tape_only_datasets_;
  std::vector<double> popularity_;  ///< Zipf weights over input_datasets_
  TaskId next_task_id_ = 100'000'000;
  JobId next_panda_id_ = 6'580'000'000;
  std::uint32_t next_output_dataset_ = 0;
};

}  // namespace pandarus::wms
