// Deletion daemon: Rucio's replica-lifetime enforcement (paper §2.2:
// rules protect replicas from deletion "until all rules expire").
//
// Transient disk replicas of registered datasets expire memorylessly:
// each sweep, every transient dataset's disk copies are removed with
// `expiry_prob`.  Cold data thereby goes cold again after carousel
// staging or job-driven staging, sustaining the re-staging traffic that
// the paper's Download populations and redundant-transfer findings live
// on.  Tape copies are never deleted (they are the archival tier).
#pragma once

#include <cstdint>
#include <vector>

#include "dms/catalog.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace pandarus::dms {

class DeletionDaemon {
 public:
  struct Params {
    util::SimDuration sweep_interval = util::hours(3);
    /// Per-sweep probability that a transient dataset's disk replicas
    /// expire (memoryless lifetime with mean sweep_interval/prob).
    double expiry_prob = 0.6;
  };

  struct Stats {
    std::uint64_t sweeps = 0;
    std::uint64_t datasets_expired = 0;
    std::uint64_t replicas_deleted = 0;
    std::uint64_t bytes_deleted = 0;
  };

  DeletionDaemon(sim::Scheduler& scheduler, const FileCatalog& catalog,
                 ReplicaCatalog& replicas, const RseRegistry& rses,
                 util::Rng rng, Params params);

  /// Marks a dataset's disk replicas as transient (lifetime-managed).
  void add_transient(DatasetId dataset) { transient_.push_back(dataset); }

  /// One sweep: expire a random subset of transient datasets.  Returns
  /// the number of datasets expired.
  std::uint32_t sweep_once();

  /// Schedules sweeps every sweep_interval until `until`.
  void start(util::SimTime until);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  sim::Scheduler& scheduler_;
  const FileCatalog& catalog_;
  ReplicaCatalog& replicas_;
  const RseRegistry& rses_;
  util::Rng rng_;
  Params params_;
  Stats stats_;
  std::vector<DatasetId> transient_;
};

}  // namespace pandarus::dms
