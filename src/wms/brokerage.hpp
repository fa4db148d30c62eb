// Brokerage: assigning jobs to sites (paper §2.1, §3.1).
//
// PanDA's production heuristic is *data locality*: "in principle, it
// assigns computing jobs to the site that already hosts the required
// input data".  The paper's central observation is that this heuristic,
// locally optimal for the network, can overload individual sites and
// shift failures to the compute layer.  Two alternative policies are
// provided for the co-optimization ablation (bench_ablation_brokerage):
// a purely load-aware policy and a hybrid that trades resident bytes
// against expected queue wait.
#pragma once

#include <cstdint>

#include "dms/catalog.hpp"
#include "fault/injector.hpp"
#include "grid/topology.hpp"
#include "util/rng.hpp"
#include "wms/job.hpp"
#include "wms/site_queue.hpp"

namespace pandarus::wms {

enum class BrokeragePolicy : std::uint8_t {
  kDataLocality = 0,  ///< maximize input bytes already on disk at the site
  kLoadAware = 1,     ///< minimize expected queue wait
  kHybrid = 2,        ///< locality score discounted by load
};

[[nodiscard]] const char* policy_name(BrokeragePolicy policy) noexcept;

class Brokerage {
 public:
  struct Params {
    BrokeragePolicy policy = BrokeragePolicy::kDataLocality;
    /// Hybrid: ms of expected wait equivalent to one GB of locality.
    double wait_per_gb_ms = 2'000.0;
    /// Weight of tape-only copies in the locality score (the job must
    /// stage them locally, so they are worth less than disk bytes).
    double tape_locality_weight = 0.4;
    /// Production jobs only run at T0/T1/T2 sites.
    bool production_excludes_t3 = true;
  };

  Brokerage(const grid::Topology& topology, const dms::FileCatalog& catalog,
            const dms::ReplicaCatalog& replicas, Params params);

  /// Chooses the computing site for `job` given current queue state.
  /// Ties (e.g. no input data anywhere) break toward bigger, less busy
  /// sites with deterministic randomness from `rng`.  `flows` (the
  /// caller's session tracker, may be null) learns how many candidate
  /// sites were scored.
  [[nodiscard]] grid::SiteId choose_site(
      const Job& job, const SiteQueues& queues, util::Rng& rng,
      obs::FlowTracker* flows = nullptr) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Sites inside an outage fault window are skipped during selection.
  /// If *every* eligible site is down, brokerage falls back to ignoring
  /// outages (the job will queue and fail like it would in production).
  void set_injector(const fault::Injector& injector) noexcept {
    injector_ = &injector;
  }

 private:
  [[nodiscard]] bool eligible(const grid::Site& site, const Job& job) const;
  /// `scored` (optional) receives the number of candidate sites scored.
  [[nodiscard]] grid::SiteId pick(const Job& job, const SiteQueues& queues,
                                  util::Rng& rng, bool skip_down_sites,
                                  std::int64_t* scored = nullptr) const;
  /// Locality score in bytes: disk replicas at full weight, tape-only
  /// residency discounted by tape_locality_weight.
  [[nodiscard]] double locality_bytes(const Job& job, grid::SiteId site) const;

  const grid::Topology* topology_;
  const dms::FileCatalog* catalog_;
  const dms::ReplicaCatalog* replicas_;
  Params params_;
  const fault::Injector* injector_ = nullptr;
};

}  // namespace pandarus::wms
