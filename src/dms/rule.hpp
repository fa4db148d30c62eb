// Replication rules and the rule engine (paper §2.2): declarative
// statements of where data must exist; Rucio transfers missing replicas
// automatically.  The engine also drives the "Data Carousel" style tape
// staging that dominates the local volume on the Fig. 3 diagonal.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "dms/catalog.hpp"
#include "dms/selector.hpp"
#include "dms/transfer.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace pandarus::dms {

struct ReplicationRule {
  DatasetId dataset = kNoDataset;
  std::uint32_t copies = 2;          ///< required DISK replicas per file
  grid::Tier target_tier = grid::Tier::kT1;
};

class RuleEngine {
 public:
  struct Params {
    /// Ceiling on transfers submitted per evaluation pass, so one pass
    /// cannot flood the transfer engine.
    std::uint32_t max_transfers_per_pass = 2'000;
  };

  struct Stats {
    std::uint64_t passes = 0;
    std::uint64_t transfers_submitted = 0;
    std::uint64_t staged_from_tape = 0;
  };

  RuleEngine(sim::Scheduler& scheduler, const grid::Topology& topology,
             const FileCatalog& catalog, ReplicaCatalog& replicas,
             const RseRegistry& rses, TransferEngine& engine,
             util::Rng rng, Params params);
  RuleEngine(sim::Scheduler& scheduler, const grid::Topology& topology,
             const FileCatalog& catalog, ReplicaCatalog& replicas,
             const RseRegistry& rses, TransferEngine& engine, util::Rng rng);

  void add_rule(ReplicationRule rule) { rules_.push_back(rule); }

  /// One evaluation pass: submit rebalance transfers (no task provenance)
  /// for every file whose rule is under-satisfied, up to the per-pass cap.
  /// Returns the number of transfers submitted.
  std::uint32_t evaluate_once();

  /// Schedules evaluate_once() every 30 simulated minutes until `until`.
  void start_periodic(util::SimTime until);

  /// Stages every file of `dataset` from the site's TAPE RSE to its DISK
  /// RSE (local transfers).  Files without a tape copy at the site are
  /// skipped.  Returns the number of transfers submitted.
  std::uint32_t stage_from_tape(DatasetId dataset, grid::SiteId site);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  sim::Scheduler& scheduler_;
  const grid::Topology& topology_;
  const FileCatalog& catalog_;
  ReplicaCatalog& replicas_;
  const RseRegistry& rses_;
  TransferEngine& engine_;
  ReplicaSelector selector_;
  util::Rng rng_;
  Params params_;
  Stats stats_;
  std::vector<ReplicationRule> rules_;
  std::size_t next_rule_ = 0;  ///< round-robin cursor across passes
};

}  // namespace pandarus::dms
