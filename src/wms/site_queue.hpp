// Per-site batch queues (the Harvester/pilot layer of paper §2.1).
//
// Each site exposes `cpu_slots` concurrent payload slots.  A job that has
// finished staging requests a slot; when one frees up, the pilot
// provisioning delay (exponential with the site's batch_delay_mean_ms)
// elapses before the payload actually starts.  Sites flagged as
// congested by the topology builder have 12x the delay — these produce
// the extreme local queuing times of Fig. 5.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "grid/topology.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace pandarus::wms {

class SiteQueues {
 public:
  SiteQueues(sim::Scheduler& scheduler, const grid::Topology& topology,
             util::Rng rng);

  /// Requests a payload slot at `site`; `on_start` fires once the slot is
  /// acquired and the pilot is up.  Higher `priority` requests are
  /// admitted first; equal priorities keep FIFO order.  The caller must
  /// later release the slot with release_slot(site).
  void request_slot(grid::SiteId site, std::function<void()> on_start,
                    std::int32_t priority = 0);

  /// Frees a slot, admitting the next queued request if any.
  void release_slot(grid::SiteId site);

  [[nodiscard]] std::size_t queued(grid::SiteId site) const;
  [[nodiscard]] std::size_t running(grid::SiteId site) const;

  /// Rough expected wait (ms) for a new arrival: queue depth over service
  /// capacity plus the pilot delay.  Used by load-aware brokerage.
  [[nodiscard]] double estimated_wait_ms(grid::SiteId site) const;

  /// Grid-wide totals, for the queue-depth columns of the campaign's
  /// "sample" rows.
  [[nodiscard]] std::size_t total_queued() const;
  [[nodiscard]] std::size_t total_running() const;

 private:
  struct Waiter {
    std::int32_t priority = 0;
    std::uint64_t seq = 0;  ///< FIFO tiebreak within a priority
    std::function<void()> on_start;
  };
  struct WaiterOrder {
    bool operator()(const Waiter& a, const Waiter& b) const noexcept {
      // max-heap: higher priority first, then earlier arrival.
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };
  struct SiteState {
    std::uint32_t slots = 0;
    std::uint32_t busy = 0;
    double pilot_delay_mean_ms = 0.0;
    std::priority_queue<Waiter, std::vector<Waiter>, WaiterOrder> waiting;
  };

  void admit(grid::SiteId site);

  sim::Scheduler& scheduler_;
  util::Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::vector<SiteState> sites_;
};

}  // namespace pandarus::wms
