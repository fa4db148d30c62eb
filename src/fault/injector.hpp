// Arms a fault::Plan onto the discrete-event scheduler and answers
// point-in-time "is this piece of infrastructure healthy?" queries.
//
// Each window becomes two scheduler events (begin, end), so fault
// activations interleave with the rest of the simulation in the same
// deterministic (time, insertion-sequence) order as everything else —
// a faulted campaign replays bit-for-bit from its seed and plan.
//
// Consumers either poll the queries (the transfer engine checks
// link_blocked() before admitting work) or subscribe() to transitions
// (the engine aborts in-flight attempts on a blacked-out link; the
// PanDA server fails jobs whose computing site died).  State is updated
// *before* subscribers run, so a hook observing the injector sees the
// post-transition world.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "sim/scheduler.hpp"

namespace pandarus::fault {

class Injector {
 public:
  explicit Injector(sim::Scheduler& scheduler);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Schedules begin/end events for every window of the plan.  Call once
  /// before the campaign runs; additional calls append further windows.
  void arm(const Plan& plan);

  /// Registers a transition hook, called at each window begin
  /// (`active == true`) and end (`active == false`).
  using TransitionHook = std::function<void(const FaultWindow&, bool active)>;
  void subscribe(TransitionHook hook);

  /// --- point-in-time queries -----------------------------------------
  [[nodiscard]] bool site_down(grid::SiteId site) const;
  /// Replica registration at the site fails (storage outage or full
  /// site outage).
  [[nodiscard]] bool storage_down(grid::SiteId site) const;
  /// The link admits no transfers: an active blackout, or either
  /// endpoint inside a site outage.
  [[nodiscard]] bool link_blocked(grid::SiteId src, grid::SiteId dst) const;
  /// Product of active brownout factors on the link (1.0 when healthy).
  [[nodiscard]] double link_capacity_factor(grid::SiteId src,
                                            grid::SiteId dst) const;
  /// Additive abort-probability boost from active service brownouts.
  [[nodiscard]] double abort_boost() const noexcept { return abort_boost_; }
  /// Latest end time of the windows currently blocking the link — the
  /// earliest instant the blockage can lift.  now() when not blocked.
  [[nodiscard]] util::SimTime blocked_until(grid::SiteId src,
                                            grid::SiteId dst) const;

  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_.size();
  }

  struct Stats {
    std::uint64_t armed = 0;
    std::uint64_t begun = 0;
    std::uint64_t ended = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void transition(std::size_t index, bool begin);
  void emit_event(const FaultWindow& window, std::size_t index,
                  bool begin) const;

  sim::Scheduler& scheduler_;
  std::vector<FaultWindow> windows_;
  std::vector<std::size_t> active_;  ///< indices into windows_
  /// Multiplicity counters so overlapping windows compose correctly.
  std::unordered_map<grid::SiteId, int> down_sites_;
  std::unordered_map<grid::SiteId, int> storage_down_;
  std::unordered_map<grid::LinkKey, int, grid::LinkKeyHash> blacked_links_;
  double abort_boost_ = 0.0;
  Stats stats_;
  std::vector<TransitionHook> hooks_;
};

}  // namespace pandarus::fault
