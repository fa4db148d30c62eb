#include "fault/injector.hpp"

#include <algorithm>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace pandarus::fault {
namespace {

struct InjectorMetrics {
  obs::Counter& begun = obs::Registry::global().counter(
      "pandarus_fault_windows_total", "Fault windows that began");
  obs::Gauge& active = obs::Registry::global().gauge(
      "pandarus_fault_windows_active", "Fault windows currently active");

  static InjectorMetrics& get() {
    static InjectorMetrics metrics;
    return metrics;
  }
};

/// A site outage at either endpoint, or a blackout of the link itself.
bool blocks_link(const FaultWindow& w, grid::SiteId src, grid::SiteId dst) {
  return (w.kind == FaultKind::kSiteOutage &&
          (w.site == src || w.site == dst)) ||
         (w.kind == FaultKind::kLinkBlackout && w.link.src == src &&
          w.link.dst == dst);
}

}  // namespace

Injector::Injector(sim::Scheduler& scheduler) : scheduler_(scheduler) {}

void Injector::arm(const Plan& plan) {
  for (const FaultWindow& window : plan.windows) {
    if (window.end <= window.begin) continue;
    const std::size_t index = windows_.size();
    windows_.push_back(window);
    ++stats_.armed;
    scheduler_.schedule_at(window.begin,
                           [this, index] { transition(index, true); });
    scheduler_.schedule_at(window.end,
                           [this, index] { transition(index, false); });
  }
}

void Injector::subscribe(TransitionHook hook) {
  hooks_.push_back(std::move(hook));
}

void Injector::transition(std::size_t index, bool begin) {
  const FaultWindow& window = windows_[index];
  if (window.kind == FaultKind::kServiceBrownout) {
    const double delta = begin ? window.abort_boost : -window.abort_boost;
    abort_boost_ = std::max(0.0, abort_boost_ + delta);
  }
  if (begin) {
    active_.push_back(index);
    ++stats_.begun;
    InjectorMetrics::get().begun.inc();
    InjectorMetrics::get().active.add(1);
    auto warn = util::log_warning();
    warn << "fault window begins: " << kind_name(window.kind);
    switch (window.kind) {
      case FaultKind::kSiteOutage:
      case FaultKind::kStorageOutage:
        warn << " site=" << window.site;
        break;
      case FaultKind::kLinkBlackout:
      case FaultKind::kLinkBrownout:
        warn << " link=" << window.link.src << "->" << window.link.dst;
        break;
      case FaultKind::kServiceBrownout:
        warn << " abort_boost=" << window.abort_boost;
        break;
    }
    warn << " until t=" << window.end;
  } else {
    active_.erase(std::remove(active_.begin(), active_.end(), index),
                  active_.end());
    ++stats_.ended;
    InjectorMetrics::get().active.add(-1);
  }
  emit_event(window, index, begin);
  for (const TransitionHook& hook : hooks_) hook(window, begin);
}

void Injector::emit_event(const FaultWindow& window, std::size_t index,
                          bool begin) const {
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("fault_window", scheduler_.now(),
                         static_cast<std::int64_t>(index))
                  .field("fault", kind_name(window.kind))
                  .field("phase", begin ? "begin" : "end")
                  .field("site", window.site)
                  .field("src", window.link.src)
                  .field("dst", window.link.dst)
                  .field("begin", window.begin)
                  .field("end", window.end)
                  .field("capacity_factor", window.capacity_factor)
                  .field("abort_boost", window.abort_boost));
  }
}

bool Injector::site_down(grid::SiteId site) const {
  return std::any_of(active_.begin(), active_.end(), [&](std::size_t index) {
    const FaultWindow& w = windows_[index];
    return w.kind == FaultKind::kSiteOutage && w.site == site;
  });
}

bool Injector::storage_down(grid::SiteId site) const {
  return std::any_of(active_.begin(), active_.end(), [&](std::size_t index) {
    const FaultWindow& w = windows_[index];
    return (w.kind == FaultKind::kSiteOutage ||
            w.kind == FaultKind::kStorageOutage) &&
           w.site == site;
  });
}

bool Injector::link_blocked(grid::SiteId src, grid::SiteId dst) const {
  return std::any_of(active_.begin(), active_.end(), [&](std::size_t index) {
    return blocks_link(windows_[index], src, dst);
  });
}

double Injector::link_capacity_factor(grid::SiteId src,
                                      grid::SiteId dst) const {
  double factor = 1.0;
  for (const std::size_t index : active_) {
    const FaultWindow& w = windows_[index];
    if (w.kind == FaultKind::kLinkBrownout && w.link.src == src &&
        w.link.dst == dst) {
      factor *= w.capacity_factor;
    }
  }
  return factor;
}

util::SimTime Injector::blocked_until(grid::SiteId src,
                                      grid::SiteId dst) const {
  util::SimTime until = scheduler_.now();
  for (const std::size_t index : active_) {
    const FaultWindow& w = windows_[index];
    if (blocks_link(w, src, dst)) until = std::max(until, w.end);
  }
  return until;
}

}  // namespace pandarus::fault
