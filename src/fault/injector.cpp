#include "fault/injector.hpp"

#include <algorithm>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

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
  const int delta = begin ? 1 : -1;
  switch (window.kind) {
    case FaultKind::kSiteOutage:
      down_sites_[window.site] += delta;
      storage_down_[window.site] += delta;
      break;
    case FaultKind::kLinkBlackout:
      blacked_links_[window.link] += delta;
      break;
    case FaultKind::kLinkBrownout:
      break;  // factor is derived from the active window list
    case FaultKind::kStorageOutage:
      storage_down_[window.site] += delta;
      break;
    case FaultKind::kServiceBrownout:
      abort_boost_ = std::max(0.0, abort_boost_ + delta * window.abort_boost);
      break;
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
  const auto it = down_sites_.find(site);
  return it != down_sites_.end() && it->second > 0;
}

bool Injector::storage_down(grid::SiteId site) const {
  const auto it = storage_down_.find(site);
  return it != storage_down_.end() && it->second > 0;
}

bool Injector::link_blocked(grid::SiteId src, grid::SiteId dst) const {
  if (site_down(src) || site_down(dst)) return true;
  const auto it = blacked_links_.find(grid::LinkKey{src, dst});
  return it != blacked_links_.end() && it->second > 0;
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
    const bool blocks =
        (w.kind == FaultKind::kSiteOutage &&
         (w.site == src || w.site == dst)) ||
        (w.kind == FaultKind::kLinkBlackout && w.link.src == src &&
         w.link.dst == dst);
    if (blocks) until = std::max(until, w.end);
  }
  return until;
}

std::uint64_t Injector::state_digest() const {
  std::uint64_t h =
      util::hash_mix(windows_.size(), stats_.begun, stats_.ended);
  // active_ holds activation-order indices — deterministic, since
  // transitions fire in scheduler (time, seq) order.
  for (const std::size_t index : active_) {
    const FaultWindow& w = windows_[index];
    h = util::hash_mix(h, index, static_cast<std::uint64_t>(w.kind));
    h = util::hash_mix(h, static_cast<std::uint64_t>(w.begin),
                       static_cast<std::uint64_t>(w.end));
    h = util::hash_mix(h, (static_cast<std::uint64_t>(w.link.src) << 32) |
                              (static_cast<std::uint64_t>(w.site) &
                               0xFFFFFFFFu));
  }
  return h;
}

}  // namespace pandarus::fault
