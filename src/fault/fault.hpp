// Deterministic infrastructure fault model.
//
// The paper's most striking phenomena are failure *correlations* — case
// study 4's cross-site failure clusters, Fig. 11's stalled transfers
// outliving the staging watchdog, Fig. 12's redundant re-staging after
// lost registrations — none of which a per-attempt coin flip can
// produce.  A fault::Plan is a timeline of typed windows during which a
// piece of infrastructure misbehaves:
//
//   kSiteOutage      the site is gone: every link touching it is dead,
//                    its storage stops registering replicas, and running
//                    jobs there fail (wms::errors::kSiteOutage);
//   kLinkBlackout    one directional link admits nothing; active
//                    attempts on it abort immediately;
//   kLinkBrownout    the link keeps working at `capacity_factor` of its
//                    LoadModel-derived capacity;
//   kStorageOutage   replica registration at the site fails (transfers
//                    still move bytes — the Fig. 12 lost-registration
//                    pathology, now clustered in time);
//   kServiceBrownout the transfer service itself degrades: every
//                    attempt's abort probability rises by `abort_boost`.
//
// Windows are either constructed explicitly or sampled from seeded
// per-day rates (Plan::sample).  Either way the timeline is plain data,
// armed onto the discrete-event scheduler by fault::Injector, so a
// faulted campaign is exactly as reproducible as a healthy one.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/link.hpp"
#include "grid/topology.hpp"
#include "util/time.hpp"

namespace pandarus::fault {

enum class FaultKind : std::uint8_t {
  kSiteOutage = 0,
  kLinkBlackout = 1,
  kLinkBrownout = 2,
  kStorageOutage = 3,
  kServiceBrownout = 4,
};
inline constexpr std::size_t kFaultKindCount = 5;

[[nodiscard]] const char* kind_name(FaultKind kind) noexcept;

struct FaultWindow {
  FaultKind kind = FaultKind::kLinkBrownout;
  util::SimTime begin = 0;
  util::SimTime end = 0;
  /// Target of site-scoped faults (kSiteOutage, kStorageOutage).
  grid::SiteId site = grid::kUnknownSite;
  /// Target of link-scoped faults (kLinkBlackout, kLinkBrownout).
  grid::LinkKey link{};
  /// kLinkBrownout: remaining fraction of the link's effective capacity.
  double capacity_factor = 1.0;
  /// kServiceBrownout: additive per-attempt abort probability.
  double abort_boost = 0.0;

  [[nodiscard]] bool contains(util::SimTime t) const noexcept {
    return t >= begin && t < end;
  }
};

/// Plan::sample's fixed rates, per simulated day at intensity 1 (the
/// link-blackout rate is SampleParams::link_blackouts_per_day).
inline constexpr double kSiteOutagesPerDay = 0.25;
inline constexpr double kLinkBrownoutsPerDay = 2.0;
inline constexpr double kStorageOutagesPerDay = 0.5;
inline constexpr double kServiceBrownoutsPerDay = 0.25;
/// Mean duration of outage-class windows (exponential).
inline constexpr util::SimDuration kOutageMean = util::minutes(45);
/// Mean duration of brownout-class windows (exponential).
inline constexpr util::SimDuration kBrownoutMean = util::hours(2);
/// A sampled link brownout keeps a capacity factor drawn uniformly from
/// [kBrownoutFactorMin, kBrownoutFactorMax].
inline constexpr double kBrownoutFactorMin = 0.05;
inline constexpr double kBrownoutFactorMax = 0.4;
/// abort_boost of a sampled service brownout.
inline constexpr double kServiceAbortBoost = 0.25;

/// An ordered timeline of fault windows.  Plain data: build it by hand,
/// sample it, or concatenate both.
struct Plan {
  std::vector<FaultWindow> windows;

  /// Seeded-rate sampling knobs.  Every rate (this link-blackout rate
  /// and the k*PerDay constants) is per simulated day and scales
  /// linearly with `intensity` (0 disables sampling entirely), so a
  /// chaos sweep is a one-knob experiment.
  struct SampleParams {
    double intensity = 0.0;
    double link_blackouts_per_day = 1.0;
  };

  /// Draws a timeline over [0, horizon) from the seeded rates.  Window
  /// ends are clamped to `horizon` so every window resolves inside the
  /// campaign's drain grace period.  Site outages never target the T0
  /// (taking the anchor site down mostly measures the topology, not the
  /// recovery machinery).  Deterministic: equal arguments, equal plan.
  [[nodiscard]] static Plan sample(const SampleParams& params,
                                   const grid::Topology& topology,
                                   util::SimTime horizon, std::uint64_t seed);

  void add(FaultWindow window) { windows.push_back(window); }
  [[nodiscard]] bool empty() const noexcept { return windows.empty(); }
};

}  // namespace pandarus::fault
