#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace pandarus::fault {
namespace {

/// Exponential duration with mean `mean`, floored at two minutes so a
/// window is always long enough to be observable at sampler resolution.
util::SimDuration draw_duration(util::Rng& rng, util::SimDuration mean) {
  const double ms = rng.exponential(static_cast<double>(mean));
  return std::max(util::minutes(2), static_cast<util::SimDuration>(ms));
}

util::SimTime draw_begin(util::Rng& rng, util::SimTime horizon) {
  return rng.uniform_int(0, std::max<util::SimTime>(horizon - 1, 0));
}

}  // namespace

const char* kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kSiteOutage: return "site_outage";
    case FaultKind::kLinkBlackout: return "link_blackout";
    case FaultKind::kLinkBrownout: return "link_brownout";
    case FaultKind::kStorageOutage: return "storage_outage";
    case FaultKind::kServiceBrownout: return "service_brownout";
  }
  return "?";
}

Plan Plan::sample(const SampleParams& params, const grid::Topology& topology,
                  util::SimTime horizon, std::uint64_t seed) {
  Plan plan;
  if (params.intensity <= 0.0 || horizon <= 0) return plan;
  util::Rng rng(seed);
  const double days = util::to_days(horizon);

  // Candidate targets: all sites for storage faults and link endpoints,
  // non-T0 sites for full outages.
  std::vector<grid::SiteId> sites;
  std::vector<grid::SiteId> outage_sites;
  for (const grid::Site& s : topology.sites()) {
    sites.push_back(s.id);
    if (s.tier != grid::Tier::kT0) outage_sites.push_back(s.id);
  }
  if (sites.size() < 2) return plan;

  const auto count = [&](double per_day) {
    return rng.poisson(per_day * params.intensity * days);
  };
  const auto pick_link = [&] {
    const grid::SiteId src = sites[rng.uniform_index(sites.size())];
    grid::SiteId dst = sites[rng.uniform_index(sites.size())];
    while (dst == src) dst = sites[rng.uniform_index(sites.size())];
    return grid::LinkKey{src, dst};
  };
  const auto clamp_window = [&](FaultWindow w) {
    w.end = std::min(w.end, horizon);
    if (w.end > w.begin) plan.windows.push_back(w);
  };

  for (std::uint64_t i = count(kSiteOutagesPerDay); i > 0; --i) {
    if (outage_sites.empty()) break;
    FaultWindow w;
    w.kind = FaultKind::kSiteOutage;
    w.site = outage_sites[rng.uniform_index(outage_sites.size())];
    w.begin = draw_begin(rng, horizon);
    w.end = w.begin + draw_duration(rng, kOutageMean);
    clamp_window(w);
  }
  for (std::uint64_t i = count(params.link_blackouts_per_day); i > 0; --i) {
    FaultWindow w;
    w.kind = FaultKind::kLinkBlackout;
    w.link = pick_link();
    w.begin = draw_begin(rng, horizon);
    w.end = w.begin + draw_duration(rng, kOutageMean);
    clamp_window(w);
  }
  for (std::uint64_t i = count(kLinkBrownoutsPerDay); i > 0; --i) {
    FaultWindow w;
    w.kind = FaultKind::kLinkBrownout;
    w.link = pick_link();
    w.capacity_factor = rng.uniform(kBrownoutFactorMin, kBrownoutFactorMax);
    w.begin = draw_begin(rng, horizon);
    w.end = w.begin + draw_duration(rng, kBrownoutMean);
    clamp_window(w);
  }
  for (std::uint64_t i = count(kStorageOutagesPerDay); i > 0; --i) {
    FaultWindow w;
    w.kind = FaultKind::kStorageOutage;
    w.site = sites[rng.uniform_index(sites.size())];
    w.begin = draw_begin(rng, horizon);
    w.end = w.begin + draw_duration(rng, kOutageMean);
    clamp_window(w);
  }
  for (std::uint64_t i = count(kServiceBrownoutsPerDay); i > 0; --i) {
    FaultWindow w;
    w.kind = FaultKind::kServiceBrownout;
    w.abort_boost = kServiceAbortBoost;
    w.begin = draw_begin(rng, horizon);
    w.end = w.begin + draw_duration(rng, kBrownoutMean);
    clamp_window(w);
  }

  // Chronological order (stable on the deterministic draw order) so the
  // armed begin events fire in timeline order regardless of fault class.
  std::stable_sort(plan.windows.begin(), plan.windows.end(),
                   [](const FaultWindow& a, const FaultWindow& b) {
                     return a.begin < b.begin;
                   });
  return plan;
}

}  // namespace pandarus::fault
