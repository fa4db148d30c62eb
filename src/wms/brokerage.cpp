#include "wms/brokerage.hpp"

#include <algorithm>
#include <cassert>

#include "obs/flow.hpp"

namespace pandarus::wms {

const char* policy_name(BrokeragePolicy policy) noexcept {
  switch (policy) {
    case BrokeragePolicy::kDataLocality: return "data-locality";
    case BrokeragePolicy::kLoadAware: return "load-aware";
    case BrokeragePolicy::kHybrid: return "hybrid";
  }
  return "?";
}

Brokerage::Brokerage(const grid::Topology& topology,
                     const dms::FileCatalog& catalog,
                     const dms::ReplicaCatalog& replicas, Params params)
    : topology_(&topology),
      catalog_(&catalog),
      replicas_(&replicas),
      params_(params) {}

double Brokerage::locality_bytes(const Job& job, grid::SiteId site) const {
  double bytes = 0.0;
  for (dms::FileId f : job.input_files) {
    const auto size = static_cast<double>(catalog_->file(f).size_bytes);
    if (replicas_->on_disk_at_site(f, site)) {
      bytes += size;
    } else if (replicas_->resident_at_site(f, site)) {
      bytes += params_.tape_locality_weight * size;
    }
  }
  return bytes;
}

bool Brokerage::eligible(const grid::Site& site, const Job& job) const {
  if (site.cpu_slots == 0) return false;
  if (job.kind == JobKind::kProduction && params_.production_excludes_t3 &&
      site.tier == grid::Tier::kT3) {
    return false;
  }
  return true;
}

grid::SiteId Brokerage::choose_site(const Job& job, const SiteQueues& queues,
                                    util::Rng& rng,
                                    obs::FlowTracker* flows) const {
  std::int64_t scored = 0;
  grid::SiteId best = pick(job, queues, rng, /*skip_down_sites=*/true, &scored);
  if (best == grid::kUnknownSite) {
    // Every eligible site is inside an outage window: assign anyway
    // (the job queues at a dead site, as it would in production).
    best = pick(job, queues, rng, /*skip_down_sites=*/false, &scored);
  }
  assert(best != grid::kUnknownSite);
  if (flows != nullptr) {
    flows->broker_scored(static_cast<std::int64_t>(job.pandaid), scored);
  }
  return best;
}

grid::SiteId Brokerage::pick(const Job& job, const SiteQueues& queues,
                             util::Rng& rng, bool skip_down_sites,
                             std::int64_t* scored) const {
  grid::SiteId best = grid::kUnknownSite;
  double best_score = -1e300;
  if (scored != nullptr) *scored = 0;

  for (const grid::Site& site : topology_->sites()) {
    if (!eligible(site, job)) continue;
    if (skip_down_sites && injector_ != nullptr &&
        injector_->site_down(site.id)) {
      continue;
    }
    if (scored != nullptr) ++*scored;

    double score = 0.0;
    switch (params_.policy) {
      case BrokeragePolicy::kDataLocality: {
        // Primary criterion: resident input bytes — disk at full weight,
        // tape-only copies discounted (the job will pay a local staging
        // pass, but staying at the archive site still beats a WAN pull).
        // Secondary: break ties toward idle capacity so fully resident
        // datasets spread over their replica holders.
        const double resident = locality_bytes(job, site.id);
        const double idle_frac =
            1.0 - std::min(1.0, static_cast<double>(queues.running(site.id) +
                                                    queues.queued(site.id)) /
                                    static_cast<double>(site.cpu_slots));
        score = resident + idle_frac * 1e3;  // bytes dominate
        break;
      }
      case BrokeragePolicy::kLoadAware: {
        score = -queues.estimated_wait_ms(site.id);
        break;
      }
      case BrokeragePolicy::kHybrid: {
        const double resident_gb = locality_bytes(job, site.id) / 1e9;
        score = resident_gb * params_.wait_per_gb_ms -
                queues.estimated_wait_ms(site.id);
        break;
      }
    }
    // Deterministic jitter (well below any real score difference) keeps
    // choices unbiased among exact ties.
    score += rng.next_double() * 1e-3;

    if (score > best_score) {
      best_score = score;
      best = site.id;
    }
  }
  return best;
}

}  // namespace pandarus::wms
