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

std::vector<double> Brokerage::resident_bytes(const Job& job) const {
  const std::size_t n_sites = topology_->sites().size();
  std::vector<double> bytes(n_sites, 0.0);
  // Per file: 2 where a DISK RSE at the site holds it, 1 where only
  // tape does.  Cleared as each site takes the file's bytes, so a site
  // holding several copies counts the file once.
  std::vector<std::uint8_t> held(n_sites, 0);
  const dms::RseRegistry& rses = replicas_->rses();
  for (dms::FileId f : job.input_files) {
    const auto copies = replicas_->replicas(f);
    for (dms::RseId id : copies) {
      const dms::Rse& rse = rses.rse(id);
      if (rse.site >= n_sites) continue;
      const std::uint8_t kind = rse.kind == dms::RseKind::kDisk ? 2 : 1;
      held[rse.site] = std::max(held[rse.site], kind);
    }
    const auto size = static_cast<double>(catalog_->file(f).size_bytes);
    for (dms::RseId id : copies) {
      const grid::SiteId site = rses.rse(id).site;
      if (site >= n_sites || held[site] == 0) continue;
      bytes[site] += held[site] == 2 ? size : kTapeLocalityWeight * size;
      held[site] = 0;
    }
  }
  return bytes;
}

bool Brokerage::eligible(const grid::Site& site, const Job& job) const {
  if (site.cpu_slots == 0) return false;
  // Production jobs only run at T0/T1/T2 sites.
  return job.kind != JobKind::kProduction || site.tier != grid::Tier::kT3;
}

grid::SiteId Brokerage::choose_site(const Job& job, const SiteQueues& queues,
                                    util::Rng& rng,
                                    obs::FlowTracker* flows) const {
  const std::vector<double> resident = resident_bytes(job);
  std::int64_t scored = 0;
  grid::SiteId best =
      pick(job, queues, rng, /*skip_down_sites=*/true, resident, scored);
  if (best == grid::kUnknownSite) {
    // Every eligible site is inside an outage window: assign anyway
    // (the job queues at a dead site, as it would in production).
    best = pick(job, queues, rng, /*skip_down_sites=*/false, resident, scored);
  }
  assert(best != grid::kUnknownSite);
  if (flows != nullptr) {
    flows->broker_scored(static_cast<std::int64_t>(job.pandaid), scored);
  }
  return best;
}

grid::SiteId Brokerage::pick(const Job& job, const SiteQueues& queues,
                             util::Rng& rng, bool skip_down_sites,
                             std::span<const double> resident,
                             std::int64_t& scored) const {
  grid::SiteId best = grid::kUnknownSite;
  double best_score = -1e300;
  scored = 0;

  for (const grid::Site& site : topology_->sites()) {
    if (!eligible(site, job)) continue;
    if (skip_down_sites && injector_ != nullptr &&
        injector_->site_down(site.id)) {
      continue;
    }
    ++scored;

    double score = 0.0;
    switch (params_.policy) {
      case BrokeragePolicy::kDataLocality: {
        // Primary criterion: resident input bytes — disk at full weight,
        // tape-only copies discounted (the job will pay a local staging
        // pass, but staying at the archive site still beats a WAN pull).
        // Secondary: break ties toward idle capacity so fully resident
        // datasets spread over their replica holders.
        const double idle_frac =
            1.0 - std::min(1.0, static_cast<double>(queues.running(site.id) +
                                                    queues.queued(site.id)) /
                                    static_cast<double>(site.cpu_slots));
        score = resident[site.id] + idle_frac * 1e3;  // bytes dominate
        break;
      }
      case BrokeragePolicy::kLoadAware: {
        score = -queues.estimated_wait_ms(site.id);
        break;
      }
      case BrokeragePolicy::kHybrid: {
        const double resident_gb = resident[site.id] / 1e9;
        score = resident_gb * kWaitPerGbMs - queues.estimated_wait_ms(site.id);
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
