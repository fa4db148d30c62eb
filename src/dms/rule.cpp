#include "dms/rule.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "obs/event_log.hpp"

namespace pandarus::dms {
namespace {

/// Period of start_periodic()'s evaluation passes.
constexpr util::SimDuration kEvaluationInterval = util::minutes(30);

}  // namespace

RuleEngine::RuleEngine(sim::Scheduler& scheduler,
                       const grid::Topology& topology,
                       const FileCatalog& catalog, ReplicaCatalog& replicas,
                       const RseRegistry& rses, TransferEngine& engine,
                       util::Rng rng, Params params)
    : scheduler_(scheduler),
      topology_(topology),
      catalog_(catalog),
      replicas_(replicas),
      rses_(rses),
      engine_(engine),
      selector_(topology, rses, replicas),
      rng_(rng),
      params_(params) {}

RuleEngine::RuleEngine(sim::Scheduler& scheduler,
                       const grid::Topology& topology,
                       const FileCatalog& catalog, ReplicaCatalog& replicas,
                       const RseRegistry& rses, TransferEngine& engine,
                       util::Rng rng)
    : RuleEngine(scheduler, topology, catalog, replicas, rses, engine, rng,
                 Params{}) {}

std::uint32_t RuleEngine::evaluate_once() {
  ++stats_.passes;
  if (rules_.empty()) return 0;

  std::uint32_t submitted = 0;
  // Candidate destinations: each target tier's sites, looked up on the
  // pass's first rule that names the tier.
  std::array<std::optional<std::vector<grid::SiteId>>,
             static_cast<std::size_t>(grid::Tier::kT3) + 1>
      sites_by_tier;
  // Round-robin over the rules so every dataset gets evaluated across
  // passes even when the per-pass transfer budget is exhausted early.
  for (std::size_t visited = 0;
       visited < rules_.size() && submitted < params_.max_transfers_per_pass;
       ++visited) {
    const ReplicationRule& rule = rules_[next_rule_];
    next_rule_ = (next_rule_ + 1) % rules_.size();

    auto& cached = sites_by_tier[static_cast<std::size_t>(rule.target_tier)];
    if (!cached) cached = topology_.sites_of_tier(rule.target_tier);
    const std::vector<grid::SiteId>& tier_sites = *cached;
    if (tier_sites.empty()) continue;

    for (FileId file : catalog_.files_of(rule.dataset)) {
      if (submitted >= params_.max_transfers_per_pass) break;

      if (replicas_.disk_copies(file) >= rule.copies) continue;

      // Pick a destination at the target tier that lacks the file, so
      // we do not place duplicates.
      grid::SiteId dst = grid::kUnknownSite;
      const std::size_t offset = rng_.uniform_index(tier_sites.size());
      for (std::size_t k = 0; k < tier_sites.size(); ++k) {
        const grid::SiteId candidate =
            tier_sites[(offset + k) % tier_sites.size()];
        if (!replicas_.on_disk_at_site(file, candidate) &&
            rses_.disk_at(candidate) != kNoRse) {
          dst = candidate;
          break;
        }
      }
      if (dst == grid::kUnknownSite) continue;

      const RseId source = selector_.select_source(file, dst, scheduler_.now());
      if (source == kNoRse) continue;

      TransferRequest req;
      req.file = file;
      req.size_bytes = catalog_.file(file).size_bytes;
      req.src = rses_.rse(source).site;
      req.dst = dst;
      req.dst_rse = rses_.disk_at(dst);
      req.activity = Activity::kDataRebalance;
      engine_.submit(std::move(req));
      ++submitted;
    }
  }
  stats_.transfers_submitted += submitted;
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("rule_pass", scheduler_.now(),
                         static_cast<std::int64_t>(stats_.passes))
                  .field("rules", static_cast<std::uint64_t>(rules_.size()))
                  .field("submitted", submitted));
  }
  return submitted;
}

void RuleEngine::start_periodic(util::SimTime until) {
  if (scheduler_.now() >= until) return;
  scheduler_.schedule_after(kEvaluationInterval, [this, until] {
    evaluate_once();
    start_periodic(until);
  });
}

std::uint32_t RuleEngine::stage_from_tape(DatasetId dataset,
                                          grid::SiteId site) {
  const RseId tape = rses_.tape_at(site);
  const RseId disk = rses_.disk_at(site);
  if (tape == kNoRse || disk == kNoRse) return 0;

  std::uint32_t submitted = 0;
  for (FileId file : catalog_.files_of(dataset)) {
    if (!replicas_.has_replica(file, tape)) continue;
    if (replicas_.has_replica(file, disk)) continue;
    TransferRequest req;
    req.file = file;
    req.size_bytes = catalog_.file(file).size_bytes;
    req.src = site;
    req.dst = site;
    req.dst_rse = disk;
    req.activity = Activity::kDataRebalance;
    engine_.submit(std::move(req));
    ++submitted;
  }
  stats_.staged_from_tape += submitted;
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("rule_stage", scheduler_.now(),
                         static_cast<std::int64_t>(dataset))
                  .field("site", site)
                  .field("submitted", submitted));
  }
  return submitted;
}

}  // namespace pandarus::dms
