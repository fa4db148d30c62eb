#include "dms/deletion.hpp"

#include "obs/event_log.hpp"

namespace pandarus::dms {

DeletionDaemon::DeletionDaemon(sim::Scheduler& scheduler,
                               const FileCatalog& catalog,
                               ReplicaCatalog& replicas,
                               const RseRegistry& rses, util::Rng rng,
                               Params params)
    : scheduler_(scheduler),
      catalog_(catalog),
      replicas_(replicas),
      rses_(rses),
      rng_(rng),
      params_(params) {}

std::uint32_t DeletionDaemon::sweep_once() {
  ++stats_.sweeps;
  const std::uint64_t replicas_before = stats_.replicas_deleted;
  const std::uint64_t bytes_before = stats_.bytes_deleted;
  std::uint32_t expired = 0;
  for (DatasetId ds : transient_) {
    if (!rng_.bernoulli(params_.expiry_prob)) continue;
    bool any = false;
    for (FileId f : catalog_.files_of(ds)) {
      // Copy: remove_replica mutates the list we iterate.
      const std::vector<RseId> held(replicas_.replicas(f).begin(),
                                    replicas_.replicas(f).end());
      for (RseId r : held) {
        if (rses_.rse(r).kind != RseKind::kDisk) continue;
        if (replicas_.remove_replica(f, r)) {
          any = true;
          ++stats_.replicas_deleted;
          stats_.bytes_deleted += catalog_.file(f).size_bytes;
        }
      }
    }
    if (any) {
      ++expired;
      ++stats_.datasets_expired;
    }
  }
  if (obs::EventLog* log = scheduler_.session().events) {
    log->emit(obs::Event("deletion_sweep", scheduler_.now(),
                         static_cast<std::int64_t>(stats_.sweeps))
                  .field("expired", expired)
                  .field("replicas_deleted",
                         stats_.replicas_deleted - replicas_before)
                  .field("bytes_deleted", stats_.bytes_deleted - bytes_before));
  }
  return expired;
}

void DeletionDaemon::start(util::SimTime until) {
  const util::SimTime next = scheduler_.now() + params_.sweep_interval;
  if (next >= until) return;
  scheduler_.schedule_at(next, [this, until] {
    sweep_once();
    start(until);
  });
}

}  // namespace pandarus::dms
