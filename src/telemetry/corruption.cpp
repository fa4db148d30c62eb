#include "telemetry/corruption.hpp"

#include <algorithm>
#include <vector>

namespace pandarus::telemetry {

bool is_bad_metadata_site(const CorruptionParams& params,
                          grid::SiteId site) noexcept {
  if (site == grid::kUnknownSite) return false;
  return util::hash_unit(util::hash_mix(kSiteQualitySeed, site)) <
         params.bad_site_fraction;
}

CorruptionReport inject_corruption(MetadataStore& store,
                                   const CorruptionParams& params,
                                   util::Rng rng) {
  CorruptionReport report;

  auto jitter_size = [&](TransferRecord& t) {
    const double factor = 1.0 + rng.uniform(-kSizeJitterFrac, kSizeJitterFrac);
    const auto jittered =
        static_cast<std::uint64_t>(static_cast<double>(t.file_size) * factor);
    if (jittered != t.file_size) {
      t.file_size = std::max<std::uint64_t>(jittered, 1);
      ++report.transfers_size_jittered;
    }
  };

  // is_bad_metadata_site once per site, on first sight (-1: not yet).
  // Topology ids are dense from 0, so a small table covers them; a
  // larger id, and kUnknownSite, goes to the predicate itself.
  std::vector<std::int8_t> bad_site(4096, -1);
  const auto is_bad = [&](grid::SiteId site) {
    if (site >= bad_site.size()) return is_bad_metadata_site(params, site);
    if (bad_site[site] < 0) bad_site[site] = is_bad_metadata_site(params, site);
    return bad_site[site] != 0;
  };

  for (TransferRecord& t : store.transfers_mutable()) {
    // Site-correlated channel first: bad-metadata endpoints mangle their
    // events far more often than the grid-wide baseline.
    const bool bad_src = is_bad(t.source_site);
    const bool bad_dst = is_bad(t.destination_site);
    if (bad_src || bad_dst) {
      // Stage-out (upload) events are recorded by the pilot that wrote
      // the file, so their sizes survive bad storage dumps — the reason
      // Analysis Upload still matches at ~95% in Table 1.
      if (!t.is_upload() && rng.bernoulli(params.p_size_jitter_bad_site)) {
        jitter_size(t);
      }
      // Pilot-recorded stage-outs also keep their endpoint labels; the
      // UNKNOWN-endpoint channel afflicts storage-side event streams,
      // and hits the task-attributed pipeline much harder than bulk
      // FTS traffic (see the header).
      if (!t.is_upload()) {
        const double p_unknown =
            t.has_jeditaskid()
                ? params.p_unknown_endpoint_bad_site_tasked
                : params.p_unknown_endpoint_bad_site_anonymous;
        if (bad_dst && rng.bernoulli(p_unknown)) {
          t.destination_site = grid::kUnknownSite;
          ++report.transfers_destination_unknown;
        }
        if (bad_src && rng.bernoulli(p_unknown)) {
          t.source_site = grid::kUnknownSite;
          ++report.transfers_source_unknown;
        }
      }
    }
    if (t.has_jeditaskid() && rng.bernoulli(params.p_drop_transfer_taskid)) {
      t.jeditaskid = -1;
      ++report.transfers_taskid_dropped;
    }
    if (t.source_site != grid::kUnknownSite &&
        rng.bernoulli(params.p_unknown_source)) {
      t.source_site = grid::kUnknownSite;
      ++report.transfers_source_unknown;
    }
    if (t.destination_site != grid::kUnknownSite &&
        rng.bernoulli(params.p_unknown_destination)) {
      t.destination_site = grid::kUnknownSite;
      ++report.transfers_destination_unknown;
    }
    if (rng.bernoulli(params.p_size_jitter)) jitter_size(t);
  }

  if (params.p_drop_file_record > 0.0) {
    auto& files = store.files_mutable();
    const auto before = files.size();
    std::erase_if(files, [&](const FileRecord&) {
      return rng.bernoulli(params.p_drop_file_record);
    });
    report.file_records_dropped =
        static_cast<std::uint64_t>(before - files.size());
  }

  if (params.p_drop_job_record > 0.0) {
    auto& jobs = store.jobs_mutable();
    const auto before = jobs.size();
    std::erase_if(jobs, [&](const JobRecord&) {
      return rng.bernoulli(params.p_drop_job_record);
    });
    report.job_records_dropped =
        static_cast<std::uint64_t>(before - jobs.size());
  }

  return report;
}

}  // namespace pandarus::telemetry
