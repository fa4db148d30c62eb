#include "core/inference.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pandarus::core {

using telemetry::TransferRecord;

namespace {

/// Transfers that physically deliver a replica to their destination.
/// Direct-IO streams read remotely without creating a copy, so repeated
/// streams are not "redundant transfers" and carry no placement
/// evidence for site inference.
bool is_delivery(const TransferRecord& t) {
  return t.is_download() &&
         t.activity != dms::Activity::kAnalysisDownloadDirectIO;
}

}  // namespace

std::vector<InferredSite> infer_unknown_sites(
    const telemetry::MetadataStore& store, const MatchedJob& match) {
  // Group the matched set by (lfn, size); within a group, any known
  // destination provides evidence for the unknown ones.  Keyed on the
  // lfn string, not its symbol, so groups come out in lfn order.
  std::map<std::pair<std::string_view, std::uint64_t>,
           std::vector<std::size_t>>
      groups;
  for (std::size_t ti : match.transfer_indices) {
    const TransferRecord& t = store.transfers()[ti];
    if (!is_delivery(t)) continue;
    groups[{store.symbols().view(t.lfn_sym), t.file_size}].push_back(ti);
  }

  std::vector<InferredSite> result;
  for (const auto& [key, indices] : groups) {
    std::size_t known = SIZE_MAX;
    for (std::size_t ti : indices) {
      if (store.transfers()[ti].destination_site != grid::kUnknownSite) {
        known = ti;
        break;
      }
    }
    if (known == SIZE_MAX) continue;
    const grid::SiteId site = store.transfers()[known].destination_site;
    for (std::size_t ti : indices) {
      if (store.transfers()[ti].destination_site == grid::kUnknownSite) {
        result.push_back({ti, known, site});
      }
    }
  }
  return result;
}

std::vector<RedundantGroup> find_redundant_transfers(
    const telemetry::MetadataStore& store, const MatchedJob& match) {
  const auto inferred = infer_unknown_sites(store, match);
  auto effective_destination = [&](std::size_t ti) {
    const grid::SiteId recorded = store.transfers()[ti].destination_site;
    if (recorded != grid::kUnknownSite) return recorded;
    for (const InferredSite& inf : inferred) {
      if (inf.transfer_index == ti) return inf.inferred_destination;
    }
    return grid::kUnknownSite;
  };

  std::map<std::tuple<std::string_view, std::uint64_t, grid::SiteId>,
           std::vector<std::size_t>>
      groups;
  for (std::size_t ti : match.transfer_indices) {
    const TransferRecord& t = store.transfers()[ti];
    if (!is_delivery(t) || !t.success) continue;
    const grid::SiteId dst = effective_destination(ti);
    if (dst == grid::kUnknownSite) continue;
    groups[{store.symbols().view(t.lfn_sym), t.file_size, dst}].push_back(
        ti);
  }

  std::vector<RedundantGroup> result;
  for (auto& [key, indices] : groups) {
    if (indices.size() < 2) continue;
    RedundantGroup group;
    group.lfn = std::string(std::get<0>(key));
    group.file_size = std::get<1>(key);
    group.destination = std::get<2>(key);
    group.transfer_indices = std::move(indices);
    result.push_back(std::move(group));
  }
  return result;
}

GlobalRedundancy scan_global_redundancy(const telemetry::MetadataStore& store,
                                        util::SimDuration within) {
  // (lfn symbol, size, dst) -> delivery times.  The store's interned
  // lfn symbol keeps the map light at millions of records and — unlike
  // the string hash this used to fold — makes the grouping exact.
  struct Key {
    util::Symbol lfn;
    std::uint64_t size;
    grid::SiteId dst;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.lfn ^ (k.size * 0x9e3779b97f4a7c15ULL) ^
             (static_cast<std::uint64_t>(k.dst) << 17);
    }
  };

  std::unordered_map<Key, std::vector<util::SimTime>, KeyHash> deliveries;
  deliveries.reserve(store.transfers().size());
  for (const TransferRecord& t : store.transfers()) {
    if (!is_delivery(t) || !t.success) continue;
    if (t.destination_site == grid::kUnknownSite) continue;
    deliveries[{t.lfn_sym, t.file_size, t.destination_site}].push_back(
        t.finished_at);
  }

  GlobalRedundancy out;
  for (auto& [key, times] : deliveries) {
    if (times.size() < 2) continue;
    std::sort(times.begin(), times.end());
    std::uint64_t redundant = 0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (within == util::kNever || times[i] - times[i - 1] <= within) {
        ++redundant;
      }
    }
    if (redundant == 0) continue;
    ++out.groups;
    out.redundant_transfers += redundant;
    out.wasted_bytes += key.size * redundant;
  }
  return out;
}

}  // namespace pandarus::core
