// Topology: the set of sites plus the directional link graph.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "grid/link.hpp"
#include "grid/site.hpp"

namespace pandarus::grid {

class Topology {
 public:
  /// Adds a site; its `id` field is overwritten with the assigned index.
  SiteId add_site(Site site);

  /// Adds or replaces the link for `link.key`.
  void add_link(NetworkLink link);

  [[nodiscard]] std::size_t site_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] const Site& site(SiteId id) const { return sites_.at(id); }
  [[nodiscard]] Site& site_mutable(SiteId id) { return sites_.at(id); }
  [[nodiscard]] std::span<const Site> sites() const noexcept {
    return sites_;
  }

  /// Case-sensitive lookup by name; nullopt when absent.
  [[nodiscard]] std::optional<SiteId> find_site(std::string_view name) const;

  /// Display name, mapping kUnknownSite to "UNKNOWN".
  [[nodiscard]] std::string_view site_name(SiteId id) const;

  /// Link for (src, dst).  Falls back to a synthesized default when the
  /// pair has no explicit link: the local LAN pseudo-link for src == dst,
  /// otherwise a conservative 100 MB/s WAN path.  The returned reference
  /// is owned by the topology and valid for its whole life: add_link
  /// assigns an existing pair's link in place, and map nodes never move.
  [[nodiscard]] const NetworkLink& link(SiteId src, SiteId dst) const;

  [[nodiscard]] bool has_link(SiteId src, SiteId dst) const;
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }

  /// All sites of a given tier.
  [[nodiscard]] std::vector<SiteId> sites_of_tier(Tier tier) const;

 private:
  std::vector<Site> sites_;
  std::unordered_map<std::string, SiteId> by_name_;
  mutable std::unordered_map<LinkKey, NetworkLink, LinkKeyHash> links_;
};

}  // namespace pandarus::grid
