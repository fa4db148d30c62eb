// Post-hoc metadata corruption (paper challenge #3, §1: "metadata is
// often heterogeneous and incomplete, with issues such as missing site
// information, inconsistent file attributes, or incomplete records").
//
// The injector mutates a MetadataStore in place, deterministically under
// a seed, so the matching rates of Tables 1/2 become a controlled
// function of corruption intensity (examples/metadata_quality sweeps it).
#pragma once

#include <cstdint>

#include "telemetry/store.hpp"
#include "util/rng.hpp"

namespace pandarus::telemetry {

/// The recorded file size of a jittered transfer is off by up to this
/// fraction (CorruptionParams::p_size_jitter, p_size_jitter_bad_site).
inline constexpr double kSizeJitterFrac = 0.002;
/// Seed of the per-site coin that marks bad-metadata sites
/// (CorruptionParams::bad_site_fraction).
inline constexpr std::uint64_t kSiteQualitySeed = 0x517e;

struct CorruptionParams {
  /// P(drop the jeditaskid from a transfer record that had one).
  double p_drop_transfer_taskid = 0.04;
  /// P(source recorded as UNKNOWN) / P(destination recorded as UNKNOWN).
  double p_unknown_source = 0.015;
  double p_unknown_destination = 0.015;
  /// P(the recorded file size is off by up to kSizeJitterFrac) —
  /// breaks both attribute matching and the exact byte-sum check, the
  /// case RM1 is designed to recover (§4.3).
  double p_size_jitter = 0.01;
  /// P(a PanDA file-table row is lost entirely).
  double p_drop_file_record = 0.08;
  /// P(a job record is lost).
  double p_drop_job_record = 0.005;

  // -- site-correlated quality ------------------------------------------
  // Metadata quality is a property of a site's storage middleware, not of
  // individual events: some endpoints systematically report imprecise
  // sizes or drop endpoint labels.  A deterministic per-site coin
  // (hashed from kSiteQualitySeed) marks "bad-metadata" sites; events
  // touching them suffer elevated corruption.  This correlation is what
  // keeps overall match rates low without making RM1 explode.
  double bad_site_fraction = 0.50;
  double p_size_jitter_bad_site = 0.80;
  /// Unknown-endpoint rates at bad sites, split by provenance: events
  /// attributed to a task flow through the WMS-side reporting pipeline,
  /// which loses endpoint labels far more often than the bulk FTS
  /// stream (whose records the heatmap's "unknown" pseudo-site absorbs
  /// at only a few percent of volume in Fig. 3).
  double p_unknown_endpoint_bad_site_tasked = 0.30;
  double p_unknown_endpoint_bad_site_anonymous = 0.03;
};

/// True when `site` is a bad-metadata site under these parameters.
[[nodiscard]] bool is_bad_metadata_site(const CorruptionParams& params,
                                        grid::SiteId site) noexcept;

struct CorruptionReport {
  std::uint64_t transfers_taskid_dropped = 0;
  std::uint64_t transfers_source_unknown = 0;
  std::uint64_t transfers_destination_unknown = 0;
  std::uint64_t transfers_size_jittered = 0;
  std::uint64_t file_records_dropped = 0;
  std::uint64_t job_records_dropped = 0;
};

/// Applies every corruption channel to the store, in place.
CorruptionReport inject_corruption(MetadataStore& store,
                                   const CorruptionParams& params,
                                   util::Rng rng);

}  // namespace pandarus::telemetry
