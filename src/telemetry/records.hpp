// Telemetry records: the synthetic analogue of the PanDA/Rucio metadata
// the paper retrieves through OpenSearch (§4.1, Fig. 4).
//
// Three record families mirror the paper's inputs:
//  * JobRecord      — PanDA job metadata (pandaid, jeditaskid, site,
//                     creation/start/end, ninputfilebytes, ...);
//  * FileRecord     — PanDA file table rows carrying BOTH pandaid and
//                     jeditaskid, the bridge Algorithm 1 pivots on;
//  * TransferRecord — Rucio transfer events, which carry NO pandaid
//                     (the whole reason matching is nontrivial) and only
//                     sometimes a jeditaskid.
//
// Records are trivially copyable plain data.  The string attributes
// Algorithm 1 compares (lfn, dataset, proddblock, scope) are held as
// symbols only: the owning MetadataStore's interner keeps each distinct
// string once, and MetadataStore::attributes() reads them back.
#pragma once

#include <cstdint>
#include <type_traits>

#include "dms/did.hpp"
#include "grid/site.hpp"
#include "util/interner.hpp"
#include "util/time.hpp"
#include "wms/job.hpp"

namespace pandarus::telemetry {

enum class FileDirection : std::uint8_t { kInput = 0, kOutput = 1 };

struct JobRecord {
  std::int64_t pandaid = 0;
  std::int64_t jeditaskid = 0;
  grid::SiteId computing_site = grid::kUnknownSite;
  util::SimTime creation_time = 0;
  util::SimTime start_time = 0;
  util::SimTime end_time = 0;
  std::uint64_t ninputfilebytes = 0;
  std::uint64_t noutputfilebytes = 0;
  bool failed = false;
  std::int32_t error_code = 0;
  bool direct_io = false;
  /// Final status of the owning task: scenario::run_campaign copies it
  /// from the PanDA server once the simulation has drained (kRunning
  /// for a task still open then).
  wms::TaskStatus task_status = wms::TaskStatus::kRunning;

  [[nodiscard]] util::SimDuration queuing_time() const noexcept {
    return start_time - creation_time;
  }
  [[nodiscard]] util::SimDuration wall_time() const noexcept {
    return end_time - start_time;
  }
  [[nodiscard]] util::SimDuration lifetime() const noexcept {
    return end_time - creation_time;
  }
};

struct FileRecord {
  std::int64_t pandaid = 0;
  std::int64_t jeditaskid = 0;
  std::uint64_t file_size = 0;
  FileDirection direction = FileDirection::kInput;

  /// Dense symbol ids of the string attributes in the owning store's
  /// symbols(), assigned by MetadataStore at ingest (kNoSymbol on
  /// records that never passed through a store): equal ids iff equal
  /// strings.
  util::Symbol lfn_sym = util::kNoSymbol;
  util::Symbol dataset_sym = util::kNoSymbol;
  util::Symbol proddblock_sym = util::kNoSymbol;
  util::Symbol scope_sym = util::kNoSymbol;
};

struct TransferRecord {
  std::uint64_t transfer_id = 0;
  /// -1 when the event carries no task provenance (most rule-driven
  /// traffic; also corrupted records).
  std::int64_t jeditaskid = -1;
  std::uint64_t file_size = 0;
  grid::SiteId source_site = grid::kUnknownSite;
  grid::SiteId destination_site = grid::kUnknownSite;
  dms::Activity activity = dms::Activity::kDataRebalance;
  util::SimTime started_at = 0;
  util::SimTime finished_at = 0;
  bool success = true;
  /// Terminal-outcome attribution (dms::TransferError); kNone on clean
  /// success.  Never consulted by matching — analysis-only.
  dms::TransferError error = dms::TransferError::kNone;

  /// Interned attribute symbols; see FileRecord.  Symbols cover the
  /// string attributes only — the matcher compares file_size itself,
  /// because the corruption injector jitters sizes in place.
  util::Symbol lfn_sym = util::kNoSymbol;
  util::Symbol dataset_sym = util::kNoSymbol;
  util::Symbol proddblock_sym = util::kNoSymbol;
  util::Symbol scope_sym = util::kNoSymbol;

  [[nodiscard]] bool has_jeditaskid() const noexcept {
    return jeditaskid >= 0;
  }
  [[nodiscard]] bool is_download() const noexcept {
    return dms::is_download(activity);
  }
  [[nodiscard]] bool is_upload() const noexcept {
    return dms::is_upload(activity);
  }
  /// A transfer is local when both endpoints are known and equal
  /// (unknown endpoints are conservatively treated as remote, matching
  /// how Fig. 3 routes them to the "unknown" pseudo-site).
  [[nodiscard]] bool is_local() const noexcept {
    return source_site != grid::kUnknownSite &&
           source_site == destination_site;
  }
  [[nodiscard]] double throughput_bps() const noexcept {
    const double secs = util::to_seconds(finished_at - started_at);
    return secs > 0.0 ? static_cast<double>(file_size) / secs : 0.0;
  }
};

// An owning member (a std::string, a vector) would put a heap copy
// behind every row; the attributes live in the store's interner.
static_assert(std::is_trivially_copyable_v<JobRecord>);
static_assert(std::is_trivially_copyable_v<FileRecord>);
static_assert(std::is_trivially_copyable_v<TransferRecord>);

}  // namespace pandarus::telemetry
