// MetadataStore: the OpenSearch stand-in (paper §4.1).
//
// Append-only record streams.  Indexes used by the matcher (file
// records by (pandaid, jeditaskid), transfers by lfn) are built on
// demand by the core module;
// the store itself stays a dumb, faithful record base — plus one piece
// of derived state: a shared symbol table.  record_file/record_transfer
// intern the string attributes (lfn, dataset, proddblock, scope) to
// dense ids and the (dataset, proddblock, scope) triple to one attr_sym,
// so the core's MatchIndex can group and compare records with integer
// keys only.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "telemetry/records.hpp"
#include "util/interner.hpp"

namespace pandarus::telemetry {

class MetadataStore {
 public:
  void record_job(JobRecord record);
  void record_file(FileRecord record);
  void record_transfer(TransferRecord record);

  /// Backfills the final task status on every job record of the task
  /// (job records are written at job completion, before their task
  /// reaches a terminal state).
  void finalize_task(std::int64_t jeditaskid, wms::TaskStatus status);

  [[nodiscard]] std::span<const JobRecord> jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] std::span<const FileRecord> files() const noexcept {
    return files_;
  }
  [[nodiscard]] std::span<const TransferRecord> transfers() const noexcept {
    return transfers_;
  }

  /// Symbol table shared by all four string attributes of both record
  /// families: `files()[i].lfn_sym == transfers()[j].lfn_sym` iff the
  /// lfn strings are equal.
  [[nodiscard]] const util::StringInterner& symbols() const noexcept {
    return symbols_;
  }

  // Mutable access for the corruption injector only.  Invariant: the
  // string attributes of a record must not be edited in place (their
  // symbol ids would go stale) — re-record instead.  Numeric fields
  // (file_size, sites, task ids, times) may be edited freely; the
  // MatchIndex derives its composite keys from them at build time.
  [[nodiscard]] std::vector<JobRecord>& jobs_mutable() noexcept {
    return jobs_;
  }
  [[nodiscard]] std::vector<FileRecord>& files_mutable() noexcept {
    return files_;
  }
  [[nodiscard]] std::vector<TransferRecord>& transfers_mutable() noexcept {
    return transfers_;
  }

  struct Counts {
    std::size_t jobs = 0;
    std::size_t files = 0;
    std::size_t transfers = 0;
    std::size_t transfers_with_taskid = 0;
  };
  [[nodiscard]] Counts counts() const noexcept;

 private:
  /// Overwrites the record's symbol fields from this store's interner
  /// (records copied from another store carry that store's ids).
  template <typename Record>
  void intern_attributes(Record& record);

  std::vector<JobRecord> jobs_;
  std::vector<FileRecord> files_;
  std::vector<TransferRecord> transfers_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> jobs_by_task_;
  util::StringInterner symbols_;
  /// (dataset_sym, proddblock_sym) -> pair id, (pair id, scope_sym) ->
  /// attr_sym: chained pair interning gives the triple an exact dense id.
  util::KeyInterner<std::uint64_t> attr_pairs_;
  util::KeyInterner<std::uint64_t> attr_triples_;
};

}  // namespace pandarus::telemetry
