// MetadataStore: the OpenSearch stand-in (paper §4.1).
//
// Append-only record streams.  Indexes used by the matcher (file
// records by (pandaid, jeditaskid), transfers by lfn) are built on
// demand by the core module;
// the store itself stays a dumb, faithful record base: three row
// vectors plus one symbol table, the only copy of the records' strings.
// intern() maps the string attributes (lfn, dataset, proddblock, scope)
// to dense ids, so the matching core can group and compare records
// with integers only; attributes() reads the strings back.  A writer
// that already holds a row's symbols (the Recorder, on a file's later
// rows) appends it without interning again.  Every member is a value,
// so a copy of a store is independent of its source.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "telemetry/records.hpp"
#include "util/interner.hpp"

namespace pandarus::telemetry {

/// The string attributes of one file or transfer row, as views.
struct FileAttributes {
  std::string_view lfn;
  std::string_view dataset;
  std::string_view proddblock;
  std::string_view scope;
};

/// The symbol fields of one file or transfer row.
struct FileSymbols {
  util::Symbol lfn = util::kNoSymbol;
  util::Symbol dataset = util::kNoSymbol;
  util::Symbol proddblock = util::kNoSymbol;
  util::Symbol scope = util::kNoSymbol;
};

class MetadataStore {
 public:
  void record_job(JobRecord record);
  /// The symbols of `attributes`, interned in lfn, dataset, proddblock,
  /// scope order.  The views must not point into this store's
  /// symbols(): interning may move them.
  FileSymbols intern(const FileAttributes& attributes);
  /// Appends the row with its symbol fields set to `symbols`, which
  /// this store's intern() returned.
  void record_file(FileRecord record, const FileSymbols& symbols);
  void record_transfer(TransferRecord record, const FileSymbols& symbols);
  /// record_file(record, intern(attributes)).
  void record_file(FileRecord record, const FileAttributes& attributes) {
    record_file(record, intern(attributes));
  }
  /// record_transfer(record, intern(attributes)).
  void record_transfer(TransferRecord record,
                       const FileAttributes& attributes) {
    record_transfer(record, intern(attributes));
  }

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

  /// The strings behind a row's symbols (a row of this store).  Views
  /// into symbols(): valid until the next intern().
  template <typename Record>
  [[nodiscard]] FileAttributes attributes(const Record& record) const noexcept {
    return {symbols_.view(record.lfn_sym), symbols_.view(record.dataset_sym),
            symbols_.view(record.proddblock_sym),
            symbols_.view(record.scope_sym)};
  }

  // Mutable access for the corruption injector and for the campaign's
  // task-status backfill.  Numeric fields (file_size, sites, task ids,
  // times, task_status) may be edited freely and rows removed: matching
  // reads them from the records, never from a copy.
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
  std::vector<JobRecord> jobs_;
  std::vector<FileRecord> files_;
  std::vector<TransferRecord> transfers_;
  util::StringInterner symbols_;
};

}  // namespace pandarus::telemetry
