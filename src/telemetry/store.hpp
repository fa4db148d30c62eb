// MetadataStore: the OpenSearch stand-in (paper §4.1).
//
// Append-only record streams.  Indexes used by the matcher (file
// records by (pandaid, jeditaskid), transfers by lfn) are built on
// demand by the core module;
// the store itself stays a dumb, faithful record base — plus one symbol
// table, the only copy of the records' strings.  intern() maps the
// string attributes (lfn, dataset, proddblock, scope) to dense ids and
// the (dataset, proddblock, scope) triple to one attr_sym, so the
// matching core can group and compare records with integers only;
// attributes() reads the strings back.  A writer that already
// holds a row's symbols (the Recorder, on a file's later rows) appends
// it without interning again.  Every member is a value, so a copy of a
// store is independent of its source.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
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
  /// The interned (dataset, proddblock, scope) triple.
  util::Symbol attr = util::kNoSymbol;

  /// A stored row's symbols.
  template <typename Record>
  [[nodiscard]] static FileSymbols of(const Record& record) noexcept {
    return {record.lfn_sym, record.dataset_sym, record.proddblock_sym,
            record.scope_sym, record.attr_sym};
  }
};

class MetadataStore {
 public:
  void record_job(JobRecord record);
  /// The symbols of `attributes`, interned in lfn, dataset, proddblock,
  /// scope order, then the triple.  The views must not point into this
  /// store's symbols(): interning may move them.
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

  /// The strings behind a row's symbols (a row of this store).  Views
  /// into symbols(): valid until the next intern().
  template <typename Record>
  [[nodiscard]] FileAttributes attributes(const Record& record) const noexcept {
    return {symbols_.view(record.lfn_sym), symbols_.view(record.dataset_sym),
            symbols_.view(record.proddblock_sym),
            symbols_.view(record.scope_sym)};
  }

  // Mutable access for the corruption injector only.  Numeric fields
  // (file_size, sites, task ids, times) may be edited freely: matching
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
  std::unordered_map<std::int64_t, std::vector<std::size_t>> jobs_by_task_;
  util::StringInterner symbols_;
  /// (dataset_sym, proddblock_sym) -> pair id, (pair id, scope_sym) ->
  /// attr_sym: chained pair interning gives the triple an exact dense id.
  util::KeyInterner<std::uint64_t> attr_pairs_;
  util::KeyInterner<std::uint64_t> attr_triples_;
};

}  // namespace pandarus::telemetry
