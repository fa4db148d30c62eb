// MatchIndex: the shared, immutable index layer behind Algorithm 1.
//
// The paper's §5.5 notes that metadata volume "imposes the need for
// efficient computing for scalability ... such as parallelization".
// This index is where that lands for the matching core:
//
//  * file rows are grouped by OWNING JOB — keyed on the full (pandaid,
//    jeditaskid) bridge, so stale rows (same pandaid, different task
//    generation) are excluded at build time instead of per query;
//  * transfers are grouped by interned lfn symbol, which turns the old
//    string-keyed hash map into a counting sort over dense ids, and
//    each lfn group is ordered by (jeditaskid, row).  Algorithm 1 links
//    a job only to transfers of its own task (DESIGN §8 decision 1), so
//    the matcher reads one binary-searched task range per file row and
//    counts the rest of the group as taskid rejects without touching
//    it: a popular lfn collects transfers from many tasks and from the
//    untagged (-1) rule-driven traffic.
//
// The rest of Algorithm 1's predicate needs no index: the matcher
// compares the dataset, proddblock and scope symbols and file_size on
// the transfer records it reads anyway.
//
// Both group-bys are CSR layouts (offsets + slots) built by one
// counting sort, slots ascending by row within each group.  Given a
// pool, the build hands it only the per-group (jeditaskid, row) sort,
// which allocates nothing, and builds the file CSR meanwhile on the
// calling thread: the same steps as the serial build, so the two are
// bit-identical.
//
// One MatchIndex is built per snapshot and shared by the exact and
// RM1/RM2 matchers and the ParallelMatchDriver (all queries const).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "parallel/thread_pool.hpp"
#include "telemetry/store.hpp"

namespace pandarus::core {

class MatchIndex {
 public:
  /// Serial build.
  explicit MatchIndex(const telemetry::MetadataStore& store)
      : MatchIndex(store, nullptr) {}

  /// Sorts the lfn groups on `pool` while this thread builds the file
  /// CSR (nullptr builds serially); either way the index is the same.
  /// The store must outlive the index and stay unmodified.
  MatchIndex(const telemetry::MetadataStore& store,
             parallel::ThreadPool* pool);

  /// File rows whose (pandaid, jeditaskid) equals the job's — the F'_j
  /// of Algorithm 1, stale rows already excluded.  Ascending row order.
  [[nodiscard]] std::span<const std::uint32_t> files_of_job(
      std::size_t job_index) const noexcept {
    return group(file_offsets_, file_slots_, job_index);
  }

  /// One task's slice of an lfn group.
  struct TaskRange {
    /// Transfers with the lfn AND the jeditaskid, ascending row order.
    std::span<const std::uint32_t> transfers;
    /// Transfers with the lfn, whatever their jeditaskid.
    std::size_t group_size = 0;
  };

  /// The transfers whose lfn has the given symbol id and that carry
  /// `jeditaskid`: the group's equal_range of the task, binary-searched.
  [[nodiscard]] TaskRange transfers_with_lfn(
      util::Symbol lfn_sym, std::int64_t jeditaskid) const noexcept {
    const auto lfn_group = group(transfer_offsets_, transfer_slots_, lfn_sym);
    const auto transfers = store_->transfers();
    const auto task = std::ranges::equal_range(
        lfn_group, jeditaskid, {},
        [transfers](std::uint32_t t) { return transfers[t].jeditaskid; });
    return {{task.begin(), task.end()}, lfn_group.size()};
  }

  [[nodiscard]] const telemetry::MetadataStore& store() const noexcept {
    return *store_;
  }

 private:
  static std::span<const std::uint32_t> group(
      const std::vector<std::uint32_t>& offsets,
      const std::vector<std::uint32_t>& slots, std::size_t g) noexcept {
    if (g + 1 >= offsets.size()) return {};
    return std::span<const std::uint32_t>(slots)
        .subspan(offsets[g], offsets[g + 1] - offsets[g]);
  }

  const telemetry::MetadataStore* store_;
  /// CSR over jobs: file_slots_[file_offsets_[j] .. file_offsets_[j+1])
  /// are the file-row indices bridging to job j.
  std::vector<std::uint32_t> file_offsets_;
  std::vector<std::uint32_t> file_slots_;
  /// CSR over lfn symbols, same layout, into store.transfers(); each
  /// group sorted by (jeditaskid, row).
  std::vector<std::uint32_t> transfer_offsets_;
  std::vector<std::uint32_t> transfer_slots_;
};

}  // namespace pandarus::core
