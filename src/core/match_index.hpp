// MatchIndex: Algorithm 1's candidate join, run once per snapshot.
//
// The paper's §5.5 notes that metadata volume "imposes the need for
// efficient computing for scalability ... such as parallelization".
// This index is where that lands for the matching core.
//
// For each job, Algorithm 1 keeps the transfers that share a bridged
// file row's lfn, jeditaskid, dataset, proddblock, scope and file_size
// and that started before the job ended (§4.2).  That candidate set does
// not depend on the method, so the constructor computes it once per job
// and keeps only the result: each job's candidate rows, deduplicated and
// ascending, and a tally of how the join reached them.  The exact, RM1
// and RM2 matchers and diagnose_job then apply only their own gates.
//
// A job links only to transfers of its own jeditaskid (DESIGN §8
// decision 1), so the join reads only the transfers of the jobs' own
// tasks, from structures the constructor frees before it returns:
//
//  * one block per job task of (lfn_sym << 32 | row) keys, each sorted
//    once, so a file row's same-task, same-lfn transfers are one
//    binary-searched run of its job's block, in ascending row order.
//    The tasks get dense ids from a small open-addressing table keyed on
//    jeditaskid (1,780 tasks and 26,972 of 180,858 transfers at paper
//    scale);
//  * every lfn's transfer count over all transfers, which the tally
//    reads for the row's scanned transfers: the ones outside the run are
//    taskid rejects, counted without being read (a popular lfn collects
//    transfers from many tasks and from untagged, rule-driven traffic);
//  * file rows grouped by OWNING JOB, keyed on the full (pandaid,
//    jeditaskid) bridge through a second such table, so stale rows
//    (same pandaid, different task generation) never reach the join.
//
// The rest of the predicate needs no index: the join compares the
// dataset, proddblock and scope symbols and file_size on the transfer
// records it reads for started_at anyway.
//
// Given a pool, the build splits the block sorts over the workers while
// the calling thread groups the file rows, then runs the join in
// job-range chunks whose outputs are appended in job order: the serial
// build's steps on more threads, so the two are bit-identical.
//
// One MatchIndex is built per snapshot and shared by the exact and
// RM1/RM2 matchers and the ParallelMatchDriver (all queries const).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "telemetry/store.hpp"

namespace pandarus::core {

class MatchIndex {
 public:
  /// Serial build.
  explicit MatchIndex(const telemetry::MetadataStore& store)
      : MatchIndex(store, nullptr) {}

  /// Sorts the task blocks and runs the join on `pool` (nullptr builds
  /// serially); either way the index is the same.
  /// The store must outlive the index and stay unmodified.
  MatchIndex(const telemetry::MetadataStore& store,
             parallel::ThreadPool* pool);

  /// How the join reached one job's candidates.  The matcher adds these
  /// to the `pandarus_match_*` funnel counters on every query, so each
  /// counts what a slot-by-slot scan of the job's lfn groups would.
  struct JobTally {
    /// File rows whose (pandaid, jeditaskid) equals the job's: |F'_j|.
    std::uint32_t file_rows = 0;
    /// Transfers with those rows' lfns, once per row.
    std::uint64_t scanned = 0;
    /// Scanned transfers of another jeditaskid (counted, not read).
    std::uint64_t reject_taskid = 0;
    /// Transfers of the job's task whose dataset, proddblock, scope or
    /// file_size differs from the row's.
    std::uint64_t reject_attr = 0;
    /// Attribute matches that started at or after the job's end.
    std::uint64_t reject_time = 0;
    /// S_j: the candidates' byte sum.
    std::uint64_t candidate_sum = 0;

    /// Passed all three filters, per row: a transfer that two of the
    /// job's rows reach counts twice here and is one candidate.
    [[nodiscard]] std::uint64_t accepted() const noexcept {
      return scanned - reject_taskid - reject_attr - reject_time;
    }
  };

  /// The job's candidate transfer rows, T'_j of Algorithm 1 before its
  /// size and site gates: ascending, each once.  `job_index` must be
  /// below store().jobs().size().
  [[nodiscard]] std::span<const std::uint32_t> candidates(
      std::size_t job_index) const noexcept {
    return std::span<const std::uint32_t>(candidate_slots_)
        .subspan(candidate_offsets_[job_index],
                 candidate_offsets_[job_index + 1] -
                     candidate_offsets_[job_index]);
  }

  [[nodiscard]] const JobTally& tally(std::size_t job_index) const noexcept {
    return tallies_[job_index];
  }

  [[nodiscard]] const telemetry::MetadataStore& store() const noexcept {
    return *store_;
  }

 private:
  const telemetry::MetadataStore* store_;
  /// CSR over jobs: candidate_slots_[candidate_offsets_[j] ..
  /// candidate_offsets_[j+1]) are job j's candidates, into
  /// store.transfers().
  std::vector<std::uint32_t> candidate_offsets_;
  std::vector<std::uint32_t> candidate_slots_;
  std::vector<JobTally> tallies_;
};

}  // namespace pandarus::core
