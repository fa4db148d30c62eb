// Algorithm 1: mapping jobs to file-transfer events (paper §4.2).
//
// Transfers carry no pandaid, so the algorithm pivots through the PanDA
// file table: for job J_j, the file rows F'_j sharing its (pandaid,
// jeditaskid) provide the attribute tuple {lfn, dataset, proddblock,
// scope, file_size} that candidate transfers must match exactly.  The
// final filter keeps candidates that
//   (1) started before the job's end time,
//   (2) — exact method only — whose total size S_j equals the job's
//       ninputfilebytes or noutputfilebytes (evaluated over the whole
//       time-passing candidate set, as the paper does: "this filtering
//       step treats T'_j as a whole set rather than solving the
//       underlying NP-hard subset-selection problem"), and
//   (3) satisfy the direction/site condition: downloads must land at the
//       job's computing site, uploads must leave from it.
//
// The attribute match and (1) do not depend on the method, so
// core::MatchIndex evaluates them once per job when it is built and keeps
// each job's time-passing candidate set T'_j and its S_j; match_job and
// diagnose_job apply only (2) and (3).
//
// The relaxed variants RM1/RM2 (§4.3) reuse the same pipeline with the
// size gate disabled (RM1) and unknown site labels admitted (RM2); see
// core/relaxed.hpp for the presets.
#pragma once

#include <memory>

#include "core/match_index.hpp"
#include "core/match_types.hpp"

namespace pandarus::core {

/// Which of exact/RM1/RM2 to run.  The method fixes every predicate:
/// only exact gates on S_j == ninputfilebytes or noutputfilebytes, and
/// only RM2 accepts transfers whose relevant endpoint is UNKNOWN.
struct MatchOptions {
  MatchMethod method = MatchMethod::kExact;

  [[nodiscard]] static MatchOptions exact() noexcept {
    return {MatchMethod::kExact};
  }
  [[nodiscard]] static MatchOptions rm1() noexcept {
    return {MatchMethod::kRM1};
  }
  [[nodiscard]] static MatchOptions rm2() noexcept {
    return {MatchMethod::kRM2};
  }
  [[nodiscard]] static MatchOptions for_method(MatchMethod m) noexcept {
    switch (m) {
      case MatchMethod::kExact: return exact();
      case MatchMethod::kRM1: return rm1();
      case MatchMethod::kRM2: return rm2();
    }
    return exact();
  }
};

/// Why a job did or did not match: the terminal stage of Algorithm 1's
/// pipeline for that job.  The enumerators are ordered by pipeline
/// position, so "later" outcomes imply every earlier stage passed.
enum class MatchOutcome : std::uint8_t {
  kNoFileRows = 0,       ///< no PanDA file-table rows bridge the job
  kNoCandidates = 1,     ///< rows exist but no transfer attribute-matches
  kSizeGateFailed = 2,   ///< S_j != ninputfilebytes and != noutputfilebytes
  kSiteCheckEliminatedAll = 3,  ///< candidates survived but none at the
                                ///< right endpoint
  kMatched = 4,
};
inline constexpr std::size_t kMatchOutcomeCount = 5;

[[nodiscard]] const char* match_outcome_name(MatchOutcome outcome) noexcept;

/// Structured explanation of one job's trip through Algorithm 1 — the
/// paper's §5.5 data-quality diagnosis ("raw data of uncertain quality")
/// made queryable.
struct MatchDiagnosis {
  MatchOutcome outcome = MatchOutcome::kNoFileRows;
  std::size_t file_rows = 0;        ///< rows with matching jeditaskid
  std::size_t candidates = 0;       ///< attribute+time-matched transfers
  std::uint64_t candidate_sum = 0;  ///< S_j over the candidate set
  std::size_t site_passing = 0;     ///< candidates passing the site check
};

/// Matcher over one (already corrupted) metadata snapshot.  Construction
/// builds (or adopts) the MatchIndex that holds every job's candidate
/// set, and the matcher is then reusable across methods and threads (all
/// queries are const).  Each match_job and diagnose_job call adds the
/// job's candidate-stage tallies to the `pandarus_match_*` funnel
/// counters; building the index counts nothing there.
class Matcher {
 public:
  /// Builds the index serially.
  explicit Matcher(const telemetry::MetadataStore& store);

  /// Builds the index, sorting its lfn groups on `pool` meanwhile; the
  /// same index as the serial build.
  Matcher(const telemetry::MetadataStore& store, parallel::ThreadPool& pool);

  /// Adopts a prebuilt index (shared across matchers without a rebuild).
  explicit Matcher(std::shared_ptr<const MatchIndex> index);

  /// Applies the method's gates to the job's candidate set; the
  /// result's transfer_indices is empty when the job matches nothing.
  [[nodiscard]] MatchedJob match_job(std::size_t job_index,
                                     const MatchOptions& options) const;

  /// Like match_job, but reports which pipeline stage stopped the job.
  [[nodiscard]] MatchDiagnosis diagnose_job(std::size_t job_index,
                                            const MatchOptions& options) const;

  /// Serial run over all jobs in the store.
  [[nodiscard]] MatchResult run(const MatchOptions& options) const;

  [[nodiscard]] const telemetry::MetadataStore& store() const noexcept {
    return index_->store();
  }

  /// The shared index (e.g. to hand to another Matcher).
  [[nodiscard]] const std::shared_ptr<const MatchIndex>& index()
      const noexcept {
    return index_;
  }

 private:
  /// Every job's candidate set and join tally.  The underlying store
  /// must outlive the matcher and stay unmodified.
  std::shared_ptr<const MatchIndex> index_;
};

}  // namespace pandarus::core
