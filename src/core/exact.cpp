#include "core/exact.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pandarus::core {

using telemetry::JobRecord;
using telemetry::TransferRecord;

const char* match_outcome_name(MatchOutcome outcome) noexcept {
  switch (outcome) {
    case MatchOutcome::kNoFileRows: return "no file-table rows";
    case MatchOutcome::kNoCandidates: return "no candidate transfers";
    case MatchOutcome::kSizeGateFailed: return "size-sum gate failed";
    case MatchOutcome::kSiteCheckEliminatedAll:
      return "site check eliminated all";
    case MatchOutcome::kMatched: return "matched";
  }
  return "?";
}

Matcher::Matcher(const telemetry::MetadataStore& store)
    : index_(std::make_shared<const MatchIndex>(store)) {}

Matcher::Matcher(const telemetry::MetadataStore& store,
                 parallel::ThreadPool& pool)
    : index_(std::make_shared<const MatchIndex>(store, &pool)) {}

Matcher::Matcher(std::shared_ptr<const MatchIndex> index)
    : index_(std::move(index)) {}

namespace {

/// What a job, or a range of jobs, adds to the funnel: summed locally
/// and added to the shared counters once (FunnelMetrics::add).
struct FunnelDelta {
  std::uint64_t scanned = 0;
  std::uint64_t reject_taskid = 0;
  std::uint64_t reject_attr = 0;
  std::uint64_t reject_time = 0;
  std::uint64_t accepted = 0;
  std::uint64_t reject_size_sum = 0;
  std::uint64_t reject_site = 0;
  std::uint64_t examined = 0;
  std::uint64_t no_file_rows = 0;
  std::uint64_t no_candidates = 0;
  std::uint64_t site_eliminated = 0;
  std::uint64_t matched = 0;

  /// The candidate stage of one job, as the index's join counted it.  A
  /// job without file rows reached no candidate stage.
  void add_candidates(const MatchIndex::JobTally& tally) {
    if (tally.file_rows == 0) return;
    scanned += tally.scanned;
    reject_taskid += tally.reject_taskid;
    reject_attr += tally.reject_attr;
    reject_time += tally.reject_time;
    accepted += tally.accepted();
  }
};

/// The Table-2-style coverage funnel, process-wide and cumulative over
/// every run/method.  Candidate-stage counters take the job's join tally
/// from the index for every job matched or diagnosed; job-stage counters
/// are filled by matching only.  Each match_job and diagnose_job call,
/// and each match_jobs range (a whole Matcher::run, or one chunk of
/// ParallelMatchDriver::run), sums its jobs into a FunnelDelta and adds
/// it once.
struct FunnelMetrics {
  obs::Counter& candidates_scanned = obs::Registry::global().counter(
      "pandarus_match_candidates_scanned_total",
      "Transfer candidates examined (per file-row scan)");
  obs::Counter& reject_taskid = obs::Registry::global().counter(
      "pandarus_match_reject_taskid_total",
      "Candidates rejected: jeditaskid mismatch");
  obs::Counter& reject_attr_key = obs::Registry::global().counter(
      "pandarus_match_reject_attr_key_total",
      "Candidates rejected: dataset/proddblock/scope or size mismatch");
  obs::Counter& reject_time = obs::Registry::global().counter(
      "pandarus_match_reject_time_total",
      "Candidates rejected: started after the job ended");
  obs::Counter& candidates_accepted = obs::Registry::global().counter(
      "pandarus_match_candidates_accepted_total",
      "Candidates surviving attribute, taskid and time filters");
  obs::Counter& reject_size_sum = obs::Registry::global().counter(
      "pandarus_match_reject_size_sum_total",
      "Jobs rejected: candidate size sum matched neither byte total");
  obs::Counter& reject_site = obs::Registry::global().counter(
      "pandarus_match_reject_site_total",
      "Candidates rejected: direction/site condition");
  obs::Counter& jobs_examined = obs::Registry::global().counter(
      "pandarus_match_jobs_examined_total", "Jobs run through Algorithm 1");
  obs::Counter& jobs_no_file_rows = obs::Registry::global().counter(
      "pandarus_match_jobs_no_file_rows_total",
      "Jobs with no bridging PanDA file rows");
  obs::Counter& jobs_no_candidates = obs::Registry::global().counter(
      "pandarus_match_jobs_no_candidates_total",
      "Jobs whose file rows matched no transfer");
  obs::Counter& jobs_site_eliminated = obs::Registry::global().counter(
      "pandarus_match_jobs_site_eliminated_total",
      "Jobs where the site check eliminated every candidate");
  obs::Counter& jobs_matched = obs::Registry::global().counter(
      "pandarus_match_jobs_matched_total", "Jobs linked to >= 1 transfer");
  obs::Counter& runs = obs::Registry::global().counter(
      "pandarus_match_runs_total", "Full Matcher::run passes");
  obs::Counter& run_wall_us = obs::Registry::global().counter(
      "pandarus_match_run_wall_us_total",
      "Wall-clock microseconds spent in Matcher::run");

  static FunnelMetrics& get() {
    static FunnelMetrics metrics;
    return metrics;
  }

  /// Adds a summed delta, once per counter.
  void add(const FunnelDelta& delta) {
    const std::pair<obs::Counter&, std::uint64_t> adds[] = {
        {candidates_scanned, delta.scanned},
        {reject_taskid, delta.reject_taskid},
        {reject_attr_key, delta.reject_attr},
        {reject_time, delta.reject_time},
        {candidates_accepted, delta.accepted},
        {reject_size_sum, delta.reject_size_sum},
        {reject_site, delta.reject_site},
        {jobs_examined, delta.examined},
        {jobs_no_file_rows, delta.no_file_rows},
        {jobs_no_candidates, delta.no_candidates},
        {jobs_site_eliminated, delta.site_eliminated},
        {jobs_matched, delta.matched},
    };
    for (const auto& [counter, value] : adds) {
      if (value > 0) counter.inc(value);
    }
  }
};

/// Direction/site condition.  Under RM2 an UNKNOWN endpoint on the
/// relevant side is accepted (§4.3: such labels "may be incorrectly
/// recorded in the metadata while still corresponding to valid matches").
bool site_condition(const TransferRecord& t, const JobRecord& j,
                    MatchMethod method) {
  const bool relax_unknown = method == MatchMethod::kRM2;
  if (t.is_download()) {
    return t.destination_site == j.computing_site ||
           (relax_unknown && t.destination_site == grid::kUnknownSite);
  }
  if (t.is_upload()) {
    return t.source_site == j.computing_site ||
           (relax_unknown && t.source_site == grid::kUnknownSite);
  }
  return false;
}

/// The exact method's gate: S_j equals the job's input or output bytes.
bool size_sum_matches(std::uint64_t sum, const JobRecord& j) {
  return sum == j.ninputfilebytes || sum == j.noutputfilebytes;
}

/// Algorithm 1's gates for one job of `index`, adding what it passed
/// and failed to `funnel`.
MatchedJob match_one(const MatchIndex& index, std::size_t job_index,
                     MatchMethod method, FunnelDelta& funnel) {
  MatchedJob result;
  result.job_index = job_index;

  ++funnel.examined;
  const MatchIndex::JobTally& tally = index.tally(job_index);
  funnel.add_candidates(tally);
  const auto candidates = index.candidates(job_index);
  if (candidates.empty()) {
    ++(tally.file_rows == 0 ? funnel.no_file_rows : funnel.no_candidates);
    return result;
  }

  // Size-sum gate over the whole candidate set (exact method only).
  const telemetry::MetadataStore& store = index.store();
  const JobRecord& job = store.jobs()[job_index];
  if (method == MatchMethod::kExact &&
      !size_sum_matches(tally.candidate_sum, job)) {
    ++funnel.reject_size_sum;
    return result;
  }

  // Direction/site condition per transfer.
  const auto transfers = store.transfers();
  for (const std::uint32_t ti : candidates) {
    const TransferRecord& t = transfers[ti];
    if (!site_condition(t, job, method)) {
      ++funnel.reject_site;
      continue;
    }
    result.transfer_indices.push_back(ti);
    if (t.is_local()) {
      ++result.local_transfers;
    } else {
      ++result.remote_transfers;
    }
  }
  ++(result.transfer_indices.empty() ? funnel.site_eliminated
                                     : funnel.matched);
  return result;
}

}  // namespace

MatchedJob Matcher::match_job(std::size_t job_index,
                              const MatchOptions& options) const {
  FunnelDelta funnel;
  MatchedJob result = match_one(*index_, job_index, options.method, funnel);
  FunnelMetrics::get().add(funnel);
  return result;
}

void Matcher::match_jobs(std::size_t begin, std::size_t end,
                         const MatchOptions& options,
                         std::vector<MatchedJob>& out) const {
  FunnelDelta funnel;
  for (std::size_t i = begin; i < end; ++i) {
    MatchedJob m = match_one(*index_, i, options.method, funnel);
    if (m.matched()) out.push_back(std::move(m));
  }
  FunnelMetrics::get().add(funnel);
}

MatchDiagnosis Matcher::diagnose_job(std::size_t job_index,
                                     const MatchOptions& options) const {
  const MatchIndex::JobTally& tally = index_->tally(job_index);
  FunnelDelta funnel;
  funnel.add_candidates(tally);
  FunnelMetrics::get().add(funnel);

  MatchDiagnosis diagnosis;
  diagnosis.file_rows = tally.file_rows;
  if (diagnosis.file_rows == 0) {
    diagnosis.outcome = MatchOutcome::kNoFileRows;
    return diagnosis;
  }
  const auto candidates = index_->candidates(job_index);
  diagnosis.candidates = candidates.size();
  if (candidates.empty()) {
    diagnosis.outcome = MatchOutcome::kNoCandidates;
    return diagnosis;
  }

  diagnosis.candidate_sum = tally.candidate_sum;
  const telemetry::MetadataStore& store = index_->store();
  const JobRecord& job = store.jobs()[job_index];
  if (options.method == MatchMethod::kExact &&
      !size_sum_matches(diagnosis.candidate_sum, job)) {
    diagnosis.outcome = MatchOutcome::kSizeGateFailed;
    return diagnosis;
  }

  const auto transfers = store.transfers();
  for (const std::uint32_t ti : candidates) {
    diagnosis.site_passing +=
        site_condition(transfers[ti], job, options.method);
  }
  diagnosis.outcome = diagnosis.site_passing > 0
                          ? MatchOutcome::kMatched
                          : MatchOutcome::kSiteCheckEliminatedAll;
  return diagnosis;
}

MatchResult Matcher::run(const MatchOptions& options) const {
  const obs::ScopedSpan span("match/run", "core",
                             static_cast<std::int64_t>(options.method));
  const std::int64_t t0 = obs::TraceRecorder::now_us();
  MatchResult out;
  out.method = options.method;
  out.jobs_considered = index_->store().jobs().size();
  match_jobs(0, out.jobs_considered, options, out.jobs);
  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.runs.inc();
  funnel.run_wall_us.inc(
      static_cast<std::uint64_t>(obs::TraceRecorder::now_us() - t0));
  return out;
}

}  // namespace pandarus::core
