#include "core/exact.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pandarus::core {

using telemetry::FileRecord;
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

/// The Table-2-style coverage funnel, process-wide and cumulative over
/// every run/method.  Candidate-stage counters are filled by
/// collect_candidates (so diagnose_job contributes too); job-stage
/// counters only by match_job.  Hot loops accumulate in plain locals
/// and flush here once per job, so the per-candidate cost is zero.
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

}  // namespace

const std::vector<std::size_t>& Matcher::collect_candidates(
    std::size_t job_index, std::size_t* file_rows) const {
  // Reused per worker thread: the per-job allocate/free that used to
  // dominate the inner loop is gone.
  thread_local std::vector<std::size_t> scratch;
  scratch.clear();

  const auto rows = index_->files_of_job(job_index);
  if (file_rows != nullptr) *file_rows = rows.size();
  if (rows.empty()) return scratch;

  const telemetry::MetadataStore& store = index_->store();
  const JobRecord& job = store.jobs()[job_index];
  const auto files = store.files();
  const auto transfers = store.transfers();

  // Candidate transfers: the job's task range of each file row's lfn
  // group (lfn equality is structural through the group), matched
  // against that row on the dataset, proddblock and scope symbols and
  // file_size, then time-filtered (started before the job's end).  The
  // rest of the group is scanned and rejected on jeditaskid in bulk,
  // unread.  Funnel tallies stay in locals until the single flush below
  // the loop.
  std::uint64_t scanned = 0;
  std::uint64_t rej_taskid = 0;
  std::uint64_t rej_attr = 0;
  std::uint64_t rej_time = 0;
  std::size_t contributing_rows = 0;
  for (const std::uint32_t fi : rows) {
    const FileRecord& file = files[fi];
    const std::size_t before = scratch.size();
    const auto [task, group_size] =
        index_->transfers_with_lfn(file.lfn_sym, job.jeditaskid);
    scanned += group_size;
    rej_taskid += group_size - task.size();
    for (const std::uint32_t ti : task) {
      const TransferRecord& t = transfers[ti];
      if (t.dataset_sym != file.dataset_sym ||
          t.proddblock_sym != file.proddblock_sym ||
          t.scope_sym != file.scope_sym || t.file_size != file.file_size) {
        ++rej_attr;
        continue;
      }
      if (t.started_at >= job.end_time) {
        ++rej_time;
        continue;
      }
      scratch.push_back(ti);
    }
    contributing_rows += scratch.size() > before;
  }

  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.candidates_scanned.inc(scanned);
  if (rej_taskid > 0) funnel.reject_taskid.inc(rej_taskid);
  if (rej_attr > 0) funnel.reject_attr_key.inc(rej_attr);
  if (rej_time > 0) funnel.reject_time.inc(rej_time);
  funnel.candidates_accepted.inc(scratch.size());

  // Each task range is already ascending, so a single contributing row
  // needs no post-processing.  Multiple rows can interleave groups and —
  // when a job carries the same lfn as both input and output — duplicate
  // a transfer, so sort + dedup only then.
  if (contributing_rows > 1) {
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
  }
  return scratch;
}

MatchedJob Matcher::match_job(std::size_t job_index,
                              const MatchOptions& options) const {
  const telemetry::MetadataStore& store = index_->store();
  const JobRecord& job = store.jobs()[job_index];
  MatchedJob result;
  result.job_index = job_index;

  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.jobs_examined.inc();

  const auto transfers = store.transfers();
  std::size_t file_rows = 0;
  const std::vector<std::size_t>& candidates =
      collect_candidates(job_index, &file_rows);
  if (candidates.empty()) {
    (file_rows == 0 ? funnel.jobs_no_file_rows : funnel.jobs_no_candidates)
        .inc();
    return result;
  }

  // Size-sum gate over the whole candidate set (exact method only).
  if (options.method == MatchMethod::kExact) {
    std::uint64_t sum = 0;
    for (std::size_t ti : candidates) sum += transfers[ti].file_size;
    if (sum != job.ninputfilebytes && sum != job.noutputfilebytes) {
      funnel.reject_size_sum.inc();
      return result;
    }
  }

  // Direction/site condition per transfer.
  std::uint64_t rej_site = 0;
  for (std::size_t ti : candidates) {
    const TransferRecord& t = transfers[ti];
    if (!site_condition(t, job, options.method)) {
      ++rej_site;
      continue;
    }
    result.transfer_indices.push_back(ti);
    if (t.is_local()) {
      ++result.local_transfers;
    } else {
      ++result.remote_transfers;
    }
  }
  if (rej_site > 0) funnel.reject_site.inc(rej_site);
  (result.transfer_indices.empty() ? funnel.jobs_site_eliminated
                                   : funnel.jobs_matched)
      .inc();
  return result;
}

MatchDiagnosis Matcher::diagnose_job(std::size_t job_index,
                                     const MatchOptions& options) const {
  const telemetry::MetadataStore& store = index_->store();
  const JobRecord& job = store.jobs()[job_index];
  const auto transfers = store.transfers();

  MatchDiagnosis diagnosis;
  const std::vector<std::size_t>& candidates =
      collect_candidates(job_index, &diagnosis.file_rows);
  if (diagnosis.file_rows == 0) {
    diagnosis.outcome = MatchOutcome::kNoFileRows;
    return diagnosis;
  }
  diagnosis.candidates = candidates.size();
  if (candidates.empty()) {
    diagnosis.outcome = MatchOutcome::kNoCandidates;
    return diagnosis;
  }

  for (std::size_t ti : candidates) {
    diagnosis.candidate_sum += transfers[ti].file_size;
  }
  if (options.method == MatchMethod::kExact &&
      diagnosis.candidate_sum != job.ninputfilebytes &&
      diagnosis.candidate_sum != job.noutputfilebytes) {
    diagnosis.outcome = MatchOutcome::kSizeGateFailed;
    return diagnosis;
  }

  for (std::size_t ti : candidates) {
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
  for (std::size_t i = 0; i < out.jobs_considered; ++i) {
    MatchedJob m = match_job(i, options);
    if (m.matched()) out.jobs.push_back(std::move(m));
  }
  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.runs.inc();
  funnel.run_wall_us.inc(
      static_cast<std::uint64_t>(obs::TraceRecorder::now_us() - t0));
  return out;
}

}  // namespace pandarus::core
