// An independent oracle for Algorithm 1 (paper §4.2) and its relaxed
// variants RM1/RM2 (§4.3): a deliberately naive reference matcher,
// transcribed from the paper and run over the raw records.
//
//  * F'_j is a full scan of the file rows on (pandaid, jeditaskid).
//  * T'_j is a full scan of the transfers: a transfer is a candidate
//    when it carries the job's jeditaskid (DESIGN §8 decision 1),
//    started before the job's end time, and agrees with some row of
//    F'_j on lfn, dataset, proddblock and scope (compared as strings,
//    read back through store.attributes) and on file_size.
//  * Exact gates on the size sum over the whole candidate set; RM1
//    drops the gate; only RM2 accepts an UNKNOWN endpoint.
//
// It shares nothing with the matching core: no MatchIndex, no symbol
// ids.  Every input is diffed job by job — matched transfer set,
// local/remote counts — against Matcher::run, against
// ParallelMatchDriver over a pool-built index, and against
// diagnose_job's verdict; exact ⊆ RM1 ⊆ RM2 is checked per job on the
// oracle's own output.  The pool-built index is also compared with the
// serial build on every job of each store.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/exact.hpp"
#include "core/parallel_driver.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/campaign.hpp"
#include "util/rng.hpp"

namespace {

using namespace pandarus;
using core::MatchMethod;
using telemetry::FileAttributes;
using telemetry::JobRecord;
using telemetry::MetadataStore;
using telemetry::TransferRecord;

constexpr std::array<MatchMethod, 3> kMethods = {
    MatchMethod::kExact, MatchMethod::kRM1, MatchMethod::kRM2};

// --- the oracle ------------------------------------------------------------

/// F'_j: the file rows that share the job's pandaid AND jeditaskid.
std::vector<std::size_t> oracle_file_rows(const MetadataStore& store,
                                          const JobRecord& job) {
  std::vector<std::size_t> rows;
  const auto files = store.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].pandaid == job.pandaid &&
        files[i].jeditaskid == job.jeditaskid) {
      rows.push_back(i);
    }
  }
  return rows;
}

bool same_strings(const FileAttributes& a, const FileAttributes& b) {
  return a.lfn == b.lfn && a.dataset == b.dataset &&
         a.proddblock == b.proddblock && a.scope == b.scope;
}

/// T'_j, ascending: every transfer of the job's task that started
/// before the job ended and agrees with some row of F'_j on the four
/// strings and the file size.
std::vector<std::size_t> oracle_candidates(
    const MetadataStore& store, const JobRecord& job,
    const std::vector<std::size_t>& file_rows) {
  std::vector<std::size_t> out;
  const auto files = store.files();
  const auto transfers = store.transfers();
  for (std::size_t t = 0; t < transfers.size(); ++t) {
    const TransferRecord& tr = transfers[t];
    if (tr.jeditaskid != job.jeditaskid || tr.started_at >= job.end_time) {
      continue;
    }
    const FileAttributes strings = store.attributes(tr);
    for (const std::size_t f : file_rows) {
      if (tr.file_size == files[f].file_size &&
          same_strings(strings, store.attributes(files[f]))) {
        out.push_back(t);
        break;
      }
    }
  }
  return out;
}

/// Downloads must land at the job's computing site and uploads leave
/// from it; RM2 also accepts UNKNOWN on that side.
bool oracle_site_ok(const TransferRecord& t, const JobRecord& job,
                    MatchMethod method) {
  const auto at_job = [&](grid::SiteId endpoint) {
    return endpoint == job.computing_site ||
           (method == MatchMethod::kRM2 && endpoint == grid::kUnknownSite);
  };
  if (t.is_download()) return at_job(t.destination_site);
  if (t.is_upload()) return at_job(t.source_site);
  return false;
}

struct OracleMatch {
  std::vector<std::size_t> transfers;  ///< ascending; empty: no match
  std::uint32_t local = 0;
  std::uint32_t remote = 0;
};

OracleMatch oracle_match(const MetadataStore& store, const JobRecord& job,
                         const std::vector<std::size_t>& candidates,
                         MatchMethod method) {
  OracleMatch out;
  const auto transfers = store.transfers();
  if (method == MatchMethod::kExact) {
    std::uint64_t sum = 0;
    for (const std::size_t t : candidates) sum += transfers[t].file_size;
    if (sum != job.ninputfilebytes && sum != job.noutputfilebytes) return out;
  }
  for (const std::size_t t : candidates) {
    if (!oracle_site_ok(transfers[t], job, method)) continue;
    out.transfers.push_back(t);
    ++(transfers[t].is_local() ? out.local : out.remote);
  }
  return out;
}

// --- the diff --------------------------------------------------------------

std::string join(const std::vector<std::size_t>& v) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
  out << '}';
  return out.str();
}

/// Matched jobs of one run, indexed by job (nullptr: not matched).
std::vector<const core::MatchedJob*> by_job(const core::MatchResult& result,
                                            std::size_t n_jobs) {
  std::vector<const core::MatchedJob*> out(n_jobs, nullptr);
  for (const core::MatchedJob& m : result.jobs) out[m.job_index] = &m;
  return out;
}

struct Tally {
  std::array<std::size_t, 3> oracle_matched{};  ///< jobs, per method
  std::size_t differences = 0;
};

/// Runs the oracle over `sample` (job indices of `store`) and diffs it
/// against every matching path, reporting the first differences.
Tally check_against_oracle(const MetadataStore& store,
                           const std::vector<std::size_t>& sample) {
  const std::size_t n_jobs = store.jobs().size();
  const core::Matcher serial(store);
  parallel::ThreadPool pool(3);  // odd count: uneven chunk boundaries
  const core::Matcher pool_built(store, pool);
  const core::ParallelMatchDriver driver(pool_built, pool);

  std::array<core::MatchResult, 3> serial_runs;
  std::array<core::MatchResult, 3> parallel_runs;
  std::array<std::vector<const core::MatchedJob*>, 3> serial_by_job;
  std::array<std::vector<const core::MatchedJob*>, 3> parallel_by_job;
  for (std::size_t m = 0; m < kMethods.size(); ++m) {
    const auto options = core::MatchOptions::for_method(kMethods[m]);
    serial_runs[m] = serial.run(options);
    parallel_runs[m] = driver.run(options);
    serial_by_job[m] = by_job(serial_runs[m], n_jobs);
    parallel_by_job[m] = by_job(parallel_runs[m], n_jobs);
  }

  Tally tally;
  // The pool-built index is the serial one on every job of the store:
  // candidate rows, file rows, the four join tallies and S_j.
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const core::MatchIndex::JobTally& x = serial.index()->tally(j);
    const core::MatchIndex::JobTally& y = pool_built.index()->tally(j);
    if (!std::ranges::equal(serial.index()->candidates(j),
                            pool_built.index()->candidates(j)) ||
        x.file_rows != y.file_rows || x.scanned != y.scanned ||
        x.reject_taskid != y.reject_taskid ||
        x.reject_attr != y.reject_attr || x.reject_time != y.reject_time ||
        x.candidate_sum != y.candidate_sum) {
      if (tally.differences++ < 10) {
        ADD_FAILURE() << "pool-built index differs from the serial build "
                      << "on job " << j;
      }
    }
  }
  const auto differ = [&](std::size_t job, MatchMethod method,
                          const char* path, const std::string& what) {
    if (tally.differences++ < 10) {
      ADD_FAILURE() << path << " disagrees with the oracle on job " << job
                    << " (" << core::method_name(method) << "): " << what;
    }
  };
  const std::vector<std::size_t> none;
  for (const std::size_t j : sample) {
    const JobRecord& job = store.jobs()[j];
    const auto file_rows = oracle_file_rows(store, job);
    const auto candidates = oracle_candidates(store, job, file_rows);
    std::array<OracleMatch, 3> oracle;
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      const MatchMethod method = kMethods[m];
      oracle[m] = oracle_match(store, job, candidates, method);
      const OracleMatch& want = oracle[m];
      tally.oracle_matched[m] += !want.transfers.empty();

      const std::pair<const char*, const core::MatchedJob*> paths[] = {
          {"Matcher::run", serial_by_job[m][j]},
          {"ParallelMatchDriver", parallel_by_job[m][j]}};
      for (const auto& [path, got] : paths) {
        const auto& got_set = got != nullptr ? got->transfer_indices : none;
        if (got_set != want.transfers) {
          differ(j, method, path,
                 "transfers " + join(got_set) + " vs " + join(want.transfers));
        } else if (got != nullptr && (got->local_transfers != want.local ||
                                      got->remote_transfers != want.remote)) {
          differ(j, method, path, "local/remote counts");
        }
      }

      const core::MatchDiagnosis d =
          serial.diagnose_job(j, core::MatchOptions::for_method(method));
      if ((d.outcome == core::MatchOutcome::kMatched) !=
              !want.transfers.empty() ||
          d.file_rows != file_rows.size() ||
          d.candidates != candidates.size()) {
        differ(j, method, "diagnose_job",
               std::string(core::match_outcome_name(d.outcome)) + ", " +
                   std::to_string(d.file_rows) + " rows, " +
                   std::to_string(d.candidates) + " candidates vs " +
                   std::to_string(file_rows.size()) + " rows, " +
                   std::to_string(candidates.size()) + " candidates");
      }
    }
    // §4.3: every relaxation only adds transfers.
    EXPECT_TRUE(std::includes(oracle[1].transfers.begin(),
                              oracle[1].transfers.end(),
                              oracle[0].transfers.begin(),
                              oracle[0].transfers.end()))
        << "exact ⊄ RM1 on job " << j;
    EXPECT_TRUE(std::includes(oracle[2].transfers.begin(),
                              oracle[2].transfers.end(),
                              oracle[1].transfers.begin(),
                              oracle[1].transfers.end()))
        << "RM1 ⊄ RM2 on job " << j;
  }
  return tally;
}

std::vector<std::size_t> every_job(const MetadataStore& store) {
  std::vector<std::size_t> all(store.jobs().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

// --- adversarial stores ----------------------------------------------------

/// A small store built against the lfn index.  Eight lfns, one of them
/// ("hot") staged by every task and by untagged (-1) traffic; tasks
/// with adjacent ids, so the job's task ±1 sits beside it in the
/// group; each file row echoed by up to three transfers (duplicates of
/// the job's own task) that agree with it on everything or on all but
/// one of task, strings, size and start time (start == end included);
/// sizes whose sums collide; UNKNOWN endpoints and sites; the same lfn
/// as input and output of one job; pandaids shared by two jobs of
/// different tasks, whose rows are stale for each other.  Transfers
/// are recorded in shuffled order, so no group arrives sorted by task.
MetadataStore adversarial_store(std::uint64_t seed) {
  static constexpr const char* kLfns[] = {"hot", "hot", "f1", "f2",
                                          "f3",  "f4",  "f5", "f6"};
  static constexpr const char* kDatasets[] = {"ds.a", "ds.b"};
  static constexpr const char* kBlocks[] = {"blk.a", "blk.b"};
  static constexpr const char* kScopes[] = {"mc23", "data24"};
  static constexpr std::uint64_t kSizes[] = {100, 200, 300};
  static constexpr std::int64_t kTasks[] = {41, 42, 43, 44, -1};
  static constexpr grid::SiteId kSites[] = {0, 1, 2, grid::kUnknownSite};

  util::Rng rng(seed);
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.uniform_index(std::size(pool))];
  };

  struct Row {
    telemetry::FileRecord record;
    FileAttributes strings;
    util::SimTime job_end = 0;
    grid::SiteId job_site = 0;
  };
  MetadataStore store;
  std::vector<Row> rows;
  for (int j = 0; j < 24; ++j) {
    JobRecord job;
    const bool shares_pandaid = j > 0 && rng.bernoulli(0.15);
    job.pandaid = shares_pandaid ? store.jobs().back().pandaid : 1000 + j;
    job.jeditaskid = pick(kTasks);
    job.computing_site =
        rng.bernoulli(0.1) ? grid::kUnknownSite : pick(std::array{0u, 1u, 2u});
    job.end_time = 10'000 + rng.uniform_int(0, 50);
    job.start_time = job.end_time - 1'000;
    job.creation_time = job.start_time - 100;
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    const std::size_t n_files = 1 + rng.uniform_index(4);
    for (std::size_t k = 0; k < n_files; ++k) {
      Row row;
      row.record.pandaid = job.pandaid;
      row.record.jeditaskid = job.jeditaskid;
      row.record.file_size = pick(kSizes);
      row.record.direction = rng.bernoulli(0.5)
                                 ? telemetry::FileDirection::kInput
                                 : telemetry::FileDirection::kOutput;
      row.strings = {pick(kLfns), pick(kDatasets), pick(kBlocks),
                     pick(kScopes)};
      row.job_end = job.end_time;
      row.job_site = job.computing_site;
      (row.record.direction == telemetry::FileDirection::kInput ? in_bytes
                                                                : out_bytes) +=
          row.record.file_size;
      rows.push_back(row);
      if (rng.bernoulli(0.2)) {  // the same lfn as input and output
        Row echo = row;
        echo.record.direction =
            row.record.direction == telemetry::FileDirection::kInput
                ? telemetry::FileDirection::kOutput
                : telemetry::FileDirection::kInput;
        rows.push_back(echo);
      }
      if (rng.bernoulli(0.15)) {  // stale: same pandaid, a neighbour task
        Row stale = row;
        stale.record.jeditaskid = job.jeditaskid + 1;
        rows.push_back(stale);
      }
    }
    // The true byte totals, or colliding ones.
    const auto colliding = [&] {
      return pick(kSizes) * static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    };
    job.ninputfilebytes = rng.bernoulli(0.5) ? in_bytes : colliding();
    job.noutputfilebytes = rng.bernoulli(0.5) ? out_bytes : colliding();
    store.record_job(job);
  }
  for (const Row& row : rows) store.record_file(row.record, row.strings);

  std::vector<std::pair<TransferRecord, FileAttributes>> transfers;
  const auto endpoints = [&](TransferRecord& t, grid::SiteId job_site) {
    t.activity =
        static_cast<dms::Activity>(rng.uniform_index(dms::kActivityCount));
    t.source_site = pick(kSites);
    t.destination_site = pick(kSites);
    if (rng.bernoulli(0.6)) {  // put the relevant endpoint at the job
      (t.is_upload() ? t.source_site : t.destination_site) = job_site;
    }
  };
  for (const Row& row : rows) {
    const std::size_t copies = rng.uniform_index(4);
    for (std::size_t c = 0; c < copies; ++c) {
      TransferRecord t;
      t.jeditaskid = row.record.jeditaskid;
      t.file_size = row.record.file_size;
      t.started_at = row.job_end - 100;
      FileAttributes strings = row.strings;
      switch (rng.uniform_index(10)) {
        case 0: t.jeditaskid += rng.bernoulli(0.5) ? 1 : -1; break;
        case 1: t.jeditaskid = -1; break;
        case 2: t.file_size = pick(kSizes); break;
        case 3: strings.dataset = pick(kDatasets); break;
        case 4: strings.proddblock = pick(kBlocks); break;
        case 5: strings.scope = pick(kScopes); break;
        case 6: t.started_at = row.job_end; break;
        case 7: t.started_at = row.job_end + 1; break;
        default: break;  // agrees on everything
      }
      t.finished_at = t.started_at + 50;
      endpoints(t, row.job_site);
      transfers.emplace_back(t, strings);
    }
  }
  for (int i = 0; i < 40; ++i) {  // the hot lfn, staged by every task
    TransferRecord t;
    t.jeditaskid = rng.bernoulli(0.3) ? -1 : rng.uniform_int(40, 46);
    t.file_size = pick(kSizes);
    t.started_at = 9'000 + rng.uniform_int(0, 1'100);
    t.finished_at = t.started_at + 50;
    endpoints(t, pick(kSites));
    transfers.emplace_back(
        t, FileAttributes{"hot", pick(kDatasets), pick(kBlocks),
                          pick(kScopes)});
  }
  for (std::size_t i = transfers.size(); i > 1; --i) {
    std::swap(transfers[i - 1], transfers[rng.uniform_index(i)]);
  }
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    transfers[i].first.transfer_id = i;
    store.record_transfer(transfers[i].first, transfers[i].second);
  }
  return store;
}

// --- tests -----------------------------------------------------------------

TEST(MatchOracle, AdversarialStoresAgree) {
  Tally total;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MetadataStore store = adversarial_store(seed);
    const Tally tally = check_against_oracle(store, every_job(store));
    total.differences += tally.differences;
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      total.oracle_matched[m] += tally.oracle_matched[m];
    }
  }
  EXPECT_EQ(total.differences, 0u);
  // Not vacuous: every method matches, and each relaxation matches more.
  EXPECT_GT(total.oracle_matched[0], 0u);
  EXPECT_GT(total.oracle_matched[1], total.oracle_matched[0]);
  EXPECT_GT(total.oracle_matched[2], total.oracle_matched[1]);
}

TEST(MatchOracle, SmallCampaignAgreesOnEveryJob) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 1.0;
  config.seed = 7;
  const scenario::ScenarioResult r = scenario::run_campaign(config);
  ASSERT_EQ(r.store.jobs().size(), 1'859u);
  const Tally tally = check_against_oracle(r.store, every_job(r.store));
  EXPECT_EQ(tally.differences, 0u);
  EXPECT_EQ(tally.oracle_matched, (std::array<std::size_t, 3>{115, 250, 274}));
}

TEST(MatchOracle, PaperScaleSampleAgrees) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::paper_scale();
  config.seed = 20250401;
  const scenario::ScenarioResult r = scenario::run_campaign(config);
  // A full scan per job costs jobs x (files + transfers): sample 512
  // jobs, drawn without replacement.  The pool-built index is compared
  // with the serial one on all of them.
  std::vector<std::size_t> jobs = every_job(r.store);
  EXPECT_EQ(jobs.size(), 29'531u);
  util::Rng rng(config.seed);
  constexpr std::size_t kSample = 512;
  ASSERT_GT(jobs.size(), kSample);
  for (std::size_t i = 0; i < kSample; ++i) {
    std::swap(jobs[i], jobs[i + rng.uniform_index(jobs.size() - i)]);
  }
  jobs.resize(kSample);
  std::sort(jobs.begin(), jobs.end());
  const Tally tally = check_against_oracle(r.store, jobs);
  EXPECT_EQ(tally.differences, 0u);
  for (const std::size_t matched : tally.oracle_matched) {
    EXPECT_GT(matched, 0u);
  }
}

}  // namespace
