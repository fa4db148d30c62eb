// Unit tests for the matching core (Algorithm 1 and RM1/RM2) against
// hand-crafted metadata snapshots where the expected mapping is known.
#include <gtest/gtest.h>

#include <set>

#include "core/exact.hpp"
#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/relaxed.hpp"

namespace pandarus::core {
namespace {

using telemetry::FileDirection;
using telemetry::FileRecord;
using telemetry::JobRecord;
using telemetry::MetadataStore;
using telemetry::TransferRecord;

constexpr grid::SiteId kSiteA = 0;
constexpr grid::SiteId kSiteB = 1;
constexpr grid::SiteId kSiteC = 2;

JobRecord make_job(std::int64_t pandaid, std::int64_t taskid,
                   grid::SiteId site, util::SimTime created,
                   util::SimTime start, util::SimTime end,
                   std::uint64_t nin, std::uint64_t nout = 0) {
  JobRecord j;
  j.pandaid = pandaid;
  j.jeditaskid = taskid;
  j.computing_site = site;
  j.creation_time = created;
  j.start_time = start;
  j.end_time = end;
  j.ninputfilebytes = nin;
  j.noutputfilebytes = nout;
  return j;
}

/// The attributes of a row named `lfn`: dataset "ds.<lfn>", proddblock
/// "blk.<lfn>", scope "mc23".
struct Names {
  explicit Names(const std::string& name)
      : lfn(name), dataset("ds." + name), proddblock("blk." + name) {}

  [[nodiscard]] telemetry::FileAttributes view() const {
    return {lfn, dataset, proddblock, "mc23"};
  }

  std::string lfn;
  std::string dataset;
  std::string proddblock;
};

void add_file(MetadataStore& store, std::int64_t pandaid, std::int64_t taskid,
              const std::string& lfn, std::uint64_t size,
              FileDirection dir = FileDirection::kInput) {
  FileRecord f;
  f.pandaid = pandaid;
  f.jeditaskid = taskid;
  f.file_size = size;
  f.direction = dir;
  store.record_file(f, Names(lfn).view());
}

void add_transfer(MetadataStore& store, std::uint64_t id, std::int64_t taskid,
                  const std::string& lfn, std::uint64_t size,
                  grid::SiteId src, grid::SiteId dst, dms::Activity activity,
                  util::SimTime t0, util::SimTime t1) {
  TransferRecord t;
  t.transfer_id = id;
  t.jeditaskid = taskid;
  t.file_size = size;
  t.source_site = src;
  t.destination_site = dst;
  t.activity = activity;
  t.started_at = t0;
  t.finished_at = t1;
  t.success = true;
  store.record_transfer(t, Names(lfn).view());
}

/// One job, fully staged by two downloads whose sizes sum exactly to
/// ninputfilebytes: the canonical exact match.
MetadataStore canonical_store() {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 300));
  add_file(store, 1, 100, "f1", 100);
  add_file(store, 1, 100, "f2", 200);
  add_transfer(store, 10, 100, "f1", 100, kSiteB, kSiteA,
               dms::Activity::kAnalysisDownload, 100, 200);
  add_transfer(store, 11, 100, "f2", 200, kSiteA, kSiteA,
               dms::Activity::kAnalysisDownload, 200, 400);
  return store;
}

TEST(ExactMatch, CanonicalFullStagingMatches) {
  MetadataStore store = canonical_store();
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::exact());
  ASSERT_TRUE(m.matched());
  EXPECT_EQ(m.transfer_indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(m.remote_transfers, 1u);  // B->A
  EXPECT_EQ(m.local_transfers, 1u);   // A->A
  EXPECT_EQ(m.locality(), LocalityClass::kMixed);
}

TEST(ExactMatch, SizeSumGateRejectsPartialStaging) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 300));
  add_file(store, 1, 100, "f1", 100);
  add_file(store, 1, 100, "f2", 200);
  // Only f1 was transferred: S = 100 != 300 and != 0.
  add_transfer(store, 10, 100, "f1", 100, kSiteB, kSiteA,
               dms::Activity::kAnalysisDownload, 100, 200);
  Matcher matcher(store);
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  // RM1 drops the gate and recovers it (paper §4.3, case 1).
  MatchedJob rm1 = matcher.match_job(0, MatchOptions::rm1());
  ASSERT_TRUE(rm1.matched());
  EXPECT_EQ(rm1.transfer_indices.size(), 1u);
}

TEST(ExactMatch, OutputSumAlsoSatisfiesGate) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 999, 500));
  add_file(store, 1, 100, "out1", 500, FileDirection::kOutput);
  add_transfer(store, 10, 100, "out1", 500, kSiteA, kSiteB,
               dms::Activity::kAnalysisUpload, 1900, 1950);
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::exact());
  ASSERT_TRUE(m.matched());
  EXPECT_EQ(m.remote_transfers, 1u);
}

TEST(ExactMatch, SizeJitterBreaksAttributeMatch) {
  MetadataStore store = canonical_store();
  store.transfers_mutable()[0].file_size = 101;  // one byte off
  Matcher matcher(store);
  // f1's transfer no longer attribute-matches; sum = 200 != 300, so the
  // exact gate fails; RM1 still matches f2's local transfer.
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  MatchedJob rm1 = matcher.match_job(0, MatchOptions::rm1());
  ASSERT_TRUE(rm1.matched());
  EXPECT_EQ(rm1.transfer_indices, (std::vector<std::size_t>{1}));
}

TEST(ExactMatch, TransferAfterJobEndExcluded) {
  MetadataStore store = canonical_store();
  store.transfers_mutable()[1].started_at = 2500;  // after end_time 2000
  Matcher matcher(store);
  // Candidate set = {f1}: S = 100 != 300 -> exact fails.
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  // RM1 keeps the remaining time-valid candidate.
  EXPECT_EQ(matcher.match_job(0, MatchOptions::rm1()).transfer_indices.size(),
            1u);
}

TEST(ExactMatch, DownloadToWrongSiteFailsSiteCheck) {
  MetadataStore store = canonical_store();
  store.transfers_mutable()[0].destination_site = kSiteC;
  store.transfers_mutable()[1].destination_site = kSiteC;
  Matcher matcher(store);
  // Gate passes (sizes intact) but no transfer satisfies the site
  // condition, so the matched set is empty under every method except
  // none (RM2 does not help: sites are known-but-different).
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::rm1()).matched());
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::rm2()).matched());
}

TEST(ExactMatch, UploadChecksSourceSite) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 0, 500));
  add_file(store, 1, 100, "out1", 500, FileDirection::kOutput);
  add_transfer(store, 10, 100, "out1", 500, kSiteB, kSiteC,
               dms::Activity::kAnalysisUpload, 1900, 1950);
  Matcher matcher(store);
  // Upload's source (B) is not the computing site (A).
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
}

TEST(Rm2, RecoversUnknownDestinationDownload) {
  MetadataStore store = canonical_store();
  store.transfers_mutable()[0].destination_site = grid::kUnknownSite;
  Matcher matcher(store);
  // Exact: gate passes (S = 300) but only f2 passes the site check.
  MatchedJob exact = matcher.match_job(0, MatchOptions::exact());
  EXPECT_EQ(exact.transfer_indices, (std::vector<std::size_t>{1}));
  // RM2 additionally admits the UNKNOWN-destination transfer.
  MatchedJob rm2 = matcher.match_job(0, MatchOptions::rm2());
  EXPECT_EQ(rm2.transfer_indices, (std::vector<std::size_t>{0, 1}));
  // The unknown-endpoint transfer counts as remote.
  EXPECT_EQ(rm2.remote_transfers, 1u);
}

TEST(Rm2, RecoversUnknownSourceUpload) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 0, 500));
  add_file(store, 1, 100, "out1", 500, FileDirection::kOutput);
  add_transfer(store, 10, 100, "out1", 500, grid::kUnknownSite, kSiteB,
               dms::Activity::kAnalysisUpload, 1900, 1950);
  Matcher matcher(store);
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::rm1()).matched());
  EXPECT_TRUE(matcher.match_job(0, MatchOptions::rm2()).matched());
}

TEST(Match, TaskIdMismatchExcludesCandidate) {
  MetadataStore store = canonical_store();
  store.transfers_mutable()[0].jeditaskid = 999;
  Matcher matcher(store);
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  // The predicate holds for every method: RM2 keeps only the other file.
  EXPECT_EQ(matcher.match_job(0, MatchOptions::rm2()).transfer_indices,
            (std::vector<std::size_t>{1}));
}

TEST(Match, DroppedTaskIdExcludesCandidate) {
  MetadataStore store = canonical_store();
  store.transfers_mutable()[1].jeditaskid = -1;  // corruption channel
  Matcher matcher(store);
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
}

TEST(Match, MissingFileRecordsMeanNoMatch) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 300));
  add_transfer(store, 10, 100, "f1", 300, kSiteA, kSiteA,
               dms::Activity::kAnalysisDownload, 100, 200);
  Matcher matcher(store);
  // No file rows bridge the job to the transfer.
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::rm2()).matched());
}

TEST(Match, StaleFileRowWithWrongTaskIdIgnored) {
  MetadataStore store = canonical_store();
  store.files_mutable()[0].jeditaskid = 777;  // stale row
  Matcher matcher(store);
  // Only f2's row bridges; S = 200 != 300 -> exact fails, RM1 matches f2.
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  EXPECT_EQ(matcher.match_job(0, MatchOptions::rm1()).transfer_indices,
            (std::vector<std::size_t>{1}));
}

TEST(Match, DuplicateTransferSetBreaksGateOnly) {
  // The Fig. 12 pattern: the same files transferred twice (pre-placement
  // with UNKNOWN destination + job-triggered staging).
  MetadataStore store = canonical_store();
  add_transfer(store, 12, 100, "f1", 100, kSiteB, grid::kUnknownSite,
               dms::Activity::kAnalysisDownload, -500, -400);
  add_transfer(store, 13, 100, "f2", 200, kSiteB, grid::kUnknownSite,
               dms::Activity::kAnalysisDownload, -400, -300);
  Matcher matcher(store);
  // S over all candidates = 600 != 300 -> exact rejects the whole job.
  EXPECT_FALSE(matcher.match_job(0, MatchOptions::exact()).matched());
  // RM1 keeps the correctly-recorded set.
  EXPECT_EQ(matcher.match_job(0, MatchOptions::rm1()).transfer_indices.size(),
            2u);
  // RM2 surfaces all four - the duplicate is now visible.
  MatchedJob rm2 = matcher.match_job(0, MatchOptions::rm2());
  EXPECT_EQ(rm2.transfer_indices.size(), 4u);
}

TEST(Match, RunCollectsOnlyMatchedJobs) {
  MetadataStore store = canonical_store();
  store.record_job(make_job(2, 101, kSiteB, 0, 500, 900, 50));  // no files
  Matcher matcher(store);
  MatchResult result = matcher.run(MatchOptions::exact());
  EXPECT_EQ(result.jobs_considered, 2u);
  ASSERT_EQ(result.matched_job_count(), 1u);
  EXPECT_EQ(result.jobs[0].job_index, 0u);
  EXPECT_EQ(result.matched_transfer_count(), 2u);
}

TEST(Match, MethodInclusionInvariant) {
  // For any snapshot: exact set is a subset of RM1's, RM1's of RM2's.
  MetadataStore store = canonical_store();
  add_transfer(store, 12, 100, "f1", 100, kSiteB, grid::kUnknownSite,
               dms::Activity::kAnalysisDownload, 50, 80);
  Matcher matcher(store);
  const TriMatchResult tri = run_all_methods(matcher);
  auto set_of = [](const MatchResult& r, std::size_t job) {
    for (const auto& m : r.jobs) {
      if (m.job_index == job) return m.transfer_indices;
    }
    return std::vector<std::size_t>{};
  };
  const auto exact = set_of(tri.exact, 0);
  const auto rm1 = set_of(tri.rm1, 0);
  const auto rm2 = set_of(tri.rm2, 0);
  EXPECT_TRUE(std::includes(rm1.begin(), rm1.end(), exact.begin(),
                            exact.end()));
  EXPECT_TRUE(std::includes(rm2.begin(), rm2.end(), rm1.begin(), rm1.end()));
}

// --- diagnostics ---------------------------------------------------------

TEST(Diagnosis, ReportsEveryTerminalStage) {
  // Matched.
  {
    MetadataStore store = canonical_store();
    Matcher matcher(store);
    const MatchDiagnosis d = matcher.diagnose_job(0, MatchOptions::exact());
    EXPECT_EQ(d.outcome, MatchOutcome::kMatched);
    EXPECT_EQ(d.file_rows, 2u);
    EXPECT_EQ(d.candidates, 2u);
    EXPECT_EQ(d.candidate_sum, 300u);
    EXPECT_EQ(d.site_passing, 2u);
  }
  // No file rows.
  {
    MetadataStore store = canonical_store();
    store.files_mutable().clear();
    Matcher matcher(store);
    EXPECT_EQ(matcher.diagnose_job(0, MatchOptions::exact()).outcome,
              MatchOutcome::kNoFileRows);
  }
  // No candidates (sizes jittered away).
  {
    MetadataStore store = canonical_store();
    store.transfers_mutable()[0].file_size = 1;
    store.transfers_mutable()[1].file_size = 1;
    Matcher matcher(store);
    const MatchDiagnosis d = matcher.diagnose_job(0, MatchOptions::exact());
    EXPECT_EQ(d.outcome, MatchOutcome::kNoCandidates);
    EXPECT_EQ(d.file_rows, 2u);
  }
  // Size gate.
  {
    MetadataStore store = canonical_store();
    store.jobs_mutable()[0].ninputfilebytes = 999;
    Matcher matcher(store);
    const MatchDiagnosis d = matcher.diagnose_job(0, MatchOptions::exact());
    EXPECT_EQ(d.outcome, MatchOutcome::kSizeGateFailed);
    EXPECT_EQ(d.candidate_sum, 300u);
    // RM1 skips the gate and matches.
    EXPECT_EQ(matcher.diagnose_job(0, MatchOptions::rm1()).outcome,
              MatchOutcome::kMatched);
  }
  // Site check eliminates everything.
  {
    MetadataStore store = canonical_store();
    store.transfers_mutable()[0].destination_site = kSiteC;
    store.transfers_mutable()[1].destination_site = kSiteC;
    Matcher matcher(store);
    const MatchDiagnosis d = matcher.diagnose_job(0, MatchOptions::exact());
    EXPECT_EQ(d.outcome, MatchOutcome::kSiteCheckEliminatedAll);
    EXPECT_EQ(d.site_passing, 0u);
  }
}

TEST(Diagnosis, OutcomeConsistentWithMatchJob) {
  MetadataStore store = canonical_store();
  store.record_job(make_job(2, 101, kSiteB, 0, 500, 900, 50));
  Matcher matcher(store);
  for (std::size_t i = 0; i < store.jobs().size(); ++i) {
    for (const auto options :
         {MatchOptions::exact(), MatchOptions::rm1(), MatchOptions::rm2()}) {
      const bool matched = matcher.match_job(i, options).matched();
      const MatchDiagnosis d = matcher.diagnose_job(i, options);
      EXPECT_EQ(matched, d.outcome == MatchOutcome::kMatched);
    }
  }
}

TEST(Diagnosis, NamesDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kMatchOutcomeCount; ++i) {
    names.insert(match_outcome_name(static_cast<MatchOutcome>(i)));
  }
  EXPECT_EQ(names.size(), kMatchOutcomeCount);
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, UnionMeasureMergesOverlaps) {
  EXPECT_EQ(union_measure({{0, 10}, {5, 15}}), 15);
  EXPECT_EQ(union_measure({{0, 10}, {20, 30}}), 20);
  EXPECT_EQ(union_measure({{0, 10}, {10, 20}}), 20);  // touching
  EXPECT_EQ(union_measure({}), 0);
  EXPECT_EQ(union_measure({{5, 5}, {7, 3}}), 0);  // empty/inverted
  EXPECT_EQ(union_measure({{20, 30}, {0, 10}, {5, 25}}), 30);
}

TEST(Metrics, TransferTimeClippedToQueuePhase) {
  MetadataStore store = canonical_store();
  // Job: created 0, start 1000, end 2000.  Transfers [100,200], [200,400].
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::exact());
  const JobTransferMetrics metrics = compute_metrics(store, m);
  EXPECT_EQ(metrics.queuing_time, 1000);
  EXPECT_EQ(metrics.transfer_time_in_queue, 300);  // union [100,400)
  EXPECT_EQ(metrics.transfer_time_in_wall, 0);
  EXPECT_FALSE(metrics.transfer_spans_execution);
  EXPECT_NEAR(metrics.queue_fraction(), 0.3, 1e-12);
  EXPECT_EQ(metrics.transferred_bytes, 300u);
}

TEST(Metrics, SpanningTransferDetected) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 4000, 100));
  add_file(store, 1, 100, "f1", 100);
  // Transfer crosses the start time: the Fig. 11 anomaly.
  add_transfer(store, 10, 100, "f1", 100, kSiteA, kSiteA,
               dms::Activity::kAnalysisDownload, 500, 3000);
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::exact());
  ASSERT_TRUE(m.matched());
  const JobTransferMetrics metrics = compute_metrics(store, m);
  EXPECT_TRUE(metrics.transfer_spans_execution);
  EXPECT_EQ(metrics.transfer_time_in_queue, 500);
  EXPECT_EQ(metrics.transfer_time_in_wall, 2000);
}

// --- inference / redundancy --------------------------------------------

TEST(Inference, UnknownDestinationRecoveredBySizePairing) {
  MetadataStore store = canonical_store();
  add_transfer(store, 12, 100, "f1", 100, kSiteB, grid::kUnknownSite,
               dms::Activity::kAnalysisDownload, -500, -400);
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::rm2());
  ASSERT_EQ(m.transfer_indices.size(), 3u);
  const auto inferred = infer_unknown_sites(store, m);
  ASSERT_EQ(inferred.size(), 1u);
  EXPECT_EQ(inferred[0].transfer_index, 2u);
  EXPECT_EQ(inferred[0].inferred_destination, kSiteA);
}

TEST(Inference, RedundantGroupsFoundAfterInference) {
  MetadataStore store = canonical_store();
  add_transfer(store, 12, 100, "f1", 100, kSiteB, grid::kUnknownSite,
               dms::Activity::kAnalysisDownload, -500, -400);
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::rm2());
  const auto groups = find_redundant_transfers(store, m);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].lfn, "f1");
  EXPECT_EQ(groups[0].destination, kSiteA);
  EXPECT_EQ(groups[0].transfer_indices.size(), 2u);
  EXPECT_EQ(groups[0].wasted_bytes(), 100u);
}

TEST(Inference, NoEvidenceMeansNoInference) {
  MetadataStore store;
  store.record_job(make_job(1, 100, kSiteA, 0, 1000, 2000, 100));
  add_file(store, 1, 100, "f1", 100);
  add_transfer(store, 10, 100, "f1", 100, kSiteB, grid::kUnknownSite,
               dms::Activity::kAnalysisDownload, 100, 200);
  Matcher matcher(store);
  MatchedJob m = matcher.match_job(0, MatchOptions::rm2());
  ASSERT_TRUE(m.matched());
  EXPECT_TRUE(infer_unknown_sites(store, m).empty());
}

TEST(Inference, GlobalRedundancyScan) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 3; ++i) {
    add_transfer(store, i, -1, "dup", 500, kSiteB, kSiteA,
                 dms::Activity::kDataRebalance,
                 static_cast<util::SimTime>(i * 100),
                 static_cast<util::SimTime>(i * 100 + 50));
  }
  add_transfer(store, 9, -1, "uniq", 700, kSiteB, kSiteC,
               dms::Activity::kDataRebalance, 0, 10);
  const GlobalRedundancy g = scan_global_redundancy(store);
  EXPECT_EQ(g.groups, 1u);
  EXPECT_EQ(g.redundant_transfers, 2u);
  EXPECT_EQ(g.wasted_bytes, 1000u);
}

}  // namespace
}  // namespace pandarus::core
