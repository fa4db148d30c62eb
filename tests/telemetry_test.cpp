// Unit tests for the telemetry layer: records, the store, recorder
// conversion, corruption injection, CSV export bytes and the store
// digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/corruption.hpp"
#include "telemetry/io.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/store.hpp"

namespace pandarus::telemetry {
namespace {

/// Owning strings behind one row's attributes.
struct Names {
  std::string lfn;
  std::string dataset = "ds";
  std::string proddblock = "blk";
  std::string scope = "mc23";

  [[nodiscard]] FileAttributes view() const {
    return {lfn, dataset, proddblock, scope};
  }
};

TransferRecord basic_transfer(std::uint64_t id, std::int64_t taskid = 5) {
  TransferRecord t;
  t.transfer_id = id;
  t.jeditaskid = taskid;
  t.file_size = 1000 + id;
  t.source_site = 1;
  t.destination_site = 2;
  t.activity = dms::Activity::kAnalysisDownload;
  t.started_at = static_cast<util::SimTime>(id * 100);
  t.finished_at = static_cast<util::SimTime>(id * 100 + 50);
  return t;
}

FileRecord basic_file() {
  FileRecord f;
  f.pandaid = 1;
  f.jeditaskid = 5;
  f.file_size = 42;
  f.direction = FileDirection::kOutput;
  return f;
}

/// Records `t` under lfn "f<transfer_id>" and the shared attributes.
void record(MetadataStore& store, const TransferRecord& t) {
  store.record_transfer(t, Names{"f" + std::to_string(t.transfer_id)}.view());
}

JobRecord basic_job(std::int64_t pandaid, std::int64_t taskid,
                    util::SimTime end) {
  JobRecord j;
  j.pandaid = pandaid;
  j.jeditaskid = taskid;
  j.computing_site = 1;
  j.creation_time = 0;
  j.start_time = end / 2;
  j.end_time = end;
  j.ninputfilebytes = 123;
  return j;
}

TEST(Records, TransferDerivedProperties) {
  TransferRecord t = basic_transfer(1);
  EXPECT_TRUE(t.has_jeditaskid());
  EXPECT_TRUE(t.is_download());
  EXPECT_FALSE(t.is_upload());
  EXPECT_FALSE(t.is_local());
  t.destination_site = 1;
  EXPECT_TRUE(t.is_local());
  t.source_site = grid::kUnknownSite;
  EXPECT_FALSE(t.is_local());  // unknown endpoints are never local
  t.jeditaskid = -1;
  EXPECT_FALSE(t.has_jeditaskid());
  EXPECT_NEAR(basic_transfer(1).throughput_bps(), 1001 / 0.05, 1.0);
}

TEST(Store, CountsAndTaskidTally) {
  MetadataStore store;
  record(store, basic_transfer(1));
  record(store, basic_transfer(2, -1));
  store.record_job(basic_job(1, 5, 1000));
  const auto counts = store.counts();
  EXPECT_EQ(counts.jobs, 1u);
  EXPECT_EQ(counts.transfers, 2u);
  EXPECT_EQ(counts.transfers_with_taskid, 1u);
}

TEST(Store, CopyOutlivesItsSource) {
  // A copy owns its rows and its strings, so it writes the source's
  // bytes after the source is gone, and interns on its own.
  auto source = std::make_unique<MetadataStore>();
  for (std::uint64_t i = 0; i < 300; ++i) {
    source->record_job(basic_job(static_cast<std::int64_t>(i), 5, 1000));
    source->record_file(basic_file(),
                        Names{"in" + std::to_string(i),
                              "ds" + std::to_string(i % 7)}
                            .view());
    record(*source, basic_transfer(i));
  }
  const auto csv = [](const MetadataStore& store) {
    std::ostringstream os;
    write_jobs_csv(os, store);
    write_files_csv(os, store);
    write_transfers_csv(os, store);
    return os.str();
  };
  const std::string bytes = csv(*source);
  const std::uint64_t digest = store_digest(*source);
  MetadataStore copy = *source;
  source.reset();

  EXPECT_EQ(csv(copy), bytes);
  EXPECT_EQ(store_digest(copy), digest);
  const std::size_t symbols = copy.symbols().size();
  copy.record_file(basic_file(), Names{"in0"}.view());
  EXPECT_EQ(copy.files().back().lfn_sym, copy.files().front().lfn_sym);
  copy.record_file(basic_file(), Names{"fresh"}.view());
  EXPECT_EQ(copy.files().back().lfn_sym, symbols);
  EXPECT_EQ(copy.attributes(copy.files().back()).lfn, "fresh");
}

struct RecorderFixture {
  MetadataStore store;
  dms::FileCatalog catalog;
  dms::DatasetId ds;
  dms::FileId file;

  RecorderFixture() {
    ds = catalog.create_dataset("mc23", "recorder.ds");
    file = catalog.add_file(ds, 7'000'000);
  }

  Recorder make(Recorder::Params params = {}) {
    return Recorder(store, catalog, util::Rng(9), params);
  }

  dms::TransferOutcome outcome(dms::Activity activity,
                               std::int64_t pandaid = 11) {
    dms::TransferOutcome o;
    o.transfer_id = 77;
    o.file = file;
    o.size_bytes = 7'000'000;
    o.src = 0;
    o.dst = 1;
    o.activity = activity;
    o.jeditaskid = 5;
    o.pandaid = pandaid;
    o.started_at = 10;
    o.finished_at = 60;
    o.success = true;
    o.replica_registered = true;
    return o;
  }
};

TEST(Recorder, TransferRecordCarriesCatalogNames) {
  RecorderFixture fx;
  Recorder rec = fx.make();
  rec.on_transfer(fx.outcome(dms::Activity::kAnalysisDownload));
  ASSERT_EQ(fx.store.transfers().size(), 1u);
  const TransferRecord& t = fx.store.transfers()[0];
  const FileAttributes names = fx.store.attributes(t);
  EXPECT_EQ(names.lfn, fx.catalog.lfn(fx.file));
  EXPECT_EQ(names.dataset, "recorder.ds");
  EXPECT_EQ(names.proddblock, fx.catalog.proddblock(fx.file));
  EXPECT_EQ(names.scope, "mc23");
  EXPECT_EQ(t.file_size, 7'000'000u);
  EXPECT_EQ(t.jeditaskid, 5);
  EXPECT_EQ(t.destination_site, 1u);
}

TEST(Recorder, RegistrationFailureMayUnknownDestination) {
  RecorderFixture fx;
  Recorder::Params params;
  params.p_unknown_dst_on_registration_failure = 1.0;
  Recorder rec = fx.make(params);
  auto o = fx.outcome(dms::Activity::kAnalysisDownload);
  o.replica_registered = false;
  rec.on_transfer(o);
  EXPECT_EQ(fx.store.transfers()[0].destination_site, grid::kUnknownSite);
}

TEST(Recorder, DirectIoPartialReadsAreJobCorrelated) {
  RecorderFixture fx;
  Recorder::Params params;
  params.p_partial_read_job = 0.5;
  Recorder rec = fx.make(params);
  // Record many streams for two jobs; each job's records must be
  // uniformly clean or uniformly partial.
  for (int rep = 0; rep < 5; ++rep) {
    rec.on_transfer(
        fx.outcome(dms::Activity::kAnalysisDownloadDirectIO, 1001));
    rec.on_transfer(
        fx.outcome(dms::Activity::kAnalysisDownloadDirectIO, 1002));
  }
  auto all_clean = [&](std::int64_t, int offset) {
    bool clean = true;
    bool dirty = true;
    for (int rep = 0; rep < 5; ++rep) {
      const auto idx = static_cast<std::size_t>(rep * 2 + offset);
      const bool full = fx.store.transfers()[idx].file_size == 7'000'000u;
      clean &= full;
      dirty &= !full;
    }
    return clean || dirty;  // correlated either way
  };
  EXPECT_TRUE(all_clean(1001, 0));
  EXPECT_TRUE(all_clean(1002, 1));
}

TEST(Recorder, ProductionJobsSkippedByDefault) {
  RecorderFixture fx;
  Recorder rec = fx.make();
  wms::Job job;
  job.pandaid = 1;
  job.jeditaskid = 5;
  job.kind = wms::JobKind::kProduction;
  job.input_files = {fx.file};
  rec.on_job_complete(job);
  EXPECT_TRUE(fx.store.jobs().empty());
  EXPECT_TRUE(fx.store.files().empty());

  job.kind = wms::JobKind::kUserAnalysis;
  rec.on_job_complete(job);
  EXPECT_EQ(fx.store.jobs().size(), 1u);
  EXPECT_EQ(fx.store.files().size(), 1u);
  EXPECT_EQ(fx.store.files()[0].direction, FileDirection::kInput);
}

/// The Recorder interns a file's names on its first row and copies the
/// symbols onto its later rows.  A second store fed the same rows
/// through record_*(row, FileAttributes), which interns every row's
/// names, must come out identical: equal digests and equal symbol ids,
/// also across a release_file_cache().
TEST(Recorder, CachedSymbolsMatchInterningEveryRow) {
  dms::FileCatalog catalog;
  util::Rng rng(4242);
  std::vector<dms::FileId> files;
  const auto add_dataset = [&](std::string scope, std::string name) {
    const dms::DatasetId ds = catalog.create_dataset(scope, name);
    for (std::size_t k = 3 + rng.uniform_index(25); k > 0; --k) {
      files.push_back(catalog.add_file(ds, 1 + rng.uniform_index(1 << 30)));
    }
  };
  add_dataset("mc23", "first.ds");
  add_dataset("data24", "second.ds");

  MetadataStore cached;
  Recorder recorder(cached, catalog, util::Rng(9), Recorder::Params{});
  MetadataStore interned;
  const auto intern_row = [&](const auto& row, dms::FileId f) {
    const std::string lfn = catalog.lfn(f);
    const std::string block = catalog.proddblock(f);
    const FileAttributes names{lfn, catalog.dataset_name(f), block,
                               catalog.scope(f)};
    if constexpr (std::is_same_v<std::decay_t<decltype(row)>, FileRecord>) {
      interned.record_file(row, names);
    } else {
      interned.record_transfer(row, names);
    }
  };
  const auto pick = [&] { return files[rng.uniform_index(files.size())]; };

  for (std::int64_t step = 1; step <= 3'000; ++step) {
    const std::size_t what = rng.uniform_index(20);
    if (step == 2'000) {
      // Rows after a release intern their names again: same ids.
      recorder.release_file_cache();
    }
    if (what == 0) {
      // The catalog grows while the recorder runs (production output).
      add_dataset("user.grow", "grown.ds." + std::to_string(step));
    } else if (what < 7) {
      wms::Job job;
      job.pandaid = step;
      job.jeditaskid = step % 17;
      job.kind = what == 1 ? wms::JobKind::kProduction
                           : wms::JobKind::kUserAnalysis;
      for (std::size_t k = rng.uniform_index(6); k > 0; --k) {
        job.input_files.push_back(pick());
      }
      for (std::size_t k = rng.uniform_index(3); k > 0; --k) {
        job.output_files.push_back(pick());
      }
      const std::size_t jobs_before = cached.jobs().size();
      std::size_t row = cached.files().size();
      recorder.on_job_complete(job);
      if (cached.jobs().size() == jobs_before) continue;
      interned.record_job(cached.jobs().back());
      for (const auto* list : {&job.input_files, &job.output_files}) {
        for (dms::FileId f : *list) intern_row(cached.files()[row++], f);
      }
      ASSERT_EQ(row, cached.files().size());
    } else {
      dms::TransferOutcome o;
      o.transfer_id = static_cast<std::uint64_t>(step);
      o.file = pick();
      o.size_bytes = catalog.file(o.file).size_bytes;
      o.src = 0;
      o.dst = 1;
      o.activity = static_cast<dms::Activity>(
          rng.uniform_index(dms::kActivityCount));
      o.pandaid = step % 29;
      o.finished_at = 50;
      o.success = rng.bernoulli(0.9);
      o.replica_registered = rng.bernoulli(0.8);
      recorder.on_transfer(o);
      intern_row(cached.transfers().back(), o.file);
    }
  }

  ASSERT_GT(cached.files().size(), 1'000u);
  ASSERT_GT(cached.transfers().size(), 1'000u);
  EXPECT_EQ(store_digest(cached), store_digest(interned));
  ASSERT_EQ(cached.symbols().size(), interned.symbols().size());
  for (std::size_t id = 0; id < cached.symbols().size(); ++id) {
    ASSERT_EQ(cached.symbols().view(static_cast<util::Symbol>(id)),
              interned.symbols().view(static_cast<util::Symbol>(id)));
  }
  const auto same_symbols = [](const auto& a, const auto& b) {
    return a.lfn_sym == b.lfn_sym && a.dataset_sym == b.dataset_sym &&
           a.proddblock_sym == b.proddblock_sym &&
           a.scope_sym == b.scope_sym;
  };
  ASSERT_EQ(cached.files().size(), interned.files().size());
  for (std::size_t i = 0; i < cached.files().size(); ++i) {
    ASSERT_TRUE(same_symbols(cached.files()[i], interned.files()[i])) << i;
  }
  ASSERT_EQ(cached.transfers().size(), interned.transfers().size());
  for (std::size_t i = 0; i < cached.transfers().size(); ++i) {
    ASSERT_TRUE(same_symbols(cached.transfers()[i], interned.transfers()[i]))
        << i;
  }
}

TEST(Corruption, ChannelsAreCountedAndBounded) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 2000; ++i) record(store, basic_transfer(i));
  CorruptionParams params;
  params.p_drop_transfer_taskid = 0.5;
  params.p_unknown_source = 0.0;
  params.p_unknown_destination = 0.0;
  params.p_size_jitter = 0.0;
  params.bad_site_fraction = 0.0;
  params.p_drop_file_record = 0.0;
  params.p_drop_job_record = 0.0;
  const CorruptionReport report =
      inject_corruption(store, params, util::Rng(3));
  EXPECT_NEAR(static_cast<double>(report.transfers_taskid_dropped), 1000.0,
              120.0);
  std::size_t without = 0;
  for (const auto& t : store.transfers()) without += !t.has_jeditaskid();
  EXPECT_EQ(without, report.transfers_taskid_dropped);
}

TEST(Corruption, BadSiteChannelSparesUploads) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 500; ++i) {
    TransferRecord t = basic_transfer(i);
    // Big files so a relative jitter always changes the integer size.
    t.file_size = 1'000'000'000 + i;
    t.activity = i % 2 == 0 ? dms::Activity::kAnalysisDownload
                            : dms::Activity::kAnalysisUpload;
    record(store, t);
  }
  CorruptionParams params;
  params.p_drop_transfer_taskid = 0.0;
  params.p_unknown_source = 0.0;
  params.p_unknown_destination = 0.0;
  params.p_size_jitter = 0.0;
  params.bad_site_fraction = 1.0;  // every site is bad
  params.p_size_jitter_bad_site = 1.0;
  params.p_unknown_endpoint_bad_site_tasked = 0.0;
  params.p_unknown_endpoint_bad_site_anonymous = 0.0;
  inject_corruption(store, params, util::Rng(3));
  for (std::size_t i = 0; i < store.transfers().size(); ++i) {
    const TransferRecord& t = store.transfers()[i];
    const std::uint64_t original = 1'000'000'000 + i;
    if (t.is_upload()) {
      EXPECT_EQ(t.file_size, original);  // pilot-recorded, intact
    } else {
      EXPECT_NE(t.file_size, original);  // storage dump, jittered
    }
  }
}

TEST(Corruption, BadSiteFlagIsDeterministic) {
  CorruptionParams params;
  params.bad_site_fraction = 0.5;
  int bad = 0;
  for (grid::SiteId s = 0; s < 200; ++s) {
    EXPECT_EQ(is_bad_metadata_site(params, s),
              is_bad_metadata_site(params, s));
    bad += is_bad_metadata_site(params, s);
  }
  EXPECT_GT(bad, 60);
  EXPECT_LT(bad, 140);
  EXPECT_FALSE(is_bad_metadata_site(params, grid::kUnknownSite));
}

TEST(Corruption, DropChannelsShrinkStores) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    FileRecord f;
    f.pandaid = static_cast<std::int64_t>(i);
    store.record_file(f, Names{"x"}.view());
    store.record_job(basic_job(static_cast<std::int64_t>(i), 5, 100));
  }
  CorruptionParams params{};
  params.p_drop_file_record = 0.3;
  params.p_drop_job_record = 0.3;
  const auto report = inject_corruption(store, params, util::Rng(4));
  EXPECT_EQ(store.files().size(), 1000 - report.file_records_dropped);
  EXPECT_EQ(store.jobs().size(), 1000 - report.job_records_dropped);
  EXPECT_NEAR(static_cast<double>(report.file_records_dropped), 300.0, 80.0);
}

TEST(Io, CsvWritersEmitGoldenBytes) {
  MetadataStore store;
  store.record_job(basic_job(1, 5, 1000));
  JobRecord failed = basic_job(2, 6, 2000);
  failed.failed = true;
  failed.error_code = 1305;
  failed.task_status = wms::TaskStatus::kFailed;
  failed.computing_site = grid::kUnknownSite;
  store.record_job(failed);
  store.record_file(basic_file(), Names{"a,b"}.view());  // comma: quoted
  TransferRecord t = basic_transfer(9);
  t.destination_site = grid::kUnknownSite;
  t.success = false;
  t.error = dms::TransferError::kStalledTerminal;
  record(store, t);

  std::ostringstream jobs;
  std::ostringstream files;
  std::ostringstream transfers;
  write_jobs_csv(jobs, store);
  write_files_csv(files, store);
  write_transfers_csv(transfers, store);
  EXPECT_EQ(jobs.str(),
            "pandaid,jeditaskid,computing_site,creation_time,start_time,"
            "end_time,ninputfilebytes,noutputfilebytes,failed,error_code,"
            "direct_io,task_status\n"
            "1,5,1,0,500,1000,123,0,0,0,0,0\n"
            "2,6,UNKNOWN,0,1000,2000,123,0,1,1305,0,2\n");
  EXPECT_EQ(files.str(),
            "pandaid,jeditaskid,lfn,dataset,proddblock,scope,file_size,"
            "direction\n"
            "1,5,\"a,b\",ds,blk,mc23,42,1\n");
  EXPECT_EQ(transfers.str(),
            "transfer_id,jeditaskid,lfn,dataset,proddblock,scope,file_size,"
            "source_site,destination_site,activity,started_at,finished_at,"
            "success,error\n"
            "9,5,f9,ds,blk,mc23,1009,1,UNKNOWN,0,900,950,0,2\n");
}

TEST(Io, StoreDigestCoversEveryField) {
  struct Rows {
    JobRecord job = basic_job(1, 5, 1000);
    FileRecord file = basic_file();
    Names file_names{"f1"};
    TransferRecord transfer = basic_transfer(9);
    Names transfer_names{"f9"};
  };
  const auto digest = [](const Rows& rows) {
    MetadataStore store;
    store.record_job(rows.job);
    store.record_file(rows.file, rows.file_names.view());
    store.record_transfer(rows.transfer, rows.transfer_names.view());
    return store_digest(store);
  };
  using Edit = void (*)(Rows&);
  struct Family {
    const char* name;
    void (*writer)(std::ostream&, const MetadataStore&);
    std::vector<Edit> edits;  ///< one per CSV column, in column order
  };
  const Family families[] = {
      {"job",
       &write_jobs_csv,
       {[](Rows& r) { ++r.job.pandaid; },
        [](Rows& r) { ++r.job.jeditaskid; },
        [](Rows& r) { r.job.computing_site = grid::kUnknownSite; },
        [](Rows& r) { ++r.job.creation_time; },
        [](Rows& r) { ++r.job.start_time; },
        [](Rows& r) { ++r.job.end_time; },
        [](Rows& r) { ++r.job.ninputfilebytes; },
        [](Rows& r) { ++r.job.noutputfilebytes; },
        [](Rows& r) { r.job.failed = true; },
        [](Rows& r) { r.job.error_code = 1305; },
        [](Rows& r) { r.job.direct_io = true; },
        [](Rows& r) { r.job.task_status = wms::TaskStatus::kDone; }}},
      {"file",
       &write_files_csv,
       {[](Rows& r) { ++r.file.pandaid; },
        [](Rows& r) { ++r.file.jeditaskid; },
        [](Rows& r) { r.file_names.lfn += "x"; },
        [](Rows& r) { r.file_names.dataset += "x"; },
        [](Rows& r) { r.file_names.proddblock += "x"; },
        [](Rows& r) { r.file_names.scope += "x"; },
        [](Rows& r) { ++r.file.file_size; },
        [](Rows& r) { r.file.direction = FileDirection::kInput; }}},
      {"transfer",
       &write_transfers_csv,
       {[](Rows& r) { ++r.transfer.transfer_id; },
        [](Rows& r) { r.transfer.jeditaskid = -1; },
        [](Rows& r) { r.transfer_names.lfn += "x"; },
        [](Rows& r) { r.transfer_names.dataset += "x"; },
        [](Rows& r) { r.transfer_names.proddblock += "x"; },
        [](Rows& r) { r.transfer_names.scope += "x"; },
        [](Rows& r) { ++r.transfer.file_size; },
        [](Rows& r) { r.transfer.source_site = 3; },
        [](Rows& r) { r.transfer.destination_site = 3; },
        [](Rows& r) { r.transfer.activity = dms::Activity::kAnalysisUpload; },
        [](Rows& r) { ++r.transfer.started_at; },
        [](Rows& r) { ++r.transfer.finished_at; },
        [](Rows& r) { r.transfer.success = false; },
        [](Rows& r) { r.transfer.error = dms::TransferError::kAborted; }}},
  };
  const std::uint64_t base = digest(Rows{});
  for (const Family& family : families) {
    std::ostringstream header;
    family.writer(header, MetadataStore{});
    const std::string columns = header.str();
    ASSERT_EQ(family.edits.size(),
              static_cast<std::size_t>(
                  std::count(columns.begin(), columns.end(), ',')) +
                  1)
        << family.name;
    for (std::size_t i = 0; i < family.edits.size(); ++i) {
      Rows rows;
      family.edits[i](rows);
      EXPECT_NE(digest(rows), base) << family.name << " column " << i;
    }
  }

  // Equal rows under different symbol ids: this store interned a file
  // row it then dropped, as the corruption injector does.
  MetadataStore shifted;
  const Rows rows;
  shifted.record_file(basic_file(), Names{"dropped"}.view());
  shifted.record_job(rows.job);
  shifted.record_file(rows.file, rows.file_names.view());
  shifted.record_transfer(rows.transfer, rows.transfer_names.view());
  shifted.files_mutable().erase(shifted.files_mutable().begin());
  MetadataStore plain;
  plain.record_file(rows.file, rows.file_names.view());
  ASSERT_NE(shifted.files()[0].lfn_sym, plain.files()[0].lfn_sym);
  EXPECT_EQ(store_digest(shifted), base);
}

}  // namespace
}  // namespace pandarus::telemetry
