#include "telemetry/io.hpp"

#include <fstream>
#include <functional>
#include <ostream>
#include <string_view>

#include "obs/event_log.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace pandarus::telemetry {
namespace {

std::string site_str(grid::SiteId site) {
  return site == grid::kUnknownSite ? "UNKNOWN" : std::to_string(site);
}

}  // namespace

void write_jobs_csv(std::ostream& os, const MetadataStore& store) {
  util::CsvWriter csv(os);
  csv.row("pandaid", "jeditaskid", "computing_site", "creation_time",
          "start_time", "end_time", "ninputfilebytes", "noutputfilebytes",
          "failed", "error_code", "direct_io", "task_status");
  for (const JobRecord& j : store.jobs()) {
    csv.row(j.pandaid, j.jeditaskid, site_str(j.computing_site),
            j.creation_time, j.start_time, j.end_time, j.ninputfilebytes,
            j.noutputfilebytes, static_cast<int>(j.failed), j.error_code,
            static_cast<int>(j.direct_io),
            static_cast<int>(j.task_status));
  }
}

void write_files_csv(std::ostream& os, const MetadataStore& store) {
  util::CsvWriter csv(os);
  csv.row("pandaid", "jeditaskid", "lfn", "dataset", "proddblock", "scope",
          "file_size", "direction");
  for (const FileRecord& f : store.files()) {
    const FileAttributes a = store.attributes(f);
    csv.row(f.pandaid, f.jeditaskid, a.lfn, a.dataset, a.proddblock, a.scope,
            f.file_size, static_cast<int>(f.direction));
  }
}

void write_transfers_csv(std::ostream& os, const MetadataStore& store) {
  util::CsvWriter csv(os);
  csv.row("transfer_id", "jeditaskid", "lfn", "dataset", "proddblock",
          "scope", "file_size", "source_site", "destination_site",
          "activity", "started_at", "finished_at", "success", "error");
  for (const TransferRecord& t : store.transfers()) {
    const FileAttributes a = store.attributes(t);
    csv.row(t.transfer_id, t.jeditaskid, a.lfn, a.dataset, a.proddblock,
            a.scope, t.file_size, site_str(t.source_site),
            site_str(t.destination_site), static_cast<int>(t.activity),
            t.started_at, t.finished_at, static_cast<int>(t.success),
            static_cast<int>(t.error));
  }
}

bool export_store(const std::string& prefix, const MetadataStore& store) {
  struct Target {
    const char* suffix;
    void (*writer)(std::ostream&, const MetadataStore&);
  };
  const Target targets[] = {{"_jobs.csv", write_jobs_csv},
                            {"_files.csv", write_files_csv},
                            {"_transfers.csv", write_transfers_csv}};
  for (const Target& t : targets) {
    std::ofstream out(prefix + t.suffix);
    if (!out) {
      util::log_warning() << "cannot open " << prefix << t.suffix
                          << " for writing";
      return false;
    }
    t.writer(out, store);
  }
  return true;
}

std::size_t emit_store_events(const MetadataStore& store, util::SimTime ts,
                              obs::EventLog* log) {
  if (log == nullptr) return 0;
  std::size_t emitted = 0;
  for (const JobRecord& j : store.jobs()) {
    log->emit(obs::Event("job_record", ts, j.pandaid)
                  .field("task", j.jeditaskid)
                  .field("site", j.computing_site)
                  .field("created", j.creation_time)
                  .field("started", j.start_time)
                  .field("ended", j.end_time)
                  .field("in_bytes", j.ninputfilebytes)
                  .field("out_bytes", j.noutputfilebytes)
                  .field("failed", j.failed)
                  .field("error", j.error_code)
                  .field("direct_io", j.direct_io)
                  .field("task_status", static_cast<std::int32_t>(j.task_status)));
    ++emitted;
  }
  for (const FileRecord& f : store.files()) {
    const FileAttributes a = store.attributes(f);
    log->emit(obs::Event("file_record", ts, f.pandaid)
                  .field("task", f.jeditaskid)
                  .field("lfn", a.lfn)
                  .field("dataset", a.dataset)
                  .field("proddblock", a.proddblock)
                  .field("scope", a.scope)
                  .field("size", f.file_size)
                  .field("dir", static_cast<std::int32_t>(f.direction)));
    ++emitted;
  }
  for (const TransferRecord& t : store.transfers()) {
    const FileAttributes a = store.attributes(t);
    log->emit(obs::Event("transfer_record", ts,
                         static_cast<std::int64_t>(t.transfer_id))
                  .field("task", t.jeditaskid)
                  .field("lfn", a.lfn)
                  .field("dataset", a.dataset)
                  .field("proddblock", a.proddblock)
                  .field("scope", a.scope)
                  .field("size", t.file_size)
                  .field("src", t.source_site)
                  .field("dst", t.destination_site)
                  .field("activity", static_cast<std::int32_t>(t.activity))
                  .field("started", t.started_at)
                  .field("finished", t.finished_at)
                  .field("success", t.success)
                  .field("terr", static_cast<std::int32_t>(t.error)));
    ++emitted;
  }
  return emitted;
}

std::uint64_t store_digest(const MetadataStore& store) {
  const auto text = [](std::string_view s) -> std::uint64_t {
    return std::hash<std::string_view>{}(s);
  };
  const auto i64 = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v);
  };
  std::uint64_t h = util::hash_mix(store.jobs().size(), store.files().size(),
                                   store.transfers().size());
  for (const JobRecord& j : store.jobs()) {
    h = util::hash_mix(h, i64(j.pandaid), i64(j.jeditaskid));
    h = util::hash_mix(h, j.computing_site, i64(j.creation_time));
    h = util::hash_mix(h, i64(j.start_time), i64(j.end_time));
    h = util::hash_mix(h, j.ninputfilebytes, j.noutputfilebytes);
    h = util::hash_mix(h, j.failed, i64(j.error_code));
    h = util::hash_mix(h, j.direct_io,
                       static_cast<std::uint64_t>(j.task_status));
  }
  for (const FileRecord& f : store.files()) {
    const FileAttributes a = store.attributes(f);
    h = util::hash_mix(h, i64(f.pandaid), i64(f.jeditaskid));
    h = util::hash_mix(h, text(a.lfn), text(a.dataset));
    h = util::hash_mix(h, text(a.proddblock), text(a.scope));
    h = util::hash_mix(h, f.file_size,
                       static_cast<std::uint64_t>(f.direction));
  }
  for (const TransferRecord& t : store.transfers()) {
    const FileAttributes a = store.attributes(t);
    h = util::hash_mix(h, t.transfer_id, i64(t.jeditaskid));
    h = util::hash_mix(h, text(a.lfn), text(a.dataset));
    h = util::hash_mix(h, text(a.proddblock), text(a.scope));
    h = util::hash_mix(h, t.file_size, t.source_site);
    h = util::hash_mix(h, t.destination_site,
                       static_cast<std::uint64_t>(t.activity));
    h = util::hash_mix(h, i64(t.started_at), i64(t.finished_at));
    h = util::hash_mix(h, t.success, static_cast<std::uint64_t>(t.error));
  }
  return h;
}

}  // namespace pandarus::telemetry
