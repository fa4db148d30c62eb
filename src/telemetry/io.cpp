#include "telemetry/io.hpp"

#include <charconv>
#include <fstream>
#include <ostream>

#include "obs/event_log.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace pandarus::telemetry {
namespace {

template <typename T>
bool parse_num(const std::string& s, T& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_site(const std::string& s, grid::SiteId& out) {
  if (s == "UNKNOWN") {
    out = grid::kUnknownSite;
    return true;
  }
  return parse_num(s, out);
}

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
    csv.row(f.pandaid, f.jeditaskid, f.lfn, f.dataset, f.proddblock, f.scope,
            f.file_size, static_cast<int>(f.direction));
  }
}

void write_transfers_csv(std::ostream& os, const MetadataStore& store) {
  util::CsvWriter csv(os);
  csv.row("transfer_id", "jeditaskid", "lfn", "dataset", "proddblock",
          "scope", "file_size", "source_site", "destination_site",
          "activity", "started_at", "finished_at", "success", "error");
  for (const TransferRecord& t : store.transfers()) {
    csv.row(t.transfer_id, t.jeditaskid, t.lfn, t.dataset, t.proddblock,
            t.scope, t.file_size, site_str(t.source_site),
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

std::size_t read_jobs_csv(std::istream& is, MetadataStore& store) {
  std::size_t skipped = 0;
  bool header = true;
  for (const auto& row : util::read_csv(is)) {
    if (header) {
      header = false;
      continue;
    }
    JobRecord j;
    int failed = 0;
    int direct_io = 0;
    int task_status = 0;
    if (row.size() != 12 || !parse_num(row[0], j.pandaid) ||
        !parse_num(row[1], j.jeditaskid) ||
        !parse_site(row[2], j.computing_site) ||
        !parse_num(row[3], j.creation_time) ||
        !parse_num(row[4], j.start_time) ||
        !parse_num(row[5], j.end_time) ||
        !parse_num(row[6], j.ninputfilebytes) ||
        !parse_num(row[7], j.noutputfilebytes) ||
        !parse_num(row[8], failed) || !parse_num(row[9], j.error_code) ||
        !parse_num(row[10], direct_io) || !parse_num(row[11], task_status)) {
      ++skipped;
      continue;
    }
    j.failed = failed != 0;
    j.direct_io = direct_io != 0;
    j.task_status = static_cast<wms::TaskStatus>(task_status);
    store.record_job(std::move(j));
  }
  return skipped;
}

std::size_t read_files_csv(std::istream& is, MetadataStore& store) {
  std::size_t skipped = 0;
  bool header = true;
  for (const auto& row : util::read_csv(is)) {
    if (header) {
      header = false;
      continue;
    }
    FileRecord f;
    int direction = 0;
    if (row.size() != 8 || !parse_num(row[0], f.pandaid) ||
        !parse_num(row[1], f.jeditaskid) || !parse_num(row[6], f.file_size) ||
        !parse_num(row[7], direction)) {
      ++skipped;
      continue;
    }
    f.lfn = row[2];
    f.dataset = row[3];
    f.proddblock = row[4];
    f.scope = row[5];
    f.direction = static_cast<FileDirection>(direction);
    store.record_file(std::move(f));
  }
  return skipped;
}

std::size_t read_transfers_csv(std::istream& is, MetadataStore& store) {
  std::size_t skipped = 0;
  bool header = true;
  for (const auto& row : util::read_csv(is)) {
    if (header) {
      header = false;
      continue;
    }
    TransferRecord t;
    int activity = 0;
    int success = 0;
    int error = 0;
    // 13-column files predate the error column; keep reading them.
    const bool has_error = row.size() == 14;
    if ((row.size() != 13 && row.size() != 14) ||
        !parse_num(row[0], t.transfer_id) ||
        !parse_num(row[1], t.jeditaskid) || !parse_num(row[6], t.file_size) ||
        !parse_site(row[7], t.source_site) ||
        !parse_site(row[8], t.destination_site) ||
        !parse_num(row[9], activity) || !parse_num(row[10], t.started_at) ||
        !parse_num(row[11], t.finished_at) || !parse_num(row[12], success) ||
        (has_error && !parse_num(row[13], error))) {
      ++skipped;
      continue;
    }
    t.lfn = row[2];
    t.dataset = row[3];
    t.proddblock = row[4];
    t.scope = row[5];
    t.activity = static_cast<dms::Activity>(activity);
    t.success = success != 0;
    t.error = static_cast<dms::TransferError>(error);
    store.record_transfer(std::move(t));
  }
  return skipped;
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
    log->emit(obs::Event("file_record", ts, f.pandaid)
                  .field("task", f.jeditaskid)
                  .field("lfn", f.lfn)
                  .field("dataset", f.dataset)
                  .field("proddblock", f.proddblock)
                  .field("scope", f.scope)
                  .field("size", f.file_size)
                  .field("dir", static_cast<std::int32_t>(f.direction)));
    ++emitted;
  }
  for (const TransferRecord& t : store.transfers()) {
    log->emit(obs::Event("transfer_record", ts,
                         static_cast<std::int64_t>(t.transfer_id))
                  .field("task", t.jeditaskid)
                  .field("lfn", t.lfn)
                  .field("dataset", t.dataset)
                  .field("proddblock", t.proddblock)
                  .field("scope", t.scope)
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

}  // namespace pandarus::telemetry
