#include "telemetry/recorder.hpp"

#include <algorithm>

namespace pandarus::telemetry {

Recorder::Recorder(MetadataStore& store, const dms::FileCatalog& catalog,
                   util::Rng rng, Params params)
    : store_(store), catalog_(catalog), rng_(rng), params_(params) {}

void Recorder::on_job_complete(const wms::Job& job) {
  if (job.kind == wms::JobKind::kProduction) return;

  JobRecord record;
  record.pandaid = job.pandaid;
  record.jeditaskid = job.jeditaskid;
  record.computing_site = job.computing_site;
  record.creation_time = job.creation_time;
  record.start_time = job.start_time;
  record.end_time = job.end_time;
  record.ninputfilebytes = job.ninputfilebytes;
  record.noutputfilebytes = job.noutputfilebytes;
  record.failed = job.status == wms::JobStatus::kFailed;
  record.error_code = job.error_code;
  record.direct_io = job.direct_io;
  store_.record_job(std::move(record));

  record_file_rows(job);
}

FileSymbols Recorder::symbols(dms::FileId file) {
  if (file >= symbols_.size()) {
    symbols_.resize(std::max<std::size_t>(file + 1, catalog_.file_count()));
  }
  FileSymbols& cached = symbols_[file];
  if (cached.lfn == util::kNoSymbol) {
    cached = store_.intern({catalog_.lfn(file), catalog_.dataset_name(file),
                            catalog_.proddblock(file), catalog_.scope(file)});
  }
  return cached;
}

void Recorder::record_file_rows(const wms::Job& job) {
  auto emit = [&](dms::FileId f, FileDirection direction) {
    FileRecord row;
    row.pandaid = job.pandaid;
    row.jeditaskid = job.jeditaskid;
    row.file_size = catalog_.file(f).size_bytes;
    row.direction = direction;
    store_.record_file(row, symbols(f));
  };
  for (dms::FileId f : job.input_files) emit(f, FileDirection::kInput);
  for (dms::FileId f : job.output_files) emit(f, FileDirection::kOutput);
}

void Recorder::on_transfer(const dms::TransferOutcome& outcome) {
  TransferRecord record;
  record.transfer_id = outcome.transfer_id;
  record.jeditaskid = outcome.jeditaskid;
  record.file_size = outcome.size_bytes;
  record.source_site = outcome.src;
  record.destination_site = outcome.dst;
  record.activity = outcome.activity;
  record.started_at = outcome.started_at;
  record.finished_at = outcome.finished_at;
  record.success = outcome.success;
  record.error = outcome.error;

  // Correlated corruption: a failed replica registration usually mangles
  // the recorded destination too (Fig. 12 / Table 3).
  if (outcome.success && !outcome.replica_registered &&
      outcome.activity != dms::Activity::kAnalysisDownloadDirectIO &&
      rng_.bernoulli(params_.p_unknown_dst_on_registration_failure)) {
    record.destination_site = grid::kUnknownSite;
  }

  // Direct-IO events record bytes read; whether the payload reads whole
  // files is decided once per job (see Params::p_partial_read_job).
  if (outcome.activity == dms::Activity::kAnalysisDownloadDirectIO &&
      outcome.pandaid >= 0) {
    const std::uint64_t h = util::hash_mix(
        0xd1c7'10f3ULL, static_cast<std::uint64_t>(outcome.pandaid));
    if (util::hash_unit(h) < params_.p_partial_read_job) {
      // Per-stream read fraction still varies within the dirty job.
      const double fraction = rng_.uniform(0.25, 0.95);
      record.file_size = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(
              static_cast<double>(record.file_size) * fraction),
          1);
    }
  }

  store_.record_transfer(record, symbols(outcome.file));
}

}  // namespace pandarus::telemetry
