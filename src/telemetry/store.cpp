#include "telemetry/store.hpp"

namespace pandarus::telemetry {

void MetadataStore::record_job(JobRecord record) {
  jobs_by_task_[record.jeditaskid].push_back(jobs_.size());
  jobs_.push_back(std::move(record));
}

template <typename Record>
void MetadataStore::intern_attributes(Record& record) {
  record.lfn_sym = symbols_.intern(record.lfn);
  record.dataset_sym = symbols_.intern(record.dataset);
  record.proddblock_sym = symbols_.intern(record.proddblock);
  record.scope_sym = symbols_.intern(record.scope);
  const util::Symbol pair = attr_pairs_.intern(
      util::pack_symbols(record.dataset_sym, record.proddblock_sym));
  record.attr_sym =
      attr_triples_.intern(util::pack_symbols(pair, record.scope_sym));
}

void MetadataStore::record_file(FileRecord record) {
  intern_attributes(record);
  files_.push_back(std::move(record));
}

void MetadataStore::record_transfer(TransferRecord record) {
  intern_attributes(record);
  transfers_.push_back(std::move(record));
}

void MetadataStore::finalize_task(std::int64_t jeditaskid,
                                  wms::TaskStatus status) {
  auto it = jobs_by_task_.find(jeditaskid);
  if (it == jobs_by_task_.end()) return;
  for (std::size_t idx : it->second) jobs_[idx].task_status = status;
}

MetadataStore::Counts MetadataStore::counts() const noexcept {
  Counts c;
  c.jobs = jobs_.size();
  c.files = files_.size();
  c.transfers = transfers_.size();
  for (const auto& t : transfers_) {
    if (t.has_jeditaskid()) ++c.transfers_with_taskid;
  }
  return c;
}

}  // namespace pandarus::telemetry
