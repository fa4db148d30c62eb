#include "telemetry/store.hpp"

namespace pandarus::telemetry {

void MetadataStore::record_job(JobRecord record) {
  jobs_.push_back(std::move(record));
}

FileSymbols MetadataStore::intern(const FileAttributes& attributes) {
  FileSymbols out;
  out.lfn = symbols_.intern(attributes.lfn);
  out.dataset = symbols_.intern(attributes.dataset);
  out.proddblock = symbols_.intern(attributes.proddblock);
  out.scope = symbols_.intern(attributes.scope);
  return out;
}

namespace {

template <typename Record>
void set_symbols(Record& record, const FileSymbols& symbols) {
  record.lfn_sym = symbols.lfn;
  record.dataset_sym = symbols.dataset;
  record.proddblock_sym = symbols.proddblock;
  record.scope_sym = symbols.scope;
}

}  // namespace

void MetadataStore::record_file(FileRecord record,
                                const FileSymbols& symbols) {
  set_symbols(record, symbols);
  files_.push_back(record);
}

void MetadataStore::record_transfer(TransferRecord record,
                                    const FileSymbols& symbols) {
  set_symbols(record, symbols);
  transfers_.push_back(record);
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
