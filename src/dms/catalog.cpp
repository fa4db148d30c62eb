#include "dms/catalog.hpp"

#include <algorithm>
#include <cstdio>

namespace pandarus::dms {

ContainerId FileCatalog::create_container(std::string scope,
                                          std::string name,
                                          ContainerId parent) {
  const auto id = static_cast<ContainerId>(containers_.size());
  ContainerInfo info;
  info.id = id;
  info.parent = parent;
  info.scope = std::move(scope);
  info.name = std::move(name);
  containers_.push_back(std::move(info));
  container_datasets_.emplace_back();
  container_children_.emplace_back();
  if (parent != kNoContainer) {
    container_children_.at(parent).push_back(id);
  }
  return id;
}

void FileCatalog::attach_dataset(DatasetId dataset, ContainerId container) {
  DatasetInfo& ds = datasets_.at(dataset);
  if (ds.container != kNoContainer) {
    auto& old_list = container_datasets_.at(ds.container);
    std::erase(old_list, dataset);
  }
  ds.container = container;
  if (container != kNoContainer) {
    container_datasets_.at(container).push_back(dataset);
  }
}

std::span<const DatasetId> FileCatalog::datasets_of(ContainerId id) const {
  return container_datasets_.at(id);
}

std::vector<FileId> FileCatalog::files_of_container(ContainerId id) const {
  std::vector<FileId> out;
  // Depth-first: own datasets first, then nested containers in creation
  // order.  Containers cannot form cycles (a child records its parent at
  // creation), so plain recursion is safe.
  for (DatasetId ds : container_datasets_.at(id)) {
    const auto files = files_of(ds);
    out.insert(out.end(), files.begin(), files.end());
  }
  for (ContainerId child : container_children_.at(id)) {
    const auto nested = files_of_container(child);
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

std::uint64_t FileCatalog::container_bytes(ContainerId id) const {
  std::uint64_t total = 0;
  for (FileId f : files_of_container(id)) total += file(f).size_bytes;
  return total;
}

DatasetId FileCatalog::create_dataset(std::string scope, std::string name,
                                      ContainerId container) {
  const auto id = static_cast<DatasetId>(datasets_.size());
  DatasetInfo ds;
  ds.id = id;
  ds.container = container;
  ds.scope = std::move(scope);
  ds.name = std::move(name);
  datasets_.push_back(std::move(ds));
  dataset_files_.emplace_back();
  if (container != kNoContainer) {
    container_datasets_.at(container).push_back(id);
  }
  return id;
}

FileId FileCatalog::add_file(DatasetId dataset, std::uint64_t size_bytes) {
  const auto id = static_cast<FileId>(files_.size());
  FileEntry entry;
  entry.info.id = id;
  entry.info.dataset = dataset;
  entry.info.size_bytes = size_bytes;
  entry.index_in_dataset =
      static_cast<std::uint32_t>(dataset_files_.at(dataset).size());
  files_.push_back(std::move(entry));
  dataset_files_[dataset].push_back(id);
  return id;
}

std::span<const FileId> FileCatalog::files_of(DatasetId id) const {
  return dataset_files_.at(id);
}

std::string FileCatalog::lfn(FileId id) const {
  const FileEntry& entry = files_.at(id);
  char buf[64];
  std::snprintf(buf, sizeof buf, "AOD.%06u._%06u.pool.root",
                entry.info.dataset, entry.index_in_dataset);
  return buf;
}

std::string FileCatalog::proddblock(FileId id) const {
  const FileEntry& entry = files_.at(id);
  const DatasetInfo& ds = datasets_.at(entry.info.dataset);
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s_block%03u", ds.name.c_str(),
                entry.index_in_dataset / kFilesPerBlock);
  return buf;
}

const std::string& FileCatalog::scope(FileId id) const {
  return datasets_.at(files_.at(id).info.dataset).scope;
}

const std::string& FileCatalog::dataset_name(FileId id) const {
  return datasets_.at(files_.at(id).info.dataset).name;
}

std::uint64_t FileCatalog::dataset_bytes(DatasetId id) const {
  std::uint64_t total = 0;
  for (FileId f : dataset_files_.at(id)) total += files_[f].info.size_bytes;
  return total;
}

bool ReplicaCatalog::has_space(RseId rse, std::uint64_t bytes) const {
  const Rse& r = rses_->rse(rse);
  return r.capacity_bytes == 0 || r.used_bytes + bytes <= r.capacity_bytes;
}

bool ReplicaCatalog::add_replica(FileId file, RseId rse) {
  if (by_file_.size() <= file) {
    by_file_.resize(file + 1);
    disk_copies_.resize(file + 1);
  }
  auto& list = by_file_[file];
  if (std::find(list.begin(), list.end(), rse) != list.end()) {
    return true;  // idempotent
  }
  const std::uint64_t size = files_->file(file).size_bytes;
  if (!has_space(rse, size)) return false;
  list.push_back(rse);
  ++total_;
  Rse& r = rses_->rse_mutable(rse);
  r.used_bytes += size;
  if (r.kind == RseKind::kDisk) ++disk_copies_[file];
  return true;
}

bool ReplicaCatalog::remove_replica(FileId file, RseId rse) {
  if (file >= by_file_.size()) return false;
  auto& list = by_file_[file];
  auto it = std::find(list.begin(), list.end(), rse);
  if (it == list.end()) return false;
  list.erase(it);
  --total_;
  Rse& r = rses_->rse_mutable(rse);
  const std::uint64_t size = files_->file(file).size_bytes;
  r.used_bytes = r.used_bytes >= size ? r.used_bytes - size : 0;
  if (r.kind == RseKind::kDisk) --disk_copies_[file];
  return true;
}

bool ReplicaCatalog::has_replica(FileId file, RseId rse) const {
  if (file >= by_file_.size()) return false;
  const auto& list = by_file_[file];
  return std::find(list.begin(), list.end(), rse) != list.end();
}

bool ReplicaCatalog::resident_at_site(FileId file, grid::SiteId site) const {
  if (file >= by_file_.size()) return false;
  for (RseId rse : by_file_[file]) {
    if (rses_->rse(rse).site == site) return true;
  }
  return false;
}

bool ReplicaCatalog::on_disk_at_site(FileId file, grid::SiteId site) const {
  if (file >= by_file_.size()) return false;
  for (RseId rse : by_file_[file]) {
    const Rse& r = rses_->rse(rse);
    if (r.site == site && r.kind == RseKind::kDisk) return true;
  }
  return false;
}

std::span<const RseId> ReplicaCatalog::replicas(FileId file) const {
  static const std::vector<RseId> kEmpty;
  if (file >= by_file_.size()) return kEmpty;
  return by_file_[file];
}

std::uint64_t ReplicaCatalog::bytes_on_disk_at_site(
    std::span<const FileId> files, const FileCatalog& catalog,
    grid::SiteId site) const {
  std::uint64_t total = 0;
  for (FileId f : files) {
    if (on_disk_at_site(f, site)) total += catalog.file(f).size_bytes;
  }
  return total;
}

}  // namespace pandarus::dms
