// File and replica catalogs (the Rucio namespace + replica bookkeeping).
//
// The FileCatalog owns dataset/file metadata and generates the string
// identifiers (lfn, dataset name, proddblock, scope) that Algorithm 1
// later matches on.  The ReplicaCatalog tracks which RSEs hold a physical
// copy of each file, exactly the state PanDA's brokerage and Rucio's
// replica selection consult.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dms/did.hpp"
#include "dms/rse.hpp"

namespace pandarus::dms {

class FileCatalog {
 public:
  /// Number of files per proddblock sub-division of a dataset.
  static constexpr std::uint32_t kFilesPerBlock = 10;

  /// Creates a container DID; `parent` nests it inside another container
  /// (paper §2.2: containers "can themselves be nested, enabling
  /// flexible grouping of large-scale collections").
  ContainerId create_container(std::string scope, std::string name,
                               ContainerId parent = kNoContainer);

  DatasetId create_dataset(std::string scope, std::string name,
                           ContainerId container = kNoContainer);

  /// Attaches an existing dataset to a container (replacing any previous
  /// attachment).
  void attach_dataset(DatasetId dataset, ContainerId container);

  [[nodiscard]] const ContainerInfo& container(ContainerId id) const {
    return containers_.at(id);
  }
  [[nodiscard]] std::size_t container_count() const noexcept {
    return containers_.size();
  }
  /// Datasets directly attached to the container.
  [[nodiscard]] std::span<const DatasetId> datasets_of(ContainerId id) const;
  /// Every file reachable from the container, following nested
  /// containers recursively (deterministic depth-first order).
  [[nodiscard]] std::vector<FileId> files_of_container(ContainerId id) const;
  /// Total bytes reachable from the container.
  [[nodiscard]] std::uint64_t container_bytes(ContainerId id) const;

  /// Appends a file of the given size to a dataset.
  FileId add_file(DatasetId dataset, std::uint64_t size_bytes);

  [[nodiscard]] const FileInfo& file(FileId id) const {
    return files_.at(id).info;
  }
  [[nodiscard]] const DatasetInfo& dataset(DatasetId id) const {
    return datasets_.at(id);
  }
  [[nodiscard]] std::span<const FileId> files_of(DatasetId id) const;

  [[nodiscard]] std::size_t file_count() const noexcept {
    return files_.size();
  }
  [[nodiscard]] std::size_t dataset_count() const noexcept {
    return datasets_.size();
  }

  /// Logical file name, e.g. "AOD.000123._000004.pool.root".
  [[nodiscard]] std::string lfn(FileId id) const;
  /// The block-level data identifier the file belongs to,
  /// e.g. "mc23:dataset_000123_block002".
  [[nodiscard]] std::string proddblock(FileId id) const;
  [[nodiscard]] const std::string& scope(FileId id) const;
  [[nodiscard]] const std::string& dataset_name(FileId id) const;

  [[nodiscard]] std::uint64_t dataset_bytes(DatasetId id) const;

 private:
  struct FileEntry {
    FileInfo info;
    std::uint32_t index_in_dataset = 0;
  };
  std::vector<FileEntry> files_;
  std::vector<DatasetInfo> datasets_;
  std::vector<std::vector<FileId>> dataset_files_;
  std::vector<ContainerInfo> containers_;
  std::vector<std::vector<DatasetId>> container_datasets_;
  std::vector<std::vector<ContainerId>> container_children_;
};

class ReplicaCatalog {
 public:
  /// The catalog updates each RSE's `used_bytes` as replicas come and
  /// go, so storage accounting (and quota checks) stay consistent with
  /// the replica table by construction.
  ReplicaCatalog(const FileCatalog& files, RseRegistry& rses)
      : files_(&files), rses_(&rses) {}

  /// Registers a replica; idempotent.  Ignores (and reports false for)
  /// RSEs whose quota the file would overflow.
  bool add_replica(FileId file, RseId rse);
  /// Removes a replica if present; returns whether one was removed.
  bool remove_replica(FileId file, RseId rse);

  /// True when `rse` has room for `bytes` more (capacity 0 = unlimited).
  [[nodiscard]] bool has_space(RseId rse, std::uint64_t bytes) const;

  [[nodiscard]] bool has_replica(FileId file, RseId rse) const;
  /// True when any RSE at `site` holds the file.
  [[nodiscard]] bool resident_at_site(FileId file, grid::SiteId site) const;
  /// True when a DISK RSE at `site` holds the file (tape copies do not
  /// count: jobs cannot read from tape without staging).
  [[nodiscard]] bool on_disk_at_site(FileId file, grid::SiteId site) const;

  [[nodiscard]] std::span<const RseId> replicas(FileId file) const;
  /// Number of DISK RSEs holding the file: what a replication rule
  /// counts.  Kept as replicas come and go (an RSE's kind never
  /// changes), so reading it walks no replica list.
  [[nodiscard]] std::uint32_t disk_copies(FileId file) const noexcept {
    return file < disk_copies_.size() ? disk_copies_[file] : 0;
  }
  /// The registry the replicas' RSE ids index.
  [[nodiscard]] const RseRegistry& rses() const noexcept { return *rses_; }

  /// Total bytes of `files` resident on disk at `site` — the quantity
  /// PanDA's data-locality brokerage maximizes.
  [[nodiscard]] std::uint64_t bytes_on_disk_at_site(
      std::span<const FileId> files, const FileCatalog& catalog,
      grid::SiteId site) const;

  [[nodiscard]] std::size_t replica_count() const noexcept { return total_; }

 private:
  const FileCatalog* files_;
  RseRegistry* rses_;
  std::vector<std::vector<RseId>> by_file_;
  std::vector<std::uint32_t> disk_copies_;  ///< parallel to by_file_
  std::size_t total_ = 0;
};

}  // namespace pandarus::dms
