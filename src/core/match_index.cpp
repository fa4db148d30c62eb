#include "core/match_index.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pandarus::core {
namespace {

constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

/// Open-addressing int64 -> uint32 map: linear probing in a power-of-two
/// table kept at most half full, kNone marking an empty slot.
class IdTable {
 public:
  explicit IdTable(std::size_t expected) { rehash(expected); }

  /// The value under `key`; kNone if absent.
  [[nodiscard]] std::uint32_t find(std::int64_t key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].value == kNone || slots_[i].key == key) {
        return slots_[i].value;
      }
    }
  }

  /// The value slot of `key`, holding kNone when the key is new; the
  /// caller then stores a value other than kNone there.
  std::uint32_t& operator[](std::int64_t key) {
    if (2 * (size_ + 1) > slots_.size()) rehash(size_ + 1);
    std::size_t i = home(key);
    for (; slots_[i].value != kNone; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    ++size_;
    slots_[i].key = key;
    return slots_[i].value;
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    std::uint32_t value = kNone;
  };

  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::int64_t key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E37'79B9'7F4A'7C15u) >> shift_);
  }

  /// Room for `n` keys at most half full.
  void rehash(std::size_t n) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 2 * n) ++bits;
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(std::size_t{1} << bits));
    mask_ = slots_.size() - 1;
    shift_ = 64 - bits;
    for (const Slot& slot : old) {
      if (slot.value == kNone) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].value != kNone) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

/// A group-by: items[offsets[g] .. offsets[g+1]) are group g's items.
template <typename T>
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<T> items;

  [[nodiscard]] std::size_t groups() const noexcept {
    return offsets.size() - 1;
  }

  [[nodiscard]] std::span<const T> group(std::size_t g) const noexcept {
    return std::span<const T>(items).subspan(offsets[g],
                                             offsets[g + 1] - offsets[g]);
  }
};

/// Counting sort into a CSR layout.  `emit(i, sink)` places item i in
/// zero or more groups by calling sink(g, value); it runs once to count
/// and once to scatter, so it must be pure.  The count leaves offsets[g]
/// at the end of group g; the scatter walks the items backwards and
/// moves each group's offset down to its start, so each group keeps the
/// items' order.
template <typename T, typename EmitFn>
Csr<T> build_csr(std::size_t n_items, std::size_t n_groups,
                 const EmitFn& emit) {
  Csr<T> csr;
  auto& offsets = csr.offsets;
  offsets.assign(n_groups + 1, 0);
  for (std::size_t i = 0; i < n_items; ++i) {
    emit(i, [&](std::uint32_t g, T) { ++offsets[g]; });
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  csr.items.resize(offsets[n_groups]);
  for (std::size_t i = n_items; i-- > 0;) {
    emit(i, [&](std::uint32_t g, T value) { csr.items[--offsets[g]] = value; });
  }
  return csr;
}

/// File rows grouped by owning job, keyed on the full (pandaid,
/// jeditaskid) bridge so that stale rows (same pandaid, another task)
/// never reach the join; each group ascends by row.
Csr<std::uint32_t> file_rows_by_job(
    std::span<const telemetry::JobRecord> jobs,
    std::span<const telemetry::FileRecord> files) {
  const obs::ScopedSpan span("match_index/file_rows", "core");
  // pandaid -> intrusive chain of job slots.  The common case is one
  // job per pandaid; duplicates (pathological stores) are chained so a
  // file row can bridge to every job whose (pandaid, jeditaskid) agree.
  const std::size_t n_jobs = jobs.size();
  std::vector<std::uint32_t> next_same_pandaid(n_jobs);
  IdTable by_pandaid(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    std::uint32_t& head = by_pandaid[jobs[j].pandaid];
    next_same_pandaid[j] = head;
    head = static_cast<std::uint32_t>(j);
  }
  // One lookup per file row, shared by the count and the scatter.
  std::vector<std::uint32_t> row_head(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    row_head[i] = by_pandaid.find(files[i].pandaid);
  }
  return build_csr<std::uint32_t>(
      files.size(), n_jobs, [&](std::size_t i, auto&& sink) {
        for (std::uint32_t j = row_head[i]; j != kNone;
             j = next_same_pandaid[j]) {
          if (jobs[j].jeditaskid == files[i].jeditaskid) {
            sink(j, static_cast<std::uint32_t>(i));
          }
        }
      });
}

/// The transfers of the jobs' own tasks, one block per task, and every
/// lfn's transfer count.  A job links only to transfers of its own
/// jeditaskid (DESIGN §8 decision 1), so a file row's candidates are the
/// entries of its job's block that carry the row's lfn; the rest of the
/// transfers with that lfn are counted as taskid rejects, unread.
struct TaskBlocks {
  /// Each job's dense task id, in order of first appearance.
  std::vector<std::uint32_t> task_of_job;
  /// Transfers per lfn symbol, over all transfers.
  std::vector<std::uint32_t> lfn_count;
  /// Group b is task b's transfers as (lfn_sym << 32 | row) keys, in
  /// row order until sort() orders them by key: each lfn's rows then
  /// form one ascending run.
  Csr<std::uint64_t> keys;

  TaskBlocks(std::span<const telemetry::JobRecord> jobs,
             std::span<const telemetry::TransferRecord> transfers,
             std::size_t n_syms) {
    IdTable task_ids(64);
    task_of_job.resize(jobs.size());
    std::uint32_t n_tasks = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      std::uint32_t& id = task_ids[jobs[j].jeditaskid];
      if (id == kNone) id = n_tasks++;
      task_of_job[j] = id;
    }

    // One pass over all transfers: the lfn counts, and the jobs' tasks'
    // transfers with their block.
    lfn_count.assign(n_syms, 0);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> members;
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      const util::Symbol lfn = transfers[i].lfn_sym;
      if (lfn >= n_syms) continue;
      ++lfn_count[lfn];
      const std::uint32_t task = task_ids.find(transfers[i].jeditaskid);
      if (task != kNone) {
        members.emplace_back(task, std::uint64_t{lfn} << 32 | i);
      }
    }
    keys = build_csr<std::uint64_t>(
        members.size(), n_tasks, [&](std::size_t i, auto&& sink) {
          sink(members[i].first, members[i].second);
        });
  }

  /// Sorts blocks [first, last); allocates nothing and writes only
  /// their keys, so disjoint ranges may sort concurrently.
  void sort(std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      std::sort(keys.items.begin() + keys.offsets[b],
                keys.items.begin() + keys.offsets[b + 1]);
    }
  }
};

}  // namespace

MatchIndex::MatchIndex(const telemetry::MetadataStore& store,
                       parallel::ThreadPool* pool)
    : store_(&store) {
  const obs::ScopedSpan span(pool != nullptr ? "match_index/build_parallel"
                                             : "match_index/build",
                             "core");
  static obs::Counter& builds = obs::Registry::global().counter(
      "pandarus_match_index_builds_total", "MatchIndex constructions");
  builds.inc();
  const auto jobs = store.jobs();
  const auto files = store.files();
  const auto transfers = store.transfers();
  const std::size_t n_jobs = jobs.size();

  TaskBlocks blocks = [&] {
    const obs::ScopedSpan phase("match_index/task_blocks", "core");
    TaskBlocks built(jobs, transfers, store.symbols().size());
    if (pool == nullptr) built.sort(0, built.keys.groups());
    return built;
  }();
  // If building the file rows throws, the block sorts are waited for
  // when `wait` leaves scope, before `blocks` goes: they write it.
  std::vector<std::future<void>> sorts;
  struct Wait {
    std::vector<std::future<void>>& tasks;
    ~Wait() {
      for (const auto& task : tasks) {
        if (task.valid()) task.wait();
      }
    }
  } wait{sorts};
  if (pool != nullptr) {
    // An equal share of the blocks per worker, sorted while this thread
    // groups the file rows.
    const std::size_t parts = pool->size();
    const std::size_t n_blocks = blocks.keys.groups();
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t first = n_blocks * p / parts;
      const std::size_t last = n_blocks * (p + 1) / parts;
      if (first < last) {
        sorts.push_back(
            pool->submit([&blocks, first, last] { blocks.sort(first, last); }));
      }
    }
  }
  const Csr<std::uint32_t> by_job = file_rows_by_job(jobs, files);
  for (auto& sorted : sorts) sorted.get();

  // The join.  Per job: each bridged row's run of its lfn in the job's
  // task block (lfn and task equality are structural), matched against
  // the row on the dataset, proddblock and scope symbols and file_size,
  // then kept if it started before the job's end.  The row's other
  // transfers are counted as taskid rejects, unread.  join(out, begin,
  // end) appends jobs [begin, end)'s candidates to `out` and writes
  // their tallies and candidate counts; the pool runs it on job-range
  // chunks and appends their outputs in job order.
  const obs::ScopedSpan phase("match_index/join", "core");
  candidate_offsets_.assign(n_jobs + 1, 0);
  tallies_.assign(n_jobs, {});
  const auto join = [&](std::vector<std::uint32_t>& out, std::size_t begin,
                        std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const telemetry::JobRecord& job = jobs[j];
      const auto rows = by_job.group(j);
      const auto block = blocks.keys.group(blocks.task_of_job[j]);
      JobTally& tally = tallies_[j];
      tally.file_rows = static_cast<std::uint32_t>(rows.size());
      const std::size_t first = out.size();
      std::size_t contributing_rows = 0;
      for (const std::uint32_t fi : rows) {
        const telemetry::FileRecord& file = files[fi];
        const std::uint32_t with_lfn =
            file.lfn_sym < blocks.lfn_count.size()
                ? blocks.lfn_count[file.lfn_sym]
                : 0;
        if (with_lfn == 0) continue;
        const std::size_t before = out.size();
        std::uint32_t in_task = 0;
        for (auto it = std::ranges::lower_bound(
                 block, std::uint64_t{file.lfn_sym} << 32);
             it != block.end() && (*it >> 32) == file.lfn_sym;
             ++it, ++in_task) {
          const auto ti = static_cast<std::uint32_t>(*it);
          const telemetry::TransferRecord& t = transfers[ti];
          if (t.dataset_sym != file.dataset_sym ||
              t.proddblock_sym != file.proddblock_sym ||
              t.scope_sym != file.scope_sym || t.file_size != file.file_size) {
            ++tally.reject_attr;
            continue;
          }
          if (t.started_at >= job.end_time) {
            ++tally.reject_time;
            continue;
          }
          out.push_back(ti);
        }
        tally.scanned += with_lfn;
        tally.reject_taskid += with_lfn - in_task;
        contributing_rows += out.size() > before;
      }
      // Each run is already ascending, so a single contributing row
      // needs no post-processing.  Several rows can interleave runs and
      // — when a job carries the same lfn as both input and output —
      // reach one transfer twice, so sort + dedup only then.
      const auto mine = out.begin() + static_cast<std::ptrdiff_t>(first);
      if (contributing_rows > 1) {
        std::sort(mine, out.end());
        out.erase(std::unique(mine, out.end()), out.end());
      }
      for (auto it = mine; it != out.end(); ++it) {
        tally.candidate_sum += transfers[*it].file_size;
      }
      candidate_offsets_[j + 1] =
          static_cast<std::uint32_t>(out.size() - first);
    }
  };
  if (pool == nullptr) {
    join(candidate_slots_, 0, n_jobs);
  } else {
    candidate_slots_ =
        parallel::parallel_reduce<std::vector<std::uint32_t>>(
            *pool, n_jobs, join,
            [](std::vector<std::uint32_t>& into,
               std::vector<std::uint32_t>&& chunk) {
              into.insert(into.end(), chunk.begin(), chunk.end());
            },
            /*min_chunk=*/1);
  }
  std::partial_sum(candidate_offsets_.begin(), candidate_offsets_.end(),
                   candidate_offsets_.begin());
}

}  // namespace pandarus::core
