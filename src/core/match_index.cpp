#include "core/match_index.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pandarus::core {
namespace {

constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

/// A group-by: slots[offsets[g] .. offsets[g+1]) are group g's items.
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> slots;

  [[nodiscard]] std::span<const std::uint32_t> group(
      std::size_t g) const noexcept {
    if (g + 1 >= offsets.size()) return {};
    return std::span<const std::uint32_t>(slots).subspan(
        offsets[g], offsets[g + 1] - offsets[g]);
  }
};

/// Counting sort into a CSR layout.  `emit(i, sink)` assigns item i to
/// zero or more groups by calling sink(g); it runs once to count and
/// once to scatter, so it must be pure.  The count leaves offsets[g] at
/// the end of group g; the scatter walks the items backwards and moves
/// each group's offset down to its start, so slots within a group end
/// up in ascending item order.
template <typename EmitFn>
Csr build_csr(std::size_t n_items, std::size_t n_groups, const EmitFn& emit) {
  Csr csr;
  auto& offsets = csr.offsets;
  offsets.assign(n_groups + 1, 0);
  for (std::size_t i = 0; i < n_items; ++i) {
    emit(i, [&](std::uint32_t g) { ++offsets[g]; });
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  csr.slots.resize(offsets[n_groups]);
  for (std::size_t i = n_items; i-- > 0;) {
    emit(i, [&](std::uint32_t g) {
      csr.slots[--offsets[g]] = static_cast<std::uint32_t>(i);
    });
  }
  return csr;
}

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

  // Counting sort over dense lfn symbols.  The offsets table spans the
  // whole shared symbol table; non-lfn symbols simply own empty groups.
  const std::size_t n_syms = store.symbols().size();
  Csr by_lfn = build_csr(transfers.size(), n_syms,
                         [&](std::size_t i, auto&& sink) {
                           const util::Symbol s = transfers[i].lfn_sym;
                           if (s < n_syms) sink(s);
                         });

  // Each lfn group in (jeditaskid, row) order, so one task's transfers
  // are a contiguous, still row-ascending range for the join below.  At
  // paper scale 46% of the groups of two or more already are; the check
  // skips their sort.  The sort allocates nothing and touches only
  // `by_lfn`, so a pool runs it while this thread builds the file CSR.
  const auto sort_groups = [&by_lfn, transfers, n_syms] {
    const auto by_task_then_row = [transfers](std::uint32_t a,
                                              std::uint32_t b) {
      const std::int64_t ta = transfers[a].jeditaskid;
      const std::int64_t tb = transfers[b].jeditaskid;
      return ta != tb ? ta < tb : a < b;
    };
    for (std::size_t g = 0; g < n_syms; ++g) {
      const auto first = by_lfn.slots.begin() + by_lfn.offsets[g];
      const auto last = by_lfn.slots.begin() + by_lfn.offsets[g + 1];
      if (!std::is_sorted(first, last, by_task_then_row)) {
        std::sort(first, last, by_task_then_row);
      }
    }
  };
  std::future<void> sorted;
  if (pool != nullptr) {
    sorted = pool->submit(sort_groups);
  } else {
    sort_groups();
  }
  // If building the file CSR throws, the sort is waited for when `wait`
  // leaves scope, before `by_lfn` goes: the task writes it.
  struct Wait {
    std::future<void>& task;
    ~Wait() {
      if (task.valid()) task.wait();
    }
  } wait{sorted};

  // pandaid -> intrusive chain of job slots.  The common case is one
  // job per pandaid; duplicates (pathological stores) are chained so a
  // file row can bridge to every job whose (pandaid, jeditaskid) agree.
  std::vector<std::uint32_t> next_same_pandaid(n_jobs, kNone);
  std::unordered_map<std::int64_t, std::uint32_t> job_by_pandaid;
  job_by_pandaid.reserve(n_jobs * 2);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const auto [it, inserted] = job_by_pandaid.try_emplace(
        jobs[j].pandaid, static_cast<std::uint32_t>(j));
    if (!inserted) {
      next_same_pandaid[j] = it->second;
      it->second = static_cast<std::uint32_t>(j);
    }
  }

  // One hash lookup per file row, hoisted out of the two CSR passes.
  std::vector<std::uint32_t> row_head(files.size(), kNone);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto it = job_by_pandaid.find(files[i].pandaid);
    if (it != job_by_pandaid.end()) row_head[i] = it->second;
  }

  const Csr by_job = build_csr(
      files.size(), n_jobs, [&](std::size_t i, auto&& sink) {
        const std::int64_t jeditaskid = files[i].jeditaskid;
        for (std::uint32_t j = row_head[i]; j != kNone;
             j = next_same_pandaid[j]) {
          if (jobs[j].jeditaskid == jeditaskid) sink(j);
        }
      });
  if (sorted.valid()) sorted.get();

  // The join.  Per job: each bridged row's task range of its lfn group
  // (lfn equality is structural through the group), matched against the
  // row on the dataset, proddblock and scope symbols and file_size, then
  // kept if it started before the job's end.  The rest of the group is
  // counted as taskid rejects, unread.
  candidate_offsets_.assign(n_jobs + 1, 0);
  tallies_.resize(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const telemetry::JobRecord& job = jobs[j];
    const auto rows = by_job.group(j);
    JobTally& tally = tallies_[j];
    tally.file_rows = static_cast<std::uint32_t>(rows.size());
    const std::size_t first = candidate_slots_.size();
    std::size_t contributing_rows = 0;
    for (const std::uint32_t fi : rows) {
      const telemetry::FileRecord& file = files[fi];
      const auto lfn_group = by_lfn.group(file.lfn_sym);
      const auto task = std::ranges::equal_range(
          lfn_group, job.jeditaskid, {},
          [transfers](std::uint32_t t) { return transfers[t].jeditaskid; });
      tally.scanned += lfn_group.size();
      tally.reject_taskid += lfn_group.size() - task.size();
      const std::size_t before = candidate_slots_.size();
      for (const std::uint32_t ti : task) {
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
        candidate_slots_.push_back(ti);
      }
      contributing_rows += candidate_slots_.size() > before;
    }
    // Each task range is already ascending, so a single contributing row
    // needs no post-processing.  Several rows can interleave groups and —
    // when a job carries the same lfn as both input and output — reach
    // one transfer twice, so sort + dedup only then.
    const auto mine = candidate_slots_.begin() +
                      static_cast<std::ptrdiff_t>(first);
    if (contributing_rows > 1) {
      std::sort(mine, candidate_slots_.end());
      candidate_slots_.erase(std::unique(mine, candidate_slots_.end()),
                             candidate_slots_.end());
    }
    for (auto it = mine; it != candidate_slots_.end(); ++it) {
      tally.candidate_sum += transfers[*it].file_size;
    }
    candidate_offsets_[j + 1] =
        static_cast<std::uint32_t>(candidate_slots_.size());
  }
}

}  // namespace pandarus::core
