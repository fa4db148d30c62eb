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

/// Counting sort into a CSR layout.  `emit(i, sink)` assigns item i to
/// zero or more groups by calling sink(g); it runs once to count and
/// once to scatter, so it must be pure.  The count leaves offsets[g] at
/// the end of group g; the scatter walks the items backwards and moves
/// each group's offset down to its start, so slots within a group end
/// up in ascending item order.
template <typename EmitFn>
void build_csr(std::size_t n_items, std::size_t n_groups, const EmitFn& emit,
               std::vector<std::uint32_t>& offsets,
               std::vector<std::uint32_t>& slots) {
  offsets.assign(n_groups + 1, 0);
  for (std::size_t i = 0; i < n_items; ++i) {
    emit(i, [&](std::uint32_t g) { ++offsets[g]; });
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  slots.resize(offsets[n_groups]);
  for (std::size_t i = n_items; i-- > 0;) {
    emit(i, [&](std::uint32_t g) {
      slots[--offsets[g]] = static_cast<std::uint32_t>(i);
    });
  }
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
  build_csr(
      transfers.size(), n_syms,
      [&](std::size_t i, auto&& sink) {
        const util::Symbol s = transfers[i].lfn_sym;
        if (s < n_syms) sink(s);
      },
      transfer_offsets_, transfer_slots_);

  // Each lfn group in (jeditaskid, row) order, so one task's transfers
  // are a contiguous, still row-ascending range (transfers_with_lfn).
  // At paper scale 46% of the groups of two or more already are; the
  // check skips their sort.  The sort allocates nothing and touches
  // only the transfer CSR, so a pool runs it while this thread builds
  // the file CSR below.
  const auto sort_groups = [this, transfers, n_syms] {
    const auto by_task_then_row = [transfers](std::uint32_t a,
                                              std::uint32_t b) {
      const std::int64_t ta = transfers[a].jeditaskid;
      const std::int64_t tb = transfers[b].jeditaskid;
      return ta != tb ? ta < tb : a < b;
    };
    for (std::size_t g = 0; g < n_syms; ++g) {
      const auto first = transfer_slots_.begin() + transfer_offsets_[g];
      const auto last = transfer_slots_.begin() + transfer_offsets_[g + 1];
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
  // The sort is joined when `join` leaves scope, on every exit from
  // here, an exception included: the task writes this object's members.
  struct Join {
    std::future<void>& task;
    ~Join() {
      if (task.valid()) task.wait();
    }
  } join{sorted};

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

  build_csr(
      files.size(), n_jobs,
      [&](std::size_t i, auto&& sink) {
        const std::int64_t jeditaskid = files[i].jeditaskid;
        for (std::uint32_t j = row_head[i]; j != kNone;
             j = next_same_pandaid[j]) {
          if (jobs[j].jeditaskid == jeditaskid) sink(j);
        }
      },
      file_offsets_, file_slots_);
}

}  // namespace pandarus::core
