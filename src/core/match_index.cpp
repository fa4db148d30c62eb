#include "core/match_index.hpp"

#include <algorithm>
#include <future>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace pandarus::core {
namespace {

constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

/// Minimal open-addressing u64 -> dense-id table (linear probing,
/// power-of-two capacity).  A node-based unordered_map costs one
/// allocation per distinct key, which used to dominate the whole index
/// build; this is two cache lines per lookup and zero allocation after
/// construction.
class FlatU64Interner {
 public:
  explicit FlatU64Interner(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.resize(cap);
    ids_.assign(cap, kNone);
    mask_ = cap - 1;
  }

  std::uint32_t intern(std::uint64_t key) noexcept {
    std::size_t i = util::hash_mix(key) & mask_;
    while (ids_[i] != kNone) {
      if (keys_[i] == key) return ids_[i];
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    ids_[i] = next_;
    return next_++;
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
  std::size_t mask_ = 0;
  std::uint32_t next_ = 0;
};

/// Deterministic two-pass group-by into a CSR layout (count ->
/// column-major prefix sum -> scatter), in the spirit of two-pass
/// parallel group-by engines.  `emit(i, sink)` assigns item i to zero or
/// more groups by calling sink(g); it must be pure — it runs once in the
/// count pass and once in the scatter pass.  Chunks are contiguous item
/// ranges and each chunk scatters into its own reserved slot range, so
/// slots within a group end up in ascending item order regardless of
/// thread count: serial and parallel builds are bit-identical.
template <typename EmitFn>
void build_csr(parallel::ThreadPool* pool, std::size_t n_items,
               std::size_t n_groups, const EmitFn& emit,
               std::vector<std::uint32_t>& offsets,
               std::vector<std::uint32_t>& slots) {
  // Enough chunks to feed the pool, but bounded: the count matrix costs
  // n_chunks * n_groups u32s, and tiny chunks are all scheduling.
  std::size_t n_chunks = 1;
  if (pool != nullptr && pool->size() > 1 && n_items > 0) {
    n_chunks =
        std::min({pool->size(), (n_items - 1) / 2048 + 1, std::size_t{16}});
  }
  const std::size_t stride =
      n_items == 0 ? 1 : (n_items + n_chunks - 1) / n_chunks;
  std::vector<std::vector<std::uint32_t>> counts(
      n_chunks, std::vector<std::uint32_t>(n_groups, 0));

  const auto for_each_chunk = [&](auto&& body) {
    if (n_chunks == 1) {
      body(std::size_t{0});
      return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      futures.push_back(pool->submit([&body, c] { body(c); }));
    }
    for (auto& f : futures) f.get();
  };

  for_each_chunk([&](std::size_t c) {
    auto& local = counts[c];
    const std::size_t end = std::min(n_items, (c + 1) * stride);
    for (std::size_t i = c * stride; i < end; ++i) {
      emit(i, [&](std::uint32_t g) { ++local[g]; });
    }
  });

  offsets.assign(n_groups + 1, 0);
  std::uint32_t running = 0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::uint32_t n = counts[c][g];
      counts[c][g] = running;  // becomes chunk c's write cursor for g
      running += n;
    }
    offsets[g + 1] = running;
  }

  slots.resize(running);
  for_each_chunk([&](std::size_t c) {
    auto& cursor = counts[c];
    const std::size_t end = std::min(n_items, (c + 1) * stride);
    for (std::size_t i = c * stride; i < end; ++i) {
      emit(i, [&](std::uint32_t g) {
        slots[cursor[g]++] = static_cast<std::uint32_t>(i);
      });
    }
  });
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

  const auto emit_file = [&](std::size_t i, auto&& sink) {
    const std::int64_t jeditaskid = files[i].jeditaskid;
    for (std::uint32_t j = row_head[i]; j != kNone;
         j = next_same_pandaid[j]) {
      if (jobs[j].jeditaskid == jeditaskid) sink(j);
    }
  };
  build_csr(pool, files.size(), n_jobs, emit_file, file_offsets_,
            file_slots_);

  // Counting sort over dense lfn symbols.  The offsets table spans the
  // whole shared symbol table; non-lfn symbols simply own empty groups.
  const std::size_t n_syms = store.symbols().size();
  const auto emit_transfer = [&](std::size_t i, auto&& sink) {
    const util::Symbol s = transfers[i].lfn_sym;
    if (s < n_syms) sink(s);
  };
  build_csr(pool, transfers.size(), n_syms, emit_transfer,
            transfer_offsets_, transfer_slots_);

  // Each lfn group in (jeditaskid, row) order, so one task's transfers
  // are a contiguous, still row-ascending range (transfers_with_lfn).
  // At paper scale 46% of the groups of two or more already are; the
  // check skips their sort.
  const auto by_task_then_row = [&](std::uint32_t a, std::uint32_t b) {
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

  // Composite attribute keys: interned (dataset, proddblock, scope)
  // triple in the high half, an interned file-size id in the low half.
  // Sizes are folded in here rather than at ingest because the
  // corruption injector jitters them in place after recording.  Key
  // equality is exact: equal keys iff the triple and the size agree.
  FlatU64Interner sizes(files.size() + transfers.size());
  file_keys_.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    file_keys_[i] = util::pack_symbols(files[i].attr_sym,
                                       sizes.intern(files[i].file_size));
  }
  transfer_keys_.resize(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    transfer_keys_[i] = util::pack_symbols(transfers[i].attr_sym,
                                           sizes.intern(transfers[i].file_size));
  }
}

}  // namespace pandarus::core
