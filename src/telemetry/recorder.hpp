// Recorder: observes the running simulation and writes telemetry.
//
// It converts wms::Job completions into JobRecords + FileRecords (user
// jobs only — the paper's study population is user jobs, and production
// jobs do not contribute rows to the PanDA file table it pivots on) and
// dms::TransferOutcomes into TransferRecords.
//
// One *correlated* corruption lives here rather than in the post-hoc
// injector: when a transfer completed but its replica registration
// failed, the same metadata pipeline hiccup usually mangles the recorded
// destination site.  This is the paper's Fig. 12 / Table 3 pattern — a
// transfer set with destination "UNKNOWN" whose files later get
// re-transferred because the catalog never learned about the copy.
//
// A file's rows all carry the same five symbols.  The first row of a
// file formats its names and interns them through the store, in the
// order record_file(row, FileAttributes) would; every later row copies
// the symbols from that first row.  Ids come out as if every row were
// interned, and the per-file state is one 4-byte row reference, held
// until release_file_cache().
#pragma once

#include <cstdint>
#include <vector>

#include "dms/catalog.hpp"
#include "dms/transfer.hpp"
#include "telemetry/store.hpp"
#include "util/rng.hpp"
#include "wms/job.hpp"

namespace pandarus::telemetry {

class Recorder {
 public:
  struct Params {
    bool record_production_jobs = false;
    /// P(recorded destination = UNKNOWN | replica registration failed).
    double p_unknown_dst_on_registration_failure = 0.9;
    /// Direct-IO streams record bytes *read*, not file size.  Whether a
    /// payload reads whole files is a property of the *job* (its access
    /// pattern), so the corruption is job-correlated: a "partial-read"
    /// job mangles every one of its stream records, while a clean job
    /// mangles none.  This correlation is what keeps the paper's RM1
    /// barely above exact (Table 2) while Direct IO still matches at
    /// only ~2% (Table 1): dirty jobs produce no candidates at all
    /// instead of half-broken candidate sets.
    double p_partial_read_job = 0.97;
  };

  Recorder(MetadataStore& store, const dms::FileCatalog& catalog,
           util::Rng rng, Params params);

  /// Call on every terminal job (wire to PandaServer::Hooks).
  void on_job_complete(const wms::Job& job);
  /// Call on every terminal task.
  void on_task_complete(const wms::Task& task);
  /// Call on every transfer outcome (wire to TransferEngine::set_sink).
  void on_transfer(const dms::TransferOutcome& outcome);

  /// Frees the per-file row references.  Call it before anything
  /// removes or reorders the store's rows (corruption injection drops
  /// some), and to return the memory once the simulation has drained.
  /// A row recorded afterwards interns its names again: same ids.
  void release_file_cache() noexcept {
    first_row_ = std::vector<std::uint32_t>();
  }

 private:
  void record_file_rows(const wms::Job& job);
  /// The symbols of `file`'s rows.  `next_row` is where the row about
  /// to be appended lands (`is_transfer` picks the family); a file's
  /// first row is remembered there.
  FileSymbols symbols(dms::FileId file, std::size_t next_row,
                      bool is_transfer);

  MetadataStore& store_;
  const dms::FileCatalog& catalog_;
  util::Rng rng_;
  Params params_;
  /// Per catalog file, its first row in the store: kUnrecorded, or
  /// (row << 1 | is_transfer).  Valid while the store's rows are
  /// neither removed nor reordered (see release_file_cache()).
  static constexpr std::uint32_t kUnrecorded = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_row_;
};

}  // namespace pandarus::telemetry
