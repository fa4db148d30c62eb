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
// A file's rows all carry the same four symbols.  The first row of a
// file formats its names and interns them through the store, in the
// order record_file(row, FileAttributes) would, and the Recorder keeps
// the symbols (16 bytes per catalog file); every later row copies them.
// Ids come out as if every row were interned, and the Recorder never
// reads the store's rows, so nothing ties it to their order.
#pragma once

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

  /// Call on every terminal job (wire to PandaServer::Hooks).  Records
  /// user jobs only.
  void on_job_complete(const wms::Job& job);
  /// Call on every transfer outcome (wire to TransferEngine::set_sink).
  void on_transfer(const dms::TransferOutcome& outcome);

  /// Frees the per-file symbols, to return their memory once the
  /// simulation has drained and before the harvest.  A row recorded
  /// afterwards interns its names again: same ids.
  void release_file_cache() noexcept { symbols_ = std::vector<FileSymbols>(); }

 private:
  void record_file_rows(const wms::Job& job);
  /// The symbols of `file`'s rows, interned on its first row.
  FileSymbols symbols(dms::FileId file);

  MetadataStore& store_;
  const dms::FileCatalog& catalog_;
  util::Rng rng_;
  Params params_;
  /// Per catalog file, the symbols of its rows (lfn == kNoSymbol until
  /// its first row).
  std::vector<FileSymbols> symbols_;
};

}  // namespace pandarus::telemetry
