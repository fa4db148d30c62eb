// Campaign checkpoint/resume (replay-validated).
//
// A pandarus campaign is a deterministic function of its config: the
// scheduler's event closures capture live object references and cannot
// be serialized, so a checkpoint does NOT try to freeze the heap.
// Instead it snapshots, at each simulated-day boundary, everything
// needed to *prove* that a re-execution has reconverged with the
// crashed run:
//
//   - a digest of the determinism-relevant config knobs,
//   - fingerprints of every stateful component (scheduler event
//     counts, TransferEngine/Injector/FlowTracker state_digest()s, the
//     MetadataStore's row counts and telemetry::store_digest),
//   - the byte count and CRC32 of the EventLog's published NDJSON
//     prefix at that boundary.
//
// That is 161 bytes whatever the campaign's size: the event stream is
// the log, so a snapshot needs a position and digests, not a second
// copy of the state.
//
// resume_campaign() then re-executes the campaign from its seed with a
// fresh EventLog in its own obs::Session (so it runs beside any other
// log in the process) and, at the checkpointed day, verifies that every
// fingerprint and the regenerated prefix CRC match the snapshot.  When
// they do, the regenerated stream is bit-identical to the crashed
// run's, so its suffix can be spliced onto whatever prefix obs::recover
// salvaged from disk:
//
//   salvaged == full[:salvaged.size()]           (prefix invariant)
//   salvaged + full[salvaged.size():] == uninterrupted run   (parity)
//
// Snapshot files are self-validating: magic (`PCKPT02`, frame v2) +
// length-framed payload + trailing CRC32, written tmp→fsync→rename so a
// crash mid-write never leaves a loadable-but-torn file.  A file of
// another frame version is rejected with an error naming its format.
// load_latest_checkpoint() walks the directory newest-day-first and
// skips snapshots that fail validation, so a torn (or older-format)
// final snapshot falls back to the previous day.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "obs/event_log.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/crc32.hpp"

namespace pandarus::scenario {

/// Deterministic digests of every stateful campaign component at one
/// simulated-day boundary.  Two runs of the same config agree on all
/// fields at equal boundaries; a mismatch on resume means the re-run
/// diverged (wrong config, wrong build) and the resume is rejected.
struct Fingerprint {
  std::uint64_t scheduler_processed = 0;
  std::uint64_t scheduler_queued = 0;
  std::uint64_t transfer_digest = 0;
  std::uint64_t injector_digest = 0;  ///< 0 when no injector is armed
  std::uint64_t flow_digest = 0;      ///< 0 when the session has no tracker
  std::uint64_t store_jobs = 0;
  std::uint64_t store_files = 0;
  std::uint64_t store_transfers = 0;
  std::uint64_t store_digest = 0;  ///< telemetry::store_digest

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
};

/// One per-day snapshot.
struct Checkpoint {
  std::uint64_t config_digest = 0;
  std::int64_t day = -1;     ///< day index just completed (0-based)
  std::int64_t sim_now = 0;  ///< scheduler time at the boundary
  // EventLog state at the boundary.
  std::uint64_t log_watermark = 0;
  std::uint64_t log_accepted = 0;
  std::uint64_t log_dropped = 0;
  std::uint64_t log_bytes = 0;
  /// Published-prefix NDJSON at the boundary: byte count and CRC32.
  std::uint64_t prefix_bytes = 0;
  std::uint32_t prefix_crc = 0;
  bool flows_tracked = false;
  Fingerprint fingerprint;
};

/// Digest of the determinism-relevant ScenarioConfig knobs; stored in
/// every snapshot so a resume with a different config is rejected
/// instead of producing a silently wrong splice.
[[nodiscard]] std::uint64_t config_digest(const ScenarioConfig& config);

/// Writes `ckpt` to `<dir>/ckpt-day-NNNN.pckpt` (tmp + fsync + rename).
/// False (with a warning logged) on I/O failure.
bool write_checkpoint(const Checkpoint& ckpt, const std::string& dir);

/// Parses and validates one snapshot file.  nullopt (with `error` set
/// when non-null) on open failure, bad magic, another frame version
/// (the error names it), short payload, or CRC mismatch.
std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               std::string* error = nullptr);

/// Highest-day valid snapshot in `dir`; torn or corrupt snapshots are
/// skipped (falling back to earlier days).  nullopt when none loads.
std::optional<Checkpoint> load_latest_checkpoint(const std::string& dir,
                                                 std::string* error = nullptr);

namespace detail {

/// Everything the campaign drain loop exposes at a day boundary (after
/// that day's publish()).  Handed to the CheckpointWriter and to the
/// observer of run_campaign below.
struct DayBoundary {
  std::int64_t day = 0;
  std::int64_t sim_now = 0;
  Fingerprint fingerprint;
  obs::EventLog* log = nullptr;  ///< the session's log; may be null
  bool flows_tracked = false;  ///< the session has a FlowTracker
};

using DayBoundaryHook = std::function<void(const DayBoundary&)>;

/// scenario::run_campaign with a day-boundary observer: `on_day` (may
/// be empty) sees every boundary, after that day's publish() and after
/// any snapshot.  resume_campaign() verifies fingerprints through it.
ScenarioResult run_campaign(const ScenarioConfig& config,
                            const obs::Session& session,
                            const DayBoundaryHook& on_day);

}  // namespace detail

/// Owned by run_campaign(): writes one snapshot per completed day into
/// the session's `checkpoint_dir`.  Inert when that is empty.  When
/// active it reads the published prefix of `log` (may be null) through
/// a registered EventLog::Reader, so it must be built before the
/// campaign's first event is published.
class CheckpointWriter {
 public:
  CheckpointWriter(const ScenarioConfig& config, std::string dir,
                   obs::EventLog* log);

  [[nodiscard]] bool active() const noexcept { return !dir_.empty(); }

  void on_day_boundary(const detail::DayBoundary& boundary);

  [[nodiscard]] std::uint64_t snapshots_written() const noexcept {
    return written_;
  }

 private:
  std::uint64_t config_digest_ = 0;
  std::string dir_;
  std::optional<obs::EventLog::Reader> reader_;  ///< active, with a log
  std::uint64_t prefix_bytes_ = 0;
  util::Crc32 prefix_crc_;  ///< running CRC of the published prefix
  std::uint64_t written_ = 0;
};

/// Result of resume_campaign().  When `had_checkpoint`, `ok` requires
/// both verification bits; `full_ndjson` is the regenerated complete
/// stream (byte-identical to an uninterrupted run), of which the
/// checkpointed prefix is the first `prefix_bytes`.  Callers splice at
/// whatever prefix length they actually salvaged from disk:
///   final = salvaged + full_ndjson.substr(salvaged.size())
/// after checking salvaged == full_ndjson[:salvaged.size()].
struct ResumeOutcome {
  bool ok = false;
  std::string error;
  bool had_checkpoint = false;
  std::int64_t resumed_day = -1;
  std::uint64_t prefix_bytes = 0;
  bool fingerprint_verified = false;
  bool prefix_verified = false;
  ScenarioResult result;
  std::string full_ndjson;
};

/// Re-executes the campaign deterministically in a session of its own:
/// a fresh EventLog (and FlowTracker, when the snapshot says the crashed
/// run had one), no server, no health engine and no checkpoint
/// directory, so the re-run never touches another log in the process
/// nor the crashed run's snapshots.  Verifies reconvergence against the
/// newest valid snapshot in `checkpoint_dir`.  With no loadable snapshot
/// the run proceeds as a plain from-scratch execution
/// (`had_checkpoint == false`, still ok).  A config digest mismatch or
/// failed verification yields ok == false.
ResumeOutcome resume_campaign(const ScenarioConfig& config,
                              const std::string& checkpoint_dir);

}  // namespace pandarus::scenario
