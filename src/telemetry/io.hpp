// Per-field walks over a MetadataStore: CSV export (raw telemetry and
// figure artefacts for external tools), the harvest into the event
// stream, and the store digest tests compare stores by.  There is no
// CSV import: a store is rebuilt from disk by replaying the harvest
// records of an event stream (analysis::replay_events).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "telemetry/store.hpp"

namespace pandarus::obs {
class EventLog;
}  // namespace pandarus::obs

namespace pandarus::telemetry {

/// Writes one CSV per record family with a header row.
void write_jobs_csv(std::ostream& os, const MetadataStore& store);
void write_files_csv(std::ostream& os, const MetadataStore& store);
void write_transfers_csv(std::ostream& os, const MetadataStore& store);

/// Convenience: writes <prefix>_jobs.csv / _files.csv / _transfers.csv.
/// Returns false (with a warning log) if any file could not be opened.
bool export_store(const std::string& prefix, const MetadataStore& store);

/// Emits one job_record / file_record / transfer_record event per store
/// row to `log` (no-op when null), all stamped `ts`.  Rows go out in
/// store order, so a replay that re-records them rebuilds an
/// index-compatible store.  This is the harvest step: it runs after any
/// post-hoc corruption, so the event stream reflects exactly what the
/// analyses see.  Returns the number of events emitted.
std::size_t emit_store_events(const MetadataStore& store, util::SimTime ts,
                              obs::EventLog* log);

/// Order-sensitive hash of every field of every row, family by family.
/// String fields contribute their bytes, not their symbol ids (ids are
/// local to one store's interner), so two stores holding equal rows in
/// equal order agree however they were built.  Deterministic for one
/// build; a full pass, because rows are edited in place (corruption,
/// run_campaign's task-status backfill).
[[nodiscard]] std::uint64_t store_digest(const MetadataStore& store);

}  // namespace pandarus::telemetry
