// CSV export/import of a MetadataStore, so campaigns can be archived and
// re-analyzed without re-simulating (and so external tools can plot the
// figure artefacts).
#pragma once

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

/// Reads record streams back.  Rows that fail to parse are skipped and
/// counted in the returned value.
std::size_t read_jobs_csv(std::istream& is, MetadataStore& store);
std::size_t read_files_csv(std::istream& is, MetadataStore& store);
std::size_t read_transfers_csv(std::istream& is, MetadataStore& store);

/// Emits one job_record / file_record / transfer_record event per store
/// row to `log` (no-op when null), all stamped `ts`.  Rows go out in
/// store order, so a replay that re-records them rebuilds an
/// index-compatible store.  This is the harvest step: it runs after any
/// post-hoc corruption, so the event stream reflects exactly what the
/// analyses see.  Returns the number of events emitted.
std::size_t emit_store_events(const MetadataStore& store, util::SimTime ts,
                              obs::EventLog* log);

}  // namespace pandarus::telemetry
