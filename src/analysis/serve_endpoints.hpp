// JSON bodies for the obs::serve /api/* endpoints.  The server itself
// (obs::StatusServer) sits below analysis in the module layering and
// cannot see matchers or replay — this module closes the loop by
// registering providers through StatusServer::set_json_endpoint:
//
//   /api/summary        §5.1 headline numbers + matched counts for all
//                       three methods (the CI gate reads exact/rm1/rm2
//                       matched_jobs here)
//   /api/tables         Table 1 (activity breakdown) and Tables 2a/2b
//   /api/series         the obs::Sampler columnar time series
//   /api/critical-path  per-link critical-seconds ranking
//
// Live mode reads the session EventLog's *published prefix* only,
// through a registered EventLog::Reader (attached at campaign start, so
// it sees the campaign's every line; until a scrape reads them, the log
// keeps them in memory).  It keeps one ReplayResult between scrapes and
// folds into it only the lines published since the last one, so each
// line is replayed exactly once (counted by
// pandarus_serve_replayed_lines_total); bodies are memoized on the
// publication watermark, and a scrape never blocks the sim thread.
// Matching reruns only when the store's row counts changed, and never
// before harvest records exist (the store stays empty mid-campaign),
// so scrapes during the simulation cannot perturb the sampled matcher
// counters and the campaign NDJSON stays byte-identical server on or
// off.
#pragma once

#include <memory>

#include "obs/session.hpp"

namespace pandarus::analysis {

struct ReplayResult;

/// Attaches `session` to `server` (StatusServer::attach) and registers
/// the live /api endpoints, computed from the session's EventLog,
/// FlowTracker and HealthEngine.  scenario::run_campaign calls this at
/// start for its session's server.
void attach_live_status(obs::StatusServer& server,
                        const obs::Session& session);

/// Registers the same endpoints precomputed from a finished replay
/// (`pandarus-serve --replay <file>`): bodies are built once here.
/// `alerts_json` — a HealthEngine::status_json() document derived from
/// the same stream (replay_events with a health engine) — backs
/// /api/alerts when provided; without it the endpoint reports
/// {"enabled":false}.
void attach_replay_status(obs::StatusServer& server,
                          std::shared_ptr<const ReplayResult> replay,
                          std::shared_ptr<const std::string> alerts_json =
                              nullptr);

}  // namespace pandarus::analysis
