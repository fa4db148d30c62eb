// Environment-driven observability hooks shared by every bench/example.
// install_env_hooks() reads the variables once and builds from them the
// env session (obs::Session, see obs/session.hpp), which
// scenario::run_campaign reports to unless given another:
//
//   PANDARUS_METRICS=<path>  dump a global-registry snapshot at exit
//                            (Prometheus text if <path> ends in .prom,
//                            JSON otherwise);
//   PANDARUS_TRACE=<path>    install a process-lifetime TraceRecorder
//                            now and write Chrome trace JSON at exit;
//   PANDARUS_EVENTS=<path>   the session's EventLog, process-lifetime,
//                            whose NDJSON sink writes each event line to
//                            <path> as it is published (consumed offline
//                            by pandarus-report and
//                            analysis::replay_events);
//   PANDARUS_EVENTS_COL=<path>
//                            same EventLog, with a chunk-compressed
//                            columnar .colstore sink (obs::colstore;
//                            query with pandarus-events) that writes
//                            each 64k-event chunk as it completes.
//                            Combine with PANDARUS_EVENTS to write both
//                            files from one stream; either alone also
//                            arms the log.  Published lines reach the
//                            files during the run; the exit hook closes
//                            the log, appending a terminal log_stats
//                            event (events written/dropped/bytes) and
//                            flushing and closing both files;
//   PANDARUS_FLOWS=<path>    the session's FlowTracker, process-lifetime
//                            (flow_* events appear in the EventLog
//                            stream, flow lanes in the Chrome trace) and
//                            write flamegraph collapsed stacks to <path>
//                            at exit (empty value: track, no dump);
//   PANDARUS_SERVE=<port>    the session's StatusServer, started now on
//                            127.0.0.1:<port> (0 picks an ephemeral
//                            port, logged at startup): GET /metrics
//                            Prometheus scrape, /healthz, /api/* JSON
//                            (attached by scenario::run_campaign),
//                            /events/stream SSE, and an HTML status
//                            page at /.  Also registers the
//                            pandarus_build_info and process gauges.
//                            The server stops before the exit dumps so
//                            in-flight scrapes quiesce first;
//   PANDARUS_ALERTS=<path>   the session's HealthEngine, process-lifetime:
//                            typed `alert` events in the EventLog stream
//                            and its status_json() written to <path> at
//                            exit ("" or "1": detect, no dump);
//   PANDARUS_CHECKPOINT=<dir>
//                            the session's checkpoint directory: each
//                            campaign writes one scenario::Checkpoint
//                            snapshot, ckpt-day-NNNN.pckpt, per
//                            completed simulated day (observation only:
//                            stream bytes are identical on or off);
//   PANDARUS_EVENTS_FSYNC=off|flush|interval:<ms>
//                            durability policy for the event sinks.
//                            `flush` fsyncs after every drain that
//                            reaches the files; `interval:<ms>` at most
//                            once per <ms> of wall time; both fsync once
//                            more at close.  The default `off` issues no
//                            fsync and leaves every byte-identity
//                            guarantee untouched;
//   PANDARUS_EVENTS_WRITE_DELAY_US=<us>
//                            crash-injection hook: the NDJSON sink
//                            sleeps <us> after each 4 KiB block so a
//                            SIGKILL can land mid-line (used by
//                            examples/crash_harness; not for production
//                            runs).
//
// A sink path that cannot be opened, or a failed write, flush, fsync or
// close, is warned, counted in EventLog::io_errors() (log_stats,
// /healthz) and stops that file; the run goes on.  The metrics and
// alerts dumps warn on failure too.
//
// One call near the start of main(), before any other thread starts, is
// enough; binaries need no other per-binary wiring.  A binary that
// brings its own log, tracker or server copies env_session() and fills
// in the missing pointer.
#pragma once

#include "obs/session.hpp"

namespace pandarus::obs {

/// Reads the variables once, builds the env session and registers the
/// atexit writer when any is set.  Idempotent — repeated calls return
/// the first call's result and never register duplicate atexit dumps.
/// Returns true iff a hook is active.
bool install_env_hooks();

/// The session install_env_hooks() built; it never changes afterwards.
/// Empty (every pointer null, no checkpoint directory) before that call
/// or when no variable is set.
[[nodiscard]] const Session& env_session();

}  // namespace pandarus::obs
