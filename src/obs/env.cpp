#include "obs/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/serve.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

std::string g_metrics_path;
std::string g_trace_path;
std::string g_flows_path;
std::string g_alerts_path;
TraceRecorder* g_env_recorder = nullptr;
/// Written once, by install_once(); read-only afterwards.
Session g_env_session;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes an exit dump (metrics, alerts), warning when the open, the
/// write or the close fails.
void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: cannot open output file " + path);
    return;
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: write to output file " + path + " failed");
  }
}

void dump_at_exit() {
  // The server goes first: once stopped, no scrape can race the close/
  // dump sequence below.
  const Session& session = g_env_session;
  if (session.server != nullptr) {
    session.server->stop();
    sample_process_metrics();  // final values for the metrics dump
  }
  if (!g_metrics_path.empty()) {
    write_text_file(g_metrics_path, ends_with(g_metrics_path, ".prom")
                                        ? export_prometheus()
                                        : export_json());
  }
  if (g_env_recorder != nullptr) {
    g_env_recorder->write_chrome_trace(g_trace_path);
  }
  if (session.events != nullptr) {
    // Every published line is already in the files; close() appends
    // log_stats, drains the rest, and flushes and closes both sinks.
    session.events->close();
  }
  if (session.flows != nullptr && !g_flows_path.empty()) {
    session.flows->write_collapsed(g_flows_path);
  }
  if (session.health != nullptr && !g_alerts_path.empty()) {
    // After the log close above, detectors have quiesced; the dump is
    // the same document /api/alerts served.
    write_text_file(g_alerts_path, session.health->status_json());
  }
}

bool install_once() {
  const char* metrics = std::getenv("PANDARUS_METRICS");
  const char* trace = std::getenv("PANDARUS_TRACE");
  const char* events = std::getenv("PANDARUS_EVENTS");
  const char* events_col = std::getenv("PANDARUS_EVENTS_COL");
  const char* flows = std::getenv("PANDARUS_FLOWS");
  const char* serve = std::getenv("PANDARUS_SERVE");
  const char* alerts = std::getenv("PANDARUS_ALERTS");
  const char* checkpoint = std::getenv("PANDARUS_CHECKPOINT");
  if (metrics == nullptr && trace == nullptr && events == nullptr &&
      events_col == nullptr && flows == nullptr && serve == nullptr &&
      alerts == nullptr && checkpoint == nullptr) {
    return false;
  }
  Session& session = g_env_session;
  if (checkpoint != nullptr) session.checkpoint_dir = checkpoint;
  if (metrics != nullptr) g_metrics_path = metrics;
  if (trace != nullptr) {
    g_trace_path = trace;
    // Leaked on purpose: spans may close during static destruction,
    // after which the recorder must still be alive to receive them.
    g_env_recorder = new TraceRecorder();
    g_env_recorder->install();
  }
  if (events != nullptr || events_col != nullptr) {
    // One log feeds both sinks, written as lines are published.  Leaked
    // for the same reason as the trace recorder.
    EventSinks sinks;
    if (events != nullptr) sinks.ndjson_path = events;
    if (events_col != nullptr) sinks.colstore_path = events_col;
    if (const char* fsync = std::getenv("PANDARUS_EVENTS_FSYNC");
        fsync != nullptr && fsync[0] != '\0' &&
        !parse_fsync_policy(fsync, sinks.fsync)) {
      util::log_line(util::LogLevel::kWarning,
                     std::string("obs: bad PANDARUS_EVENTS_FSYNC value "
                                 "(want off|flush|interval:<ms>): ") +
                         fsync);
    }
    if (const char* delay = std::getenv("PANDARUS_EVENTS_WRITE_DELAY_US");
        delay != nullptr) {
      sinks.write_delay_us = std::atoi(delay);
    }
    session.events = new EventLog(sinks);
  }
  if (flows != nullptr) {
    // The value is the collapsed-stack dump path ("" arms the tracker
    // without a dump).  Leaked like the recorder: end_flow may fire
    // during static destruction.
    g_flows_path = flows;
    session.flows = new FlowTracker();
  }
  if (alerts != nullptr) {
    // The value is the status_json dump path; "" or "1" arms the
    // detectors without a dump.  Leaked like the recorder: transfer
    // feeds may fire during static destruction of a campaign scope.
    if (alerts[0] != '\0' && std::string_view(alerts) != "1") {
      g_alerts_path = alerts;
    }
    session.health = new HealthEngine();
  }
  if (serve != nullptr) {
    // Leaked like the others; dump_at_exit stops it before any dump
    // runs.  Port 0 binds an ephemeral port (logged by start()).
    const int port = std::atoi(serve);
    StatusServer::Options options;
    options.port = static_cast<std::uint16_t>(
        port > 0 && port <= 65535 ? port : 0);
    auto server = std::make_unique<StatusServer>(options);
    register_process_metrics();
    if (server->start()) session.server = server.release();
  }
  std::atexit(dump_at_exit);
  return true;
}

}  // namespace

bool install_env_hooks() {
  // The magic-static initializer runs install_once() exactly once per
  // process even under concurrent first calls, so repeated calls can
  // never register a second atexit dump or a second recorder/log.
  static const bool active = install_once();
  return active;
}

const Session& env_session() { return g_env_session; }

}  // namespace pandarus::obs
