// obs::serve — the live observability endpoint (ROADMAP item 3): one
// StatusServer wraps the embedded HttpServer (obs/http.hpp) with the
// route table every campaign binary shares:
//
//   GET /                  single-file HTML status page (polls the APIs)
//   GET /healthz           liveness JSON (uptime, requests served)
//   GET /metrics           Prometheus scrape of Registry::global(),
//                          process gauges refreshed per scrape
//   GET /events/stream     SSE: one `tick` frame per interval carrying
//                          the EventLog watermark/progress/log stats
//   GET /api/...           JSON endpoints registered by higher layers
//
// Layering: obs cannot see the matchers or replay machinery, so the
// /api/summary, /api/tables, /api/series and /api/critical-path bodies
// live in analysis::attach_live_status / attach_replay_status, which
// register providers through set_json_endpoint().  scenario::
// run_campaign attaches its obs::Session to the session's server at
// start, so /healthz, SSE and /api/* report on that campaign and
// `PANDARUS_SERVE=<port>` is all a binary needs.
//
// Snapshot discipline: providers must read only (a) the EventLog's
// published prefix via an EventLog::Reader or watermark(), (b) mutex-guarded
// aggregates (FlowTracker::totals()/link_ranking()), and (c) metric
// snapshots — never live simulator state — so a scrape observes a
// consistent store without blocking the sim thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/http.hpp"
#include "obs/session.hpp"

namespace pandarus::obs {

class StatusServer {
 public:
  struct Options {
    std::uint16_t port = 0;   ///< 0 picks an ephemeral port (see port())
    int sse_interval_ms = 500;  ///< /events/stream tick period
  };

  /// Default options (separate overload: GCC 12 rejects `= {}` defaults
  /// for nested aggregates with member initializers).
  StatusServer();
  explicit StatusServer(Options options);
  ~StatusServer();
  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Binds 127.0.0.1 and starts serving; false when the port is taken.
  bool start();
  /// Graceful shutdown: ends SSE streams, joins every server thread.
  void stop();

  [[nodiscard]] bool running() const noexcept { return http_.running(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return http_.port(); }

  /// Returns a complete JSON body for one GET.  Providers run on server
  /// worker threads — they must be thread-safe and snapshot-isolated.
  using JsonProvider = std::function<std::string()>;
  /// Registers (or replaces) `GET <path>` -> application/json.  Paths
  /// conventionally live under /api/.
  void set_json_endpoint(std::string path, JsonProvider provider);

  /// /healthz, /metrics and SSE report on `session`'s event log and
  /// health engine from now on (none attached: no log, no alerts).  Both
  /// must outlive the serving, or the next attach().
  void attach(const Session& session);

 private:
  HttpResponse handle(const HttpRequest& request);
  HttpResponse events_stream() const;
  /// The attached session's log and engine, read under mutex_.
  [[nodiscard]] std::pair<const EventLog*, const HealthEngine*> attached()
      const;

  Options options_;
  HttpServer http_;
  mutable std::mutex mutex_;  ///< guards routes_, log_, health_
  std::map<std::string, JsonProvider> routes_;
  const EventLog* log_ = nullptr;
  const HealthEngine* health_ = nullptr;
};

}  // namespace pandarus::obs
