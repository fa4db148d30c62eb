// pandarus-serve: the observability endpoint as a standalone binary.
//
// Live mode (default) runs a paper-scale campaign with the status
// server attached, then keeps serving the finished results:
//
//   pandarus-serve [--port N] [--days D] [--seed S] [--preset small|paper]
//                  [--once]
//
//   $ pandarus-serve --port 8717 &
//   $ curl -s localhost:8717/api/summary | python3 -m json.tool
//   $ curl -s localhost:8717/metrics | grep pandarus_build_info
//   $ curl -sN localhost:8717/events/stream   # SSE ticks
//
// Replay mode serves a finished NDJSON/colstore event file instead of
// running a simulation (bodies precomputed once at startup):
//
//   pandarus-serve --replay events.ndjson [--port N]
//
// The same endpoints are also available in *any* pandarus binary via
// PANDARUS_SERVE=<port> (obs::install_env_hooks); this binary exists so
// CI and humans can poke the API without composing env hooks by hand.
// --once exits right after the campaign instead of lingering, which
// keeps the smoke test self-terminating.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "pandarus.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

void linger() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--days D] [--seed S]"
               " [--preset small|paper] [--chaos I] [--once]\n"
            << "       " << argv0 << " --replay <events-file> [--port N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandarus;

  std::uint16_t port = 0;
  double days = 0.0;  // 0: keep the preset's default
  std::uint64_t seed = 20250401;  // the benches' kDefaultSeed
  double chaos = 0.0;  // fault intensity; >0 also arms self-healing
  bool once = false;
  bool small = false;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--days" && i + 1 < argc) {
      days = std::strtod(argv[++i], nullptr);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--preset" && i + 1 < argc) {
      const std::string preset = argv[++i];
      if (preset == "small") {
        small = true;
      } else if (preset != "paper") {
        return usage(argv[0]);
      }
    } else if (arg == "--chaos" && i + 1 < argc) {
      chaos = std::strtod(argv[++i], nullptr);
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (arg == "--once") {
      once = true;
    } else {
      return usage(argv[0]);
    }
  }

  obs::install_env_hooks();

  if (!replay_path.empty()) {
    // /api/alerts comes from health detectors fed in the replay's own
    // pass — the replay twin of a live PANDARUS_ALERTS run.
    obs::HealthEngine health;
    auto replay = std::make_shared<const analysis::ReplayResult>(
        analysis::replay_events_file(replay_path, &health));
    if (replay->lines_parsed == 0) {
      std::cerr << "pandarus-serve: no events parsed from " << replay_path
                << "\n";
      return 1;
    }
    obs::StatusServer::Options options;
    options.port = port;
    obs::StatusServer server(options);
    obs::register_process_metrics();
    if (!server.start()) {
      std::cerr << "pandarus-serve: cannot bind 127.0.0.1:" << port << "\n";
      return 1;
    }
    analysis::attach_replay_status(
        server, replay,
        std::make_shared<const std::string>(health.status_json()));
    std::cout << "serving replay of " << replay_path << " ("
              << replay->lines_parsed << " lines) on http://127.0.0.1:"
              << server.port() << "/\n"
              << "replay ready\n"
              << std::flush;
    if (!once) linger();
    server.stop();
    return 0;
  }

  // Live mode.  The env session may already hold a server, log or
  // tracker (PANDARUS_SERVE / PANDARUS_EVENTS / PANDARUS_FLOWS); fill in
  // whatever is still missing so the bare binary works without any
  // environment.
  obs::Session session = obs::env_session();
  static obs::EventLog self_log;
  if (session.events == nullptr) session.events = &self_log;
  static obs::FlowTracker self_tracker;
  if (session.flows == nullptr) session.flows = &self_tracker;

  std::unique_ptr<obs::StatusServer> self_server;
  if (session.server == nullptr) {
    obs::StatusServer::Options options;
    options.port = port;
    self_server = std::make_unique<obs::StatusServer>(options);
    obs::register_process_metrics();
    if (!self_server->start()) {
      std::cerr << "pandarus-serve: cannot bind 127.0.0.1:" << port << "\n";
      return 1;
    }
    session.server = self_server.get();
  }
  std::cout << "listening on http://127.0.0.1:" << session.server->port()
            << "/\n"
            << std::flush;

  scenario::ScenarioConfig config = small
                                        ? scenario::ScenarioConfig::small()
                                        : scenario::ScenarioConfig::paper_scale();
  if (days > 0.0) config.days = days;
  config.seed = seed;
  if (chaos > 0.0) {
    // The chaos_sweep recipe: sampled infrastructure faults plus the
    // self-healing controls, so breakers open/close and the health
    // detectors have something real to fire on.
    config.faults.intensity = chaos;
    config.with_self_healing();
  }
  std::cout << "running a " << config.days << "-day campaign (seed "
            << config.seed << ") ...\n"
            << std::flush;
  const scenario::ScenarioResult result =
      scenario::run_campaign(config, session);

  const auto counts = result.store.counts();
  std::cout << "campaign complete: " << counts.jobs << " jobs, "
            << counts.transfers << " transfers harvested\n"
            << std::flush;
  if (!once) {
    std::cout << "serving until SIGINT/SIGTERM ...\n" << std::flush;
    linger();
  }
  if (self_server) self_server->stop();
  return 0;
}
