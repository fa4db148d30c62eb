// obs::serve end-to-end: the embedded HTTP server's protocol corners
// (split reads, oversized heads, pipelining, abrupt closes), the
// StatusServer route table, the Prometheus exposition discipline, the
// analysis /api bodies against post-hoc ground truth, and the
// byte-identity of a campaign's NDJSON stream with a concurrent scraper
// hammering the endpoints (the TSan target).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "analysis/events_replay.hpp"
#include "analysis/serve_endpoints.hpp"
#include "analysis/summary.hpp"
#include "core/exact.hpp"
#include "core/relaxed.hpp"
#include "json_validator.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/serve.hpp"
#include "promtext_validator.hpp"
#include "scenario/campaign.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"

namespace pandarus {
namespace {

// --- raw-socket client helpers ---------------------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

bool send_text(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t n = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
    if (n < 0) return false;
    text.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::string recv_until_eof(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

/// Reads exactly one keep-alive response (headers + Content-Length body)
/// from `buffer`+socket, consuming it from `buffer`.
std::string recv_one_response(int fd, std::string& buffer) {
  const auto read_more = [&buffer, fd] {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
    return true;
  };
  std::size_t head_end = std::string::npos;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (!read_more()) return {};
  }
  head_end += 4;
  const std::string head = buffer.substr(0, head_end);
  std::size_t body_len = 0;
  const std::size_t cl = head.find("Content-Length: ");
  if (cl != std::string::npos) {
    body_len = static_cast<std::size_t>(
        std::strtoull(head.c_str() + cl + 16, nullptr, 10));
  }
  while (buffer.size() < head_end + body_len) {
    if (!read_more()) return {};
  }
  const std::string response = buffer.substr(0, head_end + body_len);
  buffer.erase(0, head_end + body_len);
  return response;
}

/// One-shot GET with Connection: close; returns the full response text.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_to(port);
  send_text(fd, "GET " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
                    "\r\n");
  std::string response = recv_until_eof(fd);
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string()
                                       : response.substr(head_end + 4);
}

/// Handler used by the protocol tests: echoes the path.
obs::HttpServer::Options test_options() {
  obs::HttpServer::Options options;
  options.max_request_bytes = 1024;  // small so 431 is cheap to trigger
  return options;
}

obs::HttpResponse echo_handler(const obs::HttpRequest& request) {
  obs::HttpResponse response;
  response.body = "path=" + request.path + "\n";
  return response;
}

// --- HttpServer protocol corners -------------------------------------------

TEST(HttpServer, ServesSplitReads) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  const int fd = connect_to(server.port());
  // The request head arrives in three pieces with pauses in between.
  for (const std::string_view piece :
       {"GET /hello HT", "TP/1.1\r\nHost: x\r\nConnec",
        "tion: close\r\n\r\n"}) {
    ASSERT_TRUE(send_text(fd, piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::string response = recv_until_eof(fd);
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(response), "path=/hello\n");
  server.stop();
}

TEST(HttpServer, OversizedRequestHeadDraws431) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  const int fd = connect_to(server.port());
  const std::string huge =
      "GET /" + std::string(4096, 'a') + " HTTP/1.1\r\n";
  ASSERT_TRUE(send_text(fd, huge));
  const std::string response = recv_until_eof(fd);
  ::close(fd);
  EXPECT_NE(response.find("431"), std::string::npos);
  server.stop();
}

TEST(HttpServer, PipelinedRequestsEachGetAResponse) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  const int fd = connect_to(server.port());
  ASSERT_TRUE(send_text(fd,
                        "GET /one HTTP/1.1\r\nHost: x\r\n\r\n"
                        "GET /two HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string buffer;
  const std::string first = recv_one_response(fd, buffer);
  const std::string second = recv_one_response(fd, buffer);
  ::close(fd);
  EXPECT_EQ(body_of(first), "path=/one\n");
  EXPECT_EQ(body_of(second), "path=/two\n");
  server.stop();
}

TEST(HttpServer, KeepAliveConnectionClosesAfter128Requests) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  const int fd = connect_to(server.port());
  // Shorter than the server's 5 s idle timeout: only the per-connection
  // cap can close the connection before this fires.
  timeval tv{};
  tv.tv_sec = 2;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  // One request at a time, each response read before the next send, so
  // the server never closes with unread input (which would send an RST).
  std::string buffer;
  for (int i = 0; i < 128; ++i) {
    const std::string path = "/r" + std::to_string(i);
    ASSERT_TRUE(
        send_text(fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"));
    ASSERT_EQ(body_of(recv_one_response(fd, buffer)), "path=" + path + "\n")
        << "request " << i;
  }
  EXPECT_TRUE(buffer.empty());
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // EOF, not a timeout
  ::close(fd);
  EXPECT_EQ(server.requests_served(), 128u);
  server.stop();
}

TEST(HttpServer, AbruptClientCloseLeavesServerServing) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  // Half a request, then a hard close.
  const int fd = connect_to(server.port());
  ASSERT_TRUE(send_text(fd, "GET /half HTT"));
  ::close(fd);
  // The server must keep serving new connections.
  const std::string response = http_get(server.port(), "/after");
  EXPECT_EQ(body_of(response), "path=/after\n");
  server.stop();
}

TEST(HttpServer, RejectsNonGetAndGarbage) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  {
    const int fd = connect_to(server.port());
    send_text(fd, "POST /x HTTP/1.1\r\nHost: x\r\n\r\n");
    const std::string response = recv_until_eof(fd);
    ::close(fd);
    EXPECT_NE(response.find("405"), std::string::npos);
  }
  {
    const int fd = connect_to(server.port());
    send_text(fd, "not an http request at all\r\n\r\n");
    const std::string response = recv_until_eof(fd);
    ::close(fd);
    EXPECT_NE(response.find("400"), std::string::npos);
  }
  server.stop();
}

TEST(HttpServer, HeadOmitsTheBody) {
  obs::HttpServer server(echo_handler, test_options());
  ASSERT_TRUE(server.start());
  const int fd = connect_to(server.port());
  send_text(fd, "HEAD /h HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  const std::string response = recv_until_eof(fd);
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 8"), std::string::npos);
  EXPECT_EQ(body_of(response), "");
  server.stop();
}

// --- StatusServer route table -----------------------------------------------

TEST(StatusServer, HealthzMetricsAndStatusPage) {
  obs::register_process_metrics();
  obs::StatusServer server;
  ASSERT_TRUE(server.start());

  const std::string healthz = body_of(http_get(server.port(), "/healthz"));
  EXPECT_TRUE(testing::JsonValidator(healthz).valid()) << healthz;
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);

  const std::string metrics = body_of(http_get(server.port(), "/metrics"));
  testing::PromTextValidator prom(metrics);
  EXPECT_TRUE(prom.valid()) << prom.error();
  EXPECT_NE(metrics.find("pandarus_build_info{version=\""),
            std::string::npos);
  EXPECT_NE(metrics.find("pandarus_process_resident_memory_bytes"),
            std::string::npos);

  const std::string page = http_get(server.port(), "/");
  EXPECT_NE(page.find("text/html"), std::string::npos);
  EXPECT_NE(page.find("<html"), std::string::npos);

  const std::string missing = http_get(server.port(), "/api/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_TRUE(testing::JsonValidator(body_of(missing)).valid());
  server.stop();
}

TEST(StatusServer, ExportPrometheusDeclaresEveryFamilyExactlyOnce) {
  // A private registry with every metric kind, including a labelled
  // gauge family with two label sets (one family, two samples).
  obs::Registry registry;
  registry.counter("t_requests_total", "requests").inc(3);
  registry.gauge("t_depth", "queue depth").set(7);
  registry.gauge("t_info{version=\"1\"}", "info").set(1);
  registry.gauge("t_info{version=\"2\"}", "info").set(1);
  registry.histogram("t_latency_ms", {1.0, 10.0}, "latency").observe(4.0);
  const std::string text = export_prometheus(registry.snapshot());
  testing::PromTextValidator prom(text);
  EXPECT_TRUE(prom.valid()) << prom.error() << "\n" << text;
  // Exactly one HELP/TYPE for the two-sample family.
  std::size_t help_count = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# HELP t_info", pos)) != std::string::npos; ++pos) {
    ++help_count;
  }
  EXPECT_EQ(help_count, 1u);
  // Histogram emits the canonical series plus quantile gauge families.
  EXPECT_NE(text.find("t_latency_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE t_latency_ms_p50 gauge"), std::string::npos);
}

TEST(StatusServer, SseStreamDeliversTicks) {
  obs::StatusServer::Options options;
  options.sse_interval_ms = 20;
  obs::StatusServer server(options);
  ASSERT_TRUE(server.start());
  const int fd = connect_to(server.port());
  send_text(fd, "GET /events/stream HTTP/1.1\r\nHost: x\r\n\r\n");
  std::string received;
  char chunk[2048];
  while (received.find("event: tick") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "stream closed before a tick arrived";
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(received.find("retry: 2000"), std::string::npos);
  EXPECT_NE(received.find("text/event-stream"), std::string::npos);
  // The tick payload between "data: " and the frame separator is JSON.
  const std::size_t data = received.find("data: ");
  ASSERT_NE(data, std::string::npos);
  const std::size_t end = received.find('\n', data);
  ASSERT_NE(end, std::string::npos);
  const std::string payload = received.substr(data + 6, end - data - 6);
  EXPECT_TRUE(testing::JsonValidator(payload).valid()) << payload;
  server.stop();
}

// --- live /api bodies vs post-hoc ground truth ------------------------------

TEST(ServeEndpoints, LiveSummaryEqualsPostHocAnalysis) {
  obs::Registry::global().reset_for_test();
  obs::EventLog log;
  obs::FlowTracker tracker;
  obs::StatusServer server;
  ASSERT_TRUE(server.start());

  const scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  const scenario::ScenarioResult result = scenario::run_campaign(
      config, {.events = &log, .flows = &tracker, .server = &server});

  // Ground truth: post-hoc replay of the full stream + the matchers.
  std::istringstream stream(log.to_ndjson());
  const analysis::ReplayResult replay = analysis::replay_events(stream);
  const core::Matcher matcher(replay.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);
  const analysis::OverallSummary expected =
      analysis::overall_summary(replay.store, tri.exact);

  const std::string body = body_of(http_get(server.port(), "/api/summary"));
  ASSERT_TRUE(testing::JsonValidator(body).valid()) << body;
  const auto parsed = util::json::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_int("jobs"),
            static_cast<std::int64_t>(expected.total_jobs));
  EXPECT_EQ(parsed->get_int("transfers"),
            static_cast<std::int64_t>(expected.total_transfers));
  const util::json::Value* exact = parsed->find("exact");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->get_int("matched_jobs"),
            static_cast<std::int64_t>(tri.exact.matched_job_count()));
  EXPECT_EQ(exact->get_int("matched_transfers"),
            static_cast<std::int64_t>(tri.exact.matched_transfer_count()));
  const util::json::Value* rm2 = parsed->find("rm2");
  ASSERT_NE(rm2, nullptr);
  EXPECT_EQ(rm2->get_int("matched_jobs"),
            static_cast<std::int64_t>(tri.rm2.matched_job_count()));
  EXPECT_GT(parsed->get_int("jobs"), 0);
  EXPECT_EQ(parsed->get_int("window_end"), result.window_end);

  // Tables and series parse and carry the same watermark.
  const std::string tables = body_of(http_get(server.port(), "/api/tables"));
  ASSERT_TRUE(testing::JsonValidator(tables).valid());
  const std::string series = body_of(http_get(server.port(), "/api/series"));
  ASSERT_TRUE(testing::JsonValidator(series).valid());
  const auto series_parsed = util::json::parse(series);
  ASSERT_TRUE(series_parsed.has_value());
  EXPECT_EQ(series_parsed->get_int("watermark"),
            parsed->get_int("watermark"));

  // Critical path reflects the live tracker's aggregates.
  const std::string critical =
      body_of(http_get(server.port(), "/api/critical-path"));
  ASSERT_TRUE(testing::JsonValidator(critical).valid()) << critical;
  const auto critical_parsed = util::json::parse(critical);
  ASSERT_TRUE(critical_parsed.has_value());
  const obs::FlowTotals totals = tracker.totals();
  EXPECT_EQ(critical_parsed->get_int("flows"),
            static_cast<std::int64_t>(totals.flows));
  const util::json::Value* links = critical_parsed->find("links");
  ASSERT_NE(links, nullptr);
  EXPECT_EQ(links->arr.size(), tracker.link_ranking().size());

  server.stop();
}

// The live cache folds only the newly published suffix: scraping after
// every publish() of a campaign folds each line exactly once, and the
// final bodies equal those of a fresh full replay of the stream.
TEST(ServeEndpoints, LiveCacheFoldsEachPublishedLineOnce) {
  obs::Registry::global().reset_for_test();
  obs::EventLog log;
  obs::StatusServer server;
  ASSERT_TRUE(server.start());

  // The campaign publishes at every day boundary (this observer runs
  // right after), after the harvest (run_campaign returns) and on
  // close().
  std::size_t scrapes = 0;
  const auto scrape = [&server, &scrapes] {
    ++scrapes;
    http_get(server.port(), "/api/summary");
  };
  std::ignore = scenario::detail::run_campaign(
      scenario::ScenarioConfig::small(), {.events = &log, .server = &server},
      [&scrape](const scenario::detail::DayBoundary&) { scrape(); });
  scrape();
  log.close();
  scrape();
  EXPECT_GT(scrapes, 3u);

  const std::uint64_t folded =
      obs::Registry::global().snapshot().counter_value(
          "pandarus_serve_replayed_lines_total");
  EXPECT_EQ(folded, log.watermark());

  std::istringstream stream(log.to_ndjson());
  auto replay = std::make_shared<const analysis::ReplayResult>(
      analysis::replay_events(stream));
  obs::StatusServer replay_server;
  ASSERT_TRUE(replay_server.start());
  analysis::attach_replay_status(replay_server, replay);
  for (const char* path : {"/api/summary", "/api/tables", "/api/series"}) {
    EXPECT_EQ(body_of(http_get(server.port(), path)),
              body_of(http_get(replay_server.port(), path)))
        << path;
  }
  replay_server.stop();
  server.stop();
}

TEST(ServeEndpoints, ReplayModeServesPrecomputedBodies) {
  obs::Registry::global().reset_for_test();
  obs::EventLog log;
  const scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  std::ignore = scenario::run_campaign(config, {.events = &log});
  log.close();

  std::istringstream stream(log.to_ndjson());
  auto replay = std::make_shared<const analysis::ReplayResult>(
      analysis::replay_events(stream));
  ASSERT_GT(replay->lines_parsed, 0u);

  obs::StatusServer server;
  ASSERT_TRUE(server.start());
  analysis::attach_replay_status(server, replay);
  const std::string body = body_of(http_get(server.port(), "/api/summary"));
  ASSERT_TRUE(testing::JsonValidator(body).valid()) << body;
  const auto parsed = util::json::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->get_bool("closed"));
  EXPECT_GT(parsed->get_int("jobs"), 0);
  EXPECT_EQ(parsed->get_int("watermark"),
            static_cast<std::int64_t>(replay->lines_parsed));
  server.stop();
}

TEST(ServeEndpoints, AlertsEndpointServesLiveEngineState) {
  obs::Registry::global().reset_for_test();
  obs::StatusServer server;
  ASSERT_TRUE(server.start());

  // No engine in the session: the endpoint reports itself disabled.
  analysis::attach_live_status(server, {});
  const std::string disabled = body_of(http_get(server.port(), "/api/alerts"));
  EXPECT_EQ(disabled, "{\"enabled\":false}");

  obs::HealthEngine engine;
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  config.faults.intensity = 2.0;
  config.with_self_healing();
  std::ignore =
      scenario::run_campaign(config, {.health = &engine, .server = &server});

  const std::string body = body_of(http_get(server.port(), "/api/alerts"));
  ASSERT_TRUE(testing::JsonValidator(body).valid()) << body;
  EXPECT_EQ(body, engine.status_json());
  const auto parsed = util::json::parse(body);
  ASSERT_TRUE(parsed.has_value());
  const util::json::Value* counts = parsed->find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_GE(counts->get_int("fired"), 1);

  server.stop();
}

TEST(ServeEndpoints, ReplayAlertsServePrecomputedDocument) {
  obs::StatusServer server;
  ASSERT_TRUE(server.start());
  auto replay = std::make_shared<const analysis::ReplayResult>();
  auto alerts = std::make_shared<const std::string>(
      "{\"counts\":{\"observations\":0},\"alerts\":[]}");
  analysis::attach_replay_status(server, replay, alerts);
  EXPECT_EQ(body_of(http_get(server.port(), "/api/alerts")), *alerts);
  server.stop();
}

// --- byte identity under concurrent scraping (the TSan test) ----------------

TEST(ServeEndpoints, ScrapedCampaignNdjsonIsByteIdenticalToUnscraped) {
  const scenario::ScenarioConfig config = scenario::ScenarioConfig::small();

  // Baseline: no server, no scrapes.
  std::string baseline;
  {
    obs::Registry::global().reset_for_test();
    obs::EventLog log;
    std::ignore = scenario::run_campaign(config, {.events = &log});
    baseline = log.to_ndjson();
  }

  // Same campaign with a status server in its session and a client
  // hammering /metrics, /api/summary and /healthz throughout the run.
  std::string scraped;
  {
    obs::Registry::global().reset_for_test();
    obs::EventLog log;
    obs::StatusServer server;
    ASSERT_TRUE(server.start());
    std::atomic<bool> done{false};
    std::thread scraper([&server, &done] {
      while (!done.load(std::memory_order_acquire)) {
        http_get(server.port(), "/metrics");
        http_get(server.port(), "/api/summary");
        http_get(server.port(), "/healthz");
      }
    });
    std::ignore =
        scenario::run_campaign(config, {.events = &log, .server = &server});
    done.store(true, std::memory_order_release);
    scraper.join();
    // One last scrape after the campaign finished (post-harvest path).
    const std::string body =
        body_of(http_get(server.port(), "/api/summary"));
    EXPECT_TRUE(testing::JsonValidator(body).valid());
    server.stop();
    scraped = log.to_ndjson();
  }

  ASSERT_EQ(baseline.size(), scraped.size());
  EXPECT_TRUE(baseline == scraped);
}

// --- EventLog publication and file sinks -----------------------------------

TEST(EventLogServe, PublishAdvancesTheWatermark) {
  obs::EventLog log;
  obs::EventLog::Reader reader(log);
  for (std::int64_t i = 0; i < 10; ++i) {
    log.emit(obs::Event("tick", i, i));
  }
  // Ten lines sit in this thread's staging buffer, below the drain
  // batch: nothing is published yet.
  EXPECT_EQ(log.watermark(), 0u);
  EXPECT_EQ(log.publish(), 10u);
  EXPECT_EQ(log.watermark(), 10u);
  std::string snapshot;
  EXPECT_EQ(reader.read(snapshot), 10u);
  EXPECT_EQ(snapshot, log.to_ndjson());
}

TEST(EventLogServe, SnapshotStreamsIncrementally) {
  obs::EventLog log;
  obs::EventLog::Reader reader(log);
  log.emit(obs::Event("a", 1, std::int64_t{1}));
  log.publish();
  std::string first;
  EXPECT_EQ(reader.read(first), 1u);
  log.emit(obs::Event("b", 2, std::int64_t{2}));
  log.publish();
  std::string second;
  EXPECT_EQ(reader.read(second), 2u);
  EXPECT_EQ(reader.position(), 2u);
  EXPECT_EQ(first + second, log.to_ndjson());
  EXPECT_NE(second.find("\"b\""), std::string::npos);
  EXPECT_EQ(second.find("\"a\""), std::string::npos);
}

TEST(EventLogServe, UnpublishedForeignBufferStallsTheWatermark) {
  obs::EventLog log;
  obs::EventLog::Reader reader(log);
  // A second thread emits one line and exits without filling its batch:
  // its line is staged, unpublished.
  std::thread other([&log] { log.emit(obs::Event("other", 1, 1)); });
  other.join();
  log.emit(obs::Event("mine", 2, 2));
  log.publish();
  // One of the two seqs is still staged in the (dead) foreign buffer,
  // so the watermark cannot cover both lines.
  EXPECT_LT(log.watermark(), 2u);
  // close() drains every buffer (emitters have quiesced) and the
  // watermark reaches the full stream, stats line included.
  log.close();
  EXPECT_EQ(log.watermark(), 3u);
  std::string all;
  reader.read(all);
  EXPECT_EQ(all, log.to_ndjson());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream read;
  read << in.rdbuf();
  return read.str();
}

/// Decodes a colstore file with salvage on: whole chunks only, a torn
/// or open tail ends the scan cleanly.
std::string decode_salvaged(const std::string& path) {
  obs::ColReadOptions options;
  options.recover = true;
  obs::ColReader reader(path, {}, options);
  obs::DecodedEvent event;
  std::string out;
  while (reader.next(event)) {
    obs::append_ndjson(event, out);
    out += '\n';
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return out;
}

TEST(EventLogServe, NdjsonSinkHoldsExactlyThePublishedPrefix) {
  const std::string path = ::testing::TempDir() + "serve_sink_test.ndjson";
  obs::EventSinks sinks;
  sinks.ndjson_path = path;
  obs::EventLog log(sinks);
  obs::EventLog::Reader reader(log);
  const auto early = [](obs::EventLog& l) {
    l.emit(obs::Event("early", 1, std::int64_t{1}));
    l.emit(obs::Event("early", 2, std::int64_t{2}));
  };
  const auto late = [](obs::EventLog& l) {
    l.emit(obs::Event("late", 3, std::int64_t{3}));
  };
  early(log);
  const std::uint64_t watermark = log.publish();
  EXPECT_EQ(watermark, 2u);
  // Staged, not published: must not reach the file yet.
  late(log);
  std::string published;
  EXPECT_EQ(reader.read(published), watermark);
  EXPECT_EQ(read_text(path), published);
  log.close();
  // The sink log frees its lines, so the whole stream to compare the
  // file with comes from an in-memory log fed the same events.
  obs::EventLog memory;
  early(memory);
  memory.publish();
  late(memory);
  memory.close();
  EXPECT_EQ(read_text(path), memory.to_ndjson());
  EXPECT_NE(memory.to_ndjson().find("\"late\""), std::string::npos);
  EXPECT_EQ(log.io_errors(), 0u);
  std::remove(path.c_str());
}

TEST(EventLogServe, ColstoreSinkHoldsEveryCompleteChunkBeforeClose) {
  const std::string path = ::testing::TempDir() + "serve_sink_test.colstore";
  constexpr std::size_t kChunkRows = obs::ColWriterOptions{}.rows_per_chunk;
  obs::EventSinks sinks;
  sinks.colstore_path = path;
  obs::EventLog log(sinks);
  obs::EventLog::Reader reader(log);
  const auto ticks = [](obs::EventLog& l) {
    for (std::size_t i = 0; i <= kChunkRows; ++i) {
      l.emit(obs::Event("tick", static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(i))
                 .field("n", static_cast<std::uint64_t>(i)));
    }
  };
  ticks(log);
  EXPECT_EQ(log.publish(), kChunkRows + 1);
  // One full chunk is on disk; the one-row tail chunk is still open.
  std::string published;
  reader.read(published);
  std::size_t cut = 0;
  for (std::size_t line = 0; line < kChunkRows; ++line) {
    cut = published.find('\n', cut) + 1;
  }
  EXPECT_EQ(decode_salvaged(path), published.substr(0, cut));
  log.close();
  obs::EventLog memory;  // the same events, kept whole for comparison
  ticks(memory);
  memory.close();
  EXPECT_EQ(decode_salvaged(path), memory.to_ndjson());
  EXPECT_EQ(log.io_errors(), 0u);
  std::remove(path.c_str());
}

TEST(EventLogServe, TwoThreadEmitWithBothSinksArmed) {
  const std::string ndjson = ::testing::TempDir() + "serve_two_thread.ndjson";
  const std::string col = ::testing::TempDir() + "serve_two_thread.colstore";
  obs::EventSinks sinks;
  sinks.ndjson_path = ndjson;
  sinks.colstore_path = col;
  obs::EventLog log(sinks);
  // The interleaving differs run to run, so the stream to compare the
  // files with is what a reader registered up front sees.
  obs::EventLog::Reader reader(log);
  // Enough lines per thread to cross several drain batches, so both
  // threads write the files while the other is still emitting.
  constexpr int kPerThread = 5000;
  const auto emitter = [&log](std::int64_t thread) {
    for (int i = 0; i < kPerThread; ++i) {
      log.emit(obs::Event("tick", i, thread).field("i", std::int64_t{i}));
      if (i % 997 == 0) log.publish();
    }
    log.publish();
  };
  std::thread a(emitter, 1);
  std::thread b(emitter, 2);
  a.join();
  b.join();
  log.close();
  std::string all;
  reader.read(all);
  EXPECT_EQ(log.watermark(), 2u * kPerThread + 1);
  EXPECT_EQ(read_text(ndjson), all);
  EXPECT_EQ(decode_salvaged(col), all);
  EXPECT_EQ(log.io_errors(), 0u);
  std::remove(ndjson.c_str());
  std::remove(col.c_str());
}

// --- bounded memory ---------------------------------------------------------

/// Emits `count` ticks from the calling thread and returns the most
/// lines `log` held in memory after any one of them.
std::size_t emit_ticks(obs::EventLog& log, std::size_t count,
                       std::int64_t entity) {
  std::size_t peak = 0;
  for (std::size_t i = 0; i < count; ++i) {
    log.emit(obs::Event("tick", static_cast<std::int64_t>(i), entity)
                 .field("i", static_cast<std::uint64_t>(i))
                 .field("label", "tick \"" + std::to_string(i % 7) + "\""));
    peak = std::max(peak, log.resident_lines());
  }
  return peak;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(EventLogMemory, SinkLogFreesEveryWrittenLine) {
  const std::string ndjson = ::testing::TempDir() + "bounded.ndjson";
  const std::string col = ::testing::TempDir() + "bounded.colstore";
  obs::EventSinks sinks;
  sinks.ndjson_path = ndjson;
  sinks.colstore_path = col;
  obs::EventLog log(sinks);
  constexpr std::size_t kBatch = obs::EventLog::kDrainBatch;
  constexpr std::size_t kLines = 40 * kBatch + 7;
  // One emitting thread and no reader: only its staging batch is held.
  EXPECT_LE(emit_ticks(log, kLines, 0), kBatch);
  log.publish();
  EXPECT_EQ(log.resident_lines(), 0u);
  // Two threads at once: each holds at most its batch, plus lines that
  // wait in ahead_ for the other's lower seqs; once both have
  // published, nothing stays resident.
  std::thread a([&log] { emit_ticks(log, kLines, 1); log.publish(); });
  std::thread b([&log] { emit_ticks(log, kLines, 2); log.publish(); });
  a.join();
  b.join();
  EXPECT_EQ(log.resident_lines(), 0u);
  EXPECT_EQ(log.event_count(), 3 * kLines);
  obs::export_event_log_metrics(&log);
  EXPECT_EQ(obs::Registry::global().snapshot().gauge_value(
                "pandarus_events_resident_lines"),
            0);
  log.close();
  EXPECT_EQ(log.io_errors(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  // Freed lines were written first: both files hold the whole stream.
  const std::string text = read_text(ndjson);
  EXPECT_EQ(count_lines(text), 3 * kLines + 1);
  EXPECT_EQ(decode_salvaged(col), text);
  std::remove(ndjson.c_str());
  std::remove(col.c_str());
}

TEST(EventLogMemory, RegisteredReaderPinsLinesUntilItReads) {
  const std::string path = ::testing::TempDir() + "pinned.ndjson";
  obs::EventSinks sinks;
  sinks.ndjson_path = path;
  obs::EventLog log(sinks);
  std::optional<obs::EventLog::Reader> reader(std::in_place, log);
  constexpr std::size_t kLines = 3 * obs::EventLog::kDrainBatch;
  emit_ticks(log, kLines, 0);
  log.publish();
  // Written to the file, but unread: every line stays.
  EXPECT_EQ(log.resident_lines(), kLines);
  std::string seen;
  EXPECT_EQ(reader->read(seen), kLines);
  EXPECT_EQ(log.resident_lines(), 0u);

  // A reader registered now starts at the watermark; the slower one
  // holds the lines both still need.
  emit_ticks(log, 5, 0);
  log.publish();
  obs::EventLog::Reader late(log);
  EXPECT_EQ(late.position(), kLines + 5);
  emit_ticks(log, 3, 0);
  log.publish();
  std::string late_seen;
  EXPECT_EQ(late.read(late_seen), kLines + 8);
  EXPECT_EQ(count_lines(late_seen), 3u);
  EXPECT_EQ(log.resident_lines(), 8u);
  reader->read(seen);
  EXPECT_EQ(log.resident_lines(), 0u);

  // An unregistering reader releases what it pinned.
  emit_ticks(log, 4, 0);
  log.publish();
  late.read(late_seen);
  EXPECT_EQ(log.resident_lines(), 4u);  // `reader` has not read them
  reader.reset();
  EXPECT_EQ(log.resident_lines(), 0u);
  // The file holds every published line: what the first reader saw,
  // then the four lines only `late` read.
  const std::string file = read_text(path);
  EXPECT_EQ(count_lines(file), kLines + 12);
  ASSERT_GE(file.size(), seen.size());
  EXPECT_EQ(file.substr(0, seen.size()), seen);
  EXPECT_TRUE(late_seen.ends_with(file.substr(seen.size())));
  std::remove(path.c_str());
}

TEST(EventLogMemory, FailedSinkStaysBoundedAndTheOtherSinkGetsEveryLine) {
  const std::string col = ::testing::TempDir() + "other_sink.colstore";
  obs::EventSinks sinks;
  sinks.ndjson_path = "/dev/full";
  sinks.colstore_path = col;
  obs::EventLog log(sinks);
  constexpr std::size_t kLines = 20 * obs::EventLog::kDrainBatch + 3;
  EXPECT_LE(emit_ticks(log, kLines, 0), obs::EventLog::kDrainBatch);
  log.close();
  EXPECT_EQ(log.io_errors(), 1u);
  EXPECT_EQ(log.resident_lines(), 0u);

  obs::EventLog memory;  // the same events, kept whole for comparison
  emit_ticks(memory, kLines, 0);
  memory.close();
  // Every event line reached the colstore; only the stats line differs,
  // counting the NDJSON sink's failure.
  const std::string decoded = decode_salvaged(col);
  const std::string expected = memory.to_ndjson();
  const std::size_t decoded_stats = decoded.rfind("{\"ts\":0,\"kind\":\"log_stats\"");
  const std::size_t expected_stats = expected.rfind("{\"ts\":0,\"kind\":\"log_stats\"");
  ASSERT_NE(decoded_stats, std::string::npos);
  ASSERT_NE(expected_stats, std::string::npos);
  EXPECT_EQ(decoded.substr(0, decoded_stats),
            expected.substr(0, expected_stats));
  EXPECT_NE(decoded.find("\"io_errors\":1", decoded_stats), std::string::npos);
  std::remove(col.c_str());
}

TEST(EventLogMemory, ToNdjsonThrowsOnceLinesAreFreed) {
  const std::string path = ::testing::TempDir() + "freed.ndjson";
  obs::EventSinks sinks;
  sinks.ndjson_path = path;
  obs::EventLog log(sinks);
  log.emit(obs::Event("a", 1, std::int64_t{1}));
  // Staged only: nothing has been freed, so the stream is still whole.
  EXPECT_EQ(log.to_ndjson(), "{\"ts\":1,\"kind\":\"a\",\"entity\":1}\n");
  log.publish();
  EXPECT_THROW((void)log.to_ndjson(), std::logic_error);
  log.close();
  EXPECT_THROW((void)log.to_ndjson(), std::logic_error);
  EXPECT_EQ(count_lines(read_text(path)), 2u);
  // A log without a file sink never frees a line.
  obs::EventLog memory;
  memory.emit(obs::Event("a", 1, std::int64_t{1}));
  memory.publish();
  memory.close();
  EXPECT_EQ(memory.to_ndjson(), read_text(path));
  std::remove(path.c_str());
}

TEST(EventLogServe, FullDiskIsCountedAndDegradesHealthz) {
  obs::EventSinks sinks;
  sinks.ndjson_path = "/dev/full";
  obs::EventLog log(sinks);
  obs::StatusServer server;
  ASSERT_TRUE(server.start());
  server.attach({.events = &log});
  for (std::int64_t i = 0; i < 10; ++i) log.emit(obs::Event("tick", i, i));
  log.publish();
  log.emit(obs::Event("after_failure", 11, std::int64_t{11}));
  log.close();
  // The first failed flush is counted and stops the sink, so the run
  // goes on and the count stays at one.
  EXPECT_EQ(log.io_errors(), 1u);
  const std::string healthz = body_of(http_get(server.port(), "/healthz"));
  server.stop();
  EXPECT_TRUE(testing::JsonValidator(healthz).valid()) << healthz;
  EXPECT_NE(healthz.find("\"status\":\"degraded\""), std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("\"io_errors\":1"), std::string::npos) << healthz;
}

TEST(EventLogServe, UnopenableSinkPathIsCountedAndTheRunGoesOn) {
  obs::EventSinks sinks;
  sinks.ndjson_path = ::testing::TempDir() + "no-such-dir/events.ndjson";
  sinks.colstore_path = ::testing::TempDir() + "no-such-dir/events.colstore";
  obs::EventLog log(sinks);
  EXPECT_EQ(log.io_errors(), 2u);
  log.emit(obs::Event("tick", 1, std::int64_t{1}));
  log.close();
  EXPECT_EQ(log.io_errors(), 2u);
  EXPECT_EQ(log.event_count(), 2u);  // + terminal log_stats
}

}  // namespace
}  // namespace pandarus
