// Minimal embedded HTTP/1.1 server for the live observability endpoint
// (obs::serve).  Deliberately dependency-free: blocking POSIX sockets, a
// fixed worker pool fed by an accept thread through a bounded queue,
// bounded request size, keep-alive with pipelining, and graceful
// shutdown (stop() closes the listener, shuts down in-flight
// connections, and joins every thread).
//
// Scope is an *instrumentation* server, not a web framework: GET/HEAD
// only, no request bodies, loopback bind only (127.0.0.1), and one
// handler callback for the whole route table.  Long-lived responses
// (SSE) run through HttpResponse::stream, which receives an HttpStream
// whose write()/sleep_ms() observe server shutdown so a graceful stop
// never waits on a subscriber.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

namespace pandarus::obs {

struct HttpRequest {
  std::string method;   ///< "GET" / "HEAD" (anything else is rejected)
  std::string target;   ///< raw request target, e.g. "/api/summary?x=1"
  std::string path;     ///< target up to '?'
  std::string query;    ///< after '?', may be empty
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;

  /// First header with this name (case-insensitive); empty when absent.
  [[nodiscard]] std::string_view header(std::string_view name) const noexcept;
};

/// Parses one request head (request line, headers, up to the first
/// blank line; CRLF or bare LF) into `out`, which should start empty.
/// False when the request line is malformed, or a header line has no
/// ':', a name that is not an RFC 7230 token (empty, or holding
/// whitespace or a delimiter) or a leading space or tab (an obsolete
/// line fold); the server answers that with 400.  Bytes past the blank
/// line are ignored.
bool parse_http_request(std::string_view text, HttpRequest& out);

/// Streaming sink handed to HttpResponse::stream callbacks.  Both calls
/// return false once the client is gone or the server is stopping; the
/// callback should return promptly when that happens.
class HttpStream {
 public:
  /// Writes one chunk to the socket (looping over partial sends).
  bool write(std::string_view chunk) noexcept;
  /// Sleeps up to `ms`, waking early on server shutdown.
  bool sleep_ms(int ms) noexcept;

 private:
  friend class HttpServer;
  HttpStream(int fd, class HttpServer& server) : fd_(fd), server_(server) {}
  int fd_;
  HttpServer& server_;
  bool broken_ = false;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// When set the worker sends the headers (no Content-Length,
  /// Connection: close) and hands the socket to the callback; `body` is
  /// ignored and the connection closes when the callback returns.
  std::function<void(HttpStream&)> stream;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
    /// Request line + headers larger than this draw 431 and a close.
    std::size_t max_request_bytes = 16 * 1024;
  };

  /// Default options (separate overload: GCC 12 rejects `= {}` defaults
  /// for nested aggregates with member initializers).
  explicit HttpServer(Handler handler);
  HttpServer(Handler handler, Options options);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:<port>, starts the accept thread and worker pool.
  /// False (with a warning logged) when the socket cannot be bound.
  bool start();
  /// Graceful shutdown: stops accepting, shuts down in-flight
  /// connections, joins every thread.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Actual bound port (resolves Options::port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Requests answered so far (any status).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  friend class HttpStream;

  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  bool send_all(int fd, std::string_view data) noexcept;
  void send_simple(int fd, const HttpRequest* req, HttpResponse response);

  Handler handler_;
  Options options_;
  std::uint16_t port_ = 0;
  std::atomic<int> listen_fd_{-1};  ///< stop() races the accept thread
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;

  std::mutex conn_mutex_;
  std::unordered_set<int> active_;  ///< fds being served (for shutdown)

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;  ///< wakes HttpStream::sleep_ms

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace pandarus::obs
