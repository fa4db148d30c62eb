#include "obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/log.hpp"

namespace pandarus::obs {
namespace {

constexpr int kWorkers = 2;
/// Keep-alive/pipelining bound per connection.
constexpr int kMaxRequestsPerConnection = 128;
/// recv() timeout; an idle keep-alive connection is closed after it.
constexpr int kRecvTimeoutMs = 5000;
constexpr int kBacklog = 16;
/// Accepted connections waiting for a worker beyond this are closed.
constexpr std::size_t kMaxPendingConnections = 64;

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const char* status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

/// Strips optional \r and surrounding spaces/tabs from a header value.
std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

// --- HttpRequest ------------------------------------------------------------

std::string_view HttpRequest::header(std::string_view name) const noexcept {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return value;
  }
  return {};
}

// --- HttpStream -------------------------------------------------------------

bool HttpStream::write(std::string_view chunk) noexcept {
  if (broken_ || server_.stopping_.load(std::memory_order_acquire)) {
    return false;
  }
  if (!server_.send_all(fd_, chunk)) {
    broken_ = true;
    return false;
  }
  return true;
}

bool HttpStream::sleep_ms(int ms) noexcept {
  if (broken_) return false;
  std::unique_lock lock(server_.stop_mutex_);
  server_.stop_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return server_.stopping_.load(std::memory_order_acquire);
  });
  return !server_.stopping_.load(std::memory_order_acquire);
}

// --- HttpServer -------------------------------------------------------------

HttpServer::HttpServer(Handler handler)
    : HttpServer(std::move(handler), Options()) {}

HttpServer::HttpServer(Handler handler, Options options)
    : handler_(std::move(handler)), options_(options) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: http server cannot create socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, kBacklog) < 0) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: http server cannot bind 127.0.0.1:" +
                       std::to_string(options_.port) + " (" +
                       std::strerror(errno) + ")");
    ::close(listen_fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(listen_fd, std::memory_order_release);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  {
    std::scoped_lock lock(stop_mutex_);
  }
  stop_cv_.notify_all();
  // Closing the listener unblocks accept(); shutting down active
  // connections unblocks workers mid-recv/mid-send.
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  {
    std::scoped_lock lock(conn_mutex_);
    for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Connections accepted but never claimed by a worker.
  std::scoped_lock lock(queue_mutex_);
  for (const int fd : pending_) ::close(fd);
  pending_.clear();
  running_.store(false, std::memory_order_release);
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed or fatal
    }
    std::unique_lock lock(queue_mutex_);
    if (pending_.size() >= kMaxPendingConnections) {
      lock.unlock();
      ::close(fd);  // overload shedding; client sees a reset
      continue;
    }
    pending_.push_back(fd);
    lock.unlock();
    queue_cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping
      fd = pending_.front();
      pending_.pop_front();
    }
    {
      std::scoped_lock lock(conn_mutex_);
      active_.insert(fd);
    }
    handle_connection(fd);
    {
      std::scoped_lock lock(conn_mutex_);
      active_.erase(fd);
    }
    ::close(fd);
  }
}

bool HttpServer::send_all(int fd, std::string_view data) noexcept {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void HttpServer::send_simple(int fd, const HttpRequest* req,
                             HttpResponse response) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const bool head = req != nullptr && req->method == "HEAD";
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  const bool close = response.status >= 400 && response.status != 404;
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "Cache-Control: no-store\r\n\r\n";
  if (!head) out += response.body;
  send_all(fd, out);
}

bool HttpServer::parse_request(std::string_view text, HttpRequest& out) {
  // Request line: METHOD SP TARGET SP VERSION (trailing \r tolerated,
  // as is a bare-LF client).
  const std::size_t line_end = text.find('\n');
  if (line_end == std::string_view::npos) return false;
  std::string_view line = trim(text.substr(0, line_end));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  out.method = std::string(line.substr(0, sp1));
  out.target = std::string(trim(line.substr(sp1 + 1, sp2 - sp1 - 1)));
  out.version = std::string(line.substr(sp2 + 1));
  if (out.method.empty() || out.target.empty() ||
      out.version.rfind("HTTP/", 0) != 0) {
    return false;
  }
  const std::size_t q = out.target.find('?');
  out.path = out.target.substr(0, q);
  out.query = q == std::string::npos ? "" : out.target.substr(q + 1);

  std::size_t pos = line_end + 1;
  while (pos < text.size()) {
    const std::size_t next = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, next == std::string_view::npos ? std::string_view::npos
                                                        : next - pos);
    const std::string_view header_line = trim(raw);
    if (header_line.empty()) break;  // end of headers
    const std::size_t colon = header_line.find(':');
    if (colon == std::string_view::npos) return false;
    out.headers.emplace_back(std::string(header_line.substr(0, colon)),
                             std::string(trim(header_line.substr(colon + 1))));
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  return true;
}

void HttpServer::handle_connection(int fd) {
  timeval tv{};
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  int served = 0;
  while (served < kMaxRequestsPerConnection &&
         !stopping_.load(std::memory_order_acquire)) {
    // Assemble one request head; the terminator may arrive across any
    // number of reads (split-read clients) or already sit in the buffer
    // (pipelined clients).
    std::size_t head_end = std::string::npos;
    for (;;) {
      head_end = buffer.find("\r\n\r\n");
      std::size_t head_len = head_end + 4;
      if (head_end == std::string::npos) {
        head_end = buffer.find("\n\n");
        head_len = head_end + 2;
      }
      if (head_end != std::string::npos) {
        head_end = head_len;  // one past the blank line
        break;
      }
      if (buffer.size() > options_.max_request_bytes) {
        send_simple(fd, nullptr,
                    {431, "text/plain; charset=utf-8",
                     "request header too large\n", nullptr});
        return;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // EOF, abrupt close, or idle timeout
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    if (head_end > options_.max_request_bytes) {
      send_simple(fd, nullptr,
                  {431, "text/plain; charset=utf-8",
                   "request header too large\n", nullptr});
      return;
    }

    HttpRequest request;
    if (!parse_request(std::string_view(buffer).substr(0, head_end),
                       request)) {
      send_simple(fd, nullptr,
                  {400, "text/plain; charset=utf-8", "bad request\n",
                   nullptr});
      return;
    }
    buffer.erase(0, head_end);
    ++served;

    if (request.method != "GET" && request.method != "HEAD") {
      send_simple(fd, &request,
                  {405, "text/plain; charset=utf-8",
                   "only GET and HEAD are supported\n", nullptr});
      return;
    }
    if (!request.header("Content-Length").empty() ||
        !request.header("Transfer-Encoding").empty()) {
      send_simple(fd, &request,
                  {400, "text/plain; charset=utf-8",
                   "request bodies are not supported\n", nullptr});
      return;
    }

    HttpResponse response;
    try {
      response = handler_(request);
    } catch (...) {
      response = {500, "text/plain; charset=utf-8",
                  "internal server error\n", nullptr};
    }

    if (response.stream && request.method == "GET") {
      requests_.fetch_add(1, std::memory_order_relaxed);
      std::string head = "HTTP/1.1 " + std::to_string(response.status) +
                         " " + status_text(response.status) + "\r\n";
      head += "Content-Type: " + response.content_type + "\r\n";
      head += "Cache-Control: no-store\r\nConnection: close\r\n\r\n";
      if (!send_all(fd, head)) return;
      HttpStream stream(fd, *this);
      response.stream(stream);
      return;
    }
    response.stream = nullptr;
    const int status = response.status;
    send_simple(fd, &request, std::move(response));
    if (status >= 400 && status != 404) return;
    if (iequals(request.header("Connection"), "close") ||
        (request.version == "HTTP/1.0" &&
         !iequals(request.header("Connection"), "keep-alive"))) {
      return;
    }
  }
}

}  // namespace pandarus::obs
