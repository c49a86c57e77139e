#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"
#include "util/log.h"

namespace deepsz::server {

const std::string* HttpRequest::header(
    const std::string& lowercase_name) const {
  auto it = headers.find(lowercase_name);
  return it != headers.end() ? &it->second : nullptr;
}

HttpResponse HttpResponse::text(int status, const std::string& body,
                                std::string content_type) {
  HttpResponse r;
  r.status = status;
  r.content_type = std::move(content_type);
  r.body.assign(body.begin(), body.end());
  return r;
}

HttpResponse HttpResponse::bytes(int status, std::vector<std::uint8_t> body,
                                 std::string content_type) {
  HttpResponse r;
  r.status = status;
  r.content_type = std::move(content_type);
  r.body = std::move(body);
  return r;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

HttpResponse dispatch_safely(const HttpHandler& handler,
                             const HttpRequest& request) {
  try {
    return handler(request);
  } catch (const std::exception& e) {
    return HttpResponse::text(500, std::string("internal error: ") + e.what() +
                                       "\n");
  } catch (...) {
    return HttpResponse::text(500, "internal error\n");
  }
}

HttpResponse LoopbackTransport::round_trip(const HttpRequest& request) const {
  return dispatch_safely(handler_, request);
}

HttpResponse LoopbackTransport::get(const std::string& target) const {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return round_trip(req);
}

HttpResponse LoopbackTransport::post(const std::string& target,
                                     const std::string& body,
                                     const std::string& content_type) const {
  HttpRequest req;
  req.method = "POST";
  req.target = target;
  req.headers["content-type"] = content_type;
  req.body.assign(body.begin(), body.end());
  return round_trip(req);
}

HttpResponse LoopbackTransport::post(const std::string& target,
                                     std::vector<std::uint8_t> body,
                                     const std::string& content_type) const {
  HttpRequest req;
  req.method = "POST";
  req.target = target;
  req.headers["content-type"] = content_type;
  req.body = std::move(body);
  return round_trip(req);
}

// ---------------------------------------------------------------------------
// Socket front end
// ---------------------------------------------------------------------------

namespace {

std::string lowercased(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool send_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_response(int fd, const HttpResponse& r, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(r.status) + " " +
                     status_reason(r.status) + "\r\n" +
                     "Content-Type: " + r.content_type + "\r\n" +
                     "Content-Length: " + std::to_string(r.body.size()) +
                     "\r\n" + "Connection: " +
                     (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
  return send_all(fd, head.data(), head.size()) &&
         (r.body.empty() || send_all(fd, r.body.data(), r.body.size()));
}

/// Outcome of reading one request off a connection.
enum class ReadOutcome { kRequest, kClosed, kBadRequest, kTooLarge };

/// The slowest rate a request body may arrive at: its deadline is
/// idle_timeout_ms plus Content-Length at this rate, so a 64 MB load fits
/// over a slow link but a trickled body cannot hold its connection slot.
constexpr std::uint64_t kMinBodyBytesPerSec = 64 * 1024;

/// Appends whatever `fd` has next to `buffer`, waiting no later than
/// `deadline_ns` (trace time base). False when the peer closed, the read
/// failed, or the deadline passed first.
bool recv_some(int fd, std::string& buffer, std::uint64_t deadline_ns) {
  for (;;) {
    const std::uint64_t now_ns = obs::now_ns();
    if (now_ns >= deadline_ns) return false;
    pollfd pfd{fd, POLLIN, 0};
    const std::uint64_t wait_ms = (deadline_ns - now_ns + 999999u) / 1000000u;
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<std::uint64_t>(wait_ms, INT_MAX)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;  // deadline passed
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // closed, timeout or shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

/// Reads one full request (header block + Content-Length body) from `fd`
/// into `out`, consuming from/refilling `buffer`. On kBadRequest/kTooLarge
/// the caller responds and closes; on kClosed the peer went away cleanly.
ReadOutcome read_request(int fd, std::string& buffer, HttpRequest& out,
                         const HttpFrontEnd::Options& options,
                         std::string* error) {
  // 1. Accumulate the header block. SO_RCVTIMEO bounds each recv; this
  // deadline bounds the whole block, so a client trickling one byte per
  // timeout cannot hold its connection slot forever.
  const std::uint64_t idle_ns =
      static_cast<std::uint64_t>(options.idle_timeout_ms) * 1000000u;
  const std::uint64_t header_deadline_ns = obs::now_ns() + idle_ns;
  std::size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > options.max_header_bytes) {
      *error = "header block exceeds " +
               std::to_string(options.max_header_bytes) + " bytes";
      return ReadOutcome::kTooLarge;
    }
    if (!recv_some(fd, buffer, header_deadline_ns)) return ReadOutcome::kClosed;
  }

  // 2. Request line.
  const std::size_t line_end = buffer.find("\r\n");
  const std::string line = buffer.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos ||
      line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
    *error = "malformed request line";
    return ReadOutcome::kBadRequest;
  }
  out.method = line.substr(0, sp1);
  out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (out.method.empty() || out.target.empty() || out.target[0] != '/') {
    *error = "malformed request line";
    return ReadOutcome::kBadRequest;
  }

  // 3. Headers.
  out.headers.clear();
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    const std::size_t eol = buffer.find("\r\n", pos);
    const std::string h = buffer.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = h.find(':');
    if (colon == std::string::npos) {
      *error = "malformed header line";
      return ReadOutcome::kBadRequest;
    }
    out.headers[lowercased(trimmed(h.substr(0, colon)))] =
        trimmed(h.substr(colon + 1));
  }

  // 4. Body. Only Content-Length framing is supported.
  if (out.headers.count("transfer-encoding")) {
    *error = "transfer-encoding is not supported";
    return ReadOutcome::kBadRequest;
  }
  std::size_t content_length = 0;
  if (auto it = out.headers.find("content-length");
      it != out.headers.end()) {
    try {
      content_length = std::stoull(it->second);
    } catch (const std::exception&) {
      *error = "bad content-length";
      return ReadOutcome::kBadRequest;
    }
  }
  if (content_length > options.max_body_bytes) {
    *error = "body exceeds " + std::to_string(options.max_body_bytes) +
             " bytes";
    return ReadOutcome::kTooLarge;
  }

  // The body's own deadline scales with its declared length.
  buffer.erase(0, header_end + 4);
  const std::uint64_t body_deadline_ns =
      obs::now_ns() + idle_ns +
      content_length * (1000000000u / kMinBodyBytesPerSec);
  while (buffer.size() < content_length) {
    if (!recv_some(fd, buffer, body_deadline_ns)) return ReadOutcome::kClosed;
  }
  out.body.assign(buffer.begin(),
                  buffer.begin() + static_cast<std::ptrdiff_t>(content_length));
  buffer.erase(0, content_length);
  return ReadOutcome::kRequest;
}

}  // namespace

HttpFrontEnd::HttpFrontEnd(HttpHandler handler, Options options)
    : handler_(std::move(handler)), options_(options) {}

HttpFrontEnd::~HttpFrontEnd() { stop(); }

void HttpFrontEnd::start() {
  if (listen_fd_ >= 0) throw std::logic_error("HttpFrontEnd already started");
  stopping_.store(false);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, options_.backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on port " +
                             std::to_string(options_.port) + ": " + why);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void HttpFrontEnd::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;  // listener closed by stop()
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;  // peer went away before we accepted; not our problem
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion is transient: breaking here would silently
        // end all acceptance while the daemon looks healthy. Back off so
        // connection teardown can release fds, then retry.
        DSZ_LOG_WARN << "accept(): " << std::strerror(errno)
                     << "; retrying in 10 ms";
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // EBADF/EINVAL: listener really is gone
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{};
    tv.tv_sec = options_.idle_timeout_ms / 1000;
    tv.tv_usec = (options_.idle_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    util::MutexLock lock(conns_mu_);
    reap_finished();
    if (conns_.size() >= static_cast<std::size_t>(options_.max_connections)) {
      write_response(fd, HttpResponse::text(503, "connection limit reached\n"),
                     /*keep_alive=*/false);
      ::close(fd);
      continue;
    }
    conns_.emplace_back();
    Conn& conn = conns_.back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn] { serve_connection(conn); });
  }
}

void HttpFrontEnd::reap_finished() {
  // Called under conns_mu_. The reaper — not the connection thread — closes
  // the fd: until the join, stop() may still shutdown() it, and closing
  // early would let the kernel reuse the number for an unrelated fd.
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load()) {
      it->thread.join();
      ::close(it->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpFrontEnd::serve_connection(Conn& conn) {
  std::string buffer;
  bool keep_alive = true;
  while (keep_alive && !stopping_.load()) {
    HttpRequest req;
    std::string why;
    const ReadOutcome outcome =
        read_request(conn.fd, buffer, req, options_, &why);
    if (outcome == ReadOutcome::kClosed) break;
    if (outcome == ReadOutcome::kBadRequest) {
      write_response(conn.fd, HttpResponse::text(400, why + "\n"), false);
      break;
    }
    if (outcome == ReadOutcome::kTooLarge) {
      write_response(conn.fd, HttpResponse::text(413, why + "\n"), false);
      break;
    }
    if (const std::string* c = req.header("connection")) {
      keep_alive = lowercased(*c) != "close";
    }
    obs::TraceSpan dispatch_span("http_dispatch", "http");
    dispatch_span.set_detail(req.target);
    const HttpResponse resp = dispatch_safely(handler_, req);
    dispatch_span.close();
    if (!write_response(conn.fd, resp, keep_alive)) break;
  }
  ::shutdown(conn.fd, SHUT_RDWR);  // close happens in reap_finished()
  conn.done.store(true);
}

void HttpFrontEnd::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  // Closing the listener pops accept() out of its wait...
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // ...and shutting each connection down pops its recv().
  {
    util::MutexLock lock(conns_mu_);
    for (Conn& conn : conns_) ::shutdown(conn.fd, SHUT_RDWR);
  }
  for (;;) {
    {
      util::MutexLock lock(conns_mu_);
      reap_finished();
      if (conns_.empty()) break;
    }
    // Connections exit as soon as their recv/send returns.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listen_fd_ = -1;
  bound_port_ = 0;
}

}  // namespace deepsz::server
