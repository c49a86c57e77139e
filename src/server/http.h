// Minimal dependency-free HTTP/1.1 front end on POSIX sockets, plus an
// in-process loopback transport.
//
// The server speaks just enough HTTP/1.1 for the serving API: request line +
// headers + Content-Length body in, status + headers + body out, keep-alive
// connections, one thread per connection with a hard cap (over the cap new
// connections get an immediate 503 and close). Routing lives elsewhere — the
// server is handed one HttpHandler and never inspects targets itself, which
// is what makes LoopbackTransport a faithful stand-in: tests and benches
// drive the exact handler the socket path drives, minus the sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace deepsz::server {

struct HttpRequest {
  std::string method;  // uppercase, e.g. "GET"
  std::string target;  // origin-form, e.g. "/v1/models/lenet:infer"
  std::map<std::string, std::string> headers;  // keys lowercased
  std::vector<std::uint8_t> body;

  /// Header value by lowercase name; nullptr when absent.
  const std::string* header(const std::string& lowercase_name) const;
  std::string body_text() const {
    return std::string(body.begin(), body.end());
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::vector<std::uint8_t> body;

  static HttpResponse text(int status, const std::string& body,
                           std::string content_type =
                               "text/plain; charset=utf-8");
  static HttpResponse bytes(int status, std::vector<std::uint8_t> body,
                            std::string content_type =
                                "application/octet-stream");
  std::string body_text() const {
    return std::string(body.begin(), body.end());
  }
};

/// The standard reason phrase ("OK", "Not Found", ...); "Unknown" otherwise.
const char* status_reason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpFrontEnd {
 public:
  struct Options {
    /// TCP port; 0 binds an ephemeral port (read it back via port()).
    int port = 8080;
    int backlog = 64;
    /// Concurrent connections; the 65th gets 503 + close immediately.
    int max_connections = 64;
    std::size_t max_body_bytes = 64ull << 20;
    std::size_t max_header_bytes = 64ull << 10;
    /// Per-recv timeout, and the bound on reading one request's header
    /// block: an idle keep-alive connection, or a client that trickles its
    /// headers, is closed after it.
    int idle_timeout_ms = 30000;
  };

  /// Exceptions escaping `handler` become 500 responses. (No default for
  /// `options`: a nested class's member initializers cannot feed a default
  /// argument of the enclosing class — pass Options{} explicitly.)
  HttpFrontEnd(HttpHandler handler, Options options);
  ~HttpFrontEnd();  // stop()

  HttpFrontEnd(const HttpFrontEnd&) = delete;
  HttpFrontEnd& operator=(const HttpFrontEnd&) = delete;

  /// Binds 0.0.0.0:port and starts the accept loop. Throws
  /// std::runtime_error when the socket cannot be created or bound.
  void start();

  /// Stops accepting, shuts down every open connection, joins all threads.
  /// Idempotent; called by the destructor.
  void stop();

  bool running() const { return listen_fd_ >= 0; }
  /// Bound port; valid after start() (resolves port 0 to the real one).
  int port() const { return bound_port_; }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Conn& conn);
  void reap_finished() DEEPSZ_REQUIRES(conns_mu_);

  const HttpHandler handler_;
  const Options options_;

  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::thread accept_thread_;

  util::Mutex conns_mu_;
  // A Conn's fd is written once (under conns_mu_, before its thread starts)
  // and its `done` flag is atomic, so only the list structure needs the lock.
  std::list<Conn> conns_ DEEPSZ_GUARDED_BY(conns_mu_);
};

/// In-process request/response round trip against the same handler contract
/// the socket front end uses — deterministic tests, no ports, no races.
class LoopbackTransport {
 public:
  explicit LoopbackTransport(HttpHandler handler)
      : handler_(std::move(handler)) {}

  /// Dispatches one request; handler exceptions become 500s, exactly as on
  /// the socket path.
  HttpResponse round_trip(const HttpRequest& request) const;

  HttpResponse get(const std::string& target) const;
  HttpResponse post(const std::string& target, const std::string& body,
                    const std::string& content_type =
                        "text/plain; charset=utf-8") const;
  HttpResponse post(const std::string& target, std::vector<std::uint8_t> body,
                    const std::string& content_type =
                        "application/octet-stream") const;

 private:
  HttpHandler handler_;
};

/// Shared by the socket path and LoopbackTransport: invokes the handler,
/// converting escaped exceptions into a 500 text response.
HttpResponse dispatch_safely(const HttpHandler& handler,
                             const HttpRequest& request);

}  // namespace deepsz::server
