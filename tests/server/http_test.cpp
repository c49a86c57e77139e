// Server route table over LoopbackTransport (deterministic, no sockets),
// plus real-socket tests of HttpFrontEnd: a round trip, restart, and the
// header and body deadlines that close slow clients.
#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tests/server/test_containers.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;

std::string csv_row(int features, float v) {
  std::ostringstream os;
  for (int i = 0; i < features; ++i) os << (i ? "," : "") << v;
  os << "\n";
  return os.str();
}

class ServerRoutesTest : public ::testing::Test {
 protected:
  ServerRoutesTest() : loopback_(server_.handler()) {
    server_.repository().load("tiny", tiny_container(3));
  }
  Server server_;
  LoopbackTransport loopback_;
};

TEST_F(ServerRoutesTest, HealthAndUnknownRoutes) {
  EXPECT_EQ(loopback_.get("/healthz").status, 200);
  EXPECT_EQ(loopback_.get("/nope").status, 404);
  EXPECT_EQ(loopback_.get("/v1/models/tiny/extra").status, 404);
  EXPECT_EQ(loopback_.post("/healthz", "x").status, 405);
  EXPECT_EQ(loopback_.get("/v1/models/tiny:infer").status, 405);
  EXPECT_EQ(loopback_.post("/v1/models/tiny:frobnicate", "").status, 404);
}

TEST_F(ServerRoutesTest, ListAndDescribeModels) {
  auto list = loopback_.get("/v1/models");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body_text().find("\"name\":\"tiny\""), std::string::npos);
  EXPECT_NE(list.body_text().find("\"in_features\":32"), std::string::npos);

  auto one = loopback_.get("/v1/models/tiny");
  EXPECT_EQ(one.status, 200);
  EXPECT_NE(one.body_text().find("\"resident_bytes\""), std::string::npos);
  EXPECT_EQ(loopback_.get("/v1/models/ghost").status, 404);
}

TEST_F(ServerRoutesTest, InferCsvRoundTrip) {
  auto resp = loopback_.post("/v1/models/tiny:infer",
                             csv_row(32, 0.5f) + csv_row(32, 0.5f),
                             "text/csv");
  ASSERT_EQ(resp.status, 200) << resp.body_text();
  EXPECT_EQ(resp.content_type, "text/csv");
  const std::string body = resp.body_text();
  // Two identical input rows => two identical CSV output lines.
  const std::size_t eol = body.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string row1 = body.substr(0, eol);
  EXPECT_EQ(std::count(row1.begin(), row1.end(), ',') + 1, 16);
  EXPECT_EQ(body.substr(eol + 1), row1 + "\n");
}

TEST_F(ServerRoutesTest, InferBinaryRoundTrip) {
  std::vector<std::uint8_t> payload(8 + 32 * sizeof(float));
  const std::uint32_t rows = 1, cols = 32;
  std::memcpy(payload.data(), &rows, 4);
  std::memcpy(payload.data() + 4, &cols, 4);
  std::vector<float> x(32, 0.5f);
  std::memcpy(payload.data() + 8, x.data(), 32 * sizeof(float));

  auto resp = loopback_.post("/v1/models/tiny:infer", payload);
  ASSERT_EQ(resp.status, 200);
  ASSERT_EQ(resp.body.size(), 8u + 16 * sizeof(float));
  std::uint32_t out_rows = 0, out_cols = 0;
  std::memcpy(&out_rows, resp.body.data(), 4);
  std::memcpy(&out_cols, resp.body.data() + 4, 4);
  EXPECT_EQ(out_rows, 1u);
  EXPECT_EQ(out_cols, 16u);

  // Binary and CSV must produce the same logits.
  auto csv = loopback_.post("/v1/models/tiny:infer", csv_row(32, 0.5f),
                            "text/csv");
  std::vector<float> bin_logits(16);
  std::memcpy(bin_logits.data(), resp.body.data() + 8, 16 * sizeof(float));
  std::ostringstream expect;
  for (int i = 0; i < 16; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%g", bin_logits[i]);
    expect << (i ? "," : "") << buf;
  }
  EXPECT_EQ(csv.body_text(), expect.str() + "\n");
}

TEST_F(ServerRoutesTest, InferRejectsMalformedPayloads) {
  EXPECT_EQ(loopback_.post("/v1/models/tiny:infer", "", "text/csv").status,
            400);
  EXPECT_EQ(
      loopback_.post("/v1/models/tiny:infer", "1,2,junk", "text/csv").status,
      400);
  EXPECT_EQ(loopback_.post("/v1/models/tiny:infer", "1,2\n1,2,3", "text/csv")
                .status,
            400);
  // Wrong width for the model: parses fine, scheduler rejects.
  EXPECT_EQ(
      loopback_.post("/v1/models/tiny:infer", csv_row(31, 0.5f), "text/csv")
          .status,
      400);
  // Truncated binary header / size mismatch.
  EXPECT_EQ(loopback_
                .post("/v1/models/tiny:infer",
                      std::vector<std::uint8_t>{1, 2, 3})
                .status,
            400);
  std::vector<std::uint8_t> lying(8 + 4, 0);
  const std::uint32_t big = 1000;
  std::memcpy(lying.data(), &big, 4);
  std::memcpy(lying.data() + 4, &big, 4);
  EXPECT_EQ(loopback_.post("/v1/models/tiny:infer", lying).status, 400);
  // Unknown model is 404.
  EXPECT_EQ(
      loopback_.post("/v1/models/ghost:infer", csv_row(32, 0.5f), "text/csv")
          .status,
      404);
}

TEST_F(ServerRoutesTest, DeadlineHeader) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/models/tiny:infer";
  req.headers["content-type"] = "text/csv";
  req.headers["x-deepsz-deadline-ms"] = "junk";
  const std::string body = csv_row(32, 0.5f);
  req.body.assign(body.begin(), body.end());
  EXPECT_EQ(loopback_.round_trip(req).status, 400);
  req.headers["x-deepsz-deadline-ms"] = "30000";
  EXPECT_EQ(loopback_.round_trip(req).status, 200);
}

TEST_F(ServerRoutesTest, LoadReloadUnloadLifecycle) {
  auto bytes = tiny_container(9);
  auto load = loopback_.post("/v1/models/second:load", bytes);
  EXPECT_EQ(load.status, 200) << load.body_text();
  EXPECT_EQ(loopback_.post("/v1/models/second:infer", csv_row(32, 0.1f),
                           "text/csv")
                .status,
            200);

  // Memory-loaded model: reload has no source file -> 409.
  EXPECT_EQ(loopback_.post("/v1/models/second:reload", "").status, 409);
  // Unknown model reload -> 404; corrupt body on load -> 400.
  EXPECT_EQ(loopback_.post("/v1/models/ghost:reload", "").status, 404);
  EXPECT_EQ(loopback_.post("/v1/models/bad:load", "nonsense").status, 400);
  EXPECT_EQ(loopback_.post("/v1/models/x:load", "").status, 400);

  EXPECT_EQ(loopback_.post("/v1/models/second:unload", "").status, 200);
  EXPECT_EQ(loopback_.post("/v1/models/second:unload", "").status, 404);
}

TEST_F(ServerRoutesTest, MetricsExposition) {
  loopback_.post("/v1/models/tiny:infer", csv_row(32, 0.5f), "text/csv");
  loopback_.post("/v1/models/ghost:infer", csv_row(32, 0.5f), "text/csv");
  auto resp = loopback_.get("/metrics");
  ASSERT_EQ(resp.status, 200);
  const std::string text = resp.body_text();
  EXPECT_NE(text.find("deepsz_requests_total{status=\"ok\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("deepsz_requests_total{status=\"not_found\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("deepsz_request_latency_ms{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("deepsz_cache_budget_bytes"), std::string::npos);
  EXPECT_NE(text.find("deepsz_model_cache_hits{model=\"tiny\"}"),
            std::string::npos);
  EXPECT_NE(text.find("deepsz_models_loaded 1"), std::string::npos);
}

TEST_F(ServerRoutesTest, HandlerConvertsExceptionsTo500) {
  LoopbackTransport throwing([](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("boom");
  });
  auto resp = throwing.get("/anything");
  EXPECT_EQ(resp.status, 500);
  EXPECT_NE(resp.body_text().find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real socket round trip
// ---------------------------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Minimal blocking HTTP client for the socket test.
std::string raw_round_trip(int port, const std::string& request) {
  const int fd = connect_loopback(port);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(HttpFrontEnd, ServesOverRealSocket) {
  Server server;  // default options
  server.repository().load("tiny", tiny_container(3));
  HttpFrontEnd::Options opts;
  opts.port = 0;  // ephemeral
  HttpFrontEnd front(server.handler(), opts);
  front.start();
  ASSERT_GT(front.port(), 0);

  const std::string body = csv_row(32, 0.5f);
  const std::string req =
      "POST /v1/models/tiny:infer HTTP/1.1\r\n"
      "Host: localhost\r\nContent-Type: text/csv\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  const std::string reply = raw_round_trip(front.port(), req);
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("Content-Type: text/csv"), std::string::npos);

  // Malformed request line -> 400, server stays up.
  EXPECT_NE(raw_round_trip(front.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(
      raw_round_trip(front.port(),
                     "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
          .find("200"),
      std::string::npos);
  front.stop();
}

/// Sends `head`, then one more byte every `interval_ms`, and returns the
/// milliseconds until the server closed the connection, or `give_up_ms` if
/// it was still open then. `head` is itself trickled unless `burst` is set.
double trickle_until_closed(int port, const std::string& head, bool burst,
                            int interval_ms, int give_up_ms) {
  using Clock = std::chrono::steady_clock;
  const int fd = connect_loopback(port);
  const auto start = Clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  std::size_t i = 0;
  if (burst) {
    EXPECT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(head.size()));
    i = head.size();
  }
  for (; elapsed_ms() < give_up_ms; ++i) {
    const char c = i < head.size() ? head[i] : 'a';
    if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, interval_ms) > 0) {
      char buf[256];
      if (::recv(fd, buf, sizeof buf, 0) <= 0) break;  // closed by the server
    }
  }
  const double ms = std::min(elapsed_ms(), static_cast<double>(give_up_ms));
  ::close(fd);
  return ms;
}

/// A closed connection's slot is reclaimed when its thread finishes, just
/// after the close the client saw; until then a new connection may get 503.
void expect_healthz_after_slots_free(int port) {
  std::string reply;
  for (int attempt = 0; attempt < 100; ++attempt) {
    reply =
        raw_round_trip(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    if (reply.find("503") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
}

TEST(HttpFrontEnd, TricklingHeadersCannotHoldConnectionSlots) {
  // Two clients fill both connection slots and send a header byte every
  // 100 ms, well inside the 300 ms per-recv timeout, without ever finishing
  // the header block. The header deadline must close both within about
  // twice the timeout, and the freed slots must serve a normal request.
  Server server;
  HttpFrontEnd::Options opts;
  opts.port = 0;
  opts.max_connections = 2;
  opts.idle_timeout_ms = 300;
  HttpFrontEnd front(server.handler(), opts);
  front.start();

  const int port = front.port();
  const std::string head = "GET /healthz HTTP/1.1\r\nX-Slow: ";
  auto a = std::async(std::launch::async, trickle_until_closed, port, head,
                      false, 100, 3000);
  auto b = std::async(std::launch::async, trickle_until_closed, port, head,
                      false, 100, 3000);
  EXPECT_LT(a.get(), 2.0 * opts.idle_timeout_ms);
  EXPECT_LT(b.get(), 2.0 * opts.idle_timeout_ms);
  expect_healthz_after_slots_free(port);
  front.stop();
}

TEST(HttpFrontEnd, TricklingBodyCannotHoldConnectionSlots) {
  // Two clients fill both connection slots with a complete header block
  // declaring a 1000-byte body, then send a body byte every 100 ms, well
  // inside the 300 ms per-recv timeout. The body deadline (the idle timeout
  // plus 1000 bytes at the minimum body rate) must close both within about
  // twice the timeout, and the freed slots must serve a normal request.
  Server server;
  HttpFrontEnd::Options opts;
  opts.port = 0;
  opts.max_connections = 2;
  opts.idle_timeout_ms = 300;
  HttpFrontEnd front(server.handler(), opts);
  front.start();

  const int port = front.port();
  const std::string head =
      "POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n";
  auto a = std::async(std::launch::async, trickle_until_closed, port, head,
                      true, 100, 3000);
  auto b = std::async(std::launch::async, trickle_until_closed, port, head,
                      true, 100, 3000);
  EXPECT_LT(a.get(), 2.0 * opts.idle_timeout_ms);
  EXPECT_LT(b.get(), 2.0 * opts.idle_timeout_ms);
  expect_healthz_after_slots_free(port);
  front.stop();
}

TEST(HttpFrontEnd, StopIsIdempotentAndRestartable) {
  Server server;
  HttpFrontEnd::Options opts;
  opts.port = 0;
  HttpFrontEnd front(server.handler(), opts);
  front.start();
  const int port1 = front.port();
  EXPECT_GT(port1, 0);
  front.stop();
  front.stop();
  front.start();
  EXPECT_GT(front.port(), 0);
  front.stop();
}

}  // namespace
}  // namespace deepsz::server
