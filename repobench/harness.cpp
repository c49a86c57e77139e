// The C++ half of the repository benchmark: seeded model generation, the
// socket load generator that drives `deepsz_tool serve`, the in-process
// compression workload, and the per-layer probes. run.py builds this file
// with the library and orchestrates it (see README.md in this directory).
//
//   repobench_harness prepare
//   repobench_harness gen      --workload W --seed S --dir D
//   repobench_harness drive    --workload W --seed S --dir D
//                              --port P --pid N --seconds T [--rates a,b,..]
//                              [--capacity-s S] [--trace-out F]
//   repobench_harness compress --seconds T [--setups N] [--trace-out F]
//   repobench_harness probe    --seed S --dir D --trace-out F
//
// Every subcommand prints one JSON object as its last line of stdout. The
// load generator obeys the benchmark's load limits: one process, at most 2
// generator threads, at most 4 keep-alive connections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/registry.h"
#include "compress/registry.h"
#include "compress/session.h"
#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "modelzoo/pretrained.h"
#include "modelzoo/zoo.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "server/model_repository.h"
#include "util/crc32.h"
#include "util/rng.h"

using namespace deepsz;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMaxGenThreads = 2;
constexpr int kConnsPerThread = 2;  // 2 threads x 2 = 4 connections
constexpr double kTolerance = 1e-4;  // batched vs unbatched logits, relative
constexpr int kPoolPerShape = 32;    // distinct inputs per (model, rows)
constexpr std::array<std::int64_t, 3> kRowChoices = {1, 4, 16};
// The tail latency a serve_warm ladder rate must meet to hold. On a shared
// 4-vCPU host the tail read 13-95 ms at 1000/s and up to 38 ms at 500/s
// across runs, so a tighter limit passes or fails by chance, while a rate past
// the daemon's capacity still grows its queue far beyond 100 ms.
constexpr double kLimitMs = 100.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ args

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      kv_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& def = "") const {
    auto it = kv_.find(key);
    if (it != kv_.end()) return it->second;
    if (def.empty()) throw std::invalid_argument("missing --" + key);
    return def;
  }
  double num(const std::string& key, double def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : std::stod(it->second);
  }
  std::vector<double> list(const std::string& key,
                           const std::string& def) const {
    std::vector<double> out;
    std::stringstream ss(str(key, def));
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// ------------------------------------------------------------------ files

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  return server::read_file_bytes(path);
}

void write_bytes(const std::string& path, std::span<const std::uint8_t> b) {
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
  if (!f) throw std::runtime_error("cannot write " + path);
}

void write_text(const std::string& path, const std::string& text) {
  write_bytes(path, {reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
}

/// CPU seconds this process has run, every thread counted. Time the host
/// stole from the virtual CPUs is not included.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// On-CPU milliseconds of every live thread of another process, from the
/// scheduler's own accounting (/proc/<pid>/task/*/schedstat, nanoseconds).
double process_cpu_ms(const std::string& pid) {
  double ns = 0.0;
  const std::string tasks = "/proc/" + pid + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
    std::ifstream f(entry.path() / "schedstat");
    double run_ns = 0.0;
    if (f >> run_ns) ns += run_ns;
  }
  return ns / 1e6;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM for pid " + pid);
}

// ------------------------------------------------------------------ stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile with at least 10 samples beyond it: the 11th
/// largest value. Below 11 samples there is none, and the maximum is given.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  std::size_t n = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    t.value = v.back();
    return t;
  }
  t.value = v[v.size() - 11];
  t.pct = 100.0 * static_cast<double>(v.size() - 10) /
          static_cast<double>(v.size());
  return t;
}

// A run is cut into kWindows consecutive windows. Timings are reported from
// the least-disturbed one: on a shared virtual machine, stretches of host
// contention slow everything that runs through them, and a whole-run median
// moves with how much of the run they covered (see README.md).
constexpr int kWindows = 5;

/// The lowest per-window median of `values`, each taken at `at_s` seconds
/// into a run of `span_s` seconds.
double quietest_window_median(const std::vector<double>& at_s,
                              const std::vector<double>& values,
                              double span_s) {
  std::vector<std::vector<double>> windows(kWindows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto w = static_cast<std::size_t>(at_s[i] / span_s * kWindows);
    windows[std::min<std::size_t>(w, kWindows - 1)].push_back(values[i]);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const auto& w : windows) {
    if (!w.empty()) best = std::min(best, median(w));
  }
  return best;
}

/// The highest per-window rate of events completed at `at_s`.
double busiest_window_rate(const std::vector<double>& at_s, double span_s) {
  std::vector<double> counts(kWindows, 0.0);
  for (double t : at_s) {
    const auto w = static_cast<std::size_t>(t / span_s * kWindows);
    counts[std::min<std::size_t>(w, kWindows - 1)] += 1.0;
  }
  return *std::max_element(counts.begin(), counts.end()) /
         (span_s / kWindows);
}

// ------------------------------------------------------------------ json

class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.9g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.text());
  }
  Json& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// First numeric value following "key": in a JSON text (the daemon's model
/// JSON is flat enough that first-occurrence lookup is unambiguous).
double json_num(const std::string& text, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t p = text.find(pat);
  if (p == std::string::npos) {
    throw std::runtime_error("model JSON lacks " + key);
  }
  return std::strtod(text.c_str() + p + pat.size(), nullptr);
}

// ------------------------------------------------------------------ models

struct LayerShape {
  const char* name;
  std::int64_t rows;
  std::int64_t cols;
  double keep;
};

// LeNet-300-100 at the zoo's keep ratios, and AlexNet fc6-fc8 at a quarter
// of each dimension with the paper's densities (9%, 9%, 25%).
constexpr std::array<LayerShape, 3> kLenet = {{{"fc1", 300, 784, 0.08},
                                               {"fc2", 100, 300, 0.09},
                                               {"fc3", 10, 100, 0.26}}};
constexpr std::array<LayerShape, 3> kAlexQuarter = {
    {{"fc6", 1024, 2304, 0.09},
     {"fc7", 1024, 1024, 0.09},
     {"fc8", 250, 1024, 0.25}}};

struct GenModel {
  std::vector<sparse::PrunedLayer> layers;
  std::map<std::string, std::vector<float>> biases;
};

GenModel synthesize(const std::array<LayerShape, 3>& shapes,
                    std::uint64_t seed) {
  GenModel m;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const LayerShape& s = shapes[i];
    m.layers.push_back(data::synthesize_pruned_layer(s.name, s.rows, s.cols,
                                                     s.keep, mix(seed, i)));
    util::Pcg32 rng(mix(seed, 100 + i));
    std::vector<float> bias(static_cast<std::size_t>(s.rows));
    for (float& b : bias) b = static_cast<float>(rng.normal(0.0, 0.01));
    m.biases[s.name] = std::move(bias);
  }
  return m;
}

/// A head-only fine-tune: the last layer's surviving weights and bias move
/// by a small seeded step, its mask and every other layer stay as they are.
GenModel finetune_head(GenModel m, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  sparse::PrunedLayer& head = m.layers.back();
  for (std::size_t j = 0; j < head.data.size(); ++j) {
    const bool filler = head.index[j] == 255 && head.data[j] == 0.0f;
    if (!filler) head.data[j] += static_cast<float>(rng.normal(0.0, 0.004));
  }
  for (float& b : m.biases[head.name]) {
    b += static_cast<float>(rng.normal(0.0, 0.002));
  }
  return m;
}

core::EncodedModel encode(const GenModel& m, const std::string& data_codec,
                          const std::string& index_codec) {
  core::ContainerOptions copts;
  copts.data_codec = data_codec;
  copts.index_codec = index_codec;
  return core::encode_model(m.layers, {}, copts, m.biases);
}

/// Reference logits computed in-process from the same container bytes the
/// daemon serves, through the serving stack's own store options.
class RefModel {
 public:
  explicit RefModel(std::vector<std::uint8_t> bytes) {
    serve::ModelStoreOptions opts;
    opts.build_csr = true;
    opts.native_form = true;
    store_ = std::make_unique<serve::ModelStore>(std::move(bytes), opts);
    net_ = serve::make_fc_network(store_->reader());
    session_ = std::make_unique<serve::InferenceSession>(*store_, net_);
    session_->enable_sparse_forward(true);
    const auto& entries = store_->reader().entries();
    in_ = entries.front().cols;
    out_ = entries.back().rows;
  }
  std::vector<float> infer(const std::vector<float>& x, std::int64_t rows) {
    nn::Tensor t({rows, in_});
    std::copy(x.begin(), x.end(), t.data());
    nn::Tensor y = session_->infer(t);
    return std::vector<float>(y.data(), y.data() + rows * out_);
  }
  std::int64_t in() const { return in_; }
  std::int64_t out() const { return out_; }

 private:
  std::unique_ptr<serve::ModelStore> store_;
  nn::Network net_;
  std::unique_ptr<serve::InferenceSession> session_;
  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
};

// ------------------------------------------------------------------ http

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body) {
  return method + " " + target +
         " HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
         "application/octet-stream\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One keep-alive client connection with an incremental response parser.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               " failed");
    }
  }
  int fd() const { return fd_; }

  void send_all(const std::string& data) {
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Starts sending `data` (which must outlive the send) without blocking;
  /// flush() continues it. True once every byte is out.
  bool start_send(const std::string& data) {
    out_ = &data;
    out_off_ = 0;
    return flush();
  }
  bool flush() {
    while (out_ != nullptr && out_off_ < out_->size()) {
      const ssize_t n = ::send(fd_, out_->data() + out_off_,
                               out_->size() - out_off_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n <= 0) throw std::runtime_error("send failed");
      out_off_ += static_cast<std::size_t>(n);
    }
    out_ = nullptr;
    return true;
  }
  bool sending() const { return out_ != nullptr; }

  /// Reads what is available; true once a whole response is buffered
  /// (status() and body() are then valid until the next call).
  bool read_some() {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) throw std::runtime_error("connection closed by the daemon");
    in_.append(buf, static_cast<std::size_t>(n));
    return parse();
  }

  /// Blocking round trip.
  void round_trip(const std::string& request) {
    send_all(request);
    while (!read_some()) {
    }
  }

  int status() const { return status_; }
  const std::string& body() const { return body_; }

 private:
  bool parse() {
    const std::size_t end = in_.find("\r\n\r\n");
    if (end == std::string::npos) return false;
    std::size_t len = 0;
    std::string head = in_.substr(0, end);
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    const std::size_t cl = head.find("content-length:");
    if (cl != std::string::npos) {
      len = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
    }
    if (in_.size() < end + 4 + len) return false;
    status_ = std::atoi(in_.c_str() + 9);  // "HTTP/1.1 200 ..."
    body_ = in_.substr(end + 4, len);
    in_.erase(0, end + 4 + len);
    return true;
  }

  int fd_ = -1;
  const std::string* out_ = nullptr;
  std::size_t out_off_ = 0;
  std::string in_;
  std::string body_;
  int status_ = 0;
};

/// Checks a binary infer answer against reference logits.
bool matches(const std::string& body, const std::vector<float>& ref,
             std::int64_t rows, std::int64_t cols) {
  if (body.size() != 8 + ref.size() * sizeof(float)) return false;
  std::uint32_t r = 0, c = 0;
  std::memcpy(&r, body.data(), 4);
  std::memcpy(&c, body.data() + 4, 4);
  if (r != rows || c != cols) return false;
  for (std::int64_t i = 0; i < rows; ++i) {
    float scale = 1.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      scale = std::max(scale, std::fabs(ref[i * cols + j]));
    }
    for (std::int64_t j = 0; j < cols; ++j) {
      float got = 0.0f;
      std::memcpy(&got, body.data() + 8 + (i * cols + j) * 4, 4);
      if (!(std::fabs(got - ref[i * cols + j]) <= kTolerance * scale)) {
        return false;
      }
    }
  }
  return true;
}

// ------------------------------------------------------------- request pool

struct Req {
  int model = 0;
  std::int64_t rows = 1;
  std::int64_t cols = 0;
  std::string wire;                     // the whole HTTP request
  std::vector<std::vector<float>> ref;  // reference logits per model version
};

/// kPoolPerShape seeded inputs per (model, rows), with reference logits for
/// every version of each model.
std::vector<Req> make_pool(const std::vector<std::string>& names,
                           std::vector<std::vector<RefModel*>>& versions,
                           std::uint64_t seed) {
  std::vector<Req> pool;
  for (std::size_t m = 0; m < names.size(); ++m) {
    for (std::size_t r = 0; r < kRowChoices.size(); ++r) {
      for (int k = 0; k < kPoolPerShape; ++k) {
        Req q;
        q.model = static_cast<int>(m);
        q.rows = kRowChoices[r];
        RefModel& base = *versions[m].front();
        q.cols = base.out();
        util::Pcg32 rng(mix(seed, 1000 + pool.size()));
        std::vector<float> x(static_cast<std::size_t>(q.rows * base.in()));
        for (float& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
        for (RefModel* version : versions[m]) {
          q.ref.push_back(version->infer(x, q.rows));
        }
        std::string body(8 + x.size() * sizeof(float), '\0');
        const auto rows32 = static_cast<std::uint32_t>(q.rows);
        const auto cols32 = static_cast<std::uint32_t>(base.in());
        std::memcpy(body.data(), &rows32, 4);
        std::memcpy(body.data() + 4, &cols32, 4);
        std::memcpy(body.data() + 8, x.data(), x.size() * sizeof(float));
        q.wire = http_request("POST", "/v1/models/" + names[m] + ":infer",
                              body);
        pool.push_back(std::move(q));
      }
    }
  }
  return pool;
}

// -------------------------------------------------------------- open loop

struct RungResult {
  double rate = 0.0;
  double window_s = 0.0;
  std::size_t sent = 0, ok = 0, shed = 0, failed = 0;
  std::size_t wrong = 0;  // answered 200 with logits off the reference
  std::size_t sent_after_window = 0;
  double span_s = 0.0;  // rung start to its last answer
  Clock::time_point last_done{};
  std::vector<double> lat_ms;   // ok requests, from scheduled send time
  std::vector<double> due_s;    // their scheduled send, from rung start
  std::vector<double> late_ms;  // generator lateness per arrival
  std::vector<double> rows;     // rows of each ok request
  std::vector<double> done_s;   // completion of each ok request, from start
  std::string error;            // a generator thread's failure, if any

  void merge(const RungResult& o) {
    sent += o.sent;
    ok += o.ok;
    shed += o.shed;
    failed += o.failed;
    wrong += o.wrong;
    sent_after_window += o.sent_after_window;
    last_done = std::max(last_done, o.last_done);
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    due_s.insert(due_s.end(), o.due_s.begin(), o.due_s.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    rows.insert(rows.end(), o.rows.begin(), o.rows.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    if (error.empty()) error = o.error;
  }
  /// Latencies with every refused, failed or wrong request counted as
  /// missing any limit.
  std::vector<double> lat_with_failures() const {
    std::vector<double> v = lat_ms;
    v.insert(v.end(), shed + failed + wrong,
             std::numeric_limits<double>::infinity());
    return v;
  }
};

/// Classifies the answer buffered on `conn` to `q`, sent (or due) at `from`;
/// an ok answer records its latency from then.
void record(const Conn& conn, const Req& q, Clock::time_point t0,
            Clock::time_point from, Clock::time_point done, RungResult* out) {
  out->last_done = done;
  const int status = conn.status();
  if (status == 429) {
    ++out->shed;
  } else if (status != 200) {
    ++out->failed;
  } else if (!matches(conn.body(), q.ref.front(), q.rows, q.cols)) {
    ++out->wrong;
  } else {
    ++out->ok;
    out->lat_ms.push_back(ms_between(from, done));
    out->due_s.push_back(ms_between(t0, from) / 1000.0);
    out->done_s.push_back(ms_between(t0, done) / 1000.0);
    out->rows.push_back(static_cast<double>(q.rows));
  }
}

/// One generator thread: its own Poisson process at `rate` over `window_s`,
/// sending on its 2 connections, each carrying one request at a time.
void generate_or_throw(const std::vector<Req>& pool,
                       const std::vector<Conn*>& conns, double rate,
                       double window_s, std::uint64_t seed,
                       Clock::time_point t0, bool trace, RungResult* out) {
  // A Poisson process conditioned on its count: rate * window arrivals at
  // sorted uniform times, so every run offers exactly the nominal load.
  util::Pcg32 rng(seed);
  std::vector<double> times(static_cast<std::size_t>(rate * window_s));
  for (double& t : times) t = rng.uniform() * window_s;
  std::sort(times.begin(), times.end());
  struct Arrival {
    Clock::time_point due;
    const Req* req;
  };
  std::vector<Arrival> arrivals;
  for (double t : times) {
    arrivals.push_back(
        {t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9)),
         &pool[rng.next_u32() % pool.size()]});
  }
  const Clock::time_point window_end =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(window_s * 1e9));
  const Clock::time_point give_up = window_end + std::chrono::seconds(10);

  std::size_t next = 0;
  std::deque<std::size_t> backlog;
  std::vector<long> inflight(conns.size(), -1);
  std::vector<Clock::time_point> sent_at(conns.size());
  std::size_t busy = 0;
  while (next < arrivals.size() || !backlog.empty() || busy > 0) {
    Clock::time_point now = Clock::now();
    if (now > give_up) {
      out->failed += backlog.size() + busy;
      break;
    }
    while (next < arrivals.size() && arrivals[next].due <= now) {
      out->late_ms.push_back(ms_between(arrivals[next].due, now));
      backlog.push_back(next++);
    }
    for (std::size_t c = 0; c < conns.size() && !backlog.empty(); ++c) {
      if (inflight[c] >= 0) continue;
      const std::size_t a = backlog.front();
      backlog.pop_front();
      sent_at[c] = Clock::now();
      conns[c]->start_send(arrivals[a].req->wire);
      if (sent_at[c] > window_end) ++out->sent_after_window;
      inflight[c] = static_cast<long>(a);
      ++busy;
      ++out->sent;
    }
    std::vector<pollfd> fds;
    std::vector<std::size_t> which;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (inflight[c] < 0) continue;
      const short events = static_cast<short>(
          POLLIN | (conns[c]->sending() ? POLLOUT : 0));
      fds.push_back({conns[c]->fd(), events, 0});
      which.push_back(c);
    }
    now = Clock::now();
    // Wake for the next arrival even while every connection is busy, so
    // lateness measures the generator, not the daemon's backlog.
    std::chrono::nanoseconds wait = std::chrono::milliseconds(50);
    if (next < arrivals.size()) {
      wait = std::clamp(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            arrivals[next].due - now),
                        std::chrono::nanoseconds(0), wait);
    }
    timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                static_cast<long>(wait.count() % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::size_t c = which[i];
      if (fds[i].revents & POLLOUT) conns[c]->flush();
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[c]->read_some()) continue;
      const Clock::time_point done = Clock::now();
      const Arrival& a = arrivals[static_cast<std::size_t>(inflight[c])];
      inflight[c] = -1;
      --busy;
      record(*conns[c], *a.req, t0, a.due, done, out);
      if (trace) {
        const std::uint64_t s = obs::to_trace_ns(sent_at[c]);
        obs::Tracer::emit("client.request", "client",
                          a.req->model == 0 ? "m0" : "m1",
                          std::to_string(a.req->rows) + "rows", s,
                          obs::to_trace_ns(done) - s);
      }
    }
  }
}

/// One closed-loop thread of the capacity phase: each of its connections
/// sends its next 16-row request as soon as the previous answer is in, until
/// `window_s` has passed.
void saturate_or_throw(const std::vector<Req>& pool,
                       const std::vector<Conn*>& conns, double window_s,
                       std::uint64_t seed, Clock::time_point t0,
                       RungResult* out) {
  std::vector<const Req*> reqs;
  for (const Req& q : pool) {
    if (q.rows == kRowChoices.back()) reqs.push_back(&q);
  }
  util::Pcg32 rng(seed);
  const Clock::time_point window_end =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(window_s * 1e9));
  const Clock::time_point give_up = window_end + std::chrono::seconds(10);
  std::this_thread::sleep_until(t0);
  std::vector<const Req*> inflight(conns.size(), nullptr);
  std::vector<Clock::time_point> sent_at(conns.size());
  std::size_t busy = 0;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (now > give_up) {
      out->failed += busy;
      break;
    }
    for (std::size_t c = 0; c < conns.size() && now < window_end; ++c) {
      if (inflight[c] != nullptr) continue;
      inflight[c] = reqs[rng.next_u32() % reqs.size()];
      sent_at[c] = Clock::now();
      conns[c]->start_send(inflight[c]->wire);
      ++busy;
      ++out->sent;
    }
    if (busy == 0) break;
    std::vector<pollfd> fds;
    std::vector<std::size_t> which;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (inflight[c] == nullptr) continue;
      const short events = static_cast<short>(
          POLLIN | (conns[c]->sending() ? POLLOUT : 0));
      fds.push_back({conns[c]->fd(), events, 0});
      which.push_back(c);
    }
    if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::size_t c = which[i];
      if (fds[i].revents & POLLOUT) conns[c]->flush();
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[c]->read_some()) continue;
      record(*conns[c], *inflight[c], t0, sent_at[c], Clock::now(), out);
      inflight[c] = nullptr;
      --busy;
    }
  }
}

/// Runs `body(conns of thread k, seed of thread k, out)` on kMaxGenThreads
/// threads, each owning kConnsPerThread connections, and merges their
/// results. A socket failure ends that thread's part and is rethrown here.
template <typename Body>
RungResult on_gen_threads(std::vector<std::unique_ptr<Conn>>& conns,
                          std::uint64_t seed, Clock::time_point t0,
                          Body body) {
  std::vector<RungResult> parts(kMaxGenThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kMaxGenThreads; ++k) {
    std::vector<Conn*> mine;
    for (int c = 0; c < kConnsPerThread; ++c) {
      mine.push_back(conns[static_cast<std::size_t>(k * kConnsPerThread + c)]
                         .get());
    }
    RungResult* out = &parts[static_cast<std::size_t>(k)];
    threads.emplace_back([body, mine, out, s = mix(seed, k)] {
      try {
        body(mine, s, out);
      } catch (const std::exception& e) {
        out->error = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  RungResult r;
  for (const auto& p : parts) r.merge(p);
  if (!r.error.empty()) throw std::runtime_error(r.error);
  r.span_s = ms_between(t0, r.last_done) / 1000.0;
  return r;
}

/// One ladder rung: the open loop at `rate` over `window_s`.
RungResult run_rung(const std::vector<Req>& pool,
                    std::vector<std::unique_ptr<Conn>>& conns, double rate,
                    double window_s, std::uint64_t seed, bool trace) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  RungResult r = on_gen_threads(
      conns, seed, t0,
      [&](const std::vector<Conn*>& mine, std::uint64_t s, RungResult* out) {
        generate_or_throw(pool, mine, rate / kMaxGenThreads, window_s, s, t0,
                          trace, out);
      });
  r.rate = rate;
  r.window_s = window_s;
  return r;
}

/// The capacity phase: every connection in a closed loop over `window_s`.
RungResult run_capacity(const std::vector<Req>& pool,
                        std::vector<std::unique_ptr<Conn>>& conns,
                        double window_s, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  RungResult r = on_gen_threads(
      conns, seed, t0,
      [&](const std::vector<Conn*>& mine, std::uint64_t s, RungResult* out) {
        saturate_or_throw(pool, mine, window_s, s, t0, out);
      });
  r.window_s = window_s;
  return r;
}

// --------------------------------------------------------- daemon helpers

struct CacheCounters {
  double hits = 0, misses = 0, coalesced = 0, evictions = 0;
  double version = 0;
};

/// Reads a model's cache counters on a connection of its own: the daemon
/// closes keep-alive connections idle for 30 s, as a control connection
/// would be across a long phase.
CacheCounters model_stats(int port, const std::string& name) {
  Conn conn;
  conn.open(port);
  conn.round_trip(http_request("GET", "/v1/models/" + name, ""));
  if (conn.status() != 200) {
    throw std::runtime_error("GET /v1/models/" + name + " answered " +
                             std::to_string(conn.status()));
  }
  const std::string& b = conn.body();
  return {json_num(b, "hits"), json_num(b, "misses"),
          json_num(b, "coalesced"), json_num(b, "evictions"),
          json_num(b, "version")};
}

/// Sums cache counters across model versions: a hot swap starts a fresh
/// store, so each version's counters are read before and after its life.
class CacheLedger {
 public:
  void begin(const std::string& name, const CacheCounters& c) {
    start_[name] = c;
  }
  void end(const std::string& name, const CacheCounters& c) {
    const CacheCounters& s = start_.at(name);
    const bool same = s.version == c.version;
    total_.hits += c.hits - (same ? s.hits : 0);
    total_.misses += c.misses - (same ? s.misses : 0);
    total_.coalesced += c.coalesced - (same ? s.coalesced : 0);
    total_.evictions += c.evictions - (same ? s.evictions : 0);
  }
  const CacheCounters& total() const { return total_; }
  double hit_ratio() const {
    const double n = total_.hits + total_.misses + total_.coalesced;
    return n > 0 ? (total_.hits + total_.coalesced) / n : 0.0;
  }

 private:
  std::map<std::string, CacheCounters> start_;
  CacheCounters total_;
};

// ------------------------------------------------------------- subcommands

int cmd_prepare() {
  for (const char* key : {"lenet300", "lenet5"}) {
    auto m = modelzoo::pretrained(key);
    std::fprintf(stderr, "zoo %s ready (top-1 %.4f)\n", key, m.base.top1);
  }
  const Json out = Json().str("cache", modelzoo::cache_dir());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int cmd_gen(const Args& args) {
  const std::string workload = args.str("workload");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::string dir = args.str("dir");
  std::size_t dense = 0, payload = 0;
  auto emit = [&](const std::string& name, const core::EncodedModel& m) {
    write_bytes(dir + "/" + name + ".dszc", m.bytes);
  };
  if (workload == "serve_warm") {
    auto lenet = encode(synthesize(kLenet, mix(seed, 1)), "sz", "zstd");
    auto alex = encode(synthesize(kAlexQuarter, mix(seed, 2)),
                       "dc:bits=5,iters=8", "huffman");
    emit("lenet", lenet);
    emit("alex", alex);
    dense = lenet.dense_bytes() + alex.dense_bytes();
    payload =
        lenet.compressed_payload_bytes() + alex.compressed_payload_bytes();
  } else if (workload == "serve_cold") {
    for (int m = 0; m < 2; ++m) {
      const std::string name = m == 0 ? "a" : "b";
      GenModel base = synthesize(kAlexQuarter, mix(seed, 10 + m));
      auto full = encode(base, "sz", "zstd");
      auto next = encode(finetune_head(base, mix(seed, 20 + m)), "sz", "zstd");
      core::DeltaOptions dopts;
      dopts.base_id = name;
      auto delta = core::encode_delta_model(full.bytes, next.bytes, dopts);
      emit(name, full);
      emit(name + "_next", next);
      write_bytes(dir + "/" + name + "_delta.dszc", delta.bytes);
      dense += full.dense_bytes();
      payload += full.compressed_payload_bytes();
    }
  } else {
    throw std::invalid_argument("gen: unknown workload " + workload);
  }
  std::printf("%s\n",
              Json()
                  .num("ratio", static_cast<double>(dense) /
                                    static_cast<double>(payload))
                  .text()
                  .c_str());
  return 0;
}

/// serve_warm: a Poisson open loop stepped through the rate ladder, then
/// (with --capacity-s S) a saturating closed loop of S seconds that measures
/// the daemon's capacity. A rung holds when it meets kLimitMs.
int drive_warm(const Args& args, std::uint64_t seed, const std::string& dir,
               int port, bool trace) {
  const std::vector<std::string> names = {"lenet", "alex"};
  RefModel lenet(read_bytes(dir + "/lenet.dszc"));
  RefModel alex(read_bytes(dir + "/alex.dszc"));
  std::vector<std::vector<RefModel*>> versions = {{&lenet}, {&alex}};
  const std::vector<Req> pool = make_pool(names, versions, seed);

  const std::vector<double> rates = args.list("rates", "200");
  const double seconds = args.num("seconds", 10);
  const double capacity_s = args.num("capacity-s", 0);
  // The lowest rate carries the latency metrics, so it gets the longest
  // window; the other rungs share the rest.
  const double low_share = rates.size() == 1 ? 1.0 : 0.4;
  const double rung_share =
      (1.0 - low_share) / std::max(1.0, static_cast<double>(rates.size()) - 1);

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kMaxGenThreads * kConnsPerThread; ++c) {
    conns.push_back(std::make_unique<Conn>());
    conns.back()->open(port);
  }
  CacheLedger ledger;
  for (const auto& n : names) ledger.begin(n, model_stats(port, n));

  const std::string pid = args.str("pid");
  std::vector<RungResult> rungs;
  double low_cpu_ms = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double window = seconds * (i == 0 ? low_share : rung_share);
    const double cpu0 = process_cpu_ms(pid);
    rungs.push_back(
        run_rung(pool, conns, rates[i], window, mix(seed, 500 + i), trace));
    if (i == 0) low_cpu_ms = process_cpu_ms(pid) - cpu0;
  }
  RungResult cap;
  if (capacity_s > 0) {
    cap = run_capacity(pool, conns, capacity_s, mix(seed, 600));
  }
  for (const auto& n : names) ledger.end(n, model_stats(port, n));

  // Ladder verdicts: a rung holds when its tail (failures counted as
  // missing) meets the limit, nothing failed, and no backlog built up.
  std::string rung_json = "[";
  double sustained_rps = 0.0;
  bool holding = true;
  std::size_t attempted = 0, failed = 0, wrong = 0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungResult& r = rungs[i];
    const Tail t = tail_of(r.lat_with_failures());
    const bool backlog =
        r.sent_after_window > std::max<std::size_t>(4, r.sent / 100);
    const bool meets = t.value <= kLimitMs && r.failed == 0 && r.shed == 0 &&
                       r.wrong == 0 && !backlog;
    holding = holding && meets;
    if (holding) {
      sustained_rps = static_cast<double>(r.ok) / r.span_s;
    }
    attempted += r.sent;
    // A wrong answer is a failure at any rate; refusals and errors past the
    // knee are the load's doing and count only below it.
    failed += r.wrong + (holding ? r.failed + r.shed : 0);
    wrong += r.wrong;
    Json j;
    j.num("rate", r.rate)
        .num("window_s", r.window_s)
        .num("sent", static_cast<double>(r.sent))
        .num("ok", static_cast<double>(r.ok))
        .num("shed", static_cast<double>(r.shed))
        .num("failed", static_cast<double>(r.failed))
        .num("wrong", static_cast<double>(r.wrong))
        .num("failed_frac", r.sent ? static_cast<double>(r.failed + r.shed +
                                                         r.wrong) /
                                         static_cast<double>(r.sent)
                                   : 0.0)
        .num("p50_ms", median(r.lat_with_failures()))
        .num("tail_ms", t.value)
        .num("tail_pct", t.pct)
        .num("late_p99_ms", quantile(r.late_ms, 0.99))
        .num("sent_after_window", static_cast<double>(r.sent_after_window))
        .num("mean_rows", r.rows.empty() ? 0.0
                                         : [&] {
                                             double s = 0;
                                             for (double x : r.rows) s += x;
                                             return s / r.rows.size();
                                           }())
        .boolean("meets_limit", meets);
    rung_json += (i ? "," : "") + j.text();
  }
  rung_json += "]";
  // Answers completed after the capacity window are not counted in its rate.
  std::vector<double> cap_done;
  for (double t : cap.done_s) {
    if (t < cap.window_s) cap_done.push_back(t);
  }
  const std::size_t cap_failed = cap.failed + cap.shed + cap.wrong;
  attempted += cap.sent;
  failed += cap_failed;
  wrong += cap.wrong;

  const RungResult& low = rungs.front();
  const Tail low_tail = tail_of(low.lat_with_failures());
  const CacheCounters& c = ledger.total();
  Json out;
  // Failures are void runs anyway (checked), so the window medians use the
  // answered requests.
  out.num("p50_ms", quietest_window_median(low.due_s, low.lat_ms,
                                           low.window_s))
      .num("p50_all_ms", median(low.lat_with_failures()))
      .num("tail_ms", low_tail.value)
      .num("tail_pct", low_tail.pct)
      .num("tail_n", static_cast<double>(low_tail.n))
      .num("limit_ms", kLimitMs)
      .num("sustained_rps", sustained_rps)
      .num("capacity_rps",
           capacity_s > 0 ? busiest_window_rate(cap_done, capacity_s) : 0.0)
      .num("capacity_failed", static_cast<double>(cap_failed))
      .num("cpu_ms_per_op", low_cpu_ms / static_cast<double>(low.sent))
      .num("gen_late_p99_ms", quantile(low.late_ms, 0.99))
      .num("peak_rss_mb", peak_rss_mb(args.str("pid")))
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("wrong", static_cast<double>(wrong))
      .num("shed_total", [&] {
        double s = static_cast<double>(cap.shed);
        for (const auto& r : rungs) s += static_cast<double>(r.shed);
        return s;
      }())
      .num("cache_hits", c.hits)
      .num("cache_misses", c.misses)
      .num("hit_ratio", ledger.hit_ratio())
      .raw("rungs", rung_json);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

/// serve_cold: one closed-loop connection alternating two models that do
/// not both fit the cache budget; every K-th operation rolls a model forward
/// by a delta or back to its full base container.
int drive_cold(const Args& args, std::uint64_t seed, const std::string& dir,
               int port) {
  const std::vector<std::string> names = {"a", "b"};
  std::vector<std::unique_ptr<RefModel>> refs;
  std::vector<std::vector<RefModel*>> versions(2);
  std::vector<std::string> full_body, delta_body;
  for (std::size_t m = 0; m < names.size(); ++m) {
    for (const char* suffix : {"", "_next"}) {
      refs.push_back(std::make_unique<RefModel>(
          read_bytes(dir + "/" + names[m] + suffix + ".dszc")));
      versions[m].push_back(refs.back().get());
    }
    auto f = read_bytes(dir + "/" + names[m] + ".dszc");
    auto d = read_bytes(dir + "/" + names[m] + "_delta.dszc");
    full_body.emplace_back(f.begin(), f.end());
    delta_body.emplace_back(d.begin(), d.end());
  }
  const std::vector<Req> pool = make_pool(names, versions, seed);
  const std::size_t per_model = kRowChoices.size() * kPoolPerShape;

  const double seconds = args.num("seconds", 10);
  constexpr long kRolloutEvery = 5;
  Conn conn;
  conn.open(port);
  CacheLedger ledger;
  for (const auto& n : names) ledger.begin(n, model_stats(port, n));

  util::Pcg32 rng(mix(seed, 77));
  const std::string pid = args.str("pid");
  std::vector<int> version(2, 0);
  std::vector<double> infer_ms, infer_at_s, infer_cpu_ms, swap_ms,
      ready_delta_ms, ready_full_ms;
  Clock::time_point start = Clock::now();
  std::size_t attempted = 0, failed = 0;
  std::vector<double> op_done_s;
  // The daemon serves nothing else, so its on-CPU time across a request is
  // that request's; unlike the wall time it leaves out the time the host
  // stole from the virtual CPUs.
  auto infer = [&](int m, const Req& q) {
    const double cpu0 = process_cpu_ms(pid);
    const Clock::time_point t0 = Clock::now();
    conn.round_trip(q.wire);
    const Clock::time_point t1 = Clock::now();
    const double cpu_ms = process_cpu_ms(pid) - cpu0;
    ++attempted;
    op_done_s.push_back(ms_between(start, t1) / 1000.0);
    if (conn.status() != 200 ||
        !matches(conn.body(), q.ref[static_cast<std::size_t>(version[m])],
                 q.rows, q.cols)) {
      ++failed;
    } else {
      infer_ms.push_back(ms_between(t0, t1));
      infer_at_s.push_back(ms_between(start, t0) / 1000.0);
      infer_cpu_ms.push_back(cpu_ms);
    }
    return t1;
  };

  const double cpu0 = process_cpu_ms(pid);
  start = Clock::now();
  for (long op = 0; ms_between(start, Clock::now()) < seconds * 1000.0;
       ++op) {
    if (op % kRolloutEvery == kRolloutEvery - 1) {
      const int m = static_cast<int>((op / kRolloutEvery) % 2);
      ledger.end(names[m], model_stats(port, names[m]));
      const bool to_delta = version[m] == 0;
      const Clock::time_point t0 = Clock::now();
      conn.round_trip(http_request(
          "POST",
          "/v1/models/" + names[m] + ":load" +
              (to_delta ? "?base=" + names[m] : std::string()),
          to_delta ? delta_body[m] : full_body[m]));
      const Clock::time_point t1 = Clock::now();
      ++attempted;
      op_done_s.push_back(ms_between(start, t1) / 1000.0);
      if (conn.status() != 200) {
        ++failed;
        continue;
      }
      version[m] = to_delta ? 1 : 0;
      ledger.begin(names[m], model_stats(port, names[m]));
      const Req& q = pool[static_cast<std::size_t>(m) * per_model +
                          kPoolPerShape +  // the 4-row inputs
                          rng.next_u32() % kPoolPerShape];
      const std::size_t failed_before = failed;
      const Clock::time_point t2 = infer(m, q);
      if (failed == failed_before) {
        swap_ms.push_back(ms_between(t0, t1));
        (to_delta ? ready_delta_ms : ready_full_ms)
            .push_back(ms_between(t0, t2));
      }
      continue;
    }
    const int m = static_cast<int>(op % 2);
    infer(m, pool[static_cast<std::size_t>(m) * per_model +
                  rng.next_u32() % per_model]);
  }
  const double cpu_ms = process_cpu_ms(pid) - cpu0;
  for (const auto& n : names) ledger.end(n, model_stats(port, n));

  const Tail t = tail_of(infer_ms);
  const CacheCounters& c = ledger.total();
  const double span_s = ms_between(start, Clock::now()) / 1000.0;
  Json out;
  out.num("p50_ms", quietest_window_median(infer_at_s, infer_ms, span_s))
      .num("p50_all_ms", median(infer_ms))
      .num("cpu_p50_ms", median(infer_cpu_ms))
      .num("tail_ms", t.value)
      .num("tail_pct", t.pct)
      .num("tail_n", static_cast<double>(t.n))
      .num("cpu_ms_per_op", cpu_ms / static_cast<double>(attempted))
      .num("ops_per_s", busiest_window_rate(op_done_s, span_s))
      .num("ops_per_s_all", static_cast<double>(attempted) / span_s)
      .num("restore_p50_ms", median(ready_delta_ms))
      .num("rollback_ready_p50_ms", median(ready_full_ms))
      .num("swap_p50_ms", median(swap_ms))
      .num("rollouts", static_cast<double>(ready_delta_ms.size()))
      .num("peak_rss_mb", peak_rss_mb(args.str("pid")))
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("cache_hits", c.hits + c.coalesced)
      .num("cache_misses", c.misses)
      .num("cache_evictions", c.evictions)
      .num("hit_ratio", ledger.hit_ratio());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

void write_trace(const std::string& path) {
  if (path.empty()) return;
  write_text(path, obs::to_chrome_json(obs::Tracer::snapshot()));
}

int cmd_drive(const Args& args) {
  const std::string workload = args.str("workload");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::string dir = args.str("dir");
  const int port = static_cast<int>(args.num("port", 0));
  const std::string trace_out = args.str("trace-out", "-");
  const bool trace = trace_out != "-";
  obs::Tracer::set_enabled(trace);
  const int rc = workload == "serve_warm"
                     ? drive_warm(args, seed, dir, port, trace)
                     : drive_cold(args, seed, dir, port);
  if (trace) write_trace(trace_out);
  return rc;
}

// ------------------------------------------------------------- compress

struct ZooNet {
  std::string key;
  modelzoo::TrainedModel trained;
  std::map<std::string, double> keep;  // deepsz_tool compress's keep ratios
};

std::vector<ZooNet> load_zoo() {
  std::vector<ZooNet> nets;
  nets.push_back({"lenet300", modelzoo::pretrained("lenet300"),
                  {{"ip1", 0.08}, {"ip2", 0.09}, {"ip3", 0.26}}});
  nets.push_back({"lenet5", modelzoo::pretrained("lenet5"),
                  {{"ip1", 0.08}, {"ip2", 0.19}}});
  return nets;
}

struct CompressRun {
  double seconds = 0.0;
  double cpu_s = 0.0;
  compress::CompressReport report;
  std::uint32_t crc = 0;
  double registry_sz_encode_ms = 0.0;
  double registry_index_encode_ms = 0.0;
};

/// One four-stage DeepSZ run over a fresh copy of the cached network, with
/// the spec `deepsz_tool compress` uses.
CompressRun compress_once(const ZooNet& z, bool measure_codecs) {
  nn::Network net = modelzoo::make_by_key(z.key);
  net.load(modelzoo::cache_dir() + "/" + z.key + "_v1.weights");
  compress::CompressSpec spec;
  spec.prune.keep_ratio = z.keep;
  spec.prune.retrain_epochs = 1;
  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), net,
      z.trained.train.images, z.trained.train.labels, z.trained.test.images,
      z.trained.test.labels, spec);
  CompressRun run;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  {
    obs::TraceSpan span("compress.run", "compress");
    span.set_detail(z.key);
    run.report = session.run();
  }
  run.seconds = ms_between(t0, Clock::now()) / 1000.0;
  run.cpu_s = process_cpu_s() - cpu0;
  run.crc = util::crc32(run.report.model.bytes);

  if (measure_codecs) {
    // The registry codecs at each layer's chosen bound, as Encode runs them.
    const auto& layers = session.state().layers;
    const auto& stats = run.report.model.stats;
    for (std::size_t i = 0; i < layers.size() && i < stats.size(); ++i) {
      const auto& registry = codec::CodecRegistry::instance();
      auto fc = registry.make_float(stats[i].data_codec);
      auto bc = registry.make_byte(stats[i].index_codec);
      std::vector<double> sz_ms, idx_ms;
      for (int r = 0; r < 7; ++r) {
        Clock::time_point a = Clock::now();
        {
          obs::TraceSpan span("probe.sz_encode", "sz");
          span.set_detail(stats[i].layer);
          fc->encode(layers[i].data, codec::FloatParams{stats[i].eb});
        }
        Clock::time_point b = Clock::now();
        {
          obs::TraceSpan span("probe.index_encode", "lossless");
          span.set_detail(stats[i].layer);
          bc->encode(layers[i].index);
        }
        Clock::time_point c = Clock::now();
        sz_ms.push_back(ms_between(a, b));
        idx_ms.push_back(ms_between(b, c));
      }
      run.registry_sz_encode_ms += median(sz_ms);
      run.registry_index_encode_ms += median(idx_ms);
    }
  }
  return run;
}

int cmd_compress(const Args& args) {
  const double seconds = args.num("seconds", 10);
  const int setups = static_cast<int>(args.num("setups", 3));
  const std::string trace_out = args.str("trace-out", "-");
  const bool trace = trace_out != "-";
  obs::Tracer::set_enabled(trace);

  // Set-up: load the cached zoo networks and their datasets. Timed on the
  // CPU, like the jobs: wall time here moves with the host's steal.
  std::vector<double> setup_s;
  std::vector<ZooNet> zoo;
  for (int i = 0; i < setups; ++i) {
    const double cpu0 = process_cpu_s();
    zoo = load_zoo();
    setup_s.push_back(process_cpu_s() - cpu0);
  }

  // Jobs: both networks, one after the other, until the time is used (at
  // least two jobs, so the output can be compared across repetitions).
  std::vector<double> job_ms, job_cpu_s, restore_ms;
  std::map<std::string, std::vector<double>> net_cpu_s;
  std::vector<std::array<double, compress::kNumStages>> stage_s;
  std::map<std::string, std::uint32_t> crc;
  bool identical = true;
  double ratio = 0.0, top1_drop = 0.0, dense_values = 0.0;
  double bounds_tested = 0.0, sz_encode_ms = 0.0, index_encode_ms = 0.0;
  const Clock::time_point start = Clock::now();
  const int min_jobs = trace ? 1 : 2;
  for (int job = 0; job < min_jobs ||
                    ms_between(start, Clock::now()) < seconds * 1000.0;
       ++job) {
    double job_s = 0.0, cpu_s = 0.0;
    std::size_t dense = 0, payload = 0;
    std::array<double, compress::kNumStages> stages{};
    std::vector<std::vector<std::uint8_t>> outputs;
    top1_drop = 0.0;
    bounds_tested = 0.0;
    for (const ZooNet& z : zoo) {
      CompressRun run = compress_once(z, trace && job == 0);
      job_s += run.seconds;
      cpu_s += run.cpu_s;
      net_cpu_s[z.key].push_back(run.cpu_s);
      dense += run.report.dense_fc_bytes;
      payload += run.report.model.compressed_payload_bytes();
      top1_drop = std::max(top1_drop, run.report.acc_original.top1 -
                                          run.report.acc_decoded.top1);
      for (int s = 0; s < compress::kNumStages; ++s) {
        stages[static_cast<std::size_t>(s)] += run.report.stages[s].seconds;
      }
      for (const auto& a : run.report.assessments) {
        bounds_tested += static_cast<double>(a.points.size());
      }
      sz_encode_ms += run.registry_sz_encode_ms;
      index_encode_ms += run.registry_index_encode_ms;
      auto [it, fresh] = crc.emplace(z.key, run.crc);
      identical = identical && (fresh || it->second == run.crc);
      outputs.push_back(std::move(run.report.model.bytes));
    }
    job_ms.push_back(job_s * 1000.0);
    job_cpu_s.push_back(cpu_s);
    stage_s.push_back(stages);
    ratio = static_cast<double>(dense) / static_cast<double>(payload);
    dense_values = static_cast<double>(dense) / sizeof(float);
    // Restore: decode both containers back into sparse layers (Fig. 7b).
    // Each job is a window; its median joins restore_ms.
    std::vector<double> decode_ms;
    for (int r = 0; r < 10; ++r) {
      const Clock::time_point t0 = Clock::now();
      for (const auto& bytes : outputs) {
        obs::TraceSpan span("probe.decode_model", "core");
        core::decode_model(bytes);
      }
      decode_ms.push_back(ms_between(t0, Clock::now()));
    }
    restore_ms.push_back(median(decode_ms));
  }

  Json crcs;
  for (const auto& [key, value] : crc) crcs.num(key, value);
  Json stages;
  for (int s = 0; s < compress::kNumStages; ++s) {
    std::vector<double> v;
    for (const auto& st : stage_s) {
      v.push_back(st[static_cast<std::size_t>(s)]);
    }
    stages.num(compress::stage_name(static_cast<compress::Stage>(s)),
               median(v));
  }
  Json out;
  out.num("setup_s", median(setup_s))
      .num("p50_ms", median(job_ms))
      .num("cpu_s", median(job_cpu_s))
      .num("values_per_cpu_s", dense_values / median(job_cpu_s))
      .num("lenet300_cpu_p50_ms", 1000.0 * median(net_cpu_s["lenet300"]))
      .num("restore_p50_ms",
           *std::min_element(restore_ms.begin(), restore_ms.end()))
      .num("ratio", ratio)
      .num("top1_drop", top1_drop)
      .num("peak_rss_mb", peak_rss_mb("self"))
      .num("jobs", static_cast<double>(job_ms.size()))
      .boolean("identical", identical)
      .obj("crc", crcs)
      .obj("stage_s", stages)
      .num("bounds_tested", bounds_tested)
      .num("sz_encode_ms", sz_encode_ms)
      .num("index_encode_ms", index_encode_ms);
  if (trace) write_trace(trace_out);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// ------------------------------------------------------------- probe

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    f();
    v.push_back(ms_between(t0, Clock::now()));
  }
  return median(v);
}

serve::ModelStoreOptions serving_options() {
  serve::ModelStoreOptions opts;
  opts.build_csr = true;
  opts.native_form = true;
  return opts;
}

/// In-process timings of single layers, each call wrapped in a span of the
/// benchmark's own.
int cmd_probe(const Args& args) {
  const std::string dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  obs::Tracer::set_enabled(true);
  Json out;

  // serve/inference_session on warm stores: both forward kernels at batch 1
  // and 16; serve/model_store residency by serving form.
  for (const char* name : {"lenet", "alex"}) {
    serve::ModelStore store(read_bytes(dir + "/" + name + ".dszc"),
                            serving_options());
    store.warmup(false);
    nn::Network net = serve::make_fc_network(store.reader());
    serve::InferenceSession session(store, net);
    session.enable_sparse_forward(true);
    const bool csr = std::string(name) == "lenet";
    const std::string key = csr ? "csr" : "codebook";
    for (std::int64_t rows : {1, 16}) {
      util::Pcg32 rng(mix(seed, 900 + rows));
      nn::Tensor x({rows, store.reader().entries().front().cols});
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
      }
      session.infer(x);
      out.num("forward." + key + ".b" + std::to_string(rows) + "_ms",
              median_ms(300, [&] {
                obs::TraceSpan span("probe.forward", "serve");
                span.set_detail(key);
                session.infer(x);
              }));
    }
    const auto form = csr ? serve::ServingForm::kSparseCsr
                          : serve::ServingForm::kCodebookCsr;
    out.num("store.resident_mb." + key,
            static_cast<double>(store.stats().form_resident(form)) /
                (1 << 20));
  }

  // Cold path on one serve_cold model: ModelStore::get of an evicted layer,
  // ContainerReader::decode_layer and its lossless index decode, per layer,
  // summed over the stack.
  const auto a_bytes = read_bytes(dir + "/a.dszc");
  const auto delta_bytes = read_bytes(dir + "/a_delta.dszc");
  {
    serve::ModelStore store(a_bytes, serving_options());
    const core::ContainerReader& reader = store.reader();
    double miss = 0, decode = 0, index = 0, values = 0;
    for (std::size_t i = 0; i < reader.num_layers(); ++i) {
      const std::string layer = reader.entry(i).name;
      miss += median_ms(7, [&] {
        store.evict_all();
        obs::TraceSpan span("probe.store_get", "serve");
        span.set_detail(layer);
        store.get(layer);
      });
      decode += median_ms(7, [&] {
        obs::TraceSpan span("probe.decode_layer", "core");
        span.set_detail(layer);
        reader.decode_layer(i);
      });
      index += median_ms(7, [&] {
        obs::TraceSpan span("probe.decode_index", "lossless");
        span.set_detail(layer);
        reader.decode_index_stream(i);
      });
      values += static_cast<double>(reader.decode_layer(i).data.size());
    }
    const double sz = decode - index;
    out.num("store.miss_ms", miss)
        .num("store.reconstruct_ms", miss - decode)
        .num("lossless.index_decode_ms", index)
        .num("sz.decode_ms", sz)
        .num("sz.decode_mvals_s", values / sz / 1e3);
  }

  // core/model_codec: opening a full container, and a delta plus set_base.
  auto base_reader = std::make_shared<core::ContainerReader>(a_bytes);
  out.num("container.open_full_ms", median_ms(31, [&] {
            obs::TraceSpan span("probe.container_open", "core");
            span.set_phase("full");
            core::ContainerReader r(a_bytes);
          }))
      .num("container.open_delta_ms", median_ms(31, [&] {
             obs::TraceSpan span("probe.container_open", "core");
             span.set_phase("delta");
             core::ContainerReader r(delta_bytes);
             r.set_base(base_reader);
           }));

  // server/model_repository loads, and core/delta_codec's warm apply: the
  // first ModelStore::get of the delta-record layer after a swap.
  {
    server::ModelRepository repo(64ull << 20);
    std::vector<double> full_ms, delta_ms, apply_ms;
    const std::string head = base_reader->entries().back().name;
    for (int r = 0; r < 9; ++r) {
      Clock::time_point t0 = Clock::now();
      {
        obs::TraceSpan span("probe.repo_load", "server");
        span.set_phase("full");
        repo.load("a", a_bytes);
      }
      full_ms.push_back(ms_between(t0, Clock::now()));
      repo.get("a")->store->warmup(false);
      t0 = Clock::now();
      std::shared_ptr<const server::ServedModel> model;
      {
        obs::TraceSpan span("probe.repo_load", "server");
        span.set_phase("delta");
        model = repo.load("a", delta_bytes, "", "a");
      }
      delta_ms.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      {
        obs::TraceSpan span("probe.delta_apply", "core");
        span.set_detail(head);
        model->store->get(head);
      }
      apply_ms.push_back(ms_between(t0, Clock::now()));
    }
    out.num("repo.load_full_ms", median(full_ms))
        .num("repo.load_delta_ms", median(delta_ms))
        .num("delta.apply_ms", median(apply_ms));
  }

  write_trace(args.str("trace-out"));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: repobench_harness prepare|gen|drive|compress|probe "
                 "[--key value ...]\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args(argc, argv);
    if (cmd == "prepare") return cmd_prepare();
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "drive") return cmd_drive(args);
    if (cmd == "compress") return cmd_compress(args);
    if (cmd == "probe") return cmd_probe(args);
    std::fprintf(stderr, "repobench_harness: unknown command %s\n",
                 cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench_harness: %s\n", e.what());
    return 1;
  }
}
