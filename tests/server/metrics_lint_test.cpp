// Prometheus text-format lint of `GET /metrics`, plus the /v1/trace route.
//
// The lint parses the whole exposition line by line: every line must be a
// HELP comment, a TYPE comment, or a sample that scans as `name{labels} value`;
// no family may declare HELP/TYPE twice; every sample must sit in the block
// opened by its own family's TYPE line (Prometheus requires a family's
// samples to be contiguous); and counters must be monotonic across two
// snapshots with traffic in between. Scrape breakage from a formatting
// regression shows up here instead of in a dashboard.
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "server/server.h"
#include "tests/server/test_containers.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;
using testing::tiny_dc_container;

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;

  std::string key() const {
    std::string k = name;
    for (const auto& [lk, lv] : labels) k += "|" + lk + "=" + lv;
    return k;
  }
};

struct Exposition {
  std::vector<Sample> samples;
  std::map<std::string, std::string> type_of;  // family -> counter/gauge/...
  std::vector<std::string> errors;

  const Sample* find(const std::string& name) const {
    for (const auto& s : samples) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  /// The value of the sample with exactly these labels; -1 when absent.
  double value(const std::string& name,
               const std::map<std::string, std::string>& labels) const {
    for (const auto& s : samples) {
      if (s.name == name && s.labels == labels) return s.value;
    }
    return -1.0;
  }
};

bool valid_metric_name(const std::string& s) {
  if (s.empty() || (!std::isalpha(static_cast<unsigned char>(s[0])) &&
                    s[0] != '_' && s[0] != ':')) {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

/// Parses `{k="v",k2="v2"}` starting at `pos` (the '{'). Advances `pos` past
/// the closing '}'. Returns false (with an error) on malformed syntax.
bool parse_labels(const std::string& line, std::size_t& pos,
                  std::map<std::string, std::string>* labels,
                  std::string* error) {
  ++pos;  // consume '{'
  while (pos < line.size() && line[pos] != '}') {
    const std::size_t eq = line.find('=', pos);
    if (eq == std::string::npos || eq + 1 >= line.size() ||
        line[eq + 1] != '"') {
      *error = "label without =\"...\" value";
      return false;
    }
    const std::string key = line.substr(pos, eq - pos);
    if (!valid_metric_name(key)) {
      *error = "bad label name \"" + key + "\"";
      return false;
    }
    std::string value;
    std::size_t v = eq + 2;
    while (v < line.size() && line[v] != '"') {
      if (line[v] == '\\' && v + 1 < line.size()) ++v;  // escaped char
      value += line[v++];
    }
    if (v >= line.size()) {
      *error = "unterminated label value";
      return false;
    }
    (*labels)[key] = value;
    pos = v + 1;
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  if (pos >= line.size() || line[pos] != '}') {
    *error = "unterminated label set";
    return false;
  }
  ++pos;
  return true;
}

/// Full-text lint. Every violation becomes one entry in `errors`, prefixed
/// with the 1-based line number.
Exposition lint_exposition(const std::string& text) {
  Exposition out;
  std::set<std::string> helped, typed;
  std::string open_family;  // family of the most recent TYPE line
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    out.errors.push_back("line " + std::to_string(lineno) + ": " + msg +
                         " [" + line + "]");
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      fail("empty line");
      continue;
    }
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      if (kind == "HELP") {
        if (!helped.insert(family).second) fail("duplicate HELP for " + family);
        if (!valid_metric_name(family)) fail("bad family name in HELP");
        continue;
      }
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary") {
          fail("unknown TYPE \"" + type + "\"");
        }
        if (!typed.insert(family).second) fail("duplicate TYPE for " + family);
        if (!helped.count(family)) fail("TYPE before HELP for " + family);
        out.type_of[family] = type;
        open_family = family;
        continue;
      }
      fail("comment is neither HELP nor TYPE");
      continue;
    }

    Sample s;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) {
      fail("sample with no value");
      continue;
    }
    s.name = line.substr(0, pos);
    if (!valid_metric_name(s.name)) {
      fail("bad metric name \"" + s.name + "\"");
      continue;
    }
    if (line[pos] == '{') {
      std::string err;
      if (!parse_labels(line, pos, &s.labels, &err)) {
        fail(err);
        continue;
      }
    }
    if (pos >= line.size() || line[pos] != ' ') {
      fail("no space before value");
      continue;
    }
    const std::string value_str = line.substr(pos + 1);
    char* end = nullptr;
    s.value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0') {
      fail("unparsable value \"" + value_str + "\"");
      continue;
    }
    if (!typed.count(s.name)) {
      fail("sample for undeclared family " + s.name);
    } else if (s.name != open_family) {
      fail("sample for " + s.name + " outside its family block (open: " +
           open_family + ")");
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

std::string csv_row(int features, float v) {
  std::ostringstream os;
  for (int i = 0; i < features; ++i) os << (i ? "," : "") << v;
  os << "\n";
  return os.str();
}

class MetricsLintTest : public ::testing::Test {
 protected:
  MetricsLintTest() : loopback_(server_.handler()) {
    // Tracing on: stage_ms families only appear once spans have recorded,
    // and the lint should cover them.
    obs::Tracer::set_enabled(true);
    obs::Tracer::reset();
    server_.repository().load("tiny", tiny_container(3));
    server_.repository().load("dc", tiny_dc_container(5));
  }
  ~MetricsLintTest() override {
    obs::Tracer::set_enabled(false);
    obs::Tracer::reset();
  }

  void drive_traffic() {
    EXPECT_EQ(loopback_.post("/v1/models/tiny:infer", csv_row(32, 0.5f),
                             "text/csv").status, 200);
    EXPECT_EQ(loopback_.post("/v1/models/dc:infer", csv_row(32, 0.25f),
                             "text/csv").status, 200);
    // One not-found so a non-ok counter moves too.
    loopback_.post("/v1/models/ghost:infer", csv_row(32, 0.5f), "text/csv");
  }

  std::string scrape() {
    auto resp = loopback_.get("/metrics");
    EXPECT_EQ(resp.status, 200);
    return resp.body_text();
  }

  Server server_;
  LoopbackTransport loopback_;
};

TEST_F(MetricsLintTest, ExpositionParsesWithNoViolations) {
  drive_traffic();
  const auto exp = lint_exposition(scrape());
  EXPECT_TRUE(exp.errors.empty())
      << exp.errors.size() << " violation(s), first: " << exp.errors.front();
  EXPECT_GT(exp.samples.size(), 30u);
}

TEST_F(MetricsLintTest, RequiredFamiliesPresent) {
  drive_traffic();
  const auto exp = lint_exposition(scrape());
  for (const char* family :
       {"deepsz_requests_total", "deepsz_request_latency_ms",
        "deepsz_queue_wait_ms", "deepsz_execute_ms", "deepsz_stage_ms",
        "deepsz_stage_ms_count", "deepsz_trace_enabled",
        "deepsz_trace_dropped_spans_total", "deepsz_build_info",
        "deepsz_uptime_seconds", "deepsz_model_cache_hits"}) {
    EXPECT_TRUE(exp.type_of.count(family)) << family;
  }
  // Queue wait is split by outcome...
  bool ok_outcome = false, rejected_outcome = false;
  // ...and the span-fed stage histograms carry stage+model labels. The two
  // infers decoded and forwarded, so both stages must have samples.
  std::set<std::string> stages;
  for (const auto& s : exp.samples) {
    if (s.name == "deepsz_queue_wait_ms") {
      auto it = s.labels.find("outcome");
      ASSERT_NE(it, s.labels.end());
      ok_outcome |= it->second == "ok";
      rejected_outcome |= it->second == "rejected";
    }
    if (s.name == "deepsz_stage_ms_count") {
      ASSERT_TRUE(s.labels.count("stage"));
      ASSERT_TRUE(s.labels.count("model"));
      if (s.value > 0) stages.insert(s.labels.at("stage"));
    }
  }
  EXPECT_TRUE(ok_outcome);
  EXPECT_TRUE(rejected_outcome);
  EXPECT_TRUE(stages.count("queue")) << "stages seen: " << stages.size();
  EXPECT_TRUE(stages.count("decode"));
  EXPECT_TRUE(stages.count("forward"));
}

TEST_F(MetricsLintTest, BuildInfoAndUptime) {
  const auto exp = lint_exposition(scrape());
  const Sample* info = exp.find("deepsz_build_info");
  ASSERT_NE(info, nullptr);
  EXPECT_DOUBLE_EQ(info->value, 1.0);
  ASSERT_TRUE(info->labels.count("version"));
  EXPECT_FALSE(info->labels.at("version").empty());
  ASSERT_TRUE(info->labels.count("compiler"));
  EXPECT_FALSE(info->labels.at("compiler").empty());
  ASSERT_TRUE(info->labels.count("avx2"));
  const std::string& avx2 = info->labels.at("avx2");
  EXPECT_TRUE(avx2 == "true" || avx2 == "false") << avx2;

  const Sample* up = exp.find("deepsz_uptime_seconds");
  ASSERT_NE(up, nullptr);
  EXPECT_GT(up->value, 0.0);
}

TEST_F(MetricsLintTest, CountersAreMonotonicAcrossSnapshots) {
  drive_traffic();
  const auto before = lint_exposition(scrape());
  drive_traffic();
  const auto after = lint_exposition(scrape());

  std::map<std::string, double> first;
  for (const auto& s : before.samples) {
    if (before.type_of.at(s.name) == "counter") first[s.key()] = s.value;
  }
  int compared = 0;
  for (const auto& s : after.samples) {
    auto it = first.find(s.key());
    if (it == first.end() || after.type_of.at(s.name) != "counter") continue;
    EXPECT_GE(s.value, it->second) << s.key();
    ++compared;
  }
  EXPECT_GT(compared, 10);  // the counter families really were compared

  // And the traffic genuinely moved the headline counter.
  const auto count_ok = [](const Exposition& e) {
    for (const auto& s : e.samples) {
      if (s.name == "deepsz_requests_total" &&
          s.labels.count("status") && s.labels.at("status") == "ok") {
        return s.value;
      }
    }
    return -1.0;
  };
  EXPECT_EQ(count_ok(after), count_ok(before) + 2.0);
}

// One instrument: every serving timing /metrics reports is read from the
// span stage histograms, so the two views cannot disagree.
TEST_F(MetricsLintTest, ForwardTotalIsTheForwardStageSum) {
  drive_traffic();
  const auto exp = lint_exposition(scrape());
  const double stages = obs::Tracer::stage_total_ms("forward", "tiny") +
                        obs::Tracer::stage_total_ms("forward", "dc");
  EXPECT_GT(stages, 0.0);
  // The exposition prints six significant digits.
  EXPECT_NEAR(exp.value("deepsz_forward_ms_total", {}), stages,
              1e-5 * stages);
}

TEST_F(MetricsLintTest, DeadlineExpiredRequestFeedsTheRejectedQueueStage) {
  const std::map<std::string, std::string> rejected = {
      {"stage", "queue_rejected"}, {"model", "tiny"}};
  // No series before the first observation.
  EXPECT_EQ(lint_exposition(scrape()).value("deepsz_stage_ms_count", rejected),
            -1.0);
  // A 100 ns deadline has passed before any worker can start the batch.
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/models/tiny:infer";
  req.headers["content-type"] = "text/csv";
  req.headers["x-deepsz-deadline-ms"] = "0.0001";
  const std::string body = csv_row(32, 0.5f);
  req.body.assign(body.begin(), body.end());
  EXPECT_EQ(loopback_.round_trip(req).status, 504);

  const auto exp = lint_exposition(scrape());
  EXPECT_EQ(exp.value("deepsz_stage_ms_count", rejected), 1.0);
  EXPECT_EQ(exp.value("deepsz_requests_total",
                      {{"status", "deadline_exceeded"}}),
            1.0);
}

TEST_F(MetricsLintTest, TimingFamiliesFillWithTracingOff) {
  obs::Tracer::set_enabled(false);
  obs::Tracer::reset();
  drive_traffic();
  const auto exp = lint_exposition(scrape());
  EXPECT_GT(exp.value("deepsz_request_latency_ms", {{"quantile", "0.5"}}),
            0.0);
  EXPECT_GT(exp.value("deepsz_execute_ms", {{"quantile", "0.5"}}), 0.0);
  EXPECT_GT(exp.value("deepsz_queue_wait_ms",
                      {{"outcome", "ok"}, {"quantile", "0.5"}}),
            0.0);
  EXPECT_TRUE(obs::Tracer::snapshot().events.empty());  // no span recorded
}

TEST_F(MetricsLintTest, LintCatchesSeededViolations) {
  // The lint itself must reject what it claims to reject, else a green run
  // proves nothing.
  EXPECT_FALSE(lint_exposition("deepsz_x 1\n").errors.empty());  // no TYPE
  EXPECT_FALSE(lint_exposition("# HELP a b\n# TYPE a gauge\n"
                               "# HELP a b\n").errors.empty());
  EXPECT_FALSE(lint_exposition("# HELP a b\n# TYPE a gauge\n"
                               "# TYPE a gauge\n").errors.empty());
  EXPECT_FALSE(lint_exposition("# HELP a b\n# TYPE a gauge\na junk\n")
                   .errors.empty());
  EXPECT_FALSE(lint_exposition("# HELP a b\n# TYPE a gauge\n"
                               "a{k=\"v} 1\n").errors.empty());
  // Samples split across another family's block -> grouping violation.
  EXPECT_FALSE(lint_exposition("# HELP a b\n# TYPE a gauge\na 1\n"
                               "# HELP c d\n# TYPE c gauge\nc 1\na 2\n")
                   .errors.empty());
  // A clean minimal exposition passes.
  EXPECT_TRUE(lint_exposition("# HELP a b\n# TYPE a counter\n"
                              "a{m=\"x\"} 1\na{m=\"y\"} 2\n").errors.empty());
}

TEST_F(MetricsLintTest, TraceEndpoint) {
  drive_traffic();
  auto resp = loopback_.get("/v1/trace");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  const std::string body = resp.body_text();
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  auto windowed = loopback_.get("/v1/trace?last_ms=60000");
  ASSERT_EQ(windowed.status, 200);
  for (const char* span : {"\"queue\"", "\"decode\"", "\"forward\"",
                           "\"http_parse\"", "\"serialize\""}) {
    EXPECT_NE(body.find(span), std::string::npos) << span;
  }
  // Windowed query: everything above just happened, so it must survive a
  // generous trailing window.
  EXPECT_NE(windowed.body_text().find("\"forward\""), std::string::npos);

  EXPECT_EQ(loopback_.get("/v1/trace?last_ms=junk").status, 400);
  EXPECT_EQ(loopback_.get("/v1/trace?last_ms=-5").status, 400);
  EXPECT_EQ(loopback_.get("/v1/trace?last_ms=").status, 400);
  EXPECT_EQ(loopback_.get("/v1/trace?other=1").status, 200);  // ignored param
  EXPECT_EQ(loopback_.post("/v1/trace", "x").status, 405);
}

}  // namespace
}  // namespace deepsz::server
