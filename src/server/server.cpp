#include "server/server.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/cpu.h"

#ifndef DEEPSZ_VERSION
#define DEEPSZ_VERSION "0.0.0-dev"
#endif

namespace deepsz::server {

namespace {

int http_status_for(InferStatus status) {
  switch (status) {
    case InferStatus::kOk: return 200;
    case InferStatus::kNotFound: return 404;
    case InferStatus::kInvalidInput: return 400;
    case InferStatus::kOverloaded: return 429;
    case InferStatus::kDeadlineExceeded: return 504;
    case InferStatus::kShuttingDown: return 503;
    case InferStatus::kInternalError: return 500;
  }
  return 500;
}

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Parses a CSV body: one row of comma-separated floats per non-empty line.
/// Every row must have the same width. Throws std::invalid_argument.
void parse_csv(const std::string& text, std::vector<float>* values,
               std::int64_t* rows) {
  *rows = 0;
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = eol + 1;
    if (line.find_first_not_of(" \t,") == std::string::npos) continue;

    std::size_t row_width = 0;
    std::size_t p = 0;
    while (p <= line.size()) {
      std::size_t comma = line.find(',', p);
      if (comma == std::string::npos) comma = line.size();
      const std::string cell = line.substr(p, comma - p);
      p = comma + 1;
      char* end = nullptr;
      const float v = std::strtof(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0' || !std::isfinite(v)) {
        throw std::invalid_argument("bad CSV float \"" + cell + "\"");
      }
      values->push_back(v);
      ++row_width;
      if (comma == line.size()) break;
    }
    if (width == 0) {
      width = row_width;
    } else if (row_width != width) {
      throw std::invalid_argument("ragged CSV: row " + std::to_string(*rows) +
                                  " has " + std::to_string(row_width) +
                                  " values, expected " +
                                  std::to_string(width));
    }
    ++*rows;
  }
  if (*rows == 0) throw std::invalid_argument("empty CSV body");
}

std::string format_csv(const std::vector<float>& values, std::int64_t rows,
                       std::int64_t cols) {
  std::string out;
  out.reserve(values.size() * 10);
  char buf[48];
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      std::snprintf(buf, sizeof buf, "%g", values[r * cols + c]);
      out += buf;
      out += (c + 1 < cols) ? ',' : '\n';
    }
  }
  return out;
}

/// Value of `key` in an HTTP query string ("a=1&b=2"), or "" when absent.
/// No percent-decoding: served-model names are plain identifiers.
std::string query_param(const std::string& query, const std::string& key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string kv = query.substr(pos, amp - pos);
    pos = amp + 1;
    const std::size_t eq = kv.find('=');
    if (kv.substr(0, eq) == key) {
      return eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
  }
  return "";
}

constexpr std::size_t kBinaryHeader = 2 * sizeof(std::uint32_t);

/// Binary layout: [u32 rows][u32 cols][rows*cols f32], all little-endian.
void parse_binary(const std::vector<std::uint8_t>& body,
                  std::vector<float>* values, std::int64_t* rows) {
  if (body.size() < kBinaryHeader) {
    throw std::invalid_argument("binary body shorter than its 8-byte header");
  }
  std::uint32_t r = 0, c = 0;
  std::memcpy(&r, body.data(), sizeof r);
  std::memcpy(&c, body.data() + sizeof r, sizeof c);
  // Derive the element count from the body size instead of multiplying the
  // header dims up: r*c*4 can wrap size_t for hostile headers, which would
  // pass the equality check and then attempt an absurd allocation.
  const std::size_t payload = body.size() - kBinaryHeader;
  const std::uint64_t claimed =
      static_cast<std::uint64_t>(r) * c;  // u32*u32 cannot wrap u64
  if (r == 0 || c == 0 || payload % sizeof(float) != 0 ||
      claimed != payload / sizeof(float)) {
    throw std::invalid_argument(
        "binary body size mismatch: header says " + std::to_string(r) + "x" +
        std::to_string(c) + ", body is " + std::to_string(body.size()) +
        " bytes");
  }
  values->resize(static_cast<std::size_t>(claimed));
  std::memcpy(values->data(), body.data() + kBinaryHeader,
              values->size() * sizeof(float));
  *rows = r;
}

std::vector<std::uint8_t> format_binary(const std::vector<float>& values,
                                        std::int64_t rows, std::int64_t cols) {
  std::vector<std::uint8_t> out(kBinaryHeader +
                                values.size() * sizeof(float));
  const std::uint32_t r = static_cast<std::uint32_t>(rows);
  const std::uint32_t c = static_cast<std::uint32_t>(cols);
  std::memcpy(out.data(), &r, sizeof r);
  std::memcpy(out.data() + sizeof r, &c, sizeof c);
  std::memcpy(out.data() + kBinaryHeader, values.data(),
              values.size() * sizeof(float));
  return out;
}

/// `decode_ms` is the model's "decode" stage total: the time its cache
/// misses spent decoding, cumulative per serving name.
void append_cache_json(std::ostringstream& os, const serve::CacheStats& s,
                       double decode_ms) {
  os << "{\"hits\":" << s.hits << ",\"misses\":" << s.misses
     << ",\"coalesced\":" << s.coalesced << ",\"evictions\":" << s.evictions
     << ",\"resident_bytes\":" << s.cached_bytes
     << ",\"resident_layers\":" << s.cached_layers
     << ",\"resident_bytes_by_form\":{";
  for (int f = 0; f < serve::kNumServingForms; ++f) {
    if (f) os << ",";
    os << "\"" << serve::serving_form_name(static_cast<serve::ServingForm>(f))
       << "\":" << s.form_bytes[static_cast<std::size_t>(f)];
  }
  os << "},\"decode_ms\":" << decode_ms << "}";
}

std::string compiler_label() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

void append_model_json(std::ostringstream& os, const ServedModel& m) {
  os << "{\"name\":\"" << json_escaped(m.name) << "\",\"version\":"
     << m.version << ",\"layers\":" << m.store->reader().num_layers()
     << ",\"in_features\":" << m.in_features
     << ",\"out_features\":" << m.out_features
     << ",\"container_bytes\":" << m.container_bytes
     << ",\"shipped_bytes\":" << m.shipped_bytes << ",\"base\":\""
     << json_escaped(m.base_ref) << "\",\"source_path\":\""
     << json_escaped(m.source_path) << "\",\"cache\":";
  append_cache_json(os, m.store->stats(),
                    obs::Tracer::stage_total_ms("decode", m.name));
  os << "}";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      repo_(options.cache_budget_bytes),
      scheduler_(repo_, options.scheduler, &metrics_) {}

Server::~Server() { stop(); }

HttpHandler Server::handler() {
  return [this](const HttpRequest& req) { return handle(req); };
}

void Server::start_http() {
  if (http_) throw std::logic_error("HTTP front end already started");
  http_ = std::make_unique<HttpFrontEnd>(handler(), options_.http);
  http_->start();
}

void Server::stop() {
  if (http_) {
    http_->stop();
    http_.reset();
  }
  scheduler_.shutdown();
}

HttpResponse Server::handle(const HttpRequest& req) {
  // Routes match on the path alone; the query string (today only
  // /v1/trace?last_ms=N uses one) is split off here.
  std::string t = req.target;
  std::string query;
  if (const std::size_t q = t.find('?'); q != std::string::npos) {
    query = t.substr(q + 1);
    t.resize(q);
  }
  if (t == "/healthz") {
    if (req.method != "GET") return HttpResponse::text(405, "GET only\n");
    return HttpResponse::text(200, "ok\n");
  }
  if (t == "/metrics") {
    if (req.method != "GET") return HttpResponse::text(405, "GET only\n");
    return HttpResponse::text(200, metrics_text(),
                              "text/plain; version=0.0.4");
  }
  if (t == "/v1/trace") {
    if (req.method != "GET") return HttpResponse::text(405, "GET only\n");
    return handle_trace(query);
  }
  if (t == "/v1/models") {
    if (req.method != "GET") return HttpResponse::text(405, "GET only\n");
    return HttpResponse::text(200, models_json(), "application/json");
  }

  const std::string prefix = "/v1/models/";
  if (t.compare(0, prefix.size(), prefix) == 0) {
    std::string rest = t.substr(prefix.size());
    const std::size_t colon = rest.rfind(':');
    std::string action;
    if (colon != std::string::npos) {
      action = rest.substr(colon + 1);
      rest = rest.substr(0, colon);
    }
    if (rest.empty() || rest.find('/') != std::string::npos) {
      return HttpResponse::text(404, "no such route\n");
    }
    if (action.empty()) {
      if (req.method != "GET") return HttpResponse::text(405, "GET only\n");
      auto model = repo_.get(rest);
      if (!model) {
        return HttpResponse::text(404, "no model \"" + rest + "\"\n");
      }
      std::ostringstream os;
      append_model_json(os, *model);
      return HttpResponse::text(200, os.str() + "\n", "application/json");
    }
    if (action == "infer") {
      if (req.method != "POST") return HttpResponse::text(405, "POST only\n");
      return handle_infer(rest, req);
    }
    if (action == "load" || action == "reload" || action == "unload") {
      if (req.method != "POST") return HttpResponse::text(405, "POST only\n");
      return handle_model_action(rest, action, query, req);
    }
    return HttpResponse::text(404, "unknown action \"" + action + "\"\n");
  }
  return HttpResponse::text(404, "no such route\n");
}

/// GET /v1/trace[?last_ms=N]: the tracing ring buffers as Chrome trace-event
/// JSON (loadable in Perfetto). last_ms limits the window.
HttpResponse Server::handle_trace(const std::string& query) const {
  std::uint64_t last_ns = 0;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string kv = query.substr(pos, amp - pos);
    pos = amp + 1;
    const std::size_t eq = kv.find('=');
    const std::string key = kv.substr(0, eq);
    if (key != "last_ms") continue;  // unknown params are ignored
    const std::string val = eq == std::string::npos ? "" : kv.substr(eq + 1);
    char* end = nullptr;
    const double ms = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || !(ms > 0.0)) {
      return HttpResponse::text(400, "bad last_ms\n");
    }
    last_ns = static_cast<std::uint64_t>(ms * 1e6);
  }
  return HttpResponse::text(200,
                            obs::to_chrome_json(obs::Tracer::snapshot(last_ns)),
                            "application/json");
}

HttpResponse Server::handle_infer(const std::string& name,
                                  const HttpRequest& req) {
  const std::string* ct = req.header("content-type");
  const bool binary =
      ct != nullptr && ct->find("octet-stream") != std::string::npos;

  InferRequest infer_req;
  try {
    obs::TraceSpan parse_span("http_parse", "http");
    parse_span.set_detail(name);
    parse_span.set_phase(binary ? "binary" : "csv");
    if (binary) {
      parse_binary(req.body, &infer_req.input, &infer_req.rows);
    } else {
      parse_csv(req.body_text(), &infer_req.input, &infer_req.rows);
    }
  } catch (const std::invalid_argument& e) {
    return HttpResponse::text(400, std::string(e.what()) + "\n");
  }

  if (const std::string* d = req.header("x-deepsz-deadline-ms")) {
    char* end = nullptr;
    const double ms = std::strtod(d->c_str(), &end);
    if (end == d->c_str() || *end != '\0' || !(ms > 0.0)) {
      return HttpResponse::text(400, "bad x-deepsz-deadline-ms\n");
    }
    // deepsz-lint: allow(clock-outside-obs) the request's deadline
    infer_req.deadline = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(
                             static_cast<std::int64_t>(ms * 1000.0));
  }

  InferResult result = scheduler_.infer(name, std::move(infer_req));
  if (!result.ok()) {
    return HttpResponse::text(http_status_for(result.status),
                              std::string(status_name(result.status)) + ": " +
                                  result.error + "\n");
  }
  obs::TraceSpan serialize_span("serialize", "http");
  serialize_span.set_detail(name);
  serialize_span.set_phase(binary ? "binary" : "csv");
  if (binary) {
    return HttpResponse::bytes(
        200, format_binary(result.output, result.rows, result.cols));
  }
  return HttpResponse::text(200,
                            format_csv(result.output, result.rows, result.cols),
                            "text/csv");
}

HttpResponse Server::handle_model_action(const std::string& name,
                                         const std::string& action,
                                         const std::string& query,
                                         const HttpRequest& req) {
  try {
    if (action == "load") {
      if (req.body.empty()) {
        return HttpResponse::text(400, "load needs a container body\n");
      }
      auto model =
          repo_.load(name, req.body, "", query_param(query, "base"));
      std::string note;
      if (!model->base_ref.empty()) {
        note = " (delta against \"" + model->base_ref + "\")";
      }
      return HttpResponse::text(200, "loaded \"" + name + "\" version " +
                                         std::to_string(model->version) +
                                         note + "\n");
    }
    if (action == "reload") {
      auto model = repo_.reload(name);
      return HttpResponse::text(200, "reloaded \"" + name + "\" version " +
                                         std::to_string(model->version) +
                                         "\n");
    }
    // unload
    if (!repo_.unload(name)) {
      return HttpResponse::text(404, "no model \"" + name + "\"\n");
    }
    // Drop the model's queue + workers too; queued requests drain (they
    // complete kNotFound against the now-empty repository entry).
    scheduler_.forget(name);
    return HttpResponse::text(200, "unloaded \"" + name + "\"\n");
  } catch (const std::out_of_range& e) {
    return HttpResponse::text(404, std::string(e.what()) + "\n");
  } catch (const std::invalid_argument& e) {
    return HttpResponse::text(400, std::string(e.what()) + "\n");
  } catch (const std::logic_error& e) {
    return HttpResponse::text(409, std::string(e.what()) + "\n");
  } catch (const std::exception& e) {
    // Corrupt container on load/reload: the previous version keeps serving.
    return HttpResponse::text(400, std::string(e.what()) + "\n");
  }
}

std::string Server::models_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& model : repo_.list()) {
    if (!first) os << ",";
    first = false;
    append_model_json(os, *model);
  }
  os << "]\n";
  return os.str();
}

std::string Server::metrics_text() const {
  const auto s = metrics_.snapshot();
  // Every serving timing comes from the process-wide stage histograms,
  // merged across models.
  const auto stages = obs::Tracer::stage_snapshot();
  auto stage_hist = [&](std::string_view stage) {
    util::Histogram h = obs::stage_buckets();
    for (const auto& st : stages) {
      if (st.stage == stage) h.merge(st.hist);
    }
    return h;
  };
  const util::Histogram forward = stage_hist("forward");
  std::ostringstream os;
  // Prometheus exposition groups every sample of a family after ONE
  // HELP/TYPE pair, so per-model families iterate models inside the family,
  // not the other way round.
  auto family = [&](const char* name, const char* type, const char* help) {
    os << "# HELP deepsz_" << name << " " << help << "\n";
    os << "# TYPE deepsz_" << name << " " << type << "\n";
  };
  auto counter = [&](const char* name, std::uint64_t v,
                     const char* labels = nullptr) {
    os << "deepsz_" << name;
    if (labels) os << "{" << labels << "}";
    os << " " << v << "\n";
  };
  auto quantiles = [&](const char* name, const util::Histogram& h,
                       const std::string& labels = "") {
    for (double q : {0.5, 0.95, 0.99}) {
      os << "deepsz_" << name << "{" << labels
         << (labels.empty() ? "" : ",") << "quantile=\"" << q << "\"} "
         << h.quantile(q) << "\n";
    }
  };

  family("requests_total", "counter", "Terminal request outcomes by status.");
  counter("requests_total", s.ok, "status=\"ok\"");
  counter("requests_total", s.not_found, "status=\"not_found\"");
  counter("requests_total", s.invalid_input, "status=\"invalid_input\"");
  counter("requests_total", s.shed, "status=\"overloaded\"");
  counter("requests_total", s.deadline_expired, "status=\"deadline_exceeded\"");
  counter("requests_total", s.shutting_down, "status=\"shutting_down\"");
  counter("requests_total", s.errors, "status=\"internal_error\"");
  family("batches_total", "counter", "Batched forward passes executed.");
  counter("batches_total", s.batches);
  family("batched_rows_total", "counter", "Rows across executed batches.");
  counter("batched_rows_total", s.batched_rows);
  family("queue_depth", "gauge", "Requests queued across all models.");
  os << "deepsz_queue_depth " << s.queue_depth << "\n";
  family("mean_batch_rows", "gauge", "Mean rows per executed batch.");
  os << "deepsz_mean_batch_rows " << s.mean_batch_rows() << "\n";
  family("forward_ms_total", "counter", "Cumulative batched forward time.");
  os << "deepsz_forward_ms_total " << forward.sum() << "\n";
  family("request_latency_ms", "gauge",
         "Admission-to-completion latency quantiles, served requests only.");
  quantiles("request_latency_ms", stage_hist("request"));
  family("batch_rows", "gauge", "Rows-per-batch quantiles.");
  quantiles("batch_rows", s.batch_rows_hist);
  // The queue-wait-vs-execute split: where does a served request's latency
  // go, and how long did shed/expired requests wait before rejection.
  family("queue_wait_ms", "gauge",
         "Admission-to-batch queue wait quantiles by outcome.");
  quantiles("queue_wait_ms", stage_hist("queue"), "outcome=\"ok\"");
  quantiles("queue_wait_ms", stage_hist("queue_rejected"),
            "outcome=\"rejected\"");
  family("execute_ms", "gauge", "Forward-pass time quantiles per batch.");
  quantiles("execute_ms", forward);

  family("stage_ms", "gauge",
         "Per-stage latency quantiles from trace spans, by stage and model.");
  for (const auto& st : stages) {
    quantiles("stage_ms", st.hist,
              "stage=\"" + json_escaped(st.stage) + "\",model=\"" +
                  json_escaped(st.model) + "\"");
  }
  family("stage_ms_count", "counter",
         "Trace span observations per stage and model.");
  for (const auto& st : stages) {
    os << "deepsz_stage_ms_count{stage=\"" << json_escaped(st.stage)
       << "\",model=\"" << json_escaped(st.model) << "\"} " << st.hist.count()
       << "\n";
  }
  family("trace_enabled", "gauge", "1 when span recording is on.");
  os << "deepsz_trace_enabled " << (obs::Tracer::enabled() ? 1 : 0) << "\n";
  family("trace_dropped_spans_total", "counter",
         "Spans overwritten in the ring buffers before export.");
  os << "deepsz_trace_dropped_spans_total " << obs::Tracer::dropped_total()
     << "\n";

  const auto& budget = repo_.budget();
  family("cache_budget_bytes", "gauge", "Shared decoded-layer cache budget.");
  os << "deepsz_cache_budget_bytes " << budget->budget_bytes() << "\n";
  family("cache_used_bytes", "gauge", "Decoded-layer bytes resident.");
  os << "deepsz_cache_used_bytes " << budget->used_bytes() << "\n";
  family("cache_cross_model_evictions", "counter",
         "Layers evicted under cross-model pressure.");
  os << "deepsz_cache_cross_model_evictions " << budget->evictions() << "\n";
  family("models_loaded", "gauge", "Models currently loaded.");
  os << "deepsz_models_loaded " << repo_.size() << "\n";
  family("swap_bytes_shipped", "counter",
         "Container bytes shipped across every load; a warm delta swap "
         "counts only the delta.");
  os << "deepsz_swap_bytes_shipped " << repo_.bytes_shipped() << "\n";

  family("build_info", "gauge",
         "Constant 1; build metadata in the labels.");
  os << "deepsz_build_info{version=\"" << DEEPSZ_VERSION << "\",compiler=\""
     << compiler_label() << "\",avx2=\""
     << (util::have_avx2_fma() ? "true" : "false") << "\"} 1\n";
  family("uptime_seconds", "gauge", "Seconds since process start.");
  os << "deepsz_uptime_seconds " << static_cast<double>(obs::now_ns()) / 1e9
     << "\n";

  const auto models = repo_.list();
  auto model_family = [&](const char* name, const char* type,
                          const char* help, auto value_of) {
    os << "# HELP deepsz_model_" << name << " " << help << "\n";
    os << "# TYPE deepsz_model_" << name << " " << type << "\n";
    for (const auto& model : models) {
      os << "deepsz_model_" << name << "{model=\""
         << json_escaped(model->name) << "\"} " << value_of(*model) << "\n";
    }
  };
  using M = const ServedModel&;
  model_family("version", "gauge", "Loaded model version.",
               [](M m) { return m.version; });
  model_family("cache_hits", "counter", "Layer-cache hits.",
               [](M m) { return m.store->stats().hits; });
  model_family("cache_misses", "counter", "Layer-cache misses (decodes).",
               [](M m) { return m.store->stats().misses; });
  model_family("cache_coalesced", "counter",
               "Decodes avoided by joining one in flight.",
               [](M m) { return m.store->stats().coalesced; });
  model_family("cache_evictions", "counter", "Layers evicted.",
               [](M m) { return m.store->stats().evictions; });
  model_family("cache_resident_bytes", "gauge", "Decoded bytes resident.",
               [](M m) { return m.store->stats().cached_bytes; });
  model_family("cache_resident_layers", "gauge", "Decoded layers resident.",
               [](M m) { return m.store->stats().cached_layers; });
  os << "# HELP deepsz_model_cache_resident_bytes_form Resident bytes by "
        "serving form.\n";
  os << "# TYPE deepsz_model_cache_resident_bytes_form gauge\n";
  for (const auto& model : models) {
    const auto cs = model->store->stats();
    for (int f = 0; f < serve::kNumServingForms; ++f) {
      os << "deepsz_model_cache_resident_bytes_form{model=\""
         << json_escaped(model->name) << "\",form=\""
         << serve::serving_form_name(static_cast<serve::ServingForm>(f))
         << "\"} " << cs.form_bytes[static_cast<std::size_t>(f)] << "\n";
    }
  }
  model_family("queue_depth", "gauge", "Requests queued for this model.",
               [&](M m) { return scheduler_.queue_depth(m.name); });
  model_family("cache_hit_rate", "gauge", "Layer-cache hit rate.",
               [](M m) { return m.store->stats().hit_rate(); });
  return os.str();
}

}  // namespace deepsz::server
