#include "compress/session.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "obs/trace.h"
#include "util/log.h"

namespace deepsz::compress {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kPrune: return "prune";
    case Stage::kAssess: return "assess";
    case Stage::kOptimize: return "optimize";
    case Stage::kEncode: return "encode";
  }
  return "?";
}

CompressionSession::CompressionSession(
    std::shared_ptr<ModelCompressor> strategy, nn::Network& net,
    const nn::Tensor& train_images, const std::vector<int>& train_labels,
    const nn::Tensor& test_images, const std::vector<int>& test_labels,
    CompressSpec spec)
    : strategy_(std::move(strategy)) {
  if (!strategy_) {
    throw std::invalid_argument("CompressionSession: null strategy");
  }
  info_ = strategy_->info();
  state_.net = &net;
  state_.train_images = &train_images;
  state_.train_labels = &train_labels;
  state_.test_images = &test_images;
  state_.test_labels = &test_labels;
  state_.spec = std::move(spec);
  strategy_->configure(state_.spec);
  for (int i = 0; i < kNumStages; ++i) {
    reports_[i].stage = static_cast<Stage>(i);
  }
}

StageReport& CompressionSession::mutable_report(Stage stage) {
  return reports_[static_cast<int>(stage)];
}

bool CompressionSession::stage_done(Stage stage) const {
  return reports_[static_cast<int>(stage)].done;
}

const StageReport& CompressionSession::stage_report(Stage stage) const {
  return reports_[static_cast<int>(stage)];
}

void CompressionSession::require_done(Stage stage, const char* by) const {
  if (!stage_done(stage)) {
    throw std::logic_error(std::string("CompressionSession: ") + by +
                           " requires the " + stage_name(stage) +
                           " stage to have run");
  }
}

void CompressionSession::checkpoint() {
  if (cancel_.load(std::memory_order_relaxed)) throw Cancelled();
}

void CompressionSession::prepare_state_hooks(Stage stage) {
  state_.checkpoint = [this] { checkpoint(); };
  state_.progress = [this](Stage s, const std::string& msg) {
    if (progress_) progress_(s, msg);
  };
  if (progress_) progress_(stage, std::string(stage_name(stage)) + ": start");
}

void CompressionSession::begin_stage(Stage stage, obs::TraceSpan& span) {
  span.set_detail(info_.name);
  span.set_stage(info_.name);
  checkpoint();
  prepare_state_hooks(stage);
}

void CompressionSession::finish_stage(Stage stage, bool skipped,
                                      obs::TraceSpan& span,
                                      std::string detail) {
  span.set_phase(skipped ? "skipped" : "done");
  auto& r = mutable_report(stage);
  r.done = true;
  r.skipped = skipped;
  ++r.runs;
  r.seconds = span.close() / 1e3;
  r.detail = std::move(detail);
  if (progress_) {
    progress_(stage, std::string(stage_name(stage)) + ": " +
                         (skipped ? "skipped" : "done") +
                         (r.detail.empty() ? "" : " — " + r.detail));
  }
}

void CompressionSession::restore_pruned_weights() {
  if (!state_.layers.empty()) {
    core::load_layers_into_network(state_.layers, *state_.net);
  }
}

void CompressionSession::invalidate_from(Stage stage) {
  for (int i = static_cast<int>(stage); i < kNumStages; ++i) {
    reports_[i].done = false;
    reports_[i].skipped = false;
  }
}

void CompressionSession::run_prune() {
  obs::TraceSpan span(stage_name(Stage::kPrune), "compress");
  begin_stage(Stage::kPrune, span);
  auto& s = state_;
  s.acc_original = nn::evaluate(*s.net, *s.test_images, *s.test_labels);
  s.prune = core::prune_and_retrain(*s.net, *s.train_images, *s.train_labels,
                                    s.spec.prune);
  s.layers = core::extract_pruned_layers(*s.net);
  if (s.layers.empty()) {
    throw std::invalid_argument(
        "CompressionSession: no fc-layers pruned — set prune.keep_ratio for "
        "at least one named Dense layer");
  }
  s.dense_fc_bytes = s.csr_bytes = 0;
  for (const auto& l : s.layers) {
    s.dense_fc_bytes += l.dense_bytes();
    s.csr_bytes += l.csr_bytes();
  }
  // The oracle's one trunk pass is the pruned network's; its head replay is
  // bit-identical to nn::evaluate (a row's logits do not depend on batching).
  s.oracle = std::make_shared<core::CachedHeadOracle>(
      *s.net, *s.test_images, *s.test_labels);
  s.acc_pruned = s.oracle->accuracy();
  s.baseline_top1 = s.acc_pruned.top1;
  invalidate_from(Stage::kAssess);

  std::ostringstream detail;
  detail << s.layers.size() << " fc-layer(s), top-1 " << s.acc_original.top1
         << " -> " << s.acc_pruned.top1;
  finish_stage(Stage::kPrune, false, span, detail.str());
}

void CompressionSession::adopt_pruned() {
  adopt_pruned(nullptr, {});
}

void CompressionSession::adopt_pruned(
    std::shared_ptr<core::CachedHeadOracle> oracle,
    const nn::Accuracy& acc_pruned) {
  obs::TraceSpan span(stage_name(Stage::kPrune), "compress");
  begin_stage(Stage::kPrune, span);
  auto& s = state_;
  s.layers = core::extract_pruned_layers(*s.net);
  if (s.layers.empty()) {
    throw std::invalid_argument(
        "CompressionSession: adopt_pruned on a network with no masked "
        "fc-layers");
  }
  s.prune = {};
  s.dense_fc_bytes = s.csr_bytes = 0;
  for (const auto& l : s.layers) {
    s.dense_fc_bytes += l.dense_bytes();
    s.csr_bytes += l.csr_bytes();
  }
  const bool shared = oracle != nullptr;
  s.oracle = shared ? std::move(oracle)
                    : std::make_shared<core::CachedHeadOracle>(
                          *s.net, *s.test_images, *s.test_labels);
  s.acc_original = s.acc_pruned = shared ? acc_pruned : s.oracle->accuracy();
  s.baseline_top1 = s.oracle->top1();
  invalidate_from(Stage::kAssess);

  std::ostringstream detail;
  detail << "adopted " << s.layers.size() << " pre-pruned fc-layer(s)";
  finish_stage(Stage::kPrune, false, span, detail.str());
}

void CompressionSession::run_assess() {
  require_done(Stage::kPrune, "assess");
  obs::TraceSpan span(stage_name(Stage::kAssess), "compress");
  begin_stage(Stage::kAssess, span);
  restore_pruned_weights();  // Encode may have left decoded weights behind
  bool ran = false;
  try {
    ran = strategy_->assess(state_);
  } catch (...) {
    // A cancelled (or failed) assessment leaves some layer reconstructed in
    // the network; put the pruned weights back so the session stays usable.
    restore_pruned_weights();
    state_.assessments.clear();
    throw;
  }
  invalidate_from(Stage::kOptimize);

  std::ostringstream detail;
  if (ran) {
    std::size_t points = 0;
    for (const auto& a : state_.assessments) points += a.points.size();
    detail << state_.assessments.size() << " layer(s), " << points
           << " tested bound(s)";
  } else {
    detail << "no tunable error bound";
  }
  finish_stage(Stage::kAssess, !ran, span, detail.str());
}

void CompressionSession::run_optimize() {
  require_done(Stage::kAssess, "optimize");
  obs::TraceSpan span(stage_name(Stage::kOptimize), "compress");
  begin_stage(Stage::kOptimize, span);
  restore_pruned_weights();
  bool ran = false;
  try {
    ran = strategy_->optimize(state_);
  } catch (...) {
    restore_pruned_weights();
    state_.chosen = {};
    throw;
  }
  restore_pruned_weights();  // joint validation perturbs the network
  invalidate_from(Stage::kEncode);

  std::ostringstream detail;
  if (ran) {
    detail << state_.chosen.choices.size() << " choice(s), "
           << state_.chosen.total_bytes << " data bytes, expected drop "
           << state_.chosen.expected_total_drop;
  } else {
    detail << "nothing to optimize";
  }
  finish_stage(Stage::kOptimize, !ran, span, detail.str());
}

void CompressionSession::run_encode() {
  require_done(Stage::kOptimize, "encode");
  obs::TraceSpan span(stage_name(Stage::kEncode), "compress");
  begin_stage(Stage::kEncode, span);
  restore_pruned_weights();
  state_.model = strategy_->encode(state_);
  // Only the container generation counts as encode time (the paper's
  // Figure-7a definition); the decode + accuracy measurement below is
  // bookkeeping for the tables.
  span.set_phase("done");
  span.close();

  // Decode + reload, and measure the decoded accuracy the tables report.
  // Decode rewrites only fc layers, so the oracle's cached trunk still holds.
  auto& s = state_;
  core::load_compressed_model(s.model.bytes, *s.net);
  s.acc_decoded = s.oracle->accuracy();
  DSZ_LOG_INFO << info_.name << ": ratio " << s.model.compression_ratio()
               << "x, top-1 " << s.acc_original.top1 << " -> "
               << s.acc_decoded.top1;

  std::ostringstream detail;
  detail << s.model.compressed_payload_bytes() << " bytes, ratio "
         << s.model.compression_ratio() << "x, decoded top-1 "
         << s.acc_decoded.top1;
  finish_stage(Stage::kEncode, false, span, detail.str());
}

CompressReport CompressionSession::run() {
  if (!stage_done(Stage::kPrune)) run_prune();
  if (!stage_done(Stage::kAssess)) run_assess();
  if (!stage_done(Stage::kOptimize)) run_optimize();
  if (!stage_done(Stage::kEncode)) run_encode();
  return report();
}

void CompressionSession::set_expected_acc_loss(double expected_acc_loss) {
  state_.spec.expected_acc_loss = expected_acc_loss;
  state_.spec.target_ratio.reset();
  invalidate_from(Stage::kOptimize);
}

void CompressionSession::set_target_ratio(std::optional<double> target_ratio) {
  state_.spec.target_ratio = target_ratio;
  invalidate_from(Stage::kOptimize);
}

CompressReport CompressionSession::report() const {
  if (!stage_done(Stage::kEncode)) {
    throw std::logic_error(
        "CompressionSession: report() before the encode stage ran");
  }
  CompressReport r;
  r.strategy = info_.name;
  r.acc_original = state_.acc_original;
  r.acc_pruned = state_.acc_pruned;
  r.acc_decoded = state_.acc_decoded;
  r.prune = state_.prune;
  r.assessments = state_.assessments;
  r.chosen = state_.chosen;
  r.model = state_.model;
  r.dense_fc_bytes = state_.dense_fc_bytes;
  r.csr_bytes = state_.csr_bytes;
  r.compression_ratio = state_.model.compression_ratio();
  r.stages = reports_;
  // Encode seconds in the paper's Figure-7a sense: everything after pruning.
  for (Stage s : {Stage::kAssess, Stage::kOptimize, Stage::kEncode}) {
    r.encode_seconds += reports_[static_cast<int>(s)].seconds;
  }
  return r;
}

}  // namespace deepsz::compress
