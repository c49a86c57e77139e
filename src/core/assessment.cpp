#include "core/assessment.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "codec/registry.h"
#include "core/model_codec.h"
#include "core/pruner.h"
#include "util/log.h"

namespace deepsz::core {
namespace {

/// Compresses the layer's data array at `eb` with the configured codec,
/// swaps the reconstruction into the network, and measures the accuracy
/// drop; restores nothing (callers restore once per layer).
EbPoint test_error_bound(nn::Network& net, const sparse::PrunedLayer& layer,
                         double eb, double baseline_top1,
                         AccuracyOracle& oracle,
                         const codec::FloatCodec& codec) {
  auto stream = codec.encode(layer.data, codec::FloatParams{eb});
  auto decoded = codec.decode(stream);

  load_layers_into_network({layer.with_data(std::move(decoded))}, net);

  EbPoint point;
  point.eb = eb;
  point.data_bytes = stream.size();
  point.acc_drop = baseline_top1 - oracle.top1();
  return point;
}

}  // namespace

std::vector<LayerAssessment> assess_error_bounds(
    nn::Network& net, const std::vector<sparse::PrunedLayer>& layers,
    AccuracyOracle& oracle, const AssessmentConfig& config) {
  // The spec carries config.sz's mode and chunk size, so the bounds tested
  // here are the bounds the container is later encoded with.
  auto codec = config.codec
                   ? config.codec
                   : codec::CodecRegistry::instance().make_float(
                         sz_codec_spec(config.sz));
  auto note_progress = [&](const EbPoint& p, const std::string& layer_name) {
    if (!config.progress) return;
    std::ostringstream os;
    os << layer_name << " eb=" << p.eb << " -> " << p.data_bytes
       << " bytes, drop " << p.acc_drop;
    config.progress(os.str());
  };
  const double baseline = oracle.top1();
  std::vector<LayerAssessment> results;
  results.reserve(layers.size());

  for (const auto& layer : layers) {
    LayerAssessment la;
    la.layer = layer.name;

    // Coarse decade sweep: find the first bound that distorts accuracy by
    // more than the criterion; the feasible range starts a decade below.
    double start = config.coarse_grid.back();
    for (double beta : config.coarse_grid) {
      if (beta > config.max_eb) {
        start = beta / 10.0;
        break;
      }
      if (config.checkpoint) config.checkpoint();
      EbPoint p = test_error_bound(net, layer, beta, baseline, oracle, *codec);
      note_progress(p, layer.name);
      if (p.acc_drop > config.distortion_criterion) {
        start = beta / 10.0;
        break;
      }
    }
    start = std::min(start, config.max_eb);
    la.feasible_lo = start;

    // Fine walk: eb = start, start+base, ... with base x10 at each decade,
    // until the degradation exceeds eps* (that terminating point is also
    // recorded — Algorithm 1 measures before checking).
    double base = start;
    double eb = start;
    for (int i = 0; i < config.max_points_per_layer && eb <= config.max_eb;
         ++i) {
      if (config.checkpoint) config.checkpoint();
      EbPoint p = test_error_bound(net, layer, eb, baseline, oracle, *codec);
      note_progress(p, layer.name);
      la.points.push_back(p);
      la.feasible_hi = eb;
      if (p.acc_drop > config.expected_acc_loss) break;
      eb += base;
      // Entering the next decade: grow the step (8e-3, 9e-3, 1e-2, 2e-2, ...).
      if (eb >= 10.0 * base - 1e-12 * base) base *= 10.0;
    }
    DSZ_LOG_INFO << "assessed " << layer.name << ": feasible ["
                 << la.feasible_lo << ", " << la.feasible_hi << "], "
                 << la.points.size() << " points";

    // Restore the layer's exact pruned weights before assessing the next one.
    load_layers_into_network({layer}, net);
    results.push_back(std::move(la));
  }
  return results;
}

}  // namespace deepsz::core
