#include "core/pipeline.h"

#include <stdexcept>

#include "core/model_codec.h"
#include "core/pruner.h"
#include "serve/serving_form.h"
#include "util/log.h"

namespace deepsz::core {

void load_compressed_model(std::span<const std::uint8_t> bytes,
                           nn::Network& net) {
  DecodedModel decoded = decode_model(bytes);
  // Directory-only parse (no stream decode) for per-layer codec specs: the
  // bias-mismatch policy below depends on the layer's serving form.
  ContainerReader reader(bytes);
  // A serving session may have left bound (externally owned) weights on any
  // fc-layer — including ones this container does not cover — which would
  // shadow the layer's own weights in forward(). Loading a model puts the
  // whole network back on its own storage.
  for (auto* d : net.dense_layers()) d->unbind_weights();
  load_layers_into_network(decoded.layers, net);
  for (const auto& [name, bias] : decoded.biases) {
    auto* d = net.find_dense(name);
    if (d == nullptr) continue;
    if (static_cast<std::int64_t>(bias.size()) == d->bias().numel()) {
      std::copy(bias.begin(), bias.end(), d->bias().data());
    } else if (reader.contains(name) &&
               serve::native_form_for_codec_spec(
                   reader.entry(name).data.codec) ==
                   serve::ServingForm::kCodebookCsr) {
      // A codebook-form container is served compressed-domain with the bias
      // bound straight into the forward kernel — there is no "keep the
      // layer's own bias" fallback there, so a mismatch that would be
      // silently masked here would fail only at serving time. Refuse it now.
      throw std::runtime_error(
          "load_compressed_model: bias for codebook layer \"" + name +
          "\" has " + std::to_string(bias.size()) + " element(s), layer "
          "expects " + std::to_string(d->bias().numel()));
    } else {
      // A mismatched bias cannot be applied, but skipping it silently hides
      // a malformed (or wrong-architecture) container from the operator.
      DSZ_LOG_WARN << "load_compressed_model: bias for layer \"" << name
                   << "\" has " << bias.size() << " element(s), layer expects "
                   << d->bias().numel() << " — keeping the layer's own bias";
    }
  }
}

}  // namespace deepsz::core
