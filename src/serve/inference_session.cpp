#include "serve/inference_session.h"

#include <stdexcept>

#include "nn/layers.h"
#include "serve/sparse_forward.h"

namespace deepsz::serve {

InferenceSession::InferenceSession(ModelStore& store, nn::Network& net)
    : store_(store), net_(net), pinned_(net.num_layers()) {
  for (const auto& layer : net_.layers()) {
    auto* dense = dynamic_cast<nn::Dense*>(layer.get());
    if (dense != nullptr && store_.reader().contains(dense->name())) {
      const auto& entry = store_.reader().entry(dense->name());
      if (entry.rows != dense->out_features() ||
          entry.cols != dense->in_features()) {
        throw std::invalid_argument(
            "InferenceSession: container layer " + dense->name() +
            " does not match the network's " + dense->name() + " shape");
      }
    }
  }

  // Detect the sparse-fast-path shape: Dense (ReLU Dense)* with every Dense
  // served from the container. Anything else walks the generic path.
  const auto& layers = net_.layers();
  bool chain = !layers.empty();
  for (std::size_t i = 0; chain && i < layers.size(); ++i) {
    if (i % 2 == 0) {
      auto* dense = dynamic_cast<nn::Dense*>(layers[i].get());
      if (dense != nullptr && store_.reader().contains(dense->name())) {
        fc_chain_.push_back(i);
      } else {
        chain = false;
      }
    } else {
      chain = dynamic_cast<nn::ReLU*>(layers[i].get()) != nullptr;
    }
  }
  chain = chain && layers.size() % 2 == 1;  // must end on a Dense
  if (!chain) fc_chain_.clear();
}

InferenceSession::~InferenceSession() { release_layers(); }

void InferenceSession::release_layers() {
  const auto& layers = net_.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (!pinned_[i]) continue;
    if (auto* dense = dynamic_cast<nn::Dense*>(layers[i].get())) {
      dense->unbind_weights();
    }
    pinned_[i].reset();
  }
}

void InferenceSession::install_layer(std::size_t i, nn::Dense* dense) {
  // First time this request path reaches the layer: fetch the decoded
  // form (cache hit, coalesced wait, or an actual decode) and bind it.
  auto served = store_.get(dense->name());
  // A codebook-form layer has no dense matrix to bind; it is pinned only,
  // and every forward through it must take the sparse kernel path.
  if (served->form != ServingForm::kCodebookCsr) {
    dense->bind_weights(served->dense, served->bias);
  }
  pinned_[i] = std::move(served);
  ++stats_.layer_installs;
}

nn::Tensor InferenceSession::infer(const nn::Tensor& batch) {
  const auto& layers = net_.layers();

  const bool want_sparse = sparse_enabled_ && !fc_chain_.empty() &&
                           sparse_forward_profitable(batch.dim(0));
  // A native-form store may serve codebook layers, which only the kernel
  // path can run — their presence forces it at every batch size, so the
  // chain must be installed (forms discovered) even when the sparse path
  // would not otherwise be profitable.
  if (!fc_chain_.empty() &&
      (want_sparse || store_.options().native_form)) {
    std::vector<std::shared_ptr<const ServedLayer>> chain;
    chain.reserve(fc_chain_.size());
    bool csr_ok = true;
    bool any_codebook = false;
    for (std::size_t i : fc_chain_) {
      if (!pinned_[i]) {
        install_layer(i, static_cast<nn::Dense*>(layers[i].get()));
      }
      csr_ok = csr_ok && pinned_[i]->has_csr();
      any_codebook =
          any_codebook || pinned_[i]->form == ServingForm::kCodebookCsr;
      chain.push_back(pinned_[i]);
    }
    // A store built without build_csr serves dense-only layers; fall through
    // to the generic walk (the layers are installed and bound either way).
    if (csr_ok && (want_sparse || any_codebook)) {
      return sparse_fc_forward(chain, batch);
    }
  }

  nn::Tensor x = batch;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    auto* layer = layers[i].get();
    auto* dense = dynamic_cast<nn::Dense*>(layer);
    if (dense != nullptr && !pinned_[i] &&
        store_.reader().contains(dense->name())) {
      install_layer(i, dense);
    }
    if (dense != nullptr && pinned_[i] &&
        pinned_[i]->form == ServingForm::kCodebookCsr) {
      // No dense weights exist to bind; only the Dense/ReLU-chain kernel
      // path can serve this form.
      throw std::runtime_error(
          "InferenceSession: layer \"" + dense->name() +
          "\" is served in codebook form, which the generic layer walk "
          "cannot run; the network must be a pure Dense/ReLU chain");
    }
    x = layer->forward(x, /*train=*/false);
  }
  return x;
}

nn::Network make_fc_network(const core::ContainerReader& reader,
                            const std::string& name) {
  const auto& entries = reader.entries();
  if (entries.empty()) {
    throw std::invalid_argument("make_fc_network: container has no layers");
  }
  nn::Network net(name);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (i > 0 && entries[i - 1].rows != e.cols) {
      throw std::invalid_argument(
          "make_fc_network: " + entries[i - 1].name + " [" +
          std::to_string(entries[i - 1].rows) + " out] does not feed " +
          e.name + " [" + std::to_string(e.cols) + " in]");
    }
    net.add<nn::Dense>(e.cols, e.rows)->set_name(e.name);
    if (i + 1 < entries.size()) net.add<nn::ReLU>();
  }
  return net;
}

}  // namespace deepsz::serve
