// Batched inference over a ModelStore-backed network.
//
// The session walks the network layer by layer and, the first time a Dense
// layer is reached whose name appears in the container, fetches it from the
// store's layer-decode cache and binds the cached dense weights + bias into
// the layer (Dense::bind_weights — no copy). First-request latency therefore
// pays codec work only for the layers the forward pass actually reaches,
// interleaved with the compute of the layers before them; once every served
// layer is installed, steady-state requests do zero codec work.
//
// A session is single-threaded (it mutates its network); concurrency comes
// from running one session per worker thread over one shared ModelStore —
// the cache coalesces duplicate decodes, so N cold sessions still decode
// each layer exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/network.h"
#include "serve/model_store.h"

namespace deepsz::serve {

/// Per-session counters.
struct SessionStats {
  std::uint64_t layer_installs = 0;  // store fetches + weight binds
};

class InferenceSession {
 public:
  /// `net` supplies the architecture (and the weights of any layer the
  /// container does not cover, e.g. conv trunks). Both `store` and `net`
  /// must outlive the session; the destructor unbinds every weight it bound.
  InferenceSession(ModelStore& store, nn::Network& net);
  ~InferenceSession();

  /// Opts this session into the sparse batched forward (see infer()). Off
  /// by default so direct sessions stay bit-exact with an eagerly decoded
  /// network; the serving scheduler turns it on for its worker sessions.
  void enable_sparse_forward(bool on) { sparse_enabled_ = on; }
  bool sparse_forward_enabled() const { return sparse_enabled_; }

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Serves one batched forward pass ([batch, features] in, logits out).
  ///
  /// With enable_sparse_forward(true), when the network is a pure
  /// Dense/ReLU chain fully covered by the container and the batch is large
  /// enough (sparse_forward_profitable), the pass runs through
  /// serve::sparse_fc_forward on the layers' CSR views — only surviving
  /// (non-pruned) weights are touched, so batched requests cost ~density x
  /// the dense FLOPs. Small batches, networks with non-fc layers, and
  /// sessions that never opted in take the generic bound-weights walk. The
  /// two paths agree to fp tolerance, not bit-exactly (different summation
  /// order).
  ///
  /// Layers a native-form store serves as ServingForm::kCodebookCsr have no
  /// dense matrix at all, so they force the kernel path at every batch size
  /// (opt-in not required); reaching one from the generic walk — a network
  /// that is not a pure Dense/ReLU chain — throws std::runtime_error.
  nn::Tensor infer(const nn::Tensor& batch);

  /// Drops this session's weight bindings (and cache pins); the next
  /// request re-fetches from the store — e.g. after evict_all() in tests.
  void release_layers();

  SessionStats stats() const { return stats_; }

 private:
  void install_layer(std::size_t i, nn::Dense* dense);

  ModelStore& store_;
  nn::Network& net_;
  // Pins: cached layers this session has bound; positionally parallel to
  // net_.layers(). A pinned entry keeps the decoded memory alive even if
  // the store evicts it, so bound spans never dangle.
  std::vector<std::shared_ptr<const ServedLayer>> pinned_;
  // Net-layer indices of the Dense layers when the whole network is a
  // served Dense/ReLU chain (the sparse fast path); empty otherwise.
  std::vector<std::size_t> fc_chain_;
  bool sparse_enabled_ = false;
  SessionStats stats_;
};

/// Builds the sequential Dense+ReLU network implied by a container's
/// fc-stack: layer i becomes Dense(cols_i, rows_i) under the container
/// name, with ReLU between consecutive layers. Throws std::invalid_argument
/// when the stack does not chain (rows_i != cols_{i+1}) or is empty —
/// serve-bench and tests use this to serve a container stand-alone, without
/// the original training architecture.
nn::Network make_fc_network(const core::ContainerReader& reader,
                            const std::string& name = "served-fc");

}  // namespace deepsz::serve
