// Sequential network container with binary save/load.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace deepsz::nn {

/// A feed-forward stack of layers (all four paper networks are sequential).
class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const std::string& name() const { return name_; }

  /// Appends a layer; returns a typed pointer for further configuration.
  template <typename L, typename... Args>
  L* add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* ptr = layer.get();
    layers_.push_back(std::move(layer));
    return ptr;
  }

  /// Appends a pre-built layer.
  Layer* add_layer(std::unique_ptr<Layer> layer);

  /// Runs the full forward pass.
  Tensor forward(const Tensor& x, bool train = false);

  /// Fills every layer's grads(); must follow forward(x, true). Stops at the
  /// first layer with parameters and skips its input gradient, which
  /// nothing reads.
  void backward(const Tensor& dloss);

  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }

  /// All fully connected layers in forward order — the layers DeepSZ
  /// compresses.
  std::vector<Dense*> dense_layers();

  /// Finds a Dense layer by instance name; nullptr if absent.
  Dense* find_dense(const std::string& name);

  /// All learnable parameters / gradients across layers.
  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();

  /// Total learnable parameter count.
  std::int64_t param_count();

  /// Serializes all parameters (architecture is NOT stored; load requires an
  /// identically built network).
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace deepsz::nn
