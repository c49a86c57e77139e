// Layer interface for the Caffe-substitute DNN substrate.
//
// Only what DeepSZ exercises is implemented: forward passes for inference
// (accuracy oracles), and backward passes + SGD for the masked retraining
// that follows magnitude pruning. Layers cache whatever forward state their
// backward needs, so the call pattern is forward(x, train=true) -> backward(dy).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace deepsz::nn {

using tensor::Tensor;

/// Abstract network layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Layer type tag, e.g. "dense", "conv".
  virtual std::string kind() const = 0;

  /// Instance name, e.g. "fc6". Defaults to the kind.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Computes the layer output. `train` enables training-only behaviour
  /// (dropout) and state caching for backward.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Propagates the loss gradient; must follow a forward(x, true).
  virtual Tensor backward(const Tensor& dy) = 0;

  /// As backward(), but fills only grads(): the input gradient is not
  /// wanted. Network::backward calls this on its first parameterized layer,
  /// whose input gradient nothing reads. Layers that can skip computing it
  /// override this.
  virtual void backward_params(const Tensor& dy) { backward(dy); }

  /// Learnable parameter tensors (empty for stateless layers).
  virtual std::vector<Tensor*> params() { return {}; }

  /// Gradient tensors, parallel to params().
  virtual std::vector<Tensor*> grads() { return {}; }

 private:
  std::string name_;
};

}  // namespace deepsz::nn
