// Concrete layers: Dense (fc), Conv2D, MaxPool2D, ReLU, Flatten, Dropout,
// LRN — the vocabulary of LeNet-300-100, LeNet-5, AlexNet and VGG-16.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "nn/layer.h"
#include "util/rng.h"

namespace deepsz::nn {

/// Fully connected layer: y = x W^T + b, W is [out, in] row-major.
/// Supports a pruning mask that freezes zeroed weights during retraining
/// (the paper's "retrain the network with masks" step).
class Dense : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features);

  std::string kind() const override { return "dense"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Tensor& weight() { return w_; }
  const Tensor& weight() const { return w_; }
  Tensor& bias() { return b_; }

  /// Installs a {0,1} mask over the weights; masked-out weights are zeroed
  /// now and their gradients suppressed in backward().
  void set_mask(std::vector<float> mask);
  void clear_mask() { mask_.reset(); }
  bool has_mask() const { return mask_.has_value(); }
  const std::vector<float>* mask() const {
    return mask_ ? &*mask_ : nullptr;
  }

  /// Binds externally owned weights (row-major [out, in]) and optionally a
  /// bias ([out]; empty keeps the layer's own bias). forward() reads the
  /// bound memory directly — no copy — so a serving cache can share one
  /// decoded layer across sessions. The memory must stay valid and unchanged
  /// until unbind_weights(); backward() is inference-only while bound and
  /// throws std::logic_error.
  void bind_weights(std::span<const float> weights,
                    std::span<const float> bias = {});
  void unbind_weights() { bound_w_ = {}; bound_b_ = {}; }
  bool has_bound_weights() const { return bound_w_.data() != nullptr; }

 private:
  /// Fills dw_/db_; returns dx only when `want_dx`.
  Tensor backward_impl(const Tensor& dy, bool want_dx);

  std::int64_t in_, out_;
  Tensor w_, b_, dw_, db_;
  std::optional<std::vector<float>> mask_;
  std::span<const float> bound_w_, bound_b_;
  Tensor cached_x_;
};

/// 2-D convolution (square kernel), im2col + GEMM implementation.
class Conv2D : public Layer {
 public:
  Conv2D(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = 0);

  std::string kind() const override { return "conv"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

  Tensor& weight() { return w_; }
  std::int64_t out_channels() const { return out_c_; }

 private:
  /// Fills dw_/db_; returns dx only when `want_dx`.
  Tensor backward_impl(const Tensor& dy, bool want_dx);

  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_;
};

/// Max pooling (square window).
class MaxPool2D : public Layer {
 public:
  MaxPool2D(std::int64_t kernel, std::int64_t stride);

  std::string kind() const override { return "maxpool"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::int64_t kernel_, stride_;
  std::vector<std::int64_t> argmax_;
  std::vector<std::int64_t> in_shape_;
};

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  std::string kind() const override { return "relu"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::vector<std::uint8_t> active_;
};

/// Collapses [N, ...] to [N, features].
class Flatten : public Layer {
 public:
  std::string kind() const override { return "flatten"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::vector<std::int64_t> in_shape_;
};

/// Inverted dropout; identity at inference.
class Dropout : public Layer {
 public:
  explicit Dropout(double p, std::uint64_t seed = 0x5eed);

  std::string kind() const override { return "dropout"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  double p_;
  util::Pcg32 rng_;
  std::vector<float> mask_;
};

/// Local response normalization across channels (AlexNet):
/// y_i = x_i / (k + alpha/n * sum_{j in window(i)} x_j^2)^beta.
class LRN : public Layer {
 public:
  LRN(std::int64_t local_size = 5, double alpha = 1e-4, double beta = 0.75,
      double k = 1.0);

  std::string kind() const override { return "lrn"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::int64_t local_size_;
  double alpha_, beta_, k_;
  Tensor cached_x_, cached_den_;  // den = k + alpha/n * window sum of squares
};

}  // namespace deepsz::nn
