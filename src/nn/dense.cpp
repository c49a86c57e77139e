#include <stdexcept>

#include "nn/layers.h"
#include "tensor/gemm.h"

namespace deepsz::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features)
    : in_(in_features),
      out_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      dw_({out_features, in_features}),
      db_({out_features}) {
  set_name("dense");
}

void Dense::bind_weights(std::span<const float> weights,
                         std::span<const float> bias) {
  if (static_cast<std::int64_t>(weights.size()) != w_.numel()) {
    throw std::invalid_argument("Dense::bind_weights: weight size mismatch");
  }
  if (!bias.empty() && static_cast<std::int64_t>(bias.size()) != b_.numel()) {
    throw std::invalid_argument("Dense::bind_weights: bias size mismatch");
  }
  bound_w_ = weights;
  bound_b_ = bias;
}

void Dense::set_mask(std::vector<float> mask) {
  if (static_cast<std::int64_t>(mask.size()) != w_.numel()) {
    throw std::invalid_argument("Dense::set_mask: size mismatch");
  }
  mask_ = std::move(mask);
  // Zero the pruned weights immediately.
  for (std::int64_t i = 0; i < w_.numel(); ++i) {
    w_[i] *= (*mask_)[i];
  }
}

Tensor Dense::forward(const Tensor& x, bool train) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: bad input shape " +
                                x.shape_str());
  }
  const std::int64_t n = x.dim(0);
  // Bound (externally owned) weights take precedence over the layer's own
  // storage; see bind_weights().
  const float* w = has_bound_weights() ? bound_w_.data() : w_.data();
  const float* b = bound_b_.empty() ? b_.data() : bound_b_.data();
  Tensor y({n, out_});
  // y = x W^T (+ b): gemm_nt with B stored as [out, in].
  tensor::gemm_nt(n, out_, in_, x.data(), w, y.data());
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = y.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) row[j] += b[j];
  }
  if (train) cached_x_ = x;
  return y;
}

Tensor Dense::backward(const Tensor& dy) { return backward_impl(dy, true); }

void Dense::backward_params(const Tensor& dy) { backward_impl(dy, false); }

Tensor Dense::backward_impl(const Tensor& dy, bool want_dx) {
  if (has_bound_weights()) {
    throw std::logic_error(
        "Dense::backward: layer serves bound (inference-only) weights");
  }
  const std::int64_t n = dy.dim(0);
  if (cached_x_.numel() == 0 || cached_x_.dim(0) != n) {
    throw std::runtime_error("Dense::backward without matching forward");
  }
  // dW = dy^T x  (dy is [n, out], x is [n, in]).
  dw_.fill(0.0f);
  tensor::gemm_tn(out_, in_, n, dy.data(), cached_x_.data(), dw_.data());
  // db = column sums of dy.
  db_.fill(0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = dy.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) db_[j] += row[j];
  }
  // Frozen (pruned) weights receive no gradient.
  if (mask_) {
    for (std::int64_t i = 0; i < dw_.numel(); ++i) {
      dw_[i] *= (*mask_)[i];
    }
  }
  if (!want_dx) return {};
  // dx = dy W.
  Tensor dx({n, in_});
  tensor::gemm(n, in_, out_, dy.data(), w_.data(), dx.data());
  return dx;
}

}  // namespace deepsz::nn
