#include <algorithm>
#include <stdexcept>

#include "nn/layers.h"
#include "tensor/gemm.h"
#include "util/threadpool.h"

namespace deepsz::nn {

Conv2D::Conv2D(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      w_({out_channels, in_channels * kernel * kernel}),
      b_({out_channels}),
      dw_({out_channels, in_channels * kernel * kernel}),
      db_({out_channels}) {
  set_name("conv");
}

Tensor Conv2D::forward(const Tensor& x, bool train) {
  if (x.ndim() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2D::forward: bad input shape " +
                                x.shape_str());
  }
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * pad_ - kernel_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("Conv2D::forward: kernel larger than input");
  }
  const std::int64_t col_rows = in_c_ * kernel_ * kernel_;
  const std::int64_t col_cols = oh * ow;

  Tensor y({n, out_c_, oh, ow});
  // Samples are independent: parallelize the batch dimension.
  util::parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t i) {
    std::vector<float> cols(static_cast<std::size_t>(col_rows * col_cols));
    tensor::im2col(x.data() + i * in_c_ * h * w, in_c_, h, w, kernel_, stride_,
                   pad_, cols.data());
    float* yi = y.data() + i * out_c_ * col_cols;
    tensor::gemm(out_c_, col_cols, col_rows, w_.data(), cols.data(), yi);
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      float bias = b_[oc];
      float* orow = yi + oc * col_cols;
      for (std::int64_t p = 0; p < col_cols; ++p) orow[p] += bias;
    }
  });
  if (train) cached_x_ = x;
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) { return backward_impl(dy, true); }

void Conv2D::backward_params(const Tensor& dy) { backward_impl(dy, false); }

Tensor Conv2D::backward_impl(const Tensor& dy, bool want_dx) {
  const Tensor& x = cached_x_;
  if (x.numel() == 0) {
    throw std::runtime_error("Conv2D::backward without forward");
  }
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = dy.dim(2), ow = dy.dim(3);
  const std::int64_t col_rows = in_c_ * kernel_ * kernel_;
  const std::int64_t col_cols = oh * ow;
  const auto col_size = static_cast<std::size_t>(col_rows * col_cols);

  dw_.fill(0.0f);
  db_.fill(0.0f);
  std::vector<float> cols(col_size);
  // Serial over samples: dW/db accumulate across the batch in sample order.
  for (std::int64_t i = 0; i < n; ++i) {
    const float* dyi = dy.data() + i * out_c_ * col_cols;
    tensor::im2col(x.data() + i * in_c_ * h * w, in_c_, h, w, kernel_, stride_,
                   pad_, cols.data());
    // dW += dy_i * cols^T.
    tensor::gemm_nt(out_c_, col_rows, col_cols, dyi, cols.data(), dw_.data());
    // db += row sums of dy_i.
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      const float* row = dyi + oc * col_cols;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < col_cols; ++p) acc += row[p];
      db_[oc] += acc;
    }
  }
  if (!want_dx) return {};

  // dcols = W^T * dy_i, then scatter back to input coordinates. Each sample
  // writes only its own slice of dx, so samples run in parallel.
  Tensor dx({n, in_c_, h, w});
  auto samples = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> dcols(col_size);
    for (std::size_t i = lo; i < hi; ++i) {
      std::fill(dcols.begin(), dcols.end(), 0.0f);
      tensor::gemm_tn(col_rows, col_cols, out_c_, w_.data(),
                      dy.data() + i * out_c_ * col_cols, dcols.data());
      tensor::col2im(dcols.data(), in_c_, h, w, kernel_, stride_, pad_,
                     dx.data() + i * in_c_ * h * w);
    }
  };
  util::parallel_for_chunks(0, static_cast<std::size_t>(n), samples, 1);
  return dx;
}

}  // namespace deepsz::nn
