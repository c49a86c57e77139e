#include "nn/network.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "nn/init.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/rng.h"

namespace deepsz::nn {
namespace {

Network tiny_mlp() {
  Network net("tiny");
  net.add<Flatten>();
  net.add<Dense>(8, 16)->set_name("fc1");
  net.add<ReLU>();
  net.add<Dense>(16, 4)->set_name("fc2");
  return net;
}

TEST(Network, ForwardShape) {
  auto net = tiny_mlp();
  Tensor x({5, 8});
  auto y = net.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{5, 4}));
}

TEST(Network, DenseLayersInOrder) {
  auto net = tiny_mlp();
  auto dense = net.dense_layers();
  ASSERT_EQ(dense.size(), 2u);
  EXPECT_EQ(dense[0]->name(), "fc1");
  EXPECT_EQ(dense[1]->name(), "fc2");
  EXPECT_NE(net.find_dense("fc2"), nullptr);
  EXPECT_EQ(net.find_dense("nope"), nullptr);
}

TEST(Network, ParamCount) {
  auto net = tiny_mlp();
  EXPECT_EQ(net.param_count(), 8 * 16 + 16 + 16 * 4 + 4);
}

TEST(Network, SaveLoadRoundTrip) {
  auto net = tiny_mlp();
  he_initialize(net, 7);
  auto path = (std::filesystem::temp_directory_path() / "dsz_net_test.bin").string();
  net.save(path);

  auto net2 = tiny_mlp();
  net2.load(path);
  auto p1 = net.params();
  auto p2 = net2.params();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    for (std::int64_t j = 0; j < p1[i]->numel(); ++j) {
      ASSERT_FLOAT_EQ((*p1[i])[j], (*p2[i])[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(Network, LoadWrongArchitectureThrows) {
  auto net = tiny_mlp();
  he_initialize(net, 7);
  auto path = (std::filesystem::temp_directory_path() / "dsz_net_test2.bin").string();
  net.save(path);
  Network other("other");
  other.add<Dense>(8, 8);
  EXPECT_THROW(other.load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Network, HeInitScalesWithFanIn) {
  Network net("init");
  net.add<Dense>(10000, 4)->set_name("big");
  he_initialize(net, 3);
  auto* d = net.find_dense("big");
  double sumsq = 0;
  for (std::int64_t i = 0; i < d->weight().numel(); ++i) {
    sumsq += d->weight()[i] * d->weight()[i];
  }
  double var = sumsq / d->weight().numel();
  EXPECT_NEAR(var, 2.0 / 10000.0, 0.3 * 2.0 / 10000.0);
}

/// Network::backward skips the first parameterized layer's input gradient;
/// every layer's parameter gradients must still equal, bit for bit, those of
/// a full backward that computes it.
void expect_backward_matches_full(Network& net, const Tensor& x) {
  he_initialize(net, 21);
  util::Pcg32 rng(22);
  Tensor y = net.forward(x, /*train=*/true);
  Tensor dloss(y.shape());
  for (std::int64_t i = 0; i < dloss.numel(); ++i) {
    dloss[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  net.backward(dloss);
  std::vector<Tensor> skipped;
  for (auto* g : net.grads()) skipped.push_back(*g);

  Tensor cur = dloss;
  for (auto it = net.layers().rbegin(); it != net.layers().rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  EXPECT_EQ(cur.shape(), x.shape());  // a layer called directly returns dx
  auto full = net.grads();
  ASSERT_EQ(full.size(), skipped.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(full[i]->shape(), skipped[i].shape());
    EXPECT_EQ(std::memcmp(full[i]->data(), skipped[i].data(),
                          sizeof(float) * full[i]->numel()),
              0)
        << "grad " << i;
  }
}

TEST(Network, BackwardSkippingFirstInputGradientKeepsParamGrads) {
  Network conv("conv");
  conv.add<Conv2D>(2, 4, 3, 1, 1);
  conv.add<ReLU>();
  conv.add<MaxPool2D>(2, 2);
  conv.add<Conv2D>(4, 6, 3);
  conv.add<Flatten>();
  conv.add<Dense>(6 * 2 * 2, 8);
  conv.add<ReLU>();
  conv.add<Dense>(8, 3);
  Tensor images({5, 2, 8, 8});
  util::Pcg32 rng(23);
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    images[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  expect_backward_matches_full(conv, images);

  auto mlp = tiny_mlp();  // Flatten first: the skip starts at fc1
  Tensor rows({7, 8});
  for (std::int64_t i = 0; i < rows.numel(); ++i) {
    rows[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  expect_backward_matches_full(mlp, rows);
}

TEST(Training, LossDecreasesOnSeparableTask) {
  // Two Gaussian blobs in 8-D: trivially separable.
  util::Pcg32 rng(11);
  const std::int64_t n = 256;
  Tensor x({n, 8});
  std::vector<int> y(n);
  for (std::int64_t i = 0; i < n; ++i) {
    int cls = static_cast<int>(i % 2);
    y[i] = cls;
    for (int j = 0; j < 8; ++j) {
      x[i * 8 + j] = static_cast<float>(rng.normal(cls == 0 ? -1.0 : 1.0, 0.5));
    }
  }
  Network net("sep");
  net.add<Dense>(8, 16);
  net.add<ReLU>();
  net.add<Dense>(16, 2);
  he_initialize(net, 5);

  Sgd sgd({.lr = 0.1, .momentum = 0.9, .weight_decay = 0.0, .batch_size = 32});
  util::Pcg32 shuffle_rng(17);
  double first = sgd.train_epoch(net, x, y, shuffle_rng);
  double last = first;
  for (int e = 0; e < 5; ++e) {
    last = sgd.train_epoch(net, x, y, shuffle_rng);
  }
  EXPECT_LT(last, first * 0.5);
  auto acc = evaluate(net, x, y);
  EXPECT_GT(acc.top1, 0.95);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue) {
  auto logits = Tensor::from({1, 2}, {0.0f, 0.0f});
  std::vector<int> labels = {0};
  double loss = softmax_cross_entropy(logits, labels, nullptr);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  util::Pcg32 rng(13);
  Tensor logits({3, 5});
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.uniform(-2, 2));
  }
  std::vector<int> labels = {0, 3, 4};
  Tensor dlogits;
  softmax_cross_entropy(logits, labels, &dlogits);
  for (int r = 0; r < 3; ++r) {
    double sum = 0;
    for (int c = 0; c < 5; ++c) sum += dlogits[r * 5 + c];
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  util::Pcg32 rng(15);
  Tensor logits({2, 4});
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  std::vector<int> labels = {2, 0};
  Tensor dlogits;
  softmax_cross_entropy(logits, labels, &dlogits);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    double numeric = (softmax_cross_entropy(lp, labels, nullptr) -
                      softmax_cross_entropy(lm, labels, nullptr)) /
                     (2.0 * eps);
    EXPECT_NEAR(dlogits[i], numeric, 1e-3);
  }
}

TEST(Loss, TopKCounting) {
  auto logits = Tensor::from({2, 6}, {5, 4, 3, 2, 1, 0,   // label 5: not in top-5? it is 6th
                                      0, 1, 2, 3, 4, 5});  // label 0: 6th
  auto hits = count_hits(logits, {5, 5});
  EXPECT_EQ(hits.total, 2);
  EXPECT_EQ(hits.top1, 1);   // row 1 predicts 5 correctly
  EXPECT_EQ(hits.top5, 1);   // row 0's label 5 ranks 6th
}

TEST(Evaluate, SliceBatchExtractsRows) {
  auto x = Tensor::from({3, 2}, {1, 2, 3, 4, 5, 6});
  auto s = slice_batch(x, 1, 3);
  EXPECT_EQ(s.shape(), (std::vector<std::int64_t>{2, 2}));
  EXPECT_FLOAT_EQ(s[0], 3);
  EXPECT_FLOAT_EQ(s[3], 6);
  EXPECT_THROW(slice_batch(x, 2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace deepsz::nn
