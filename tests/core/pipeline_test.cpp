#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "compress/registry.h"
#include "compress/session.h"
#include "core/accuracy.h"
#include "data/weight_synthesis.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "util/rng.h"

namespace deepsz::core {
namespace {

/// A small separable task + MLP that trains in milliseconds.
struct E2EFixture {
  nn::Network net{"e2e"};
  nn::Tensor train_x, test_x;
  std::vector<int> train_y, test_y;

  E2EFixture() {
    util::Pcg32 rng(21);
    auto make_split = [&](std::int64_t n, nn::Tensor& x, std::vector<int>& y) {
      x = nn::Tensor({n, 16});
      y.resize(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        int cls = static_cast<int>(i % 4);
        y[static_cast<std::size_t>(i)] = cls;
        for (int j = 0; j < 16; ++j) {
          double center = (j % 4 == cls) ? 1.5 : -0.5;
          x[i * 16 + j] = static_cast<float>(rng.normal(center, 0.4));
        }
      }
    };
    make_split(512, train_x, train_y);
    make_split(1024, test_x, test_y);

    net.add<nn::Dense>(16, 64)->set_name("fc1");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(64, 32)->set_name("fc2");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(32, 4)->set_name("fc3");
    nn::he_initialize(net, 33);
    nn::Sgd sgd({.lr = 0.05, .momentum = 0.9, .weight_decay = 0.0,
                 .batch_size = 32});
    util::Pcg32 shuffle(55);
    for (int e = 0; e < 8; ++e) {
      sgd.train_epoch(net, train_x, train_y, shuffle);
    }
  }
};

/// The four-step pipeline through a "deepsz" CompressionSession.
compress::CompressReport compress_deepsz(E2EFixture& f,
                                         compress::CompressSpec spec) {
  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), f.net,
      f.train_x, f.train_y, f.test_x, f.test_y, std::move(spec));
  return session.run();
}

TEST(Pipeline, EndToEndExpectedAccuracyMode) {
  E2EFixture f;
  compress::CompressSpec opts;
  opts.prune.keep_ratio = {{"fc1", 0.3}, {"fc2", 0.3}, {"fc3", 0.5}};
  opts.prune.retrain_epochs = 3;
  opts.expected_acc_loss = 0.02;
  opts.assessment.coarse_grid = {1e-3, 1e-2, 1e-1};
  // This fixture's weights are O(0.3), far larger than a trained ImageNet
  // network's; keep dW << W (the linearity precondition) by capping bounds
  // proportionally tighter than the paper's 0.1.
  opts.assessment.max_eb = 0.05;

  auto report = compress_deepsz(f, opts);

  // The trained baseline must be good for the experiment to mean anything.
  EXPECT_GT(report.acc_original.top1, 0.9);
  // Pruning+retraining keeps accuracy close.
  EXPECT_GT(report.acc_pruned.top1, report.acc_original.top1 - 0.05);
  // The decoded model respects the expected accuracy loss (with slack for
  // the finite test set and the linearity approximation).
  EXPECT_GE(report.acc_decoded.top1,
            report.acc_pruned.top1 - opts.expected_acc_loss - 0.03);
  // And it actually compresses: far beyond the pruning ratio alone.
  EXPECT_GT(report.compression_ratio, 5.0);
  EXPECT_EQ(report.chosen.choices.size(), 3u);
  EXPECT_GT(report.model.bytes.size(), 0u);
  EXPECT_LT(report.model.compressed_payload_bytes(), report.csr_bytes);
}

TEST(Pipeline, ExpectedRatioModeHitsSizeBudget) {
  E2EFixture f;
  compress::CompressSpec opts;
  opts.prune.keep_ratio = {{"fc1", 0.3}, {"fc2", 0.3}, {"fc3", 0.5}};
  opts.prune.retrain_epochs = 2;
  opts.expected_acc_loss = 0.05;  // assessment walks far enough
  opts.target_ratio = 8.0;

  auto report = compress_deepsz(f, opts);
  const auto budget = static_cast<std::size_t>(report.dense_fc_bytes / 8.0);
  // SZ data payload must fit the requested budget.
  EXPECT_LE(report.chosen.total_bytes, budget + 1);

  // The DP's plan must also hold for the container actually emitted: the
  // encoder re-compresses at the chosen bounds, so the data streams written
  // to the wire are exactly the sizes the optimizer budgeted for.
  std::size_t emitted_data_bytes = 0;
  for (const auto& s : report.model.stats) emitted_data_bytes += s.data_bytes;
  EXPECT_EQ(emitted_data_bytes, report.chosen.total_bytes);
  EXPECT_LE(emitted_data_bytes, budget + 1);

  // And the emitted container round-trips: decodes cleanly, and a fresh
  // network loaded from it reproduces the reported decoded accuracy.
  auto decoded = decode_model(report.model.bytes);
  ASSERT_EQ(decoded.layers.size(), 3u);
  for (const auto& l : decoded.layers) {
    EXPECT_EQ(l.data.size(), l.index.size());
    EXPECT_GT(l.data.size(), 0u);
  }
  nn::Network fresh("ratio-fresh");
  fresh.add<nn::Dense>(16, 64)->set_name("fc1");
  fresh.add<nn::ReLU>();
  fresh.add<nn::Dense>(64, 32)->set_name("fc2");
  fresh.add<nn::ReLU>();
  fresh.add<nn::Dense>(32, 4)->set_name("fc3");
  load_compressed_model(report.model.bytes, fresh);
  auto acc = nn::evaluate(fresh, f.test_x, f.test_y);
  EXPECT_DOUBLE_EQ(acc.top1, report.acc_decoded.top1);
}

TEST(Pipeline, ThrowsWithoutPrunedLayers) {
  E2EFixture f;
  compress::CompressSpec opts;  // no keep_ratio entries
  EXPECT_THROW(compress_deepsz(f, opts), std::invalid_argument);
}

TEST(Pipeline, CompressedModelReloadsIntoFreshNetwork) {
  E2EFixture f;
  compress::CompressSpec opts;
  opts.prune.keep_ratio = {{"fc1", 0.3}, {"fc2", 0.3}, {"fc3", 0.5}};
  opts.prune.retrain_epochs = 2;
  opts.expected_acc_loss = 0.02;
  auto report = compress_deepsz(f, opts);

  // A second, architecturally identical network loads the encoded model and
  // reproduces the decoded accuracy exactly (decode is deterministic).
  nn::Network fresh("fresh");
  fresh.add<nn::Dense>(16, 64)->set_name("fc1");
  fresh.add<nn::ReLU>();
  fresh.add<nn::Dense>(64, 32)->set_name("fc2");
  fresh.add<nn::ReLU>();
  fresh.add<nn::Dense>(32, 4)->set_name("fc3");
  // Weights AND biases come from the container; nothing is copied manually.
  load_compressed_model(report.model.bytes, fresh);
  auto acc = nn::evaluate(fresh, f.test_x, f.test_y);
  EXPECT_DOUBLE_EQ(acc.top1, report.acc_decoded.top1);
}

TEST(Pipeline, RepeatedLoadsAreIdempotent) {
  E2EFixture f;
  PruneConfig cfg;
  cfg.keep_ratio = {{"fc1", 0.3}, {"fc2", 0.4}, {"fc3", 0.6}};
  cfg.retrain_epochs = 0;
  prune_and_retrain(f.net, f.train_x, f.train_y, cfg);
  auto layers = extract_pruned_layers(f.net);
  std::map<std::string, std::vector<float>> biases;
  for (const auto& l : layers) {
    biases[l.name] =
        std::vector<float>(static_cast<std::size_t>(l.rows), 0.5f);
  }
  auto model = encode_model(layers, {}, ContainerOptions{}, biases);

  auto snapshot = [&](nn::Network& net) {
    std::vector<float> all;
    for (auto* d : net.dense_layers()) {
      all.insert(all.end(), d->weight().flat().begin(),
                 d->weight().flat().end());
      all.insert(all.end(), d->bias().flat().begin(),
                 d->bias().flat().end());
    }
    return all;
  };

  load_compressed_model(model.bytes, f.net);
  const auto after_first = snapshot(f.net);
  load_compressed_model(model.bytes, f.net);
  // Idempotent: loading onto an already-loaded network changes nothing.
  EXPECT_EQ(snapshot(f.net), after_first);

  // Idempotent also across a serving session that left weights bound: the
  // bound span would otherwise shadow the copied-in values at forward time.
  auto* fc1 = f.net.find_dense("fc1");
  const std::vector<float> decoy(
      static_cast<std::size_t>(fc1->weight().numel()), 123.0f);
  fc1->bind_weights(decoy);
  load_compressed_model(model.bytes, f.net);
  EXPECT_FALSE(fc1->has_bound_weights());
  EXPECT_EQ(snapshot(f.net), after_first);
  auto out = f.net.forward(f.test_x);  // forward sees the loaded weights,
  EXPECT_EQ(out.dim(0), f.test_x.dim(0));  // not the stale binding

  // Even a layer the container does NOT cover is put back on its own
  // storage: fc3 is bound, then a container holding only fc1/fc2 loads.
  auto partial =
      encode_model({layers[0], layers[1]}, {}, ContainerOptions{}, biases);
  auto* fc3 = f.net.find_dense("fc3");
  const std::vector<float> decoy3(
      static_cast<std::size_t>(fc3->weight().numel()), -7.0f);
  fc3->bind_weights(decoy3);
  load_compressed_model(partial.bytes, f.net);
  EXPECT_FALSE(fc3->has_bound_weights());
  EXPECT_EQ(snapshot(f.net), after_first);
}

TEST(Pipeline, BiasSizeMismatchWarnsForDenseButThrowsForCodebook) {
  // A wrong-length bias is recoverable on the dense path (the layer keeps
  // its own bias; the operator gets a warning) but unservable on the
  // compressed-domain path — a codebook layer's bias feeds straight into
  // the forward kernel with no fallback — so a "dc" container must refuse
  // to load instead of failing later at serving time.
  auto make_net = [] {
    nn::Network net("bias-check");
    net.add<nn::Dense>(16, 8)->set_name("fc1");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(8, 4)->set_name("fc2");
    nn::he_initialize(net, 17);
    return net;
  };
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc1", 8, 16, 0.4, 61));
  layers.push_back(data::synthesize_pruned_layer("fc2", 4, 8, 0.5, 62));
  std::map<std::string, std::vector<float>> bad_biases = {
      {"fc1", std::vector<float>(7, 0.5f)}};  // fc1 has 8 rows, not 7

  auto bias_of = [](nn::Network& net, const char* name) {
    auto s = net.find_dense(name)->bias().flat();
    return std::vector<float>(s.begin(), s.end());
  };

  // Dense-form container: loads, warns, keeps fc1's own bias.
  {
    auto model = encode_model(layers, {}, ContainerOptions{}, bad_biases);
    auto net = make_net();
    const auto before = bias_of(net, "fc1");
    load_compressed_model(model.bytes, net);
    EXPECT_EQ(bias_of(net, "fc1"), before);
  }

  // Codebook-form ("dc") container: the same mismatch is a hard error.
  {
    ContainerOptions copts;
    copts.data_codec = "dc:bits=4,iters=8";
    copts.index_codec = "huffman";
    auto model = encode_model(layers, {}, copts, bad_biases);
    auto net = make_net();
    try {
      load_compressed_model(model.bytes, net);
      FAIL() << "wrong-length bias on a codebook container accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bias for codebook layer"),
                std::string::npos)
          << e.what();
    }
    // A correctly sized bias through the same codec loads fine.
    std::map<std::string, std::vector<float>> good = {
        {"fc1", std::vector<float>(8, 0.5f)}};
    auto ok_model = encode_model(layers, {}, copts, good);
    auto net2 = make_net();
    load_compressed_model(ok_model.bytes, net2);
    EXPECT_EQ(bias_of(net2, "fc1"), std::vector<float>(8, 0.5f));
  }
}

TEST(Oracles, CachedHeadMatchesFullPass) {
  E2EFixture f;
  FullPassOracle full(f.net, f.test_x, f.test_y);
  CachedHeadOracle cached(f.net, f.test_x, f.test_y);
  EXPECT_DOUBLE_EQ(cached.top1(), full.top1());
  // Perturb an fc weight: both oracles must see the same new accuracy.
  auto* fc1 = f.net.find_dense("fc1");
  for (std::int64_t i = 0; i < fc1->weight().numel(); i += 3) {
    fc1->weight()[i] += 0.3f;
  }
  EXPECT_DOUBLE_EQ(cached.top1(), full.top1());
}

TEST(Oracles, CachedHeadTrunkSplit) {
  E2EFixture f;
  CachedHeadOracle oracle(f.net, f.test_x, f.test_y);
  // First layer is Dense, so the trunk is empty for a pure MLP.
  EXPECT_EQ(oracle.trunk_layers(), 0u);
}

TEST(Pruner, AchievesRatiosAndFreezesZeros) {
  E2EFixture f;
  PruneConfig cfg;
  cfg.keep_ratio = {{"fc1", 0.25}};
  cfg.retrain_epochs = 2;
  auto report = prune_and_retrain(f.net, f.train_x, f.train_y, cfg);
  ASSERT_EQ(report.layers.size(), 1u);
  EXPECT_EQ(report.layers[0].layer, "fc1");
  double actual = static_cast<double>(report.layers[0].nonzeros) /
                  (report.layers[0].rows * report.layers[0].cols);
  EXPECT_NEAR(actual, 0.25, 0.02);

  // After masked retraining, pruned weights are still zero.
  auto* fc1 = f.net.find_dense("fc1");
  std::size_t nnz = 0;
  for (float w : fc1->weight().flat()) {
    if (w != 0.0f) ++nnz;
  }
  double after = static_cast<double>(nnz) / fc1->weight().numel();
  EXPECT_NEAR(after, 0.25, 0.02);
}

TEST(Pruner, ExtractAndReloadRoundTrip) {
  E2EFixture f;
  PruneConfig cfg;
  cfg.keep_ratio = {{"fc1", 0.3}, {"fc2", 0.4}};
  cfg.retrain_epochs = 0;
  prune_and_retrain(f.net, f.train_x, f.train_y, cfg);
  auto layers = extract_pruned_layers(f.net);
  ASSERT_EQ(layers.size(), 2u);

  auto* fc1 = f.net.find_dense("fc1");
  std::vector<float> original(fc1->weight().flat().begin(),
                              fc1->weight().flat().end());
  // Zero the layer, reload, compare.
  fc1->weight().fill(0.0f);
  load_layers_into_network(layers, f.net);
  std::vector<float> reloaded(fc1->weight().flat().begin(),
                              fc1->weight().flat().end());
  EXPECT_EQ(reloaded, original);
}

}  // namespace
}  // namespace deepsz::core
